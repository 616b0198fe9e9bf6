"""Permutation-group engine: stabilizer chains, membership, actions, products.

Groups are immutable once constructed; all queries after construction are
read-only, so Group objects can be shared freely between workers.  Chains are
built deterministically by incremental Schreier-Sims: the base is kept in
point order, each level's orbit grows in place in discovery order as the
level gains generators, and each (orbit point, generator) Schreier pair is
handled once.  Orders, transversals and everything derived from them are
reproducible run to run.  Level i of a chain is the pointwise stabilizer of
every point below its base point, so the base is the group's lex base,
whatever its generators.  Every sorted walk down a chain is ``_descend``:
a group's elements (``Group._lex_walk``) and the least non-identity one
(``structure.simple_factors``).  A coset's least member, the first leaf
of such a walk, is taken greedily (``coset_canonical``).  Only
this module builds, holds or reads a chain, so ``is_transitive``,
``is_primitive`` and the generation test ``_generates`` live here.  One loop,
``_grown``, extends a chain by a stream until its order hits a stop: kept
generators' conjugates (``_normal_closure``) or Schreier generators.
On at most 256 points a chain composes bytes with ``bytes.translate`` over
256-byte tables, in C and without building a getter per product; above 256
points it composes tuples with ``perm._mul``.  Both run the same loops and
give the same chain (see ``_Chain``); its readers compose the same way.

One certificate, ``_jordan``, proves that generators transitive on the 5
or more points omega they move generate Alt(omega) or more, by Jordan's
theorem on two witnesses found in a fixed sequence of product-replacement
draws: a prime cycle longer than |omega|/2 (primitivity) and a power that
is a short prime cycle.  Two readers use it.  A new group on 8 or more
points (``Group._setup``) offers it the first transitive prefix of its
generators that shows no blocks (``_transitive_prefix``; every wreath
product's generators show them), when every later generator lies in the
prefix's group by the closed form below.  A certified group acts by the
prefix, has order |omega|! or |omega|!/2, and keeps no chain until one is
read; that chain is written down (``_giant_chain``) with the base and
orbits Schreier-Sims would give.  Below 8 points no offer is made.  The
generation test ``_generates``, when G is Alt or Sym of its 5 or more
points (``Group._alt_or_sym``, read off |G|), asks it of the tuple itself
and builds no chain.  Chain builds (``_build_chain``) are plain
Schreier-Sims.  The record of the group, not a chain, answers membership
in closed form: p lies in Sym(omega) iff it fixes every point outside
omega, and in Alt(omega) iff it also is even (Dixon-Mortimer, 1996, Thm
3.3E), so ``contains`` sifts no level of any Alt or Sym.

A group acts only by the given generators that extended its chain, or by
a certified prefix, since the others would multiply the work of every
orbit, Schreier, coset and closure loop and add nothing (``Group._setup``).
Its conjugation tables under those generators are its one element index
(``Group._element_index``), shared by the conjugacy classes and the
subgroup lattice.

Every action is walked by one layer: ``_walk`` for one orbit with its action
table (cosets, id sets of subgroups, and the orbit-stabilizer of
``_schreier_generators``), ``_orbits`` for a partition into orbits (classes,
centralizer orbits), and ``_conjugations`` for the maps x -> g^-1 x g by
which a group acts on its elements, each one product and one prepared gather.
The one orbit walked elsewhere is a socle's simple factors under G
(``structure.simple_factors``): a factor has no hashable key to look up,
so a conjugate is matched by membership in the factors found so far.
``_stabilizer`` turns an orbit of a group into its stabilizer, again a group.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterable
from functools import cached_property, lru_cache, partial
from math import factorial
from operator import itemgetter

from .perm import (_TABLE_ID, BOUNDS, BoundExceeded, Permutation, _check_bound, _check_degree,
                   _identity, _inv, _mul, _odd, is_prime)


class _Chain:
    """Mutable stabilizer chain used during construction (Schreier-Sims),
    or written down whole for a certified Alt or Sym (``_giant_chain``),
    which nothing extends.

    Level i holds the i-th stabilizer group.  ``levels[i]`` pairs its base
    point with its one transversal, a dict from each orbit point to the
    inverse of a representative carrying the base point there: all a sift
    reads; every other reader applies them inverted, by ``inv`` and ``mul``.
    ``gens[i]`` are the strong generators fixing ``base[:i]``.  A new
    inverse representative is the inverse of ``rep * g``, the product that
    found its point (Seress, *Permutation Group Algorithms*, 2003, ch. 4).

    Elements are encoded once, by degree.  Up to 256 points a working
    element (a residue, a representative being extended) is ``bytes`` of
    length ``degree``, and the right-hand factors, ``gens`` and the inverse
    representatives, are stored as 256-byte translate tables: the images,
    then the fixed points degree..255 (``tail``).  The product p*q is then
    ``p.translate(table_q)``, composed in C without building a getter per
    product, and the inverse of a table is ``bytes.maketrans(table,
    identity)``.  Above 256 points the same code runs on tuples, with
    ``_mul`` and ``_tuple_inv``.  Either way ``p[b]`` reads an image, and
    a table cut to ``degree`` is a working element.

    Orbits grow in place: ``levels[i]`` keeps its points in discovery
    order, and a point keeps its representative once found.  A scan of a level
    starts with the Schreier pairs of every point and every generator but
    the last done (``_schreier_sims``), so each pair is handled once however
    often the level gains generators.
    The base is kept in ascending point order, and every strong generator at
    level i fixes every point below ``base[i]`` (``_add``).  So level i's
    group is the pointwise stabilizer of all points below ``base[i]``, and
    ``base`` is the group's lex base: the points q moved by some element
    fixing every point below q, the same for every generating set.
    """

    __slots__ = ("ident", "one", "tail", "enc", "mul", "inv", "gens", "levels")

    def __init__(self, degree):
        self.ident = _identity(degree)
        self.enc, self.mul, self.inv, self.tail = _codec(self.ident)
        self.one = self.enc(self.ident)  # the identity as a working element
        self.gens = []
        self.levels = []  # (base point, {point: inverse representative})

    @property
    def base(self):
        return [b for b, _ in self.levels]

    def order(self):
        n = 1
        for _, itr in self.levels:
            n *= len(itr)
        return n

    def sift(self, p):
        """Whether the tuple p lies in the group, by sifting down the levels."""
        return self._sift_from(0, self.enc(p)) == self.one

    def _sift_from(self, start, p):
        mul = self.mul
        for b, itr in (self.levels[start:] if start else self.levels):
            img = p[b]
            if img == b:
                continue
            rep_inv = itr.get(img)
            if rep_inv is None:
                return p
            p = mul(p, rep_inv)
        return p

    def extend(self, p):
        """Add p (raw tuple) to the group; returns True if the group grew."""
        residue = self._sift_from(0, self.enc(p))
        if residue == self.one:
            return False
        self._add(residue, 0)
        return True

    def _add(self, g, top):
        # g, a residue of a sift from level top, goes to the level j >= top
        # of its least moved point, which gets a new level if it is no base
        # point yet; that level starts with the next level's generators,
        # which fix the point, so their Schreier pairs there are done.
        # Register g at levels top..j, then restore the stabilizer invariant
        # from the bottom up.
        moved = next(a for a, b in enumerate(g) if a != b)
        levels = self.levels
        j = bisect_left(levels, moved, key=itemgetter(0))
        if j == len(levels) or levels[j][0] != moved:
            gens = self.gens[j] if j < len(levels) else []
            self.gens.insert(j, gens[:])
            levels.insert(j, (moved, {moved: self.one + self.tail}))
        g += self.tail
        for k in range(top, j + 1):
            self.gens[k].append(g)
        for k in range(j, top - 1, -1):
            self._schreier_sims(k)

    def _schreier_sims(self, i):
        # establish H^(i)_{base[i]} = H^(i+1), assuming it holds at deeper
        # levels.  The points held at the start are closed under every
        # generator but the last, with their pairs done, so they meet only
        # the last; every point found since meets all of them.  Only
        # ``_add`` scans a level, just after appending one generator to it,
        # and a scan adds residues and inserts levels only deeper (at larger
        # indices), so nothing else touches a level or shifts its index
        # between its scans; a new level's copied generators fix its point,
        # so their pairs there are done.  A pair that finds a new point
        # gives a trivial Schreier generator; any other meets one sift, as a
        # known point's representative never changes, and ``gens[i]`` stays
        # fixed during the scan.
        itr = self.levels[i][1]
        mul, inv, one, tail = self.mul, self.inv, self.one, self.tail
        degree = len(one)
        gens = self.gens[i]
        npts, ngens = len(itr), len(gens) - 1
        orbit = list(itr)
        pos = 0
        while pos < len(orbit):
            pt = orbit[pos]
            rep = inv(itr[pt])[:degree]
            for g in (gens[ngens:] if pos < npts else gens):
                img = g[pt]
                rep_g = mul(rep, g)
                if img not in itr:
                    itr[img] = inv(rep_g + tail)
                    orbit.append(img)
                    continue
                residue = self._sift_from(i + 1, mul(rep_g, itr[img]))
                if residue != one:
                    self._add(residue, i + 1)
            pos += 1


def _codec(ident):
    """``(enc, mul, inv, tail)`` of the encoding of a chain on len(ident)
    points (``_Chain``): bytes and 256-byte translate tables up to 256
    points, tuples in ``ident``'s own ints above."""
    if len(ident) <= 256:
        return bytes, bytes.translate, _table_inv, _TABLE_ID[len(ident):]
    return tuple, _mul, partial(_tuple_inv, ident), ()


def _table_inv(t):
    """Inverse of a 256-byte translate table."""
    return bytes.maketrans(t, _TABLE_ID)


def _tuple_inv(ident, p):
    """Inverse of the tuple p in ``ident``'s own ints: above 256, where
    Python shares no ints, fresh ones would double a chain's size."""
    inv = list(ident)
    for i, j in zip(ident, p):
        inv[j] = i
    return tuple(inv)


def _descend(G, prune=None, state=None):
    """G's elements sorted by image tuple, lazily, with no element bound.

    A depth-i node is a coset H_i y = {x in G : x[p] = y[p] for p < b_i},
    with b_i and H_i those of level i of G's chain (the root is G, with y
    the identity).  Its children are H_(i+1) (u y) for the reps u of level
    i, on which x[b_i] = y[u[b_i]], so visiting them by ascending y[u[b_i]]
    yields the elements sorted, G never built.  y is a table of the chain
    (``_Chain``), made a tuple at a leaf.
    ``prune(state, y, lo, hi)`` is called on entering each node strictly
    between the root and the elements, which agree with y below ``hi`` and
    with the parent's y below ``lo``; None skips the node, and anything else
    is the state handed on to its children.
    """
    chain, n = G._chain, G._degree
    mul, inv, levels = chain.mul, chain.inv, chain.levels
    last = len(levels) - 1

    def walk(i, c, state):
        b, itr = levels[i]
        for o in sorted(itr, key=c.__getitem__):
            y = mul(inv(itr[o]), c)
            if i == last:
                yield tuple(y[:n])
                continue
            child = state
            if prune is not None:
                child = prune(state, y, b, levels[i + 1][0])
                if child is None:
                    continue
            yield from walk(i + 1, y, child)

    if not levels:
        yield chain.ident
        return
    yield from walk(0, chain.one + chain.tail, state)


def _build_chain(degree, raw_gens):
    """The chain of <raw_gens> by Schreier-Sims, extended by each generator
    in order, and the generators that extended it, in that order; the others
    lie in the group the earlier ones generate."""
    chain = _Chain(degree)
    return chain, [g for g in raw_gens if chain.extend(g)]


def _certified_giant(degree, raw_gens):
    """``(prefix, order)`` when ``_jordan`` proves the first transitive
    prefix of the tuple raw_gens that shows no blocks (``_transitive_prefix``)
    to generate Alt or Sym of the points omega it moves, Alt iff all of it
    is even, and every later generator lies in that group: it fixes every
    point outside omega and, for Alt, is even.  Else None; the later
    generators are checked first.  The prefix keeps the first of each
    repeated generator, as the group acts by it."""
    found = _transitive_prefix(degree, raw_gens)
    if found is None:
        return None
    k, omega = found
    prefix = tuple(dict.fromkeys(raw_gens[:k]))
    alt = not any(_odd(g) for g in prefix)
    inside = set(omega)
    outside = [a for a in range(degree) if a not in inside]
    for g in raw_gens[k:]:
        if any(g[a] != a for a in outside) or (alt and _odd(g)):
            return None
    if not _jordan(degree, prefix, omega):
        return None
    return prefix, factorial(len(omega)) // (2 if alt else 1)


def _transitive_prefix(degree, raw_gens):
    """``(k, omega)`` for the least k >= 2 such that <raw_gens[:k]> is
    transitive on the points omega it moves, at least 8 of them (ascending),
    or None, also when that prefix shows blocks, and so is no Alt or Sym.

    One union-find takes the generators in order, copied before each to
    keep the earlier generators' orbits.  A prefix is transitive
    on the points it moves exactly when its orbits are its fixed points and
    one more.  Its last generator g shows blocks when the earlier
    generators have two or more orbits on omega and g maps each into one of
    them.  The relation of sharing an earlier orbit is then kept by every
    generator of the prefix (by g^-1 too, a power of g), so the earlier
    orbits are blocks: the prefix is imprimitive on omega, or, if every
    block is a point, the earlier generators are the identity and the
    prefix is cyclic.  Alt(omega) and Sym(omega) on 8 or more points are
    neither.
    """
    if degree < 8:
        return None

    def find(root, a):
        while root[a] != a:
            root[a] = a = root[root[a]]
        return a

    root = list(range(degree))
    moved = set()
    orbits = degree  # of the generators taken so far
    for k, g in enumerate(raw_gens, 1):
        support = [a for a, b in enumerate(g) if a != b]
        moved.update(support)
        # the earlier generators' orbits, and how many of them lie in omega
        earlier, parts = root[:], orbits - (degree - len(moved))
        for a in support:
            r, s = find(root, a), find(root, g[a])
            if r != s:
                root[r] = s
                orbits -= 1
        if k >= 2 and len(moved) >= 8 and orbits == degree - len(moved) + 1:
            if parts > 1:
                label = {a: find(earlier, a) for a in moved}
                image = {}
                if all(image.setdefault(label[a], label[g[a]]) == label[g[a]] for a in moved):
                    return None
            return k, sorted(moved)
    return None


_GIANT_DRAWS = 20  # product-replacement steps of _jordan, two elements tried each


def _jordan(degree, gens, omega) -> bool:
    """Whether a random search proves <gens> >= Alt(omega), where omega,
    ascending, is the set of points the generators move, n = |omega| >= 5,
    and <gens> is transitive on omega; False proves nothing.

    The proof (Jordan's theorem; Dixon-Mortimer, *Permutation Groups*,
    1996, Thm 3.3A and 3.3E) takes two witnesses, which may be two
    elements.  An element x with a cycle of prime length p > n/2 proves
    <gens> primitive: every other cycle of x has length at most n - p < p,
    so prime to p, and x^m, m the lcm of those lengths, is a p-cycle c.  If
    c moves a block of a block system, that block's c-orbit has p > n/2
    blocks, so blocks are points; otherwise c fixes every block, and a
    block holding a point c moves holds its whole cycle, so it has more
    than n/2 points and, its size dividing n, is omega.  An element with
    exactly one cycle of prime length q, its other cycle lengths prime to
    q, has a q-cycle as a power, and a primitive group holding a q-cycle
    contains Alt(omega) when q <= 3 (Thm 3.3A) or q <= n - 3 (Thm 3.3E).
    One element with a prime cycle n/2 < p <= n - 3 is both witnesses.

    The elements are drawn by product replacement (Celler et al., *Comm.
    Algebra* 23, 1995) over the generators and an accumulator, steered by
    a fixed integer sequence, at most ``_GIANT_DRAWS`` steps, and composed
    in the chain encoding (``_codec``), so no ``perm._mul`` runs up to 256
    points.  Two generators a, b get a third slot holding ba (b, then a):
    on two slots every step makes (ab, b) or (a, ba).  Over 300 seeded
    generating pairs of S_n and A_n for each n = 5..14, 16, 20, 24 and 28,
    the third slot left 3 of the 4200 uncertified, where two slots left 92,
    80 of them at n = 6.  One generator, whose group is cyclic, certifies
    nothing.

    The cycle scan is its own loop, not ``perm._cycles``: it walks only
    omega, on the chain's 256-byte tables as well as tuples.
    """
    if len(gens) < 2:
        return False
    n = len(omega)
    long_primes, short_primes = _witness_primes(n)

    def witnesses(x, primitive, short_cycle):
        # the two flags, each set if it was or x is its witness; once only
        # primitivity is wanted, the scan stops when the points left cannot
        # hold a cycle longer than n/2
        left = set(omega)
        lengths = []
        while left and not (short_cycle and 2 * len(left) <= n):
            a = left.pop()
            length, b = 1, x[a]
            while b != a:
                left.remove(b)
                b = x[b]
                length += 1
            lengths.append(length)
        return (primitive or not long_primes.isdisjoint(lengths),
                short_cycle or any(lengths.count(q) == 1 and all(c % q for c in lengths if c != q)
                                   for q in short_primes.intersection(lengths)))

    ident = _identity(degree)
    enc, mul, _, tail = _codec(ident)
    slots = [enc(g) + tail for g in gens]
    if len(slots) == 2:
        slots.append(mul(slots[1], slots[0]))
    acc = enc(ident) + tail
    r = len(slots)
    primitive = short_cycle = False
    state = 1
    for _ in range(_GIANT_DRAWS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        i = state % r
        j = (i + 1 + (state >> 16) % (r - 1)) % r
        slots[i] = mul(slots[i], slots[j])
        acc = mul(acc, slots[i])
        # the first step makes acc the slot, which is then scanned once
        for x in (acc, slots[i]) if acc != slots[i] else (acc,):
            primitive, short_cycle = witnesses(x, primitive, short_cycle)
            if primitive and short_cycle:
                return True
    return False


@lru_cache(maxsize=None)
def _witness_primes(n):
    """The primes p > n/2 and the primes q <= 3 or q <= n - 3, up to n, of
    ``_jordan``'s two witnesses on n points."""
    primes = [q for q in range(2, n + 1) if is_prime(q)]
    return frozenset(p for p in primes if 2 * p > n), frozenset(q for q in primes if q <= 3 or q <= n - 3)


def _giant_chain(degree, omega, alt):
    """The chain of Alt(omega), if ``alt``, or else of Sym(omega), omega an
    ascending list of points, written down: ``Group._chain`` of a group
    ``_certified_giant`` proved Alt or Sym, on its first read.

    The chain (Seress, *Permutation Group Algorithms*, 2003, sec. 10.2).
    With omega = w_0 < w_1 < ... < w_(n-1), level i has base point w_i and
    orbit {w_i, ..., w_(n-1)}.  For Sym, w_i is carried to w by the
    transposition (w_i w), and the level's strong generators are
    (w_j w_(j+1)) for j >= i; n - 1 levels.  For Alt, w_i goes to w by the
    3-cycle (w_i w x), x the last point of omega other than w, and the
    generators are (w_j w_(j+1) w_(j+2)) for j >= i; n - 2 levels.  Level
    i's group is then the pointwise stabilizer of every point below w_i,
    so the base and orbits are those Schreier-Sims gives.
    """
    n = len(omega)
    chain = _Chain(degree)
    enc, tail, ident = chain.enc, chain.tail, chain.ident

    # m = 2 for Sym, whose levels use transpositions, and 3 for Alt
    m = 3 if alt else 2
    row = list(ident)  # images of the permutation being written, then undone

    def cycle(points):
        # the cycle (points[0] points[1] ...) as a table
        for a, b in zip(points, points[1:] + points[:1]):
            row[a] = b
        p = enc(row) + tail
        for a in points:
            row[a] = a
        return p

    strong = [cycle(omega[j:j + m]) for j in range(n - m + 1)]
    last = omega[-1]
    for i, b in enumerate(omega[:n - m + 1]):
        itr = {b: chain.one + tail}
        for w in omega[i + 1:]:
            # the inverse of (b w), or of (b w x)
            if m == 2:
                row[b], row[w] = w, b
                itr[w] = enc(row) + tail
            else:
                x = last if w != last else omega[-2]
                row[b], row[w], row[x] = x, b, w
                itr[w] = enc(row) + tail
                row[x] = x
            row[b], row[w] = b, w
        chain.gens.append(strong[i:])
        chain.levels.append((b, itr))
    return chain


def _orbit_count(degree, raw_gens) -> int:
    """Number of orbits of <raw_gens> on range(degree), by union-find."""
    root = list(range(degree))
    count = degree
    for g in raw_gens:
        for a, b in enumerate(g):
            while root[a] != a:
                root[a] = a = root[root[a]]
            while root[b] != b:
                root[b] = b = root[root[b]]
            if a != b:
                root[a] = b
                count -= 1
    return count


def _alt_or_sym_of(G: Group):
    """``(omega, outside, is_alt)`` when G is Alt(omega) or Sym(omega), omega
    the ascending list of the points it moves, at least 5 of them, and
    ``outside`` the tuple of the others; else None.  ``Group._setup`` keeps
    it as ``G._alt_or_sym``, the one record of the fact: membership, the
    generation test, the search's cyclic-quotient cut, ``structure`` and a
    certified group's chain (``Group._chain``) read it; no chain keeps it.

    With r nontrivial orbits of a_1, .., a_r points, k = 1 + sum(a_i - 1)
    and |G| <= a_1! .. a_r!.  The only test is k! <= 2|G|, by a product
    that stops once it passes twice the order, and it suffices for k >= 5.
    For r >= 2, merge the orbits one at a time into the first: a merge of a
    and b >= 2 points into one of m = a + b - 1 multiplies the bound by
    (a + b - 1)!/(a! b!) = C(a + b, b)/(a + b) >= C(a + b, 2)/(a + b) = m/2,
    which is at least 3/2, and the last merge, m = k, by at least 5/2.  So
    k! > 2|G|, and the test fails.  For r = 1 the one orbit is omega, the
    points the generators move (``_support``), of k points; |G| divides
    k!, so k! <= 2|G| leaves order k!, which makes G Sym(omega), or k!/2,
    the one subgroup of index 2, Alt(omega), simple for k >= 5.
    """
    k = G._degree - G._orbits + 1  # |omega|, if one orbit moves
    if k < 5:
        return None
    full = 1
    for i in range(2, k + 1):
        full *= i
        if full > 2 * G._order:
            return None
    omega = _support(G)
    return sorted(omega), tuple(a for a in range(G._degree) if a not in omega), full != G._order


def _support(H: Group) -> frozenset:
    """The points H moves: those some generator of H moves."""
    return frozenset(a for g in H._raw_gens for a, b in enumerate(g) if a != b)


def _generates(G: Group, raw_gens) -> bool:
    """Whether raw tuples lying in G generate G.

    A proper <T> with more orbits than G is rejected without a chain.  When
    G is Alt or Sym of omega (``Group._alt_or_sym``), T, with G's orbits, is
    transitive on omega: an all-even T in Sym(omega) lies in Alt(omega) and
    is rejected, and one that ``_jordan`` certifies contains Alt(omega), so
    generates G, with no chain either way.  Any other T builds its chain by
    Schreier-Sims, which offers no certificate.
    """
    raw_gens = list(raw_gens)
    if _orbit_count(G.degree, raw_gens) != G._orbits:
        return False
    giant = G._alt_or_sym
    if giant is not None:
        omega, _, alt = giant
        if not (alt or any(_odd(g) for g in raw_gens)):
            return False
        if _jordan(G.degree, raw_gens, omega):
            return True
    return _build_chain(G.degree, raw_gens)[0].order() == G.order()


def _walk(start, moves):
    """The orbit of ``start`` under the maps ``moves``, walked breadth-first.

    Returns ``(position, rows, found)``: ``position`` maps each point, any
    hashable, to its place in discovery order, ``rows[i][k]`` is the
    position of point i's image under ``moves[k]``, and ``found[i]`` is the
    (position, k) pair that first reached point i, None for ``start``.  Each
    point is moved once by each map.  An orbit that would pass
    ``BOUNDS["elements"]`` points raises ``BoundExceeded``.
    """
    moves = tuple(moves)
    bound = BOUNDS["elements"]
    position = {start: 0}
    points = [start]  # discovery order; grows while it is walked
    rows = []
    found = [None]
    for i, y in enumerate(points):
        row = []
        for k, move in enumerate(moves):
            z = move(y)
            j = position.get(z)
            if j is None:
                if len(points) >= bound:
                    raise BoundExceeded("orbit too large")
                j = position[z] = len(points)
                points.append(z)
                found.append((i, k))
            row.append(j)
        rows.append(row)
    return position, rows, found


def _orbits(points, moves) -> list[tuple]:
    """The orbits under the maps ``moves`` of the members of ``points``, as
    sorted tuples in the order of their first member in ``points``, so by
    least member for sorted points; a partition of ``points`` when the maps
    keep it, walked without the rows of ``_walk``."""
    moves = tuple(moves)
    remaining = set(points)
    orbits = []
    for x in points:
        if x not in remaining:
            continue
        orbit = {x}
        queue = [x]
        while queue:
            y = queue.pop()
            for move in moves:
                z = move(y)
                if z not in orbit:
                    orbit.add(z)
                    queue.append(z)
        remaining -= orbit
        orbits.append(tuple(sorted(orbit)))
    return orbits


def _conjugations(raw_gens):
    """The maps x -> g^-1 x g, one per generator g, yielded lazily: a caller
    that stops early inverts only the generators it reached.

    g^-1 x g is ``_mul(ginv, _mul(x, g))``, and the outer product gathers
    x g at the images of g^-1, so ``itemgetter(*ginv)`` is built once per
    generator and each conjugate costs one ``_mul`` and one gather in C.
    The generators are a group's ``_raw_gens``, which never hold the
    identity, so each moves at least two points and ``itemgetter`` always
    gets two or more indices.
    """
    for g in raw_gens:
        yield lambda x, g=g, gather=itemgetter(*_inv(g)): gather(_mul(x, g))


class Group:
    """A finite permutation group given by generators plus a chain certificate."""

    def __init__(self, generators: Iterable[Permutation], degree: int | None = None):
        gens = tuple(generators)
        if not all(isinstance(g, Permutation) for g in gens):
            raise ValueError("generators must be Permutation values")
        if degree is None:
            if not gens:
                raise ValueError("degree required for an empty generating set")
            degree = gens[0].degree
        _check_degree(degree)
        for g in gens:
            if g.degree != degree:
                raise ValueError("generators of mixed degrees")
        self._setup(degree, tuple(g.imgs for g in gens))

    def _setup(self, degree, raw_gens, chain=None):
        """Set every field, caches included, and return the group;
        ``subgroup_closure`` and ``_grown`` call it directly to skip the
        degree checks on trusted raw tuples.

        ``generators`` keeps every given non-identity generator.  When the
        chain is built here, the group acts (``_raw_gens``) only by the
        given generators that extended it, in order: any other lies in the
        group the earlier ones generate, so it adds no orbit point, Schreier
        generator or coset, and acting by it only repeats work.  ``_grown``,
        the one caller that has already extended a chain by ``raw_gens`` in
        order, passes it as ``chain`` (extending again would rebuild it),
        and the group then acts by all of ``raw_gens``.

        Handed no chain, it first tries ``_certified_giant``: a group it
        proves Alt or Sym acts by the certified prefix, takes its order in
        closed form and builds no chain here (see ``_chain``).
        """
        self._degree = degree
        ident = _identity(degree)
        raw_gens = tuple(p for p in raw_gens if p != ident)
        self._gens = tuple(Permutation._wrap(p) for p in raw_gens)
        giant = None if chain is not None else _certified_giant(degree, raw_gens)
        if giant is not None:
            raw_gens, self._order = giant
        else:
            if chain is None:
                chain, used = _build_chain(degree, raw_gens)
                raw_gens = tuple(used)
            self._chain = chain
            self._order = chain.order()
        self._raw_gens = raw_gens
        self._orbits = _orbit_count(degree, raw_gens)
        self._alt_or_sym = _alt_or_sym_of(self)
        self._elements: tuple | None = None
        self._index: tuple | None = None  # see _element_index
        self._classes: tuple | None = None
        self._lattice = None  # structure.SubgroupLattice, set by all_subgroups
        self._generation = None  # (d, witness), set by gensets.min_generators
        self._minimal_normals = None  # set by structure: minimal_normal_subgroups, simple_factors
        return self

    # -- basic queries ------------------------------------------------------

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def generators(self) -> tuple[Permutation, ...]:
        return self._gens

    def order(self) -> int:
        return self._order

    @cached_property
    def _chain(self) -> _Chain:
        """The group's chain, set by ``_setup`` unless ``_certified_giant``
        proved the group Alt or Sym: that chain is written down here, on the
        first read, from the group's record."""
        omega, _, alt = self._alt_or_sym
        return _giant_chain(self._degree, omega, alt)

    def contains(self, g: Permutation) -> bool:
        if not isinstance(g, Permutation):
            raise ValueError("contains takes a Permutation")
        if len(g.imgs) != self._degree:
            raise ValueError("degree mismatch")
        return self._contains_raw(g.imgs)

    def _contains_raw(self, p) -> bool:
        """Whether the raw tuple p lies in the group: for Alt or Sym of
        omega (``_alt_or_sym``), iff p fixes every point outside omega and,
        for Alt, is even; otherwise by a sift down the chain."""
        giant = self._alt_or_sym
        if giant is None:
            return self._chain.sift(p)
        _, outside, alt = giant
        for a in outside:
            if p[a] != a:
                return False
        return not (alt and _odd(p))

    def base(self) -> tuple[int, ...]:
        """Chain base points (1-based), ascending: the points q moved by some
        element that fixes every point below q."""
        return tuple(b + 1 for b in self._chain.base)

    def __repr__(self) -> str:
        return f"Group(degree={self._degree}, order={self._order}, ngens={len(self._gens)})"

    # -- element enumeration -------------------------------------------------

    def elements_raw(self) -> tuple:
        """All elements as raw image tuples, sorted.

        A full scan multiplies out the chain's transversals, each table
        inverted once, in the chain's encoding, sorts (bytes sort as their
        tuples do) and makes each a tuple once, which is faster than
        ``_lex_walk``; searches that may stop early walk.
        """
        if self._elements is None:
            _check_bound("elements", self._order, "group order")
            chain = self._chain
            mul, inv = chain.mul, chain.inv
            out = [chain.one]
            for _, itr in reversed(chain.levels):
                reps = [inv(t) for t in itr.values()]
                out = [mul(x, rep) for rep in reps for x in out]
            out.sort()
            self._elements = tuple(map(tuple, out))
        return self._elements

    def elements(self) -> list[Permutation]:
        return [Permutation._wrap(p) for p in self.elements_raw()]

    def _lex_walk(self, prune=None, state=None):
        """The elements in ``elements_raw()`` order, lazily, by ``_descend``."""
        _check_bound("elements", self._order, "group order")
        return _descend(self, prune, state)

    def _element_index(self) -> tuple:
        """The group's one element index: ``(id_of, tables)``.

        ``id_of`` maps each element to its position in ``elements_raw()``,
        and ``tables[k]`` maps each id x to the id of g^-1 x g for the k-th
        generator g the group acts by.  Built once, so the conjugacy classes
        and the subgroup lattice conjugate every element once per generator
        between them.
        """
        if self._index is None:
            elems = self.elements_raw()
            id_of = {p: i for i, p in enumerate(elems)}
            self._index = (id_of, tuple(tuple([id_of[conj(x)] for x in elems])
                                        for conj in _conjugations(self._raw_gens)))
        return self._index

    def conjugacy_classes_raw(self) -> tuple:
        """Conjugacy classes as sorted tuples of raw tuples, ordered by least
        member; orbits on ids through ``_element_index``, which lists the
        elements sorted, so an orbit's ids sorted give its members sorted."""
        if self._classes is None:
            elems = self.elements_raw()
            moves = [table.__getitem__ for table in self._element_index()[1]]
            self._classes = tuple(tuple(elems[j] for j in orbit)
                                  for orbit in _orbits(range(len(elems)), moves))
        return self._classes

    def is_abelian(self) -> bool:
        gens = self._raw_gens
        return all(_mul(a, b) == _mul(b, a) for i, a in enumerate(gens) for b in gens[i + 1:])

    # -- subgroup relations ---------------------------------------------------

    def is_subgroup_of(self, other: "Group") -> bool:
        """Containment checked generator-by-generator via sifting."""
        if self._degree != other._degree:
            raise ValueError("degree mismatch")
        return all(other._contains_raw(g) for g in self._raw_gens)

    def is_normal_in(self, other: "Group") -> bool:
        return self.is_subgroup_of(other) and self._normalized_by(other)

    def _normalized_by(self, other: "Group") -> bool:
        """Whether conjugation by other's generators keeps this group; for a
        subgroup of other, whether it is normal there."""
        return all(self._contains_raw(conj(h))
                   for conj in _conjugations(other._raw_gens) for h in self._raw_gens)


def trivial_group(degree: int) -> Group:
    return Group([], degree)


def is_transitive(G: Group) -> bool:
    return G._orbits <= 1


def is_primitive(G: Group) -> bool:
    """Transitive with no nontrivial block system.

    The blocks of a transitive G through point 0 are the orbits of 0 under
    the subgroups that contain G_0 (Dixon-Mortimer, *Permutation Groups*,
    1996, Thm 1.5A), so the least block through 0 and beta is the orbit of
    0 under <G_0, t>, t any element carrying 0 to beta, and that block is
    all the points exactly when <G_0, t> is transitive.  G_0 maps a block
    through 0 and beta onto one through 0 and beta^x, so one beta per orbit
    of G_0 is tried.  G_0 is level 1 of the chain: a transitive group moves
    point 0, so its lex base starts there, and level 0's table at beta is
    t^-1 for a t carrying 0 to beta, with <G_0, t^-1> = <G_0, t>.  Tables
    are cut to n points, as chains on at most 256 points store 256 bytes.
    """
    n = G.degree
    if not is_transitive(G):
        return False
    if n == 1:
        return True
    chain = G._chain
    stabilizer = [g[:n] for g in chain.gens[1]] if len(chain.base) > 1 else []
    for orbit in _orbits(range(1, n), [g.__getitem__ for g in stabilizer]):
        if _orbit_count(n, stabilizer + [chain.levels[0][1][orbit[0]][:n]]) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# closures built inside an ambient group

def subgroup_closure(ambient_degree: int, raw_gens) -> Group:
    """Subgroup generated by trusted raw tuples, acting by those that
    extended its chain (``Group._setup``)."""
    return Group.__new__(Group)._setup(ambient_degree, raw_gens)


def _grown(degree, raw_gens, more, stops) -> Group:
    """The group of the chain of <raw_gens> extended by each candidate of
    ``more(gens)`` until its order lies in ``stops``, none drawn after;
    ``gens``, the generators that extended it, grows while the stream runs,
    and the group acts by it."""
    chain, gens = _build_chain(degree, raw_gens)
    if chain.order() not in stops:
        for y in more(gens):
            if chain.extend(y):
                gens.append(y)
                if chain.order() in stops:
                    break
    return Group.__new__(Group)._setup(degree, gens, chain)


def normal_closure(G: Group, seeds: Iterable[Permutation]) -> Group:
    """Smallest normal subgroup of G containing the seed elements
    (``_normal_closure``, stopped at |G|, where nothing can extend it).  A
    seed outside G or of another degree raises ValueError.

    Only the seeds that extended the chain, which generate the seeds'
    subgroup, are conjugated and kept, so the closure acts by them and by
    the conjugates that extended it: a ``commutator_subgroup`` seeded with
    k(k-1)/2 commutators does not act by all of them.
    """
    seeds = list(seeds)
    if not all(G.contains(s) for s in seeds):
        raise ValueError("seed does not lie in G")
    return _normal_closure(G, [s.imgs for s in seeds], {G.order()})


def _normal_closure(G: Group, raw_seeds, stops) -> Group:
    """The normal closure in G of raw tuples lying in G, or the first
    subgroup reached whose order lies in ``stops``: ``_grown`` over each
    kept generator's conjugates by G's (Seress, 2003, ch. 5)."""
    ambient = list(_conjugations(G._raw_gens))
    # gens grows while the stream walks it, a queue of the generators kept
    return _grown(G.degree, raw_seeds, lambda gens: (conj(x) for x in gens for conj in ambient),
                  stops)


def commutator_subgroup(G: Group) -> Group:
    """Derived subgroup: normal closure of the commutators [a, b] of
    generators with a before b; [a, a] = 1 and [b, a] = [a, b]^-1 add
    nothing.  They lie in G, so unlike ``normal_closure`` seeds no sift
    through it checks them."""
    gens = G._raw_gens
    invs = [_inv(g) for g in gens]
    comms = [_mul(_mul(invs[i], invs[j]), _mul(gens[i], gens[j]))
             for i in range(len(gens)) for j in range(i + 1, len(gens))]
    return _normal_closure(G, comms, {G.order()})


def _schreier_generators(degree, gens, moves, start):
    """The orbit of ``start`` under K = <gens>, as a dict from each point to
    its place in discovery order, and a lazy iterator over the Schreier
    generators rep(y) g rep(y^g)^-1 of its stabilizer in K, where rep(y) is
    an element of K carrying ``start`` to y.

    ``moves[i]`` maps a point to its image under ``gens[i]``.  The orbit is
    walked once (``_walk``), and a point's rep is the rep of the point that
    found it times the generator that did.  A rep is built when a drawn
    Schreier generator first reads it: up the ``found`` tree to the nearest
    rep built, then down again one product per point, with no recursion, so
    a caller that stops early pays only for the reps it read.  The Schreier
    generators come in walk order, each rep inverted at most once, and the
    pair that found a point is skipped, as its Schreier generator is 1.
    """
    position, rows, found = _walk(start, moves)
    reps = [_identity(degree)] + [None] * (len(found) - 1)

    def rep(j):
        path = []
        while reps[j] is None:
            path.append(j)
            j = found[j][0]
        r = reps[j]
        for j in reversed(path):
            r = reps[j] = _mul(r, gens[found[j][1]])
        return r

    def schreier():
        invs = {}  # position -> inverse of its rep
        for i, row in enumerate(rows):
            for k, (g, j) in enumerate(zip(gens, row)):
                if found[j] == (i, k):
                    continue
                zinv = invs.get(j)
                if zinv is None:
                    zinv = invs[j] = _inv(rep(j))
                yield _mul(_mul(rep(i), g), zinv)

    return position, schreier()


def _stabilizer(K: Group, moves, start) -> Group:
    """Stabilizer of ``start`` in K, ``moves[i]`` the action of
    ``K._raw_gens[i]``: K itself, with no chain built, if ``start`` is its
    own orbit, else ``_grown`` from no generator over the Schreier
    generators, stopped at |K| / |orbit|, so none is drawn when that is 1
    (a regular action)."""
    orbit, schreier = _schreier_generators(K.degree, K._raw_gens, moves, start)
    if len(orbit) == 1:
        return K
    return _grown(K.degree, [], lambda gens: schreier, {K.order() // len(orbit)})


def centralizer_in(G: Group, x: Permutation) -> Group:
    """Centralizer of x in G: the stabilizer of x under conjugation
    (``_stabilizer``).  x may lie outside G, as when C_G(N) is cut down one
    generator of N at a time, but an x that is no ``Permutation`` or has
    another degree raises ValueError."""
    if not isinstance(x, Permutation):
        raise ValueError("centralizer_in takes a Permutation")
    if x.degree != G.degree:
        raise ValueError("degree mismatch")
    return _stabilizer(G, _conjugations(G._raw_gens), x.imgs)


# ---------------------------------------------------------------------------
# homomorphisms and coset actions

class Homomorphism:
    """Group homomorphism onto ``target``, given by an apply rule on raw tuples."""

    def __init__(self, source: Group, target: Group, _apply: Callable[[tuple], tuple]):
        self.source = source
        self.target = target
        self._apply = _apply

    def kernel(self) -> Group:
        """Kernel as iterated point stabilizers over a base of the image.

        k is in the kernel iff its image fixes the base; each step
        (``_stabilizer``) acts through the images of the current stabilizer
        K's generators only (Seress, 2003, ch. 5).  No step before the last
        reaches the kernel's order |source|/|target|: every level of the
        image's lex base moves its base point, so each step divides |K| by
        an orbit of two or more points.  When |target| = |source| the map
        is injective, since |source| = |kernel| * |image| (first isomorphism
        theorem), and the trivial group is returned with no stabilizer step.
        """
        K = self.source
        if K.order() == self.target.order():
            return subgroup_closure(K.degree, ())
        for b in self.target._chain.base:
            K = _stabilizer(K, [self._apply(g).__getitem__ for g in K._raw_gens], b)
        return K


def coset_canonical(H: Group, p):
    """Canonical representative of the right coset H*p (raw tuples).

    Greedily minimizes the images of H's base points, which are in point
    order, so the representative is the coset's least member; p is
    composed as a table of H's chain (``_Chain``).
    """
    chain = H._chain
    mul, inv = chain.mul, chain.inv
    p = chain.enc(p) + chain.tail
    for _, itr in chain.levels:
        best = min(itr, key=p.__getitem__)
        p = mul(inv(itr[best]), p)
    return tuple(p[:H.degree])


def coset_action(G: Group, H: Group) -> tuple[Group, Homomorphism]:
    """Action of G on the right cosets of H; kernel is the core of H in G.

    The image acts transitively on |G:H| points and realizes G / core(H)
    faithfully.  ``_walk`` enumerates the cosets by their canonical reps,
    labelled in discovery order, and its rows, transposed, are the images of
    G's generators, so no coset is moved twice; ``act`` returns them for
    those generators, as ``kernel`` asks first.  An index
    above ``BOUNDS["points"]`` raises ``BoundExceeded`` before any coset
    is enumerated.
    """
    if not H.is_subgroup_of(G):
        raise ValueError("H is not a subgroup of G")
    index = G.order() // H.order()
    _check_bound("points", index, "index")

    moves = [lambda rep, g=g: coset_canonical(H, _mul(rep, g)) for g in G._raw_gens]
    labels, rows, _ = _walk(coset_canonical(H, _identity(G.degree)), moves)
    if len(labels) != index:
        raise AssertionError("coset enumeration mismatch")
    reps = list(labels)
    images = list(zip(*rows))  # images[k][i]: label of coset i under generator k
    recorded = dict(zip(G._raw_gens, images))

    def act(p):
        row = recorded.get(p)
        if row is None:
            row = tuple(labels[coset_canonical(H, _mul(rep, p))] for rep in reps)
        return row

    image = Group([Permutation._wrap(row) for row in images], index)
    hom = Homomorphism(G, image, act)
    return image, hom


# ---------------------------------------------------------------------------
# products

def direct_product(A: Group, B: Group) -> Group:
    """A x B acting on the disjoint union of the two point sets; a degree
    above ``BOUNDS["points"]`` raises before any generator is built."""
    da, db = A.degree, B.degree
    _check_bound("points", da + db, "degree")
    gens = []
    for g in A.generators:
        gens.append(Permutation._wrap(g.imgs + tuple(range(da, da + db))))
    for g in B.generators:
        gens.append(Permutation._wrap(tuple(range(da)) + tuple(x + da for x in g.imgs)))
    return Group(gens, da + db)


def wreath_flat(base, top, inner_degree: int) -> Permutation:
    """Flatten ((a_1..a_n), s) to the permutation of n*inner_degree points.

    Block i (1-based) holds points (i-1)*m+1 .. i*m; the image of (d, i) is
    (d^(a_i), i^s).
    """
    n = top.degree
    m = inner_degree
    imgs = [0] * (n * m)
    for i in range(n):
        block_img = top.imgs[i]
        a = base[i].imgs
        for d in range(m):
            imgs[i * m + d] = block_img * m + a[d]
    return Permutation._wrap(imgs)


def wreath_product(inner: Group, top: Group) -> Group:
    """Imprimitive wreath product inner wr top on n * m points.

    The group has order |inner|^n * |top|, with n = top.degree and
    m = inner.degree; a degree n * m above ``BOUNDS["points"]`` raises
    ``BoundExceeded`` before any generator is built.
    """
    n = top.degree
    m = inner.degree
    _check_bound("points", n * m, "wreath degree")
    ident_inner = Permutation.identity(m)
    ident_top = Permutation.identity(n)
    gens = []
    for i in range(n):
        for g in inner.generators:
            base = [ident_inner] * n
            base[i] = g
            gens.append(wreath_flat(base, ident_top, m))
    for t in top.generators:
        gens.append(wreath_flat([ident_inner] * n, t, m))
    return Group(gens, n * m)
