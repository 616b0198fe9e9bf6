"""Permutation-group engine: stabilizer chains, membership, actions, products.

Groups are immutable once constructed; all queries after construction are
read-only, so Group objects can be shared freely between workers.  Chains are
built deterministically by incremental Schreier-Sims: the base is kept in
point order, each level's orbit grows in place in discovery order as the
level gains generators, and each (orbit point, generator) Schreier pair is
sifted once.  Orders, transversals and everything derived from them are
reproducible run to run.  Level i of a chain is the pointwise stabilizer of
every point below its base point, so the base is the group's lex base,
whatever its generators, and searches walk a group's elements in sorted
order down the chain itself without enumerating them (``Group._lex_walk``).
On at most 256 points a chain composes bytes with ``bytes.translate`` over
256-byte tables, in C and without building a getter per product; above 256
points it composes tuples with ``perm._mul``.  Both run the same loops and
give the same chain (see ``_Chain``).

A group acts only by the given generators that extended its chain, since
the others would multiply the work of every orbit, Schreier, coset and
closure loop and add nothing (``Group._setup``).  Its conjugation tables
under those generators are its one element index (``Group._element_index``),
shared by the conjugacy classes and the subgroup lattice.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from .perm import Permutation, _identity, _inv, _mul

DEFAULT_MAX_POINTS = 100_000
DEFAULT_ELEMENT_BOUND = 200_000
_TABLE_ID = bytes(range(256))  # the identity translate table


class BoundExceeded(ValueError):
    """A configured degree/order/enumeration bound would be exceeded."""


class _Chain:
    """Mutable stabilizer chain used during construction (Schreier-Sims).

    Level i holds the i-th stabilizer group: ``gens[i]`` are the strong
    generators fixing ``base[:i]`` and ``trans[i]`` maps each point of the
    basepoint's orbit to a representative carrying the basepoint there.
    ``ginvs[i]`` holds the inverses of ``gens[i]`` and ``itrans[i]`` the
    inverse of every representative, built alongside ``trans[i]`` as
    g^-1 * rep^-1, so sifting and Schreier generators never invert a
    permutation (Seress, *Permutation Group Algorithms*, 2003, ch. 4).

    Elements are encoded once, by degree.  Up to 256 points a working
    element (a residue, a representative being extended) is ``bytes`` of
    length ``degree``, and the right-hand factors ``gens``, ``ginvs`` and
    ``itrans`` are stored as 256-byte translate tables: the images, then
    the fixed points degree..255.  The product p*q is then
    ``p.translate(table_q)``, composed in C without building a getter per
    product, and the inverse of a table is ``bytes.maketrans(table,
    identity)``.  Above 256 points the same code runs on tuples, with
    ``_mul`` and ``_inv``.  Either way ``p[b]`` reads an image, and
    ``trans`` keeps tuple representatives for the readers outside the chain.

    Orbits grow in place: ``trans[i]`` keeps its points in discovery order,
    and a point keeps its representative once found.  ``sifted[i]`` is the
    (points, generators) prefix whose Schreier pairs are done (sifted, or
    trivial because the pair found its point), so each pair is handled once
    however often the level gains generators.
    The base is kept in ascending point order, and every strong generator at
    level i fixes every point below ``base[i]`` (``_add``).  So level i's
    group is the pointwise stabilizer of all points below ``base[i]``, and
    ``base`` is the group's lex base: the points q moved by some element
    fixing every point below q, the same for every generating set.
    """

    __slots__ = ("degree", "ident", "one", "tail", "enc", "mul", "inv",
                 "base", "gens", "ginvs", "trans", "itrans", "sifted")

    def __init__(self, degree):
        self.degree = degree
        self.ident = _identity(degree)
        if degree <= 256:
            self.enc, self.mul, self.inv = bytes, bytes.translate, _table_inv
            self.tail = _TABLE_ID[degree:]
        else:
            self.enc, self.mul, self.inv = tuple, _mul, _inv
            self.tail = ()
        self.one = self.enc(self.ident)  # the identity as a working element
        self.base = []
        self.gens = []
        self.ginvs = []
        self.trans = []
        self.itrans = []
        self.sifted = []

    def order(self):
        n = 1
        for t in self.trans:
            n *= len(t)
        return n

    def sift(self, p):
        """Reduce the tuple p through the chain; the residue is returned as a
        tuple, and members, whose residue is the identity, get ``ident``
        itself without decoding."""
        residue = self._sift_from(0, self.enc(p))
        return self.ident if residue == self.one else tuple(residue)

    def _sift_from(self, start, p):
        base, itrans, mul = self.base, self.itrans, self.mul
        for lev in range(start, len(base)):
            b = base[lev]
            img = p[b]
            if img == b:
                continue
            rep_inv = itrans[lev].get(img)
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
        # from the bottom up
        moved = next(a for a, b in enumerate(g) if a != b)
        j = bisect_left(self.base, moved)
        if self.base[j:j + 1] != [moved]:
            gens, ginvs = (self.gens[j], self.ginvs[j]) if j < len(self.base) else ([], [])
            self.base.insert(j, moved)
            self.gens.insert(j, gens[:])
            self.ginvs.insert(j, ginvs[:])
            self.trans.insert(j, {moved: self.ident})
            self.itrans.insert(j, {moved: self.one + self.tail})
            self.sifted.insert(j, (1, len(gens)))
        g += self.tail
        ginv = self.inv(g)
        for k in range(top, j + 1):
            self.gens[k].append(g)
            self.ginvs[k].append(ginv)
        for k in range(j, top - 1, -1):
            self._schreier_sims(k)

    def _schreier_sims(self, i):
        # establish H^(i)_{base[i]} = H^(i+1), assuming it holds at deeper
        # levels.  The orbit grows in place: the first ``npts`` points are
        # closed under the first ``ngens`` generators and their pairs are
        # done, so they meet only the newer generators, and every point
        # found since meets all of them.  A pair that finds a new point gives
        # a trivial Schreier generator; any other is sifted once, as a known
        # point's representative never changes.  A residue is added at deeper
        # levels only, so this level's generators stay fixed during the scan.
        tr = self.trans[i]
        itr = self.itrans[i]
        enc, mul, one = self.enc, self.mul, self.one
        gens = list(zip(self.gens[i], self.ginvs[i]))
        npts, ngens = self.sifted[i]
        orbit = list(tr)
        pos = 0
        while pos < len(orbit):
            pt = orbit[pos]
            rep = enc(tr[pt])
            for g, ginv in (gens[ngens:] if pos < npts else gens):
                img = g[pt]
                rep_g = mul(rep, g)
                if img not in tr:
                    tr[img] = tuple(rep_g)
                    itr[img] = mul(ginv, itr[pt])
                    orbit.append(img)
                    continue
                residue = self._sift_from(i + 1, mul(rep_g, itr[img]))
                if residue != one:
                    self._add(residue, i + 1)
            pos += 1
        self.sifted[i] = (len(orbit), len(gens))


def _table_inv(t):
    """Inverse of a 256-byte translate table."""
    return bytes.maketrans(t, _TABLE_ID)


def _build_chain(degree, raw_gens):
    """The chain of <raw_gens>, extended by each generator in order, and the
    generators that extended it, in that order; the others lie in the group
    the earlier ones generate."""
    chain = _Chain(degree)
    return chain, [g for g in raw_gens if chain.extend(g)]


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


def _conjugation_orbits(points, pairs) -> list[tuple]:
    """Orbits of x -> g^-1 x g over the (g, g^-1) pairs, one per member of
    ``points`` not in an earlier orbit.

    With ``points`` closed under the action the orbits partition it.  Each
    orbit is a sorted tuple, and orbits come in the order of their first
    member in ``points``, so for sorted points they are ordered by least
    member.
    """
    remaining = set(points)
    orbits = []
    for x in points:
        if x not in remaining:
            continue
        orbit = {x}
        queue = [x]
        while queue:
            y = queue.pop()
            for g, ginv in pairs:
                z = _mul(ginv, _mul(y, g))
                if z not in orbit:
                    orbit.add(z)
                    queue.append(z)
        remaining -= orbit
        orbits.append(tuple(sorted(orbit)))
    return orbits


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
        if not isinstance(degree, int) or degree < 0:
            raise ValueError(f"degree must be an int >= 0, not {degree!r}")
        for g in gens:
            if g.degree != degree:
                raise ValueError("generators of mixed degrees")
        self._setup(degree, tuple(g.imgs for g in gens))

    def _setup(self, degree, raw_gens, chain=None):
        """Set every field, caches included; ``subgroup_closure`` calls it
        directly to skip the degree checks on trusted raw tuples.

        ``generators`` keeps every given non-identity generator.  When the
        chain is built here, the group acts (``_raw_gens``) only by the
        given generators that extended it, in order: any other lies in the
        group the earlier ones generate, so it adds no orbit point, Schreier
        generator or coset, and acting by it only repeats work.  A caller
        that already extended a chain by ``raw_gens`` in order passes it as
        ``chain`` (extending again would rebuild it), and the group then
        acts by all of ``raw_gens``.
        """
        self._degree = degree
        ident = _identity(degree)
        raw_gens = tuple(p for p in raw_gens if p != ident)
        self._gens = tuple(Permutation._wrap(p) for p in raw_gens)
        if chain is None:
            chain, used = _build_chain(degree, raw_gens)
            raw_gens = tuple(used)
        self._raw_gens = raw_gens
        self._chain = chain
        self._order = chain.order()
        self._orbits = _orbit_count(degree, raw_gens)
        self._elements: tuple | None = None
        self._index: tuple | None = None  # see _element_index
        self._classes: tuple | None = None
        self._lattice = None  # structure.SubgroupLattice, set by all_subgroups
        self._generation = None  # (d, witness), set by gensets.min_generators
        self._minimal_normals = None  # set by structure.minimal_normal_subgroups

    # -- basic queries ------------------------------------------------------

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def generators(self) -> tuple[Permutation, ...]:
        return self._gens

    def order(self) -> int:
        return self._order

    def contains(self, g: Permutation) -> bool:
        if not isinstance(g, Permutation):
            raise ValueError("contains takes a Permutation")
        if g.degree != self._degree:
            raise ValueError("degree mismatch")
        return self._contains_raw(g.imgs)

    def _contains_raw(self, p) -> bool:
        # sift hands members ``ident`` itself, so no residue is decoded
        return self._chain.sift(p) is self._chain.ident

    def base(self) -> tuple[int, ...]:
        """Chain base points (1-based), ascending: the points q moved by some
        element that fixes every point below q."""
        return tuple(b + 1 for b in self._chain.base)

    def identity(self) -> Permutation:
        return Permutation.identity(self._degree)

    def __repr__(self) -> str:
        return f"Group(degree={self._degree}, order={self._order}, ngens={len(self._gens)})"

    # -- element enumeration -------------------------------------------------

    def _check_enumerable(self) -> None:
        if self._order > DEFAULT_ELEMENT_BOUND:
            raise BoundExceeded(f"group order {self._order} exceeds element "
                                f"enumeration bound {DEFAULT_ELEMENT_BOUND}")

    def elements_raw(self) -> tuple:
        """All elements as raw image tuples, sorted.

        A full scan multiplies out the chain's transversals and sorts, which
        is faster than ``_lex_walk``; searches that may stop early walk.
        """
        if self._elements is None:
            self._check_enumerable()
            out = [_identity(self._degree)]
            for t in reversed(self._chain.trans):
                reps = [t[pt] for pt in sorted(t)]
                out = [_mul(x, rep) for rep in reps for x in out]
            out.sort()
            self._elements = tuple(out)
        return self._elements

    def elements(self) -> list[Permutation]:
        return [Permutation._wrap(p) for p in self.elements_raw()]

    def _lex_walk(self, prune=None, state=None):
        """The elements in ``elements_raw()`` order, generated lazily.

        A depth-i node of the walk is a coset H_i c = {y : y[p] = c[p] for
        every p < b_i}, with b_i and H_i those of level i of the chain, whose
        base is in point order (the root is G, with c the identity).  Its
        children are the cosets H_(i+1) (u c) for the reps u of level i, and
        y[b_i] = c[u[b_i]] on the child of u, so visiting the children by
        ascending c[u[b_i]] yields the elements sorted by image tuple without
        building or sorting G.  ``prune(state, c, lo, hi)`` is called on
        entering each node strictly between the root and the elements, where
        the node's members agree with c on the points below ``hi`` and its
        parent's on those below ``lo``; it returns None to skip the node's
        elements, and otherwise the state handed on to its children.
        """
        self._check_enumerable()
        levels = tuple(zip(self._chain.base, self._chain.trans))
        last = len(levels) - 1

        def walk(i, c, state):
            b, reps = levels[i]
            for o in sorted(reps, key=c.__getitem__):
                y = _mul(reps[o], c)
                if i == last:
                    yield y
                    continue
                child = state
                if prune is not None:
                    child = prune(state, y, b, levels[i + 1][0])
                    if child is None:
                        continue
                yield from walk(i + 1, y, child)

        if not levels:
            yield _identity(self._degree)
            return
        yield from walk(0, _identity(self._degree), state)

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
            tables = []
            for g in self._raw_gens:
                ginv = _inv(g)
                tables.append(tuple([id_of[_mul(ginv, _mul(x, g))] for x in elems]))
            self._index = (id_of, tuple(tables))
        return self._index

    def conjugacy_classes_raw(self) -> tuple:
        """Conjugacy classes as sorted tuples of raw tuples, ordered by least
        member; orbits on ids through ``_element_index``, which lists the
        elements sorted, so an orbit's ids sorted give its members sorted."""
        if self._classes is None:
            elems = self.elements_raw()
            tables = self._element_index()[1]
            seen = bytearray(len(elems))
            classes = []
            for i in range(len(elems)):
                if seen[i]:
                    continue
                seen[i] = 1
                orbit = [i]
                for x in orbit:
                    for table in tables:
                        y = table[x]
                        if not seen[y]:
                            seen[y] = 1
                            orbit.append(y)
                classes.append(tuple(elems[j] for j in sorted(orbit)))
            self._classes = tuple(classes)
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
        if not self.is_subgroup_of(other):
            return False
        for g in other._raw_gens:
            ginv = _inv(g)
            for h in self._raw_gens:
                if not self._contains_raw(_mul(ginv, _mul(h, g))):
                    return False
        return True


def trivial_group(degree: int) -> Group:
    return Group([], degree)


# ---------------------------------------------------------------------------
# closures built inside an ambient group

def subgroup_closure(ambient_degree: int, raw_gens, chain=None) -> Group:
    """Subgroup generated by trusted raw tuples; ``chain``, if given, is the
    chain already built by extending with ``raw_gens`` in order."""
    g = Group.__new__(Group)
    g._setup(ambient_degree, raw_gens, chain)
    return g


def normal_closure(G: Group, seeds: Iterable[Permutation]) -> Group:
    """Smallest normal subgroup of G containing the seed elements; the
    closure lies in G, so it is G as soon as its chain reaches |G|.  A seed
    outside G or of another degree raises ValueError."""
    seeds = list(seeds)
    if not all(G.contains(s) for s in seeds):
        raise ValueError("seed does not lie in G")
    raw_seeds = [s.imgs for s in seeds]
    chain, _ = _build_chain(G.degree, raw_seeds)
    gens = [p for p in raw_seeds if p != chain.ident]
    queue = deque(gens)
    ambient = [(g, _inv(g)) for g in G._raw_gens]
    while queue and chain.order() < G.order():
        x = queue.popleft()
        for g, ginv in ambient:
            y = _mul(ginv, _mul(x, g))
            if chain.extend(y):
                gens.append(y)
                queue.append(y)
                if chain.order() == G.order():
                    break
    return subgroup_closure(G.degree, gens, chain)


def commutator_subgroup(G: Group) -> Group:
    """Derived subgroup: normal closure of generator commutators."""
    comms = []
    for a in G._raw_gens:
        ainv = _inv(a)
        for b in G._raw_gens:
            comms.append(_mul(_mul(ainv, _inv(b)), _mul(a, b)))
    return normal_closure(G, [Permutation._wrap(c) for c in comms])


def _stabilizer(degree, order, gens, moves, start):
    """Stabilizer of ``start`` in K = <gens> of the given order, by orbit-stabilizer.

    ``moves[i]`` maps a point to its image under ``gens[i]``; points may be
    any hashable, such as frozensets of element ids.  The orbit is walked
    breadth-first, once, and kept in discovery order, which needs no
    ordering of the points.  The walk records, for each orbit point y and
    generator g, the rep of y^g (the rep itself, not a copy of the point),
    so no point is moved twice.  The Schreier generators rep(y) g rep(y^g)^-1
    are then sifted, in that order, into a chain until it reaches the exact
    order |K| / |orbit|.  Each rep is inverted at most once, and the pair
    that found a point is skipped, as its Schreier generator is the
    identity.  Returns the stabilizer's generators, that chain (the one
    ``_build_chain`` would make from them), and the orbit as a dict from
    each point to an element of K carrying ``start`` there.
    """
    orbit = {start: _identity(degree)}
    points = [start]  # discovery order; grows while it is walked
    image_reps = []  # per point, per generator: rep of the image, None where found
    for y in points:
        rep = orbit[y]
        row = []
        for g, move in zip(gens, moves):
            z = move(y)
            zrep = orbit.get(z)
            if zrep is None:
                if len(orbit) >= DEFAULT_ELEMENT_BOUND:
                    raise BoundExceeded("orbit too large")
                orbit[z] = _mul(rep, g)
                points.append(z)
            row.append(zrep)
        image_reps.append(row)
    target = order // len(orbit)
    chain, stab_gens = _build_chain(degree, [])
    invs = {}  # id of a rep -> its inverse; orbit keeps every rep alive
    for y, row in zip(points, image_reps):
        if chain.order() >= target:
            break
        rep = orbit[y]
        for g, zrep in zip(gens, row):
            if zrep is None:
                continue
            zinv = invs.get(id(zrep))
            if zinv is None:
                zinv = invs[id(zrep)] = _inv(zrep)
            schreier = _mul(_mul(rep, g), zinv)
            if chain.extend(schreier):
                stab_gens.append(schreier)
                if chain.order() >= target:
                    break
    return stab_gens, chain, orbit


def centralizer_in(G: Group, x: Permutation) -> Group:
    """Centralizer of x in G: the stabilizer of x under conjugation.  x may
    lie outside G, as when C_G(N) is cut down one generator of N at a time,
    but an x of another degree raises ValueError."""
    if x.degree != G.degree:
        raise ValueError("degree mismatch")
    moves = [lambda y, g=g, ginv=_inv(g): _mul(ginv, _mul(y, g)) for g in G._raw_gens]
    gens, chain, _ = _stabilizer(G.degree, G.order(), G._raw_gens, moves, x.imgs)
    return subgroup_closure(G.degree, gens, chain)


# ---------------------------------------------------------------------------
# homomorphisms and coset actions

@dataclass(frozen=True)
class Homomorphism:
    """Group homomorphism onto ``target``, given by an apply rule on raw tuples."""

    source: Group
    target: Group
    _apply: Callable[[tuple], tuple]

    def apply(self, g: Permutation) -> Permutation:
        if not self.source.contains(g):
            raise ValueError("element does not lie in the source group")
        return Permutation._wrap(self._apply(g.imgs))

    def kernel(self) -> Group:
        """Kernel as iterated point stabilizers over a base of the image.

        k is in the kernel iff its image fixes the base; each step acts through
        the images of the current stabilizer's generators only (Seress, 2003,
        ch. 5), and stops once the known order |source|/|target| is reached.
        """
        degree = self.source.degree
        gens = self.source._raw_gens
        order = self.source.order()
        want = order // self.target.order()
        chain = None
        for b in self.target._chain.base:
            if order == want:
                break
            moves = [self._apply(g).__getitem__ for g in gens]
            gens, chain, _ = _stabilizer(degree, order, gens, moves, b)
            order = chain.order()
        return subgroup_closure(degree, gens, chain)


def coset_canonical(H: Group, p):
    """Canonical representative of the right coset H*p (raw tuples).

    Greedily minimizes the images of H's base points, which are in point
    order, so the representative is the coset's least member.
    """
    chain = H._chain
    for b, t in zip(chain.base, chain.trans):
        best_pt = min(t, key=lambda y: p[y])
        p = _mul(t[best_pt], p)
    return p


def coset_action(G: Group, H: Group, max_points: int = DEFAULT_MAX_POINTS) -> tuple[Group, Homomorphism]:
    """Action of G on the right cosets of H; kernel is the core of H in G.

    The image acts transitively on |G:H| points and realizes G / core(H)
    faithfully.  The cosets are enumerated breadth-first, and the walk
    records the label of each coset's image under each generator, which
    are the images of G's generators, so no coset is moved twice; ``act``
    returns them for those generators, as ``kernel`` asks first.
    """
    if not H.is_subgroup_of(G):
        raise ValueError("H is not a subgroup of G")
    index = G.order() // H.order()
    if index > max_points:
        raise BoundExceeded(f"index {index} exceeds the {max_points}-point bound")

    start = coset_canonical(H, _identity(G.degree))
    labels = {start: 0}
    reps = [start]  # discovery order; grows while it is walked
    images = [[] for _ in G._raw_gens]  # images[k][i]: label of coset i under generator k
    for rep in reps:
        for g, row in zip(G._raw_gens, images):
            img = coset_canonical(H, _mul(rep, g))
            label = labels.get(img)
            if label is None:
                label = labels[img] = len(reps)
                reps.append(img)
            row.append(label)
    if len(reps) != index:
        raise AssertionError("coset enumeration mismatch")

    recorded = {g: tuple(row) for g, row in zip(G._raw_gens, images)}

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
    """A x B acting on the disjoint union of the two point sets."""
    da, db = A.degree, B.degree
    gens = []
    for g in A.generators:
        gens.append(Permutation._wrap(g.imgs + tuple(range(da, da + db))))
    for g in B.generators:
        gens.append(Permutation._wrap(tuple(range(da)) + tuple(x + da for x in g.imgs)))
    return Group(gens, da + db)


@dataclass(frozen=True)
class WreathElement:
    """Element of inner wr top, decomposed: base coordinates and top permutation.

    ``flat`` is the imprimitive-action permutation on n * m points and is the
    canonical form for equality and hashing.
    """

    base: tuple[Permutation, ...]
    top: Permutation
    flat: Permutation

    def __eq__(self, other):
        return isinstance(other, WreathElement) and self.flat == other.flat

    def __hash__(self):
        return hash(self.flat)


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


def wreath_product(inner: Group, top: Group,
                   max_degree: int = DEFAULT_MAX_POINTS) -> tuple[Group, Callable[[Permutation], WreathElement]]:
    """Imprimitive wreath product inner wr top, plus an exact decomposer.

    Returns the group of order |inner|^n * |top| on n * m points together
    with a function inverting the flat embedding.
    """
    n = top.degree
    m = inner.degree
    if n * m > max_degree:
        raise BoundExceeded(f"wreath degree {n * m} exceeds bound {max_degree}")
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
    W = Group(gens, n * m)

    def decompose(flat: Permutation) -> WreathElement:
        if flat.degree != n * m:
            raise ValueError("degree mismatch")
        imgs = flat.imgs
        top_imgs = []
        base = []
        for i in range(n):
            j = imgs[i * m] // m
            coord = [0] * m
            for d in range(m):
                img = imgs[i * m + d]
                if img // m != j:
                    raise ValueError("permutation does not preserve the block system")
                coord[d] = img - j * m
            top_imgs.append(j)
            base.append(Permutation(coord))
        return WreathElement(tuple(base), Permutation(top_imgs), flat)

    return W, decompose
