"""Structural analysis: minimal normal subgroups, subgroup lattice, maximal types.

The subgroup lattice is enumerated bottom-up: a perfect base layer found by
two-generator search, then cyclic extension by prime-order cosets of the
normalizer (the cyclic-extension method, Holt-Eick-O'Brien, *Handbook of
CGT*, 2005, sec. 10.1), which builds each extension <H, n> once per H.
The two-generator search runs inside the perfect residuum D of G, on the
classes of G that lie in D, and tries each unordered pair of classes once,
since <x, y> = <y, x>: the second entry comes only from classes at or after
the first entry's.  It works per cyclic subgroup, as <a^k, b^l> = <a, b>
for k, l prime to the orders: the first entry skips a class holding such a
power of an earlier first entry, and the second entry a centralizer orbit
holding such a power of an earlier second entry.  It builds no chain for a
pair that the orders of a, b and ab prove solvable (von Dyck), and builds
a pair with orders 2, 3, 5 at once, as it generates exactly A5.  Its cut
comes from the cap lemma: a proper perfect subgroup of the perfect D has
index at least 5, so order at most cap = |D| / 5, and order 60 or at least
120, when it is A5.  So a pair whose group passes the cap is skipped; when
cap < 60 (|D| < 300) D is the only seed, and when cap < 120 (|D| < 600)
only pairs of an involution and an element of order 3 with product of
order 5 are tried (``_perfect_seed_classes`` gives the proofs).
Classes are deduplicated by full conjugation orbits of element-id sets, so
the enumeration is exact.  Ids, positions in G's sorted element list, are
the lattice's one subgroup form: a class holds its subgroup H and the
normalizer N_G(H) as frozensets of ids, the form queries test, and each
conjugate of H as a sorted tuple of ids.  A class's orbit comes from the
one orbit-stabilizer walk, ``group._schreier_generators``, acting on those
tuples: a conjugation is one gather and one sort, both in C, with no hash
set built per conjugate, and the least tuple is the class's key.  Its
normalizer is grown from H as element ids, by a coset step (``_close_ids``,
Dimino's method) for each Schreier generator that lies outside it, with no
chain; cyclic extension reuses that step.  A normal H, whose orbit is H alone, takes N_G(H) = G with no step.
A class keeps the generators of its representative, and builds its chain
only when ``rep`` is read.

Maximal subgroups are read off the id sets by one walk
(``SubgroupLattice.maximal_subgroups_of``): a proper subgroup s of H is
maximal in H exactly when it lies in no maximal subgroup of H of larger
order, so the classes are walked by descending order, and s is kept when
no maximal subgroup found so far contains it.  The walk on G's own class
runs once per lattice (``SubgroupLattice.maximal``), and the maximal
classes of G, Phi(G) and ``classify_maximal`` read it.

``classify_maximal`` reads its report off G's lattice by id sets when it
is built, and otherwise off G's action on the cosets of M.  On both paths
a minimal normal subgroup, being T^k with T simple, is nonabelian exactly
when its order is no prime power (``_nonabelian_order``, proof in
``classify_maximal``).  The coset action's image is tested by
``group.is_primitive``, beside the chain or Alt/Sym record it reads; this
module builds no chain and reads none, only groups and their orders.

The socle certificate, the coset path and ``gensets.socle_block_projection``
find the simple factors of a nonabelian minimal normal N of G by one walk
(``simple_factors``), which scans one factor and conjugates it by G.  A
factor that is Alt of the 5 or more points it moves (``Group._alt_or_sym``,
read off its order) is simple with no scan, and when every factor is one
and together they move every point G moves, C_G(N) = 1 with no centralizer
cut (``check_monolithic_nonabelian``): S5 over A5 and A5 wr C2 over A5 x A5
are certified with no element listed.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from itertools import islice
from math import gcd, prod
from operator import itemgetter

from .group import (
    BoundExceeded,
    Group,
    _conjugations,
    _descend,
    _orbit_count,
    _orbits,
    _schreier_generators,
    _support,
    centralizer_in,
    commutator_subgroup,
    coset_action,
    is_primitive,
    normal_closure,
    subgroup_closure,
)
from .perm import Permutation, _check_bound, _mul, _order, _pow, is_prime, prime_factors


# ---------------------------------------------------------------------------
# perfectness and minimal normal subgroups

def is_perfect(G: Group) -> bool:
    return commutator_subgroup(G).order() == G.order()


def minimal_normal_subgroups(G: Group) -> list[Group]:
    """All minimal normal subgroups, ``minimal_normals_inside(G, G)``, kept
    on G."""
    if G.order() <= 1:
        raise ValueError("the trivial group has no minimal normal subgroups")
    if G._minimal_normals is None:
        G._minimal_normals = tuple(minimal_normals_inside(G, G))
    return list(G._minimal_normals)


def _minimal_normal_key(M: Group) -> tuple:
    """The order in which minimal normal subgroups are listed."""
    return M.order(), [g.imgs for g in M.generators]


def minimal_normals_inside(G: Group, K: Group) -> list[Group]:
    """The minimal normal subgroups of G that lie in K, a nontrivial normal
    subgroup of G, from normal closures of prime-order elements of K.

    Every minimal normal subgroup is the normal closure of any of its
    prime-order elements, so one element per G-class of prime-order
    elements of K suffices, and a closure that contains another is not
    minimal.  Only K is scanned: its non-identity elements are partitioned
    once into G-classes (``_orbits``, by least member), and each class
    takes the order of its least member, as conjugation keeps orders.  Each
    prime-order class is closed from its least member, and a closure of
    order |K| is K itself, so a minimal K is returned as the given group.
    Sorted by ``_minimal_normal_key``.
    """
    closures: list[Group] = []
    # the identity is the least element
    for cls in _orbits(K.elements_raw()[1:], _conjugations(G._raw_gens)):
        if not is_prime(_order(cls[0])):
            continue
        n = normal_closure(G, [Permutation._wrap(cls[0])])
        if n.order() == K.order():
            n = K
        if not any(n.order() == m.order() and n.is_subgroup_of(m) for m in closures):
            closures.append(n)
    return sorted((n for n in closures
                   if not any(m.order() < n.order() and m.is_subgroup_of(n) for m in closures)),
                  key=_minimal_normal_key)


def _nonabelian_order(order: int) -> bool:
    """Whether a T^k, T simple, of this order is nonabelian: exactly when
    the order is no prime power (proof in ``classify_maximal``)."""
    return len(prime_factors(order)) > 1


def _is_alt(H: Group) -> bool:
    """Whether H is Alt of the 5 or more points it moves, so simple."""
    giant = H._alt_or_sym
    return giant is not None and giant[2]


_NOT_A_PRODUCT = "N is not a direct product of simple factors that G permutes transitively"


def simple_factors(G: Group, N: Group) -> tuple[Group, ...]:
    """The simple direct factors of N, a nonabelian minimal normal subgroup
    of G, kept on N as its minimal normal subgroups.  Unless kept, they are
    walked as the G-orbit of a minimal normal F_1 of N; ValueError when F_1
    is abelian or the orbit's orders do not multiply to |N|.

    N's record (``Group._alt_or_sym``) is read first, with no closure,
    scan or chain: N that is Alt of the 5 or more points it moves is
    simple, so it is its own one factor.  N that is Sym of them raises
    ValueError: its normal subgroups are 1, Alt and N, so it is neither
    simple nor a product of two or more factors, each of which would be
    normal.  Otherwise F_1 lies in K = ncl_N(s), s being N's least
    non-identity element, the second member ``_descend`` yields.  s lies
    in the deepest level of N's chain (x[q] > q for q the least point x
    moves, so a larger q makes a smaller x), which on disjoint supports
    lies in one factor, so K is one factor.  K is F_1 with no scan when it
    is Alt of its points: a normal subgroup of N inside K is normal in K,
    which is simple.  Otherwise only K is scanned
    (``minimal_normals_inside``).  When K is too large to scan, ncl_K(s) is
    built: in a product of nonabelian simple groups K is the product of the
    factors on which s projects nontrivially, so ncl_K(s) = K; a smaller
    one raises ValueError, an equal one lets the scan's ``BoundExceeded``
    stand.  Distinct G-conjugates of F_1 meet trivially, so a conjugate
    lies in a factor the walk holds or is a new one, generated by the
    conjugated generators.
    """
    if N._minimal_normals is not None:
        return N._minimal_normals
    if N._alt_or_sym is not None:
        if not _is_alt(N):
            raise ValueError(_NOT_A_PRODUCT)
        N._minimal_normals = (N,)
        return N._minimal_normals
    seed = [Permutation._wrap(s) for s in islice(_descend(N), 1, 2)]
    K = normal_closure(N, seed)
    try:
        F = K if _is_alt(K) else minimal_normals_inside(N, K)[0]
    except BoundExceeded:
        if normal_closure(K, seed).order() != K.order():
            raise ValueError("N is not a direct product of its minimal normal subgroups")
        raise
    if not _nonabelian_order(F.order()):
        raise ValueError("socle is abelian")
    factors = [F]
    conjugations = list(_conjugations(G._raw_gens))
    for f in factors:  # grows while it is walked
        for conj in conjugations:
            y = conj(f._raw_gens[0])
            if not any(e._contains_raw(y) for e in factors):
                factors.append(subgroup_closure(G.degree, [conj(x) for x in f._raw_gens]))
    if prod(f.order() for f in factors) != N.order():
        raise ValueError(_NOT_A_PRODUCT)
    N._minimal_normals = tuple(sorted(factors, key=_minimal_normal_key))
    return N._minimal_normals


def check_monolithic_nonabelian(G: Group, N: Group) -> None:
    """Raise ValueError unless N is nonabelian and the only minimal normal
    subgroup of G; G is never enumerated.

    The certificate: N is a nontrivial normal subgroup; it has nonabelian
    minimal normal subgroups F_1..F_k with |F_1|..|F_k| = |N|; G permutes
    them transitively; and C_G(N) = 1.  Distinct F_i commute and meet
    trivially, and F_i inside the join of the others would centralize
    itself, so the order condition makes N = F_1 x .. x F_k with each F_i
    simple.  A normal subgroup of G inside N is then a product of factors
    that G leaves invariant, so transitivity makes N minimal normal.
    Another minimal normal M meets N trivially, so [M, N] = 1 and
    M <= C_G(N) = 1.  Conversely, if N is the unique minimal normal
    subgroup and nonabelian, all four conditions hold: C_G(N) is normal and
    meets N in Z(N) = 1, so a nontrivial C_G(N) would contain a second
    minimal normal subgroup (Dixon-Mortimer, *Permutation Groups*, 1996,
    sec. 4.3).

    The F_i are the factor walk's (``simple_factors``), run afresh, as kept
    factors say nothing of G's action.  A nonabelian minimal normal N is the
    product of F_1's G-orbit, which G permutes transitively by construction;
    the orbit is then all of N's minimal normal subgroups (another would lie
    in Z(N) = 1), and is kept on N.

    C_G(N) = 1 holds with no cut when every F_i is Alt of the 5 or more
    points Omega_i it moves and the Omega_i together hold every point G
    moves.  An element c of C_G(N) maps F_i onto F_i^c = F_i, so it maps
    Omega_i, the support of F_i, onto the support of F_i^c, which is
    Omega_i again; on Omega_i it then centralizes Alt(Omega_i), whose
    centralizer in Sym(Omega_i) is trivial, so c fixes every point of every
    Omega_i, and every point G moves, and c = 1.  Otherwise C_G(N) is cut
    down from G by one generator of N at a time, and the cut stops as soon
    as the result lies in N: it contains C_G(N), which then lies in
    Z(N) = 1.  So N = G takes no centralizer at all.
    """
    if N.order() == 1 or not N.is_normal_in(G):
        raise ValueError("N is not a nontrivial normal subgroup")
    N._minimal_normals = None  # walked afresh
    factors = simple_factors(G, N)
    if all(_is_alt(f) for f in factors) and frozenset().union(*map(_support, factors)) >= _support(G):
        return
    cent = G
    gens = iter(N.generators)
    while not cent.is_subgroup_of(N):
        x = next(gens, None)
        if x is None:
            raise ValueError("group is not monolithic: C_G(N) is not trivial")
        cent = centralizer_in(cent, x)


# ---------------------------------------------------------------------------
# subgroup lattice

class SubgroupClass:
    """One conjugacy class of subgroups: its subgroup H and N_G(H) as
    frozensets of ids (``ids``, ``normalizer_ids``), every conjugate of H as
    a sorted tuple of ids (``orbit``, in ascending order), plus the
    generators of H.  The class's ``key`` is its least conjugate,
    ``orbit[0]``, and its ``size`` the number of conjugates.

    The group ``rep`` = <gens> is built when first read, since a query reads
    only a few of them (the maximal classes, Phi(G), the minimal normal
    subgroups); a seed class is registered with the closure the seed search
    already built.
    """

    def __init__(self, gens: tuple, ids: frozenset, orbit: tuple,
                 degree: int, normalizer_ids: frozenset):
        self.gens = gens  # raw tuples
        self.ids = ids
        self.orbit = orbit  # sorted id tuples over the whole class
        self.degree = degree
        self.normalizer_ids = normalizer_ids

    @property
    def order(self) -> int:
        return len(self.ids)

    @property
    def size(self) -> int:
        return len(self.orbit)

    @property
    def key(self) -> tuple:
        return self.orbit[0]

    @cached_property
    def rep(self) -> Group:
        return subgroup_closure(self.degree, self.gens)


class SubgroupLattice:
    """Conjugacy classes of subgroups, sorted by (order, canonical key); the
    last class is G itself."""

    def __init__(self, elements, classes):
        self.elements = elements  # id -> raw image tuple
        self.classes: list[SubgroupClass] = classes

    def maximal_subgroups_of(self, i: int) -> list[frozenset]:
        """The maximal subgroups of class i's subgroup H, as id sets.

        The classes are walked by descending order, and a proper subgroup
        s of H is kept exactly when no maximal subgroup found so far
        contains it.  That is exact: a proper subgroup of H above s has
        larger order and lies in a maximal subgroup of H, which has larger
        order too and so was found before s; and a maximal s lies in no
        other proper subgroup.  When H is normal (class size 1), conjugation
        by G maps H's subgroups, and its maximal ones, onto themselves, so
        the members of a class all lie in H and are maximal there exactly
        when its representative does and is: only that one is tested, and
        the whole orbit kept.
        """
        h = self.classes[i]
        found: list[frozenset] = []
        for c in reversed(self.classes):
            if c.order >= h.order or h.order % c.order:
                continue
            if h.size > 1:
                found += [frozenset(s) for s in c.orbit
                          if h.ids.issuperset(s) and not any(m.issuperset(s) for m in found)]
            elif c.ids <= h.ids and not any(c.ids <= m for m in found):
                found += map(frozenset, c.orbit)
        return found

    @cached_property
    def maximal(self) -> dict[frozenset, SubgroupClass]:
        """G's maximal subgroups, each id set mapped to its class: the walk
        ``maximal_subgroups_of(-1)``, run once per lattice and read by
        ``maximal_classes``, ``frattini`` and ``classify_maximal``.  G is
        normal, so the walk keeps whole class orbits."""
        found = set(self.maximal_subgroups_of(-1))
        return {frozenset(s): c for c in self.classes if c.ids in found for s in c.orbit}

    def maximal_classes(self) -> list[SubgroupClass]:
        """The classes of G's maximal subgroups."""
        return [c for c in self.classes if c.ids in self.maximal]

    def normal_rep(self, ids: frozenset) -> Group:
        """The normal subgroup of G with these ids: the ``rep`` of its
        one-member class."""
        return next(c.rep for c in self.classes if c.ids == ids)


def _perfect_residuum(G: Group) -> Group:
    """The last term of the derived series G >= G' >= G'' >= ..., which is
    perfect; a term of order below 60 is returned as soon as it is reached,
    since no nontrivial perfect group is that small."""
    D = G
    while True:
        E = commutator_subgroup(D)
        if E.order() == D.order() or E.order() < 60:
            return E
        D = E


def _von_dyck_solvable(l: int, m: int, n: int) -> bool:
    """Whether every group generated by a, b with a, b, ab of orders l, m, n
    is solvable, read off the triangle group D(l, m, n).

    <a, b> is a quotient of D(l, m, n) = <x, y | x^l, y^m, (xy)^n>.  When
    1/l + 1/m + 1/n >= 1 that group is dihedral for (2, 2, n), A4 for
    (2, 3, 3), S4 for (2, 3, 4), A5 for (2, 3, 5), and infinite but
    solvable for the Euclidean triples (2, 3, 6), (2, 4, 4), (3, 3, 3)
    (Coxeter-Moser, *Generators and Relations for Discrete Groups*, 1957,
    ch. 4).  So the pair generates a solvable group unless the triple is
    (2, 3, 5) up to order or the sum is below 1.  A (2, 3, 5) pair
    generates exactly A5: D(2, 3, 5) = A5 is simple, so its only quotient
    in which the image of x is not 1 is A5 itself.
    """
    return m * n + l * n + l * m >= l * m * n and sorted((l, m, n)) != [2, 3, 5]


def _perfect_seed_classes(G: Group):
    """Candidate perfect subgroups: D, the perfect residuum of G, and <a, b>
    with both in D, a over class representatives, one per rational class,
    and b over centralizer orbits, one per cyclic subgroup.

    Every perfect group at desk-scale orders is 2-generated, so this layer
    together with cyclic extension is exhaustive here.  A perfect subgroup P
    equals its own derived subgroups, so it lies in every term of G's
    derived series, and in D; a solvable G has D = 1 and no seed.  D is
    normal, so every class of G lies inside D or misses it, and D's classes
    are those of G's classes (``conjugacy_classes_raw``, which the lattice
    query has built already) whose least member lies in D; D itself is
    never enumerated.  <x, y> = <y, x>, so each unordered pair is tried once:
    with x in class i, y in class j and i <= j, conjugating x to the
    representative a of class i and then y by C_G(a) to its orbit
    representative b gives a conjugate <a, b> with b still in class j.  So
    b is drawn only from classes j >= i, and C_G(a) orbits only those,
    except in the A5-only case below.

    The cap lemma.  A proper subgroup of D of index k < 5 would map D onto
    a nontrivial transitive subgroup of the solvable S_k by its coset
    action, impossible for a perfect D, so a proper perfect subgroup P of D
    has |P| <= cap = |D| / 5.  A nontrivial P has a maximal normal subgroup
    K, and P/K is simple and perfect, so nonabelian: |P/K| >= 60.  So
    |P| >= 60, and |P| < 120 forces K = 1 and P = P/K simple of order
    below 120, which is A5, the only nonabelian simple group of order below
    168.  Hence:

    * cap < 60 (|D| < 300): D has no proper perfect subgroup, and is its
      own only seed; no pair is tried;
    * cap < 120 (|D| < 600): every proper perfect subgroup is an A5.  For
      each involution a of an A5 there is b in it with b, ab of orders 3
      and 5, as A5's involutions form one class and (1,2)(3,4) (1,3,5) has
      order 5; and <a, b> = A5, as below.  So a runs over the involution
      classes only, b over the C_G(a)-orbits of all elements of order 3,
      with no order on the classes, and only pairs with ab of order 5 are
      kept;
    * any D: a pair with a, b, ab of orders 2, 3, 5 in some order generates
      exactly A5 (``_von_dyck_solvable``), so it is kept with no chain
      built beforehand and no perfectness test.

    A subgroup depends only on the cyclic subgroups of its generators:
    <a^k, y> = <a, y> and <x, b^l> = <x, b> for k, l prime to the orders of
    a and b.  Two power cuts follow:

    * class i is skipped when it holds a^k for the representative a of an
      earlier class tried, k prime to |a|: a pair from class i is then
      conjugate to a pair <a, y> with y in a class j >= i, and a's pass
      already runs b over those classes;
    * with a fixed, a C_G(a)-orbit is skipped when it holds b^l for the
      representative b of an orbit tried earlier, l prime to |b|: since
      conjugation by C_G(a) commutes with powers, the orbit's
      representative is c^-1 b^l c for some c in C_G(a), and
      <a, c^-1 b^l c> = c^-1 <a, b> c.

    Three more cuts skip a pair's closure or its perfectness test:

    * a commuting pair generates an abelian group, and a pair whose orders
      of a, b, ab pass ``_von_dyck_solvable`` a solvable one; neither is
      ever perfect, so the pair is skipped;
    * a pair with |<a, b>| above the cap has <a, b> = D, already a seed,
      and is skipped once its closure is built;
    * many pairs still generate the same subgroup: <a, b> is skipped when a
      subgroup T tried earlier has its order and contains a and b, since
      then <a, b> = T.  A (2, 3, 5) pair has order 60 before any build, so
      its test comes first and a repeat builds nothing.

    So each distinct subgroup is tested once, and the first pair that
    reaches it supplies its generators.
    """
    D = _perfect_residuum(G)
    if D.order() < 60:
        return []
    cap = D.order() // 5
    if cap < 60:
        return [D]
    a5_only = cap < 120
    classes = [cls for cls in G.conjugacy_classes_raw() if D._contains_raw(cls[0])]
    orders = [_order(cls[0]) for cls in classes]
    threes = [j for j, o in enumerate(orders) if o == 3]
    class_of = {x: i for i, cls in enumerate(classes) for x in cls}
    out = [D]
    tried: list[Group] = []

    def known(order, a, b):
        return any(T.order() == order and T._contains_raw(a) and T._contains_raw(b)
                   for T in tried)

    done_classes = set()
    for i in range(1, len(classes)):  # class 0 is the identity
        if i in done_classes or (a5_only and orders[i] != 2):
            continue
        a = classes[i][0]
        order_a = orders[i]
        done_classes.update(class_of[x] for x in _generators_of_cyclic(a, order_a))
        cent = centralizer_in(G, Permutation._wrap(a))
        partners = threes if a5_only else range(i, len(classes))
        orbits = _orbits([x for j in partners for x in classes[j]], _conjugations(cent._raw_gens))
        orbit_of = {x: k for k, orbit in enumerate(orbits) for x in orbit}
        done_orbits = set()
        for k, orbit in enumerate(orbits):
            if k in done_orbits:
                continue
            b = orbit[0]
            order_b = _order(b)
            # a power of b outside the partner classes lies in no orbit here
            done_orbits.update(orbit_of.get(x) for x in _generators_of_cyclic(b, order_b))
            ab = _mul(a, b)
            order_ab = _order(ab)
            if sorted((order_a, order_b, order_ab)) == [2, 3, 5]:
                if not known(60, a, b):
                    H = subgroup_closure(G.degree, (a, b))
                    tried.append(H)
                    out.append(H)
                continue
            if a5_only or ab == _mul(b, a) or _von_dyck_solvable(order_a, order_b, order_ab):
                continue
            H = subgroup_closure(G.degree, (a, b))
            if H.order() > cap:
                continue
            if H.order() < 60 or known(H.order(), a, b):
                continue
            tried.append(H)
            if is_perfect(H):
                out.append(H)
    return out


def _generators_of_cyclic(x, order: int):
    """The generators x^k (0 < k < order, k prime to order) of <x>."""
    yield x
    y = x
    for k in range(2, order):
        y = _mul(y, x)
        if gcd(k, order) == 1:
            yield y


def _close_ids(ids: set, members: list, moves, id_of) -> None:
    """Grow the subgroup L, given by its ids and members, in place to
    <L, moves> by Dimino's coset step (Butler, *Fundamental Algorithms for
    Permutation Groups*, LNCS 559, 1991, ch. 7): for each coset rep r found
    so far and each move g, an r g outside the union adds the coset L r g.
    The union of right cosets is then closed under the moves, and under L
    too (hence a group) when L's generators are among the moves or the
    moves normalize L, as L r l = r L l = L r.
    """
    old = tuple(members)
    reps = [None]  # None: the coset L itself
    for r in reps:
        for g in moves:
            y = g if r is None else _mul(r, g)
            if id_of[y] in ids:
                continue
            coset = [_mul(x, y) for x in old]
            ids.update(map(id_of.__getitem__, coset))
            members += coset
            reps.append(y)


def _cyclic_extension_ids(h_ids, h_elems, n, id_of) -> frozenset:
    """The ids of J = <H, n> = H u Hn u ... u Hn^(p-1), for n normalizing H
    with n^p in H: one coset step by n alone."""
    j_ids = set(h_ids)
    _close_ids(j_ids, list(h_elems), (n,), id_of)
    return frozenset(j_ids)


def _enumerate_classes(G: Group) -> SubgroupLattice:
    elems = G.elements_raw()
    degree = G.degree
    order = G.order()
    id_of, tables = G._element_index()
    ident_id = id_of[tuple(range(degree))]
    all_ids = frozenset(range(order))
    n_gens = G._raw_gens

    seen: set[tuple] = set()  # every member of every class
    classes: list[SubgroupClass] = []

    # conjugation of sorted id tuples by each parent generator, gathered and
    # sorted in C; a tuple of one id is the trivial group, which every
    # conjugation fixes
    moves = [lambda s, table=table: tuple(sorted(itemgetter(*s)(table))) if len(s) > 1 else s
             for table in tables]

    def register(ids: frozenset, gens_raw: tuple, rep: Group | None = None) -> int | None:
        """Dedup against every known conjugate; take the orbit, and grow the
        normalizer L from H by the Schreier generators of H's stabilizer
        under conjugation that lie outside L, one coset step each, until
        |L| = |G| / |orbit|."""
        start = tuple(sorted(ids))
        if start in seen:
            return None
        _check_bound("lattice", len(classes) + 1, "subgroup classes")
        orbit, schreier = _schreier_generators(degree, n_gens, moves, start)
        target = order // len(orbit)
        # a normal H, with an orbit of one, has N_G(H) = G and needs no step
        norm_ids = all_ids if target == order else set(ids)
        if len(norm_ids) < target:
            members, norm_gens = [elems[i] for i in ids], list(gens_raw)
            for s in schreier:
                if id_of[s] in norm_ids:
                    continue
                norm_gens.append(s)
                _close_ids(norm_ids, members, norm_gens, id_of)
                if len(norm_ids) >= target:
                    break
        seen.update(orbit)
        cls = SubgroupClass(
            gens=gens_raw, ids=ids, orbit=tuple(sorted(orbit)),
            degree=degree, normalizer_ids=frozenset(norm_ids))
        if rep is not None:
            cls.rep = rep
        classes.append(cls)
        return len(classes) - 1

    # trivial class
    register(frozenset([ident_id]), ())

    # layer 1: prime-order cyclic subgroups, one per element class
    work: deque[int] = deque()
    for cls in G.conjugacy_classes_raw():
        x = cls[0]
        o = _order(x)
        if is_prime(o):
            ids = frozenset(id_of[_pow(x, k)] for k in range(o))
            idx = register(ids, (x,))
            if idx is not None:
                work.append(idx)

    # perfect base layer
    for H in _perfect_seed_classes(G):
        ids = frozenset(id_of[p] for p in H.elements_raw())
        idx = register(ids, H._raw_gens, H)
        if idx is not None:
            work.append(idx)

    # cyclic extension by prime-order cosets of the normalizer, walked in
    # sorted order by id.  Each J = <H, n> is built once: its ids join
    # ``visited``, since every other coset H n^k (0 < k < p) in J has n^k H
    # of the same order p in N/H, so it would only build J again
    while work:
        cls = classes[work.popleft()]
        index = len(cls.normalizer_ids) // cls.order
        if index == 1:
            continue
        h_ids = cls.ids
        h_elems = [elems[i] for i in h_ids]
        primes = list(prime_factors(index))
        visited = set(h_ids)
        for i in sorted(cls.normalizer_ids):
            if i in visited:
                continue
            # n is the least member of a fresh coset H*n
            n = elems[i]
            if not any(id_of[_pow(n, p)] in h_ids for p in primes):
                visited.update(id_of[_mul(h, n)] for h in h_elems)
                continue
            j_ids = _cyclic_extension_ids(h_ids, h_elems, n, id_of)
            visited.update(j_ids)
            new_idx = register(j_ids, cls.gens + (n,))
            if new_idx is not None:
                work.append(new_idx)

    classes.sort(key=lambda c: (c.order, c.key))
    return SubgroupLattice(elems, classes)


def all_subgroups(G: Group) -> SubgroupLattice:
    """Full subgroup lattice, one representative per conjugacy class.

    Built once per group and kept on it, so later calls return the same
    object.  ``BoundExceeded`` is raised, leaving nothing kept on G, by a
    new class past ``BOUNDS["lattice"]`` classes, before its orbit is
    walked, and by |G| past ``BOUNDS["elements"]``, before any indexing.
    """
    if G._lattice is None:
        G._lattice = _enumerate_classes(G)
    return G._lattice


def frattini(G: Group) -> Group:
    """Phi(G), the intersection of G's maximal subgroups, read as id sets off
    the lattice walk on G's own class (the last); Phi(G) is normal, so it is
    the lone member of a lattice class, whose ``rep`` is returned."""
    lat = all_subgroups(G)
    return lat.normal_rep(frozenset(range(len(lat.elements))).intersection(*lat.maximal))


# ---------------------------------------------------------------------------
# maximal subgroup classification

class MaximalSubgroupReport:
    def __init__(self, subgroup: Group, core: Group, quotient_order: int,
                 primitive_type: int, intersection_shape: str):
        self.subgroup = subgroup
        self.core = core
        self.quotient_order = quotient_order
        self.primitive_type = primitive_type  # 1, 2 or 3
        # coordinate / diagonal / trivial / not-applicable
        self.intersection_shape = intersection_shape


def classify_maximal(G: Group, M: Group) -> MaximalSubgroupReport:
    """Core, primitive type of G/core, and the socle-intersection shape.

    Raises ValueError when M is not a subgroup of G or is not maximal in G.
    Both paths below call a minimal normal subgroup nonabelian by its order
    alone, with no commutator taken: it is T^k with T simple
    (Dixon-Mortimer, *Permutation Groups*, 1996, sec. 4.3), so it is
    abelian exactly when T has prime order, that is when its order is a
    prime power, as a nonabelian simple T has at least three prime divisors
    (Burnside's p^a q^b theorem).

    When G's lattice is built (``all_subgroups``) the report is read off
    its id sets, with no coset action, image chain or kernel
    (``_classify_on_lattice``):

    * M is maximal exactly when a maximal subgroup S of G
      (``SubgroupLattice.maximal``) has |S| = |M| and holds M's generators:
      then M <= S with equal orders, so M = S; and a maximal M is such an S.
    * core_G(M) is the meet of M's conjugates, the orbit of S's class.  It
      is normal, so it is the one member of its class, whose ``rep`` is
      returned.
    * The minimal normal subgroups of G/core are the N/core for N
      inclusion-minimal among the normal subgroups of G strictly above the
      core (correspondence theorem), and N/core is nonabelian when
      |N|/|core| is no prime power.
    * M/core is the point stabilizer of G/core on the cosets of M, so for
      type 2 the socle N/core meets it in (N meet M)/core.

    The coset path (``_classify_by_cosets``) runs when G has no lattice,
    and on a built one for a type-2 socle of proper-power order (A5^2 in
    A5 wr C2 over its diagonal), whose simple factors decide the shape.
    """
    if M.order() >= G.order():
        raise ValueError("M is not maximal in G")
    if G._lattice is not None:
        if not M.is_subgroup_of(G):
            raise ValueError("H is not a subgroup of G")
        report = _classify_on_lattice(G, M)
        if report is not None:
            return report
    return _classify_by_cosets(G, M)


def _primitive_type(mins: int, nonabelian: int) -> int:
    """The type of a primitive group from its numbers of minimal normal
    subgroups and of nonabelian ones: 1 with an abelian one (affine), 3
    with two nonabelian ones, 2 with one."""
    if mins != nonabelian:
        return 1
    if nonabelian > 2:
        raise AssertionError("primitive group with more than two minimal normals")
    return 3 if nonabelian == 2 else 2


def _simple_socle_shape(soc_order: int, stabilizer_order: int) -> str | None:
    """The shape of I = soc meet M for a type-2 socle soc = T^k, T simple,
    of the given order, whose point stabilizer I has the given order:
    trivial when I is, else coordinate when |soc| is no proper power (the
    exponents of its prime factorization having gcd 1), since that proves
    k = 1; None when |soc| is a proper power, and the factors decide."""
    if stabilizer_order == 1:
        return "trivial"
    if gcd(*prime_factors(soc_order).values()) == 1:
        return "coordinate"
    return None


def _classify_on_lattice(G: Group, M: Group) -> MaximalSubgroupReport | None:
    """The report read off G's lattice (proofs in ``classify_maximal``),
    for M a subgroup of G; None for a type-2 socle of proper-power order."""
    lat = G._lattice
    id_of = G._element_index()[0]
    gens = {id_of[g] for g in M._raw_gens}
    S = next((s for s in lat.maximal if len(s) == M.order() and gens <= s), None)
    if S is None:
        raise ValueError("M is not maximal in G")
    core = S.intersection(*lat.maximal[S].orbit)
    k = len(core)
    above = [c.ids for c in lat.classes if c.size == 1 and core < c.ids]
    mins = [n for n in above if not any(m < n for m in above)]
    nonab = [n for n in mins if _nonabelian_order(len(n) // k)]
    ptype = _primitive_type(len(mins), len(nonab))
    shape = "not-applicable"
    if ptype == 2:
        shape = _simple_socle_shape(len(nonab[0]) // k, len(nonab[0] & S) // k)
        if shape is None:
            return None
    return MaximalSubgroupReport(
        subgroup=M, core=lat.normal_rep(core), quotient_order=G.order() // k,
        primitive_type=ptype, intersection_shape=shape)


def _classify_by_cosets(G: Group, M: Group) -> MaximalSubgroupReport:
    """The report read off G's action on the cosets of M; the action is the
    maximality certificate: it must be primitive.

    When the core is trivial the coset action is an isomorphism onto the
    image, and an isomorphism maps the minimal normal subgroups of G onto
    those of the image (Dixon-Mortimer, *Permutation Groups*, 1996,
    sec. 4.3).  So the minimal normal subgroups (``minimal_normal_subgroups``)
    and the socle's simple factors (``simple_factors``) are read on G, kept,
    found once however many maximal classes are classified, and carried to
    the image through ``act``: the image is never scanned.  A nontrivial
    core reads them on the image itself.

    For type 2 the shape of I = soc meet M comes from orbit counts of the
    factors' images.  Point 0 is the coset M, so M's image meets each K
    normal in the socle in K_0, and |K_0| = |K| * orbits(K) / n as the socle
    is transitive.  So I is trivial iff |soc| = n, and coordinate iff |I| is
    the product of the |F_0| over the simple factors F.  I projects onto F
    iff soc = I * R_F, R_F the product of the other factors, that is iff R_F
    is transitive (Frattini argument); I is diagonal iff that holds for
    every F.  A socle of no proper-power order is simple
    (``_simple_socle_shape``): I is trivial or coordinate with no factor
    read and no image taken.
    """
    image, hom = coset_action(G, M)
    if not is_primitive(image):
        raise ValueError("M is not maximal in G")
    core = hom.kernel()
    source, act = (G, hom._apply) if core.order() == 1 else (image, lambda p: p)
    mins = minimal_normal_subgroups(source)
    nonab = [m for m in mins if _nonabelian_order(m.order())]
    ptype = _primitive_type(len(mins), len(nonab))

    shape = "not-applicable"
    if ptype == 2:
        soc, n = nonab[0], image.degree
        shape = _simple_socle_shape(soc.order(), soc.order() // n)
        if shape is None:
            factors = simple_factors(source, soc)
            images = [[act(g) for g in f._raw_gens] for f in factors]
            if prod(f.order() * _orbit_count(n, gens) // n
                    for f, gens in zip(factors, images)) == soc.order() // n:
                shape = "coordinate"
            elif all(_orbit_count(n, [g for other in images if other is not gens for g in other]) == 1
                     for gens in images):
                shape = "diagonal"
            else:
                raise AssertionError("socle intersection fits no expected shape")
    return MaximalSubgroupReport(
        subgroup=M, core=core, quotient_order=image.order(),
        primitive_type=ptype, intersection_shape=shape)
