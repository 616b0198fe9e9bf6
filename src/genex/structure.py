"""Structural analysis: minimal normal subgroups, subgroup lattice, maximal types.

The subgroup lattice is enumerated bottom-up: a perfect base layer found by
two-generator search, then cyclic extension by prime-order cosets of the
normalizer (the cyclic-extension method, Holt-Eick-O'Brien, *Handbook of
CGT*, 2005).  The two-generator search tries each unordered pair of classes
once, since <x, y> = <y, x>: the second entry comes only from classes at or
after the first entry's (``_perfect_seed_classes``).  Classes are
deduplicated by full conjugation orbits of element-id sets, so the
enumeration is exact; each class's orbit and its normalizer come from the
one orbit-stabilizer routine, ``group._stabilizer``, acting on those id
sets.  With ``max_order`` below the group order the same machinery yields
every conjugacy class of subgroups of order at most the bound (any
subgroup's construction chain stays inside it), which is how the large
symmetric/alternating groups are handled.

``classify_maximal`` reads the minimal normal subgroups on G, not on the
coset image, whenever the action is faithful: an isomorphism carries the
minimal normal subgroups of G onto those of its image, so they are found
once per G and kept there, and only their generators are mapped.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import prod

from .group import (
    DEFAULT_MAX_POINTS,
    BoundExceeded,
    Group,
    _conjugation_orbits,
    _orbit_count,
    _stabilizer,
    centralizer_in,
    commutator_subgroup,
    coset_action,
    normal_closure,
    subgroup_closure,
)
from .perm import Permutation, _inv, _mul, _order, _pow, is_prime, prime_factors

DEFAULT_LATTICE_BOUND = 2000


# ---------------------------------------------------------------------------
# perfectness and minimal normal subgroups

def is_perfect(G: Group) -> bool:
    return commutator_subgroup(G).order() == G.order()


def minimal_normal_subgroups(G: Group) -> list[Group]:
    """All minimal normal subgroups, from normal closures of prime-order elements.

    Every minimal normal subgroup is the normal closure of any of its
    prime-order elements, so one element per class of prime-order elements
    suffices.  Those classes are the conjugation orbits of the prime-order
    elements alone; the rest of G is never orbited.  The result is kept on G.
    """
    if G.order() <= 1:
        raise ValueError("the trivial group has no minimal normal subgroups")
    if G._minimal_normals is not None:
        return list(G._minimal_normals)
    pairs = [(g, _inv(g)) for g in G._raw_gens]
    prime_order = [p for p in G.elements_raw() if is_prime(_order(p))]
    closures: list[Group] = []
    for orbit in _conjugation_orbits(prime_order, pairs):
        n = normal_closure(G, [Permutation._wrap(orbit[0])])
        if not any(n.order() == m.order() and n.is_subgroup_of(m) for m in closures):
            closures.append(n)
    minimal = []
    for n in closures:
        if not any(m.order() < n.order() and m.is_subgroup_of(n) for m in closures):
            minimal.append(n)
    minimal.sort(key=lambda m: (m.order(), [g.imgs for g in m.generators]))
    G._minimal_normals = tuple(minimal)
    return minimal


# ---------------------------------------------------------------------------
# blocks and primitivity

def minimal_block(degree: int, raw_gens, alpha: int, beta: int) -> list[int]:
    """Class representatives of the finest G-congruence merging alpha and beta."""
    parent = list(range(degree))

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return None
        if ry < rx:
            rx, ry = ry, rx
        parent[ry] = rx
        return ry

    union(alpha, beta)
    queue = deque([beta])
    while queue:
        gamma = queue.popleft()
        delta = find(gamma)
        for g in raw_gens:
            lost = union(g[gamma], g[delta])
            if lost is not None:
                queue.append(lost)
    return [find(i) for i in range(degree)]


def is_transitive(G: Group) -> bool:
    return G._orbits <= 1


def is_primitive(G: Group) -> bool:
    """Transitive with no nontrivial block system."""
    n = G.degree
    if not is_transitive(G):
        return False
    if n == 1:
        return True
    gens = G._raw_gens
    for beta in range(1, n):
        reps = minimal_block(n, gens, 0, beta)
        if len(set(reps)) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# subgroup lattice

@dataclass
class SubgroupClass:
    """One conjugacy class of subgroups: representative, ids, normalizer, orbit data."""

    rep: Group
    ids: frozenset
    size: int
    key: tuple
    normalizer: Group
    orbit: tuple | None  # frozensets of ids over the whole class (full mode)

    @property
    def order(self) -> int:
        return len(self.ids)


class SubgroupLattice:
    """Conjugacy classes of subgroups, sorted by (order, canonical key).

    ``complete`` is True when every subgroup class of the parent is present;
    otherwise the enumeration is exact for classes of order <= ``max_order``
    and silent about anything larger.
    """

    def __init__(self, parent, elements, classes, max_order, complete):
        self.parent: Group = parent
        self.elements = elements  # id -> raw image tuple
        self.classes: list[SubgroupClass] = classes
        self.max_order = max_order
        self.complete = complete
        self._flags: list[bool] | None = None

    @property
    def groups(self) -> list[Group]:
        return [c.rep for c in self.classes]

    @property
    def class_sizes(self) -> list[int]:
        return [c.size for c in self.classes]

    @property
    def maximality_flags(self) -> list[bool]:
        """Per class: no lattice class strictly between it and the parent."""
        if not self.complete:
            raise ValueError("maximality flags require a complete lattice")
        if self._flags is None:
            self._flags = self._compute_flags()
        return self._flags

    def _compute_flags(self):
        full = self.parent.order()
        bigger_first = sorted(range(len(self.classes)),
                              key=lambda i: -self.classes[i].order)
        flags = []
        for i, cls in enumerate(self.classes):
            if cls.order == full:
                flags.append(False)
                continue
            maximal = True
            for j in bigger_first:
                other = self.classes[j]
                if other.order >= full or other.order <= cls.order:
                    continue
                if other.order % cls.order:
                    continue
                if self.contained_up_to_conjugacy(i, j):
                    maximal = False
                    break
            flags.append(maximal)
        return flags

    def contained_up_to_conjugacy(self, i: int, j: int) -> bool:
        """Some conjugate of class i's subgroups lies inside class j's rep."""
        small, big = self.classes[i], self.classes[j]
        if big.order % small.order:
            return False
        if small.orbit is None:
            raise ValueError("containment test requires retained orbits")
        return any(s <= big.ids for s in small.orbit)

    def maximal_classes(self) -> list[SubgroupClass]:
        return [c for c, f in zip(self.classes, self.maximality_flags) if f]


def _perfect_seed_classes(G: Group, max_order: int):
    """Candidate perfect subgroups: <a, b> with both in G', a over class
    representatives, b over centralizer orbits of the classes from a's on.

    Every perfect group at desk-scale orders is 2-generated, so this layer
    together with cyclic extension is exhaustive here.  G' is normal, so its
    G-orbits are the classes of G inside it, and their least members are the
    class representatives; G itself is never enumerated.  <x, y> = <y, x>, so
    each unordered pair is tried once: with x in class i, y in class j and
    i <= j, conjugating x to the representative a of class i and then y by
    C_G(a) to its orbit representative b gives a conjugate <a, b> with b
    still in class j.  So b is drawn only from classes j >= i, and C_G(a)
    orbits only those.  A commuting pair generates an abelian group, which
    is never perfect, and is skipped.  Many pairs still generate the same
    subgroup: <a, b> is skipped when a subgroup T tried earlier has its order
    and contains a and b, since then <a, b> = T.  So each distinct subgroup
    is tested once, and the first pair that reaches it supplies its
    generators.
    """
    derived = commutator_subgroup(G)
    if derived.order() < 60:
        return []
    pairs = [(g, _inv(g)) for g in G._raw_gens]
    classes = _conjugation_orbits(derived.elements_raw(), pairs)
    out = []
    tried: list[Group] = []
    for i in range(1, len(classes)):  # class 0 is the identity
        a = classes[i][0]
        cent = centralizer_in(G, Permutation._wrap(a))
        cgens = [(g, _inv(g)) for g in cent._raw_gens]
        for orbit in _conjugation_orbits([x for cls in classes[i:] for x in cls], cgens):
            b = orbit[0]
            if _mul(a, b) == _mul(b, a):
                continue
            H = subgroup_closure(G.degree, [a, b])
            if not 60 <= H.order() <= max_order or any(
                    T.order() == H.order() and T._contains_raw(a) and T._contains_raw(b)
                    for T in tried):
                continue
            tried.append(H)
            if is_perfect(H):
                out.append(H)
    return out


def _enumerate_classes(G: Group, max_order: int, keep_orbits: bool) -> SubgroupLattice:
    elems = G.elements_raw()
    degree = G.degree
    id_of, tables = G._element_index()
    ident_id = id_of[tuple(range(degree))]
    n_gens = G._raw_gens

    seen: set[tuple] = set()
    classes: list[SubgroupClass] = []

    # conjugation of id sets by each parent generator
    moves = [lambda s, table=table: frozenset(map(table.__getitem__, s)) for table in tables]

    def register(ids: frozenset, gens_raw: tuple) -> int | None:
        """Dedup against every known conjugate; take orbit and normalizer."""
        if tuple(sorted(ids)) in seen:
            return None
        norm_gens, chain, orbit = _stabilizer(degree, G.order(), n_gens, moves, ids)
        keys = {s: tuple(sorted(s)) for s in orbit}
        seen.update(keys.values())
        classes.append(SubgroupClass(
            rep=subgroup_closure(degree, gens_raw), ids=ids, size=len(orbit),
            key=min(keys.values()), normalizer=subgroup_closure(degree, norm_gens, chain),
            orbit=tuple(sorted(orbit, key=keys.__getitem__)) if keep_orbits else None))
        return len(classes) - 1

    # trivial class
    register(frozenset([ident_id]), ())

    # layer 1: prime-order cyclic subgroups, one per element class
    work: deque[int] = deque()
    for cls in G.conjugacy_classes_raw():
        x = cls[0]
        o = _order(x)
        if is_prime(o) and o <= max_order:
            ids = frozenset(id_of[_pow(x, k)] for k in range(o))
            idx = register(ids, (x,))
            if idx is not None:
                work.append(idx)

    # perfect base layer
    for H in _perfect_seed_classes(G, max_order):
        ids = frozenset(id_of[p] for p in H.elements_raw())
        idx = register(ids, tuple(g.imgs for g in H.generators))
        if idx is not None:
            work.append(idx)

    # cyclic extension by prime-order cosets of the normalizer
    while work:
        idx = work.popleft()
        cls = classes[idx]
        h_order = cls.order
        norm = cls.normalizer
        index = norm.order() // h_order
        if index == 1:
            continue
        h_ids = cls.ids
        h_elems = [elems[i] for i in sorted(h_ids)]
        primes = [p for p in prime_factors(index) if p * h_order <= max_order]
        if not primes:
            continue
        visited = set(h_ids)
        for n in norm.elements_raw():
            i = id_of[n]
            if i in visited:
                continue
            # n is the least member of a fresh coset H*n
            coset_ids = [id_of[_mul(h, n)] for h in h_elems]
            visited.update(coset_ids)
            for p in primes:
                if id_of[_pow(n, p)] in h_ids:
                    j_ids = set(h_ids)
                    x = n
                    for _ in range(p - 1):
                        j_ids.update(id_of[_mul(h, x)] for h in h_elems)
                        x = _mul(x, n)
                    new_idx = register(frozenset(j_ids), cls.rep._raw_gens + (n,))
                    if new_idx is not None:
                        work.append(new_idx)
                    break

    classes.sort(key=lambda c: (c.order, c.key))
    return SubgroupLattice(G, elems, classes, max_order,
                           complete=max_order >= G.order())


def all_subgroups(G: Group, lattice_bound: int = DEFAULT_LATTICE_BOUND) -> SubgroupLattice:
    """Full subgroup lattice, one representative per conjugacy class.

    Built once per group and kept on it, so later calls return the same
    object; the bound is checked on every call, cached or not.
    """
    if G.order() > lattice_bound:
        raise BoundExceeded(
            f"group order {G.order()} exceeds the lattice bound {lattice_bound}")
    if G._lattice is None:
        G._lattice = _enumerate_classes(G, G.order(), keep_orbits=True)
    return G._lattice


def subgroup_classes_up_to(G: Group, max_order: int) -> SubgroupLattice:
    """Every conjugacy class of subgroups of order <= max_order (exact).

    A bound below 1 raises ValueError: even the trivial subgroup is above it.
    """
    if max_order < 1:
        raise ValueError(f"max_order {max_order} is below 1, the order of the trivial subgroup")
    return _enumerate_classes(G, min(max_order, G.order()), keep_orbits=False)


def frattini(G: Group, lattice_bound: int = DEFAULT_LATTICE_BOUND) -> Group:
    """Intersection of all maximal subgroups, expanding conjugacy classes;
    Phi(G) is normal, so it is the lone member of a lattice class."""
    lat = all_subgroups(G, lattice_bound)
    ids = frozenset(range(len(lat.elements)))
    for cls in lat.maximal_classes():
        ids = ids.intersection(*cls.orbit)
    return next(cls.rep for cls in lat.classes if cls.ids == ids)


# ---------------------------------------------------------------------------
# maximal subgroup classification

@dataclass
class MaximalSubgroupReport:
    subgroup: Group
    core: Group
    quotient_order: int
    primitive_type: int  # 1, 2 or 3
    intersection_shape: str  # coordinate / diagonal / trivial / not-applicable


def classify_maximal(G: Group, M: Group, max_points: int = DEFAULT_MAX_POINTS) -> MaximalSubgroupReport:
    """Core, primitive type of G/core, and the socle-intersection shape.

    Raises ValueError when M is not maximal (the coset action is the
    maximality certificate: it must be primitive).

    When the core is trivial the coset action is an isomorphism onto the
    image, and an isomorphism maps the minimal normal subgroups of G onto
    those of the image (Dixon-Mortimer, *Permutation Groups*, 1996,
    sec. 4.3).  So the minimal normal subgroups and the socle's simple
    factors are read on G and on its socle, where they are kept, and carried
    to the image through ``act``: G's image is never scanned, and G is
    scanned once however many maximal classes are classified.  A nontrivial
    core reads them on the image itself.

    For type 2 the shape of I = soc meet M comes from orbit counts of the
    factors' images.  Point 0 is the coset M, so M's image meets each K
    normal in the socle in K_0, and |K_0| = |K| * orbits(K) / n as the socle
    is transitive.  So I is trivial iff |soc| = n, and coordinate iff |I| is
    the product of the |F_0| over the simple factors F.  I projects onto F
    iff soc = I * R_F, R_F the product of the other factors, that is iff R_F
    is transitive (Frattini argument); I is diagonal iff that holds for
    every F.
    """
    if M.order() >= G.order():
        raise ValueError("M is not maximal in G")
    image, hom = coset_action(G, M, max_points)
    if not is_primitive(image):
        raise ValueError("M is not maximal in G")
    core = hom.kernel()
    source, act = (G, hom._apply) if core.order() == 1 else (image, lambda p: p)
    mins = minimal_normal_subgroups(source)
    nonab = [m for m in mins if not m.is_abelian()]
    if len(mins) != len(nonab):
        ptype = 1
    elif len(nonab) >= 2:
        ptype = 3
    else:
        ptype = 2
    if ptype == 3 and len(nonab) != 2:
        raise AssertionError("primitive group with more than two minimal normals")

    shape = "not-applicable"
    if ptype == 2:
        soc, n = nonab[0], image.degree
        factors = minimal_normal_subgroups(soc)  # the simple direct factors
        images = [[act(g) for g in f._raw_gens] for f in factors]
        if soc.order() == n:
            shape = "trivial"
        elif prod(f.order() * _orbit_count(n, gens) // n
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
