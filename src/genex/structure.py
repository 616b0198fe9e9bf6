"""Structural analysis: solvability, socle, subgroup lattice, maximal types.

The subgroup lattice is enumerated bottom-up: a perfect base layer found by
two-generator search, then cyclic extension by prime-order cosets of the
normalizer.  Classes are deduplicated by full conjugation orbits of
element-id sets, so the enumeration is exact.  With ``max_order`` below the
group order the same machinery yields every conjugacy class of subgroups of
order at most the bound (any subgroup's construction chain stays inside it),
which is how the large symmetric/alternating groups are handled.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .group import (
    DEFAULT_MAX_POINTS,
    BoundExceeded,
    Group,
    _build_chain,
    centralizer_in,
    commutator_subgroup,
    coset_action,
    normal_closure,
    subgroup_closure,
)
from .perm import Permutation, _inv, _mul, _order, _pow, is_prime, prime_factors, r_part

DEFAULT_LATTICE_BOUND = 2000


# ---------------------------------------------------------------------------
# series and basic predicates

def derived_series(G: Group) -> list[Group]:
    """G = G(0) >= G(1) >= ... until stable; solvable iff the last term is trivial."""
    series = [G]
    while True:
        nxt = commutator_subgroup(series[-1])
        if nxt.order() == series[-1].order():
            return series
        series.append(nxt)


def is_solvable(G: Group) -> bool:
    return derived_series(G)[-1].order() == 1


def is_perfect(G: Group) -> bool:
    return commutator_subgroup(G).order() == G.order()


def lower_central_series(G: Group) -> list[Group]:
    """Test oracle for nilpotency; terms are normal closures of [term, G]."""
    series = [G]
    while True:
        cur = series[-1]
        comms = []
        for a in cur.generators:
            for g in G.generators:
                comms.append(a.inverse() * g.inverse() * a * g)
        nxt = normal_closure(G, comms)
        if nxt.order() == cur.order():
            return series
        series.append(nxt)


def is_nilpotent(G: Group) -> bool:
    """All Sylow subgroups normal: for each prime p the p-elements number
    exactly the p-part of |G| (two distinct Sylows would give more)."""
    n = G.order()
    if n == 1:
        return True
    orders = [_order(p) for p in G.elements_raw()]
    for p in prime_factors(n):
        if sum(1 for o in orders if _is_power_of(o, p)) != r_part(n, p):
            return False
    return True


def _is_power_of(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def minimal_normal_subgroups(G: Group) -> list[Group]:
    """All minimal normal subgroups, from normal closures of prime-order elements."""
    if G.order() <= 1:
        raise ValueError("the trivial group has no minimal normal subgroups")
    closures: list[Group] = []
    for rep in G.class_representatives():
        if is_prime(rep.order()):
            n = normal_closure(G, [rep])
            if not any(n.order() == m.order() and n.is_subgroup_of(m) and m.is_subgroup_of(n)
                       for m in closures):
                closures.append(n)
    minimal = []
    for n in closures:
        if not any(m.order() < n.order() and m.is_subgroup_of(n) for m in closures):
            minimal.append(n)
    minimal.sort(key=lambda m: (m.order(), [g.imgs for g in m.generators]))
    return minimal


def socle(G: Group) -> Group:
    """Join of all minimal normal subgroups."""
    gens = []
    for m in minimal_normal_subgroups(G):
        gens.extend(g.imgs for g in m.generators)
    return subgroup_closure(G.degree, gens)


def fitting_subgroup(G: Group, lattice: "SubgroupLattice | None" = None) -> Group:
    """Largest nilpotent normal subgroup: join of the nilpotent normal classes."""
    if lattice is None:
        lattice = all_subgroups(G)
    gens = []
    for cls, size in zip(lattice.classes, lattice.class_sizes):
        if size == 1 and is_nilpotent(cls.rep):
            gens.extend(g.imgs for g in cls.rep.generators)
    return subgroup_closure(G.degree, gens)


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
    if G.degree == 0:
        return True
    orbit = {0}
    queue = [0]
    while queue:
        pt = queue.pop()
        for g in G._raw_gens:
            img = g[pt]
            if img not in orbit:
                orbit.add(img)
                queue.append(img)
    return len(orbit) == G.degree


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


def is_maximal(G: Group, M: Group, max_points: int = DEFAULT_MAX_POINTS) -> bool:
    """M maximal in G iff the coset action of G on G:M is primitive."""
    if M.order() >= G.order():
        return False
    image, _ = coset_action(G, M, max_points)
    return is_primitive(image)


# ---------------------------------------------------------------------------
# subgroup lattice

@dataclass
class SubgroupClass:
    """One conjugacy class of subgroups: representative, ids, orbit data."""

    rep: Group
    ids: frozenset
    gens_raw: tuple
    size: int
    key: tuple
    normalizer_order: int
    norm_gens: tuple
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
        orbit = small.orbit if small.orbit is not None else (small.ids,)
        if small.orbit is None:
            raise ValueError("containment test requires retained orbits")
        return any(s <= big.ids for s in orbit)

    def maximal_classes(self) -> list[SubgroupClass]:
        return [c for c, f in zip(self.classes, self.maximality_flags) if f]

    def normal_classes(self) -> list[SubgroupClass]:
        return [c for c in self.classes if c.size == 1]

    def records(self) -> list[dict]:
        """Documented record form for table emission."""
        flags = self.maximality_flags if self.complete else [None] * len(self.classes)
        return [
            {"order": c.order, "class_size": c.size, "maximal": f,
             "normalizer_order": c.normalizer_order}
            for c, f in zip(self.classes, flags)
        ]


def _perfect_seed_classes(G: Group, max_order: int):
    """Candidate perfect subgroups: <a, b> with both in G', a over class
    representatives, b over centralizer orbits.

    Every perfect group at desk-scale orders is 2-generated, so this layer
    together with cyclic extension is exhaustive here.
    """
    derived = commutator_subgroup(G)
    if derived.order() < 60:
        return []
    d_elems = set(derived.elements_raw())
    out = []
    reps = [c[0] for c in G.conjugacy_classes_raw()]
    for a in reps:
        if a not in d_elems or all(x == y for x, y in enumerate(a)):
            continue
        cent = centralizer_in(G, Permutation._wrap(a))
        cgens = [(g, _inv(g)) for g in cent._raw_gens]
        remaining = set(d_elems)
        for b in sorted(d_elems):
            if b not in remaining:
                continue
            orbit = {b}
            queue = [b]
            while queue:
                x = queue.pop()
                for g, ginv in cgens:
                    y = _mul(ginv, _mul(x, g))
                    if y not in orbit:
                        orbit.add(y)
                        queue.append(y)
            remaining -= orbit
            H = subgroup_closure(G.degree, [a, b])
            if 60 <= H.order() <= max_order and is_perfect(H):
                out.append(H)
    return out


def _enumerate_classes(G: Group, max_order: int, keep_orbits: bool) -> SubgroupLattice:
    elems = G.elements_raw()
    degree = G.degree
    id_of = {p: i for i, p in enumerate(elems)}
    ident_id = id_of[tuple(range(degree))]
    n_gens = G._raw_gens
    # conjugation tables per parent generator
    tables = []
    for g in n_gens:
        ginv = _inv(g)
        tables.append(tuple(id_of[_mul(ginv, _mul(elems[i], g))] for i in range(len(elems))))

    seen: dict[tuple, int] = {}
    classes: list[SubgroupClass] = []

    def register(ids: frozenset, gens_raw: tuple) -> int | None:
        """Dedup against every known conjugate; compute orbit and normalizer."""
        key0 = tuple(sorted(ids))
        hit = seen.get(key0)
        if hit is not None:
            return None
        orbit = {ids: tuple(range(degree))}
        queue = deque([ids])
        keys = {ids: key0}
        while queue:
            s = queue.popleft()
            u = orbit[s]
            for g, table in zip(n_gens, tables):
                t = frozenset(map(table.__getitem__, s))
                if t not in orbit:
                    orbit[t] = _mul(u, g)
                    keys[t] = tuple(sorted(t))
                    queue.append(t)
        idx = len(classes)
        for k in keys.values():
            seen[k] = idx
        # normalizer from Schreier generators, seeded with the subgroup itself
        target = G.order() // len(orbit)
        chain = _build_chain(degree, list(gens_raw))
        norm_gens = list(gens_raw)
        if chain.order() < target:
            done = False
            for s, u in orbit.items():
                for g, table in zip(n_gens, tables):
                    t = frozenset(map(table.__getitem__, s))
                    schreier = _mul(_mul(u, g), _inv(orbit[t]))
                    if chain.extend(schreier):
                        norm_gens.append(schreier)
                        if chain.order() >= target:
                            done = True
                            break
                if done:
                    break
        canonical = min(keys.values())
        rep = subgroup_closure(degree, gens_raw)
        classes.append(SubgroupClass(
            rep=rep, ids=ids, gens_raw=tuple(gens_raw), size=len(orbit),
            key=canonical, normalizer_order=chain.order(), norm_gens=tuple(norm_gens),
            orbit=tuple(sorted(orbit, key=lambda s: keys[s])) if keep_orbits else None))
        return idx

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
        norm = subgroup_closure(degree, cls.norm_gens)
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
                    new_idx = register(frozenset(j_ids), cls.gens_raw + (n,))
                    if new_idx is not None:
                        work.append(new_idx)
                    break

    classes.sort(key=lambda c: (c.order, c.key))
    # re-point the seen map after sorting is unnecessary; keys are per class
    return SubgroupLattice(G, elems, classes, max_order,
                           complete=max_order >= G.order())


def all_subgroups(G: Group, lattice_bound: int = DEFAULT_LATTICE_BOUND) -> SubgroupLattice:
    """Full subgroup lattice, one representative per conjugacy class."""
    if G.order() > lattice_bound:
        raise BoundExceeded(
            f"group order {G.order()} exceeds the lattice bound {lattice_bound}")
    return _enumerate_classes(G, G.order(), keep_orbits=True)


def subgroup_classes_up_to(G: Group, max_order: int) -> SubgroupLattice:
    """Every conjugacy class of subgroups of order <= max_order (exact)."""
    return _enumerate_classes(G, min(max_order, G.order()), keep_orbits=False)


def frattini(G: Group, lattice_bound: int = DEFAULT_LATTICE_BOUND) -> Group:
    """Intersection of all maximal subgroups, expanding conjugacy classes."""
    lat = all_subgroups(G, lattice_bound)
    ids = set(range(len(lat.elements)))
    for cls in lat.maximal_classes():
        for member in cls.orbit:
            ids &= member
    gens = [lat.elements[i] for i in sorted(ids)]
    return subgroup_closure(G.degree, gens)


# ---------------------------------------------------------------------------
# maximal subgroup classification

@dataclass
class MaximalSubgroupReport:
    subgroup: Group
    core: Group
    quotient_order: int
    primitive_type: int  # 1, 2 or 3
    intersection_shape: str  # coordinate / diagonal / trivial / not-applicable


def _point_stabilizer(Q: Group, point: int) -> Group:
    gens = [p for p in Q.elements_raw() if p[point] == point]
    return subgroup_closure(Q.degree, gens)


def _socle_factors(N: Group) -> list[Group]:
    """Simple direct factors of a semisimple group (its minimal normals)."""
    return minimal_normal_subgroups(N)


def classify_maximal(G: Group, M: Group, max_points: int = DEFAULT_MAX_POINTS) -> MaximalSubgroupReport:
    """Core, primitive type of G/core, and the socle-intersection shape.

    Raises ValueError when M is not maximal (the coset action is the
    maximality certificate: it must be primitive).
    """
    image, hom = coset_action(G, M, max_points)
    if not is_primitive(image):
        raise ValueError("M is not maximal in G")
    core = hom.kernel()
    mins = minimal_normal_subgroups(image)
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
        soc = nonab[0]
        soc_ids = set(soc.elements_raw())
        mq = _point_stabilizer(image, 0)
        inter_elems = [p for p in soc_ids if mq._contains_raw(p)]
        if len(inter_elems) == 1:
            shape = "trivial"
        else:
            inter = subgroup_closure(image.degree, inter_elems)
            factors = _socle_factors(soc)
            factor_sets = [set(f.elements_raw()) for f in factors]
            per_factor = [sum(1 for p in inter_elems if p in fs) for fs in factor_sets]
            prod = 1
            for c in per_factor:
                prod *= c
            if prod == inter.order():
                shape = "coordinate"
            else:
                projections_full = _projections_cover(inter_elems, factors, soc)
                proper = all(c < f.order() for c, f in zip(per_factor, factors))
                if projections_full and proper:
                    shape = "diagonal"
                else:
                    raise AssertionError("socle intersection fits no expected shape")
    return MaximalSubgroupReport(
        subgroup=M, core=core, quotient_order=image.order(),
        primitive_type=ptype, intersection_shape=shape)


def _projections_cover(inter_elems, factors, soc) -> bool:
    """Does the intersection project onto every simple factor of the socle?"""
    for f in factors:
        f_set = set(f.elements_raw())
        others = []
        for g in factors:
            if g is not f:
                others.extend(g.generators)
        rest = subgroup_closure(soc.degree, [g.imgs for g in others])
        seen = set()
        for p in inter_elems:
            # component of p in this factor: unique s in f with s^-1 p in rest
            for s in f_set:
                if rest._contains_raw(_mul(_inv(s), p)):
                    seen.add(s)
                    break
        if len(seen) != f.order():
            return False
    return True
