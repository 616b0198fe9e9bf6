"""Generating tuples: d(G), pooled searches, D-metrics, densities, replacements.

All searches are exhaustive and run in a fixed canonical order (elements
ascending by image tuple), so returned witnesses are deterministic.  A pool
that is ``ALL`` or a subgroup is walked lazily in that order down its chain,
whose base is in point order (``Group._lex_walk``), so G is never
enumerated or sorted.  Every generation test goes through ``_generates``,
which first compares orbit counts: <T> <= G, so each orbit of <T> lies
inside an orbit of G, and equal groups have equal orbits; a tuple with more
orbits than G generates a proper subgroup, and only when the counts agree is
a stabilizer chain built.

The tuple search (``exists_generating_tuple``) makes three cuts, none of
which changes the order or the first witness, because each drops only
candidates whose subtrees contain no generating tuple:

* first slot: it is reduced to the first member of each conjugacy class of
  G that it holds whenever every later pool is closed under conjugation: if
  (x^c, y_2..y_d) generates G then so does (x, y_2^(c^-1)..y_d^(c^-1)),
  whose entries lie in the same pools, so a class member after the first
  has a completion only if the first has one, and the search would already
  have returned.  A pool is closed iff it is ``ALL``, a subgroup normal in
  G, or a set closed under conjugation by G's generators (a finite set
  mapped into itself by each is mapped onto itself).  A class is orbited
  only once the subtree of its first member has failed, so no class table
  of G is built;
* cyclic quotient: with one slot left and K = <partial> proper, a
  completion x with <K, x> = G makes G/N cyclic, generated by xN, where N
  is the normal closure of K (Holt-Eick-O'Brien, *Handbook of CGT*, 2005,
  sec. 4.4); so when G/N is not cyclic no element of any pool completes K.
  G/N is cyclic iff the commutators of G's generators lie in N and
  |G : <N, g_1^p, .., g_k^p>| = p for every prime p with p^2 | |G:N|,
  since then every Sylow subgroup of the abelian G/N is cyclic (proof in
  ``_quotient_is_cyclic``);
* lex coset: the last slot, when walked, visits cosets C = {y : y[p] = c[p]
  for all p < j} of the pool's chain (Seress, *Permutation Group Algorithms*,
  2003, ch. 4).  Join p and x(p) for each entry x of the partial tuple and
  each point p, and p and c(p) for each p < j.  A component Z of this graph
  with every point below j is mapped into itself by each x and, since
  y(p) = c(p) for p < j, by every y in C; so Z is a union of orbits of
  <partial, y>.  If Z is smaller than the G-orbit containing it, no y in C
  completes the tuple, and C is skipped unvisited.  Only the points in Z
  must lie below j: a point at or above j has an unknown image under y.

``SearchStats.nodes`` counts the candidates the tuple search visits and, in
``min_generators``, the elements its d = 1 step tries; that step runs only
for an abelian G, since a nonabelian group is not cyclic, so no class
representatives of a nonabelian G are counted.  ``SearchStats.skipped``
counts the cosets the lex-coset prune drops, whose members are not visited.
The first-slot reduction marks a class only among visited candidates, so a
class whose first member lay in a skipped coset is reached at a later member.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import log2, prod
from typing import Callable, Sequence

from .group import (
    BoundExceeded,
    Group,
    _build_chain,
    _conjugation_orbits,
    _orbit_count,
    centralizer_in,
    normal_closure,
)
from .perm import Permutation, _inv, _mul, _order, _pow, prime_factors
from .structure import (
    DEFAULT_LATTICE_BOUND,
    MaximalSubgroupReport,
    all_subgroups,
    classify_maximal,
    minimal_normal_subgroups,
)

ALL = "all"  # pool sentinel: every element of the group

DEFAULT_DENSITY_BUDGET = 10 ** 8


@dataclass
class SearchStats:
    nodes: int = 0  # candidates visited
    pruned: int = 0  # visited candidates dropped
    skipped: int = 0  # last-slot cosets dropped unvisited by the lex-coset prune


@dataclass
class GenerationReport:
    d: int
    witness: tuple[Permutation, ...]
    stats: SearchStats


@dataclass
class DReport:
    subgroup: Group
    value: int
    witness: tuple[Permutation, ...]
    in_subgroup: tuple[int, ...]  # 0-based witness slots lying in the subgroup
    stats: SearchStats


@dataclass
class DensityReport:
    lifts: tuple[Permutation, ...]
    favorable: int
    total: int
    ratio: Fraction


def _resolve_pools(G: Group, pools) -> list:
    """Each pool as a Group, walked lazily in canonical order by
    ``Group._lex_walk``, or as a sorted list of raw tuples.  A pool is
    ``ALL`` (G itself), a subgroup of G (checked on its generators), or a
    nonempty collection of elements of G (each checked); anything else
    raises ValueError."""
    out = []
    for pool in pools:
        if pool == ALL:
            out.append(G)
        elif isinstance(pool, Group):
            if not pool.is_subgroup_of(G):
                raise ValueError("pool is not a subgroup of G")
            out.append(pool)
        else:
            raw = sorted(p.imgs if isinstance(p, Permutation) else Permutation(p).imgs
                         for p in pool)
            if not raw:
                raise ValueError("empty pool")
            if any(len(p) != G.degree or not G._contains_raw(p) for p in raw):
                raise ValueError("pool element does not lie in G")
            out.append(raw)
    return out


def _quotient_is_cyclic(G: Group, N: Group) -> bool:
    """Whether G/N is cyclic, for N normal in G.

    G/N is abelian iff every commutator of G's generators lies in N.  An
    abelian A = G/N of order m is cyclic iff every Sylow subgroup is, that is
    iff |A : A^p| = p for every prime p dividing m, since A/A^p is elementary
    abelian of rank the number of cyclic factors of the Sylow p-subgroup.
    The p-th power map of an abelian group is a homomorphism, so A^p is
    generated by the p-th powers of the images of G's generators, and its
    preimage in G is <N, g_1^p, .., g_k^p>.  A Sylow subgroup of prime order
    is cyclic, so only the primes p with p^2 | m need that chain.
    """
    gens = G._raw_gens
    for i, a in enumerate(gens):
        for b in gens[i + 1:]:
            if not N._contains_raw(_mul(_mul(a, b), _inv(_mul(b, a)))):
                return False
    m = G.order() // N.order()
    for p, e in prime_factors(m).items():
        if e > 1:
            powers = [_pow(g, p) for g in gens]
            if _build_chain(G.degree, list(N._raw_gens) + powers)[0].order() * p != G.order():
                return False
    return True


def exists_generating_tuple(G: Group, pools: Sequence, stats: SearchStats | None = None):
    """Tuple with entry i drawn from pool i generating G, or None if none exists.

    Pools are ``ALL``, subgroups of G or sets of elements of G, and
    ``_resolve_pools`` rejects anything else with ValueError.  The exhaustive
    search certificate is exact: a None return means no such tuple exists.
    Returned witnesses are the first found in canonical order; the
    first-slot reduction, the cyclic-quotient prune and the lex-coset prune
    (module docstring) drop only candidates that cannot complete a
    generating tuple, so none changes the witness.  ``ALL`` and subgroup
    pools are walked lazily in canonical order, and raise ``BoundExceeded``
    above the element bound as ``Group.elements_raw`` does.
    """
    if stats is None:
        stats = SearchStats()
    raw_pools = _resolve_pools(G, pools)
    d = len(raw_pools)
    if d == 0:
        return () if G.order() == 1 else None

    pairs = [(g, _inv(g)) for g in G._raw_gens]

    def closed(pool):
        if isinstance(pool, Group):
            return pool is G or pool.is_normal_in(G)
        members = set(pool)
        return all(_mul(ginv, _mul(x, g)) in members for x in pool for g, ginv in pairs)

    def first_of_each_class(pool):
        # x's class is orbited only once the search asks for the next
        # candidate, so a witness's first entry is never orbited
        marked: set = set()
        for x in pool:
            if x not in marked:
                yield x
                marked.update(_conjugation_orbits([x], pairs)[0])

    reduce_first = all(closed(pool) for pool in raw_pools[1:])

    orbit = _components(G.degree, G._raw_gens)
    orbit_size = [orbit.count(label) for label in orbit]

    def lex_coset_prune(comp, c, lo, hi):
        # comp labels the components of the graph with edges p - x(p) for the
        # partial tuple's entries x and p - c(p) for p < lo; add p < hi
        for p in range(lo, hi):
            comp = _join(comp, p, c[p])
        for p in range(lo, hi):
            members = [q for q, label in enumerate(comp) if label == comp[p]]
            if members[-1] < hi and len(members) < orbit_size[p]:
                stats.skipped += 1
                return None
        return comp

    def candidates(level: int, partial: tuple):
        pool = raw_pools[level]
        if not isinstance(pool, Group):
            cands = pool
        elif level < d - 1:
            cands = pool._lex_walk()
        else:
            cands = pool._lex_walk(lex_coset_prune, _components(G.degree, partial))
        return first_of_each_class(cands) if level == 0 and reduce_first else cands

    def rec(level: int, partial: tuple):
        for g in candidates(level, partial):
            stats.nodes += 1
            tup = partial + (g,)
            if level == d - 1:
                if _generates(G, tup):
                    return tup
                stats.pruned += 1
                continue
            if level == d - 2 and not _generates(G, tup):
                closure = normal_closure(G, [Permutation._wrap(p) for p in tup])
                if not _quotient_is_cyclic(G, closure):
                    stats.pruned += 1
                    continue
            got = rec(level + 1, tup)
            if got is not None:
                return got
        return None

    found = rec(0, ())
    if found is None:
        return None
    return tuple(Permutation._wrap(p) for p in found)


def min_generators(G: Group) -> GenerationReport:
    """Exact d(G) with a witness; non-existence of shorter tuples is certified
    by exhausted search.

    d and the witness are kept on G, so ``d_metric`` and ``d_min`` search
    once per group.  The stats are this call's: a later call on the same G
    searches nothing and reports empty stats.
    """
    stats = SearchStats()
    if G._generation is None:
        G._generation = _search_d(G, stats)
    return GenerationReport(*G._generation, stats)


def _search_d(G: Group, stats: SearchStats) -> tuple:
    """(d(G), witness) by the exhaustive search, counted into ``stats``."""
    n = G.order()
    if n == 1:
        return 0, ()
    # d = 1: only an abelian group can be cyclic, and its classes are singletons
    if G.is_abelian():
        for p in G._lex_walk():
            stats.nodes += 1
            if _order(p) == n:
                return 1, (Permutation._wrap(p),)
    k = 2
    while True:
        if k > max(2, int(log2(n)) + 1):
            raise AssertionError("generating-set search exceeded the log2 bound")
        witness = exists_generating_tuple(G, [ALL] * k, stats)
        if witness is not None:
            return k, witness
        k += 1


def d_metric(G: Group, H: Group) -> DReport:
    """D_H(G): the most entries of any generating d(G)-tuple lying in H.

    Searched by descending count k; a k = d(G) tuple inside a proper H cannot
    generate, so that case is settled structurally rather than by search.
    """
    if not H.is_subgroup_of(G):
        raise ValueError("H is not a subgroup of G")
    stats = SearchStats()
    base = min_generators(G)
    d = base.d
    if H.order() == G.order():
        return DReport(H, d, base.witness, tuple(range(d)), stats)
    for k in range(d - 1, 0, -1):
        pools = [H] * k + [ALL] * (d - k)
        witness = exists_generating_tuple(G, pools, stats)
        if witness is not None:
            return DReport(H, k, witness, tuple(range(k)), stats)
    return DReport(H, 0, base.witness,
                   tuple(i for i, w in enumerate(base.witness) if H.contains(w)), stats)


def d_min(G: Group, lattice_bound: int = DEFAULT_LATTICE_BOUND
          ) -> tuple[int, MaximalSubgroupReport | None]:
    """D(G): minimum of D_M(G) over one maximal subgroup per conjugacy class.

    Returns the value with the classification of the first maximal subgroup
    attaining it; the trivial group has no maximal subgroup, and gives
    (d(G), None).
    """
    lat = all_subgroups(G, lattice_bound)
    best_value = None
    best_report = None
    for cls in lat.maximal_classes():
        rep = d_metric(G, cls.rep)
        if best_value is None or rep.value < best_value:
            best_value = rep.value
            best_report = classify_maximal(G, cls.rep)
    if best_value is None:
        # no maximal subgroups: the trivial group
        return min_generators(G).d, None
    return best_value, best_report


def _join(comp: list, p: int, q: int) -> list:
    """Component labels with the components of p and q merged; a new list
    when they differ, so a caller's labels are never changed."""
    a, b = comp[p], comp[q]
    if a == b:
        return comp
    return [a if label == b else label for label in comp]


def _components(degree: int, raw_gens) -> list:
    """Orbit labels of <raw_gens> on range(degree): points share a label
    exactly when they share an orbit."""
    comp = list(range(degree))
    for g in raw_gens:
        for p, q in enumerate(g):
            comp = _join(comp, p, q)
    return comp


def _generates(G: Group, raw_gens) -> bool:
    """Whether raw tuples lying in G generate G; a proper <T> with more
    orbits than G is rejected without a chain."""
    raw_gens = list(raw_gens)
    if _orbit_count(G.degree, raw_gens) != G._orbits:
        return False
    return _build_chain(G.degree, raw_gens)[0].order() == G.order()


def check_monolithic_nonabelian(G: Group, N: Group) -> None:
    """Raise ValueError unless N is nonabelian and the only minimal normal
    subgroup of G; G itself is never enumerated.

    The certificate: N is a nontrivial normal subgroup; its own minimal normal
    subgroups F_1..F_k are nonabelian with |F_1|..|F_k| = |N|; G permutes them
    transitively; and C_G(N) = 1.  Distinct F_i commute and meet trivially,
    and F_i inside the join of the others would centralize itself, so the
    order condition makes N = F_1 x .. x F_k with each F_i simple.  A normal
    subgroup of G inside N is then a product of factors that G leaves
    invariant, so transitivity makes N minimal normal.  Another minimal
    normal M meets N trivially, so [M, N] = 1 and M <= C_G(N) = 1.
    Conversely, if N is the unique minimal normal subgroup and nonabelian,
    all four conditions hold: C_G(N) is normal and meets N in Z(N) = 1, so a
    nontrivial C_G(N) would contain a second minimal normal subgroup
    (Dixon-Mortimer, *Permutation Groups*, 1996, sec. 4.3).
    """
    if N.order() == 1 or not N.is_normal_in(G):
        raise ValueError("N is not a nontrivial normal subgroup")
    factors = minimal_normal_subgroups(N)
    if any(f.is_abelian() for f in factors):
        raise ValueError("socle is abelian")
    if prod(f.order() for f in factors) != N.order():
        raise ValueError("N is not a direct product of its minimal normal subgroups")
    # the orbit of factor 0: x^g for a generator x of F lies in one factor, F^g
    pairs = [(g, _inv(g)) for g in G._raw_gens]
    reached = [0]
    for i in reached:
        x = factors[i]._raw_gens[0]
        for g, ginv in pairs:
            y = _mul(ginv, _mul(x, g))
            j = next(j for j, f in enumerate(factors) if f._contains_raw(y))
            if j not in reached:
                reached.append(j)
    if len(reached) != len(factors):
        raise ValueError("G does not permute the simple factors of N transitively")
    cent = G
    for x in N.generators:
        cent = centralizer_in(cent, x)
        if cent.order() == 1:
            return
    raise ValueError("group is not monolithic: C_G(N) is not trivial")


def generation_density(G: Group, N: Group, lifts: Sequence[Permutation],
                       budget: int = DEFAULT_DENSITY_BUDGET) -> DensityReport:
    """Exact count of (n_1..n_d) in N^d with <n_1 l_1, .., n_d l_d> = G.

    Conjugation by any c in N maps each coset N l_i onto itself, since
    c^-1 n l c = (c^-1 n l c l^-1) l with N normal, and it preserves
    generation, since <x_1^c, .., x_d^c> = G^c = G.  So the number of
    completions (x_2..x_d) of a first entry x_1 in N l_1 is constant on the
    N-conjugacy orbit of x_1: the count is the sum over the orbits of N l_1
    of orbit size times the completions of one representative.  ``total`` is
    still |N|^d, and ``budget`` still bounds it.
    """
    check_monolithic_nonabelian(G, N)
    lifts = tuple(lifts)
    d = len(lifts)
    if d < 2:
        raise ValueError("at least two lifts required")
    if not all(G.contains(l) for l in lifts):
        raise ValueError("lift does not lie in G")
    n_gens = [g.imgs for g in N.generators]
    if not _generates(G, [l.imgs for l in lifts] + n_gens):
        raise ValueError("lifts do not generate G modulo N")
    n_elems = N.elements_raw()
    total = len(n_elems) ** d
    if total > budget:
        raise BoundExceeded(f"|N|^d = {total} exceeds the enumeration budget {budget}")
    first, *rest = [[_mul(n, l.imgs) for n in n_elems] for l in lifts]
    pairs = [(c, _inv(c)) for c in N._raw_gens]
    favorable = 0
    for orbit in _conjugation_orbits(first, pairs):
        x = orbit[0]
        completions = sum(1 for combo in product(*rest) if _generates(G, (x,) + combo))
        favorable += len(orbit) * completions
    return DensityReport(lifts, favorable, total, Fraction(favorable, total))


# ---------------------------------------------------------------------------
# the replacement search

class HypothesisError(ValueError):
    """None of the replacement conditions on the top projections holds."""


def socle_block_projection(G: Group, N: Group) -> Callable[[Permutation], Permutation]:
    """Projection onto the permutation of the socle factors' supports.

    The simple factors of N = S^n have disjoint supports forming a block
    system for G; the projection maps g to the induced block permutation.
    For n = 1 every element projects to the identity on one point.  An
    argument of another degree than G raises ValueError.
    """
    factors = minimal_normal_subgroups(N)
    supports = sorted((frozenset(i for g in f._raw_gens for i, j in enumerate(g) if i != j)
                       for f in factors), key=min)
    block_of = {}
    for bi, sup in enumerate(supports):
        for pt in sup:
            block_of[pt] = bi

    def project(g: Permutation) -> Permutation:
        if g.degree != G.degree:
            raise ValueError("degree mismatch")
        imgs = [0] * len(supports)
        for bi, sup in enumerate(supports):
            tgt = block_of.get(g.imgs[min(sup)])
            if tgt is None or any(block_of.get(g.imgs[pt]) != tgt for pt in sup):
                raise ValueError("element does not permute the socle factors")
            imgs[bi] = tgt
        return Permutation(imgs)

    return project


def replacement_hypothesis(pi_g1: Permutation, pi_g2: Permutation,
                           g1: Permutation, g2: Permutation,
                           project) -> str:
    """Which of the three replacement conditions holds; raises otherwise."""
    if pi_g1.has_fixed_point():
        return "g1-fixed-point"
    if pi_g2.has_fixed_point():
        return "g2-fixed-point"
    # powers exhaust the distinct projections of g2^i and g1^i
    for i in range(1, pi_g2.order() + 1):
        if project(g1.inverse() * g2 ** i).has_fixed_point():
            raise HypothesisError(
                f"(g1^-1 g2^{i}) projects with a fixed point; no condition holds")
    for i in range(1, pi_g1.order() + 1):
        if project(g2.inverse() * g1 ** i).has_fixed_point():
            raise HypothesisError(
                f"(g2^-1 g1^{i}) projects with a fixed point; no condition holds")
    return "difference-fixed-point-free"


def replacement_search(G: Group, N: Group, gens: Sequence[Permutation],
                       htilde: Callable[[Permutation], bool]):
    """Search v1, v2 in N with <v1 g1, v2 g2, g3, ..> = G and v1 g1 in Htilde.

    v1 ranges over the coset-compatible subset {v in N : v g1 in Htilde},
    tested as each v1 is reached; enumeration order is canonical.  Returns
    None only after exhausting all of N^2 for the restricted v1 range.
    """
    gens = tuple(gens)
    if len(gens) < 2:
        raise ValueError("need at least two generators")
    if not all(G.contains(g) for g in gens):
        raise ValueError("generator does not lie in G")
    check_monolithic_nonabelian(G, N)
    n_raw = [g.imgs for g in N.generators]
    if not _generates(G, [g.imgs for g in gens] + n_raw):
        raise ValueError("gens do not generate G modulo N")
    project = socle_block_projection(G, N)
    g1, g2 = gens[0], gens[1]
    replacement_hypothesis(project(g1), project(g2), g1, g2, project)

    n_elems = N.elements()
    rest_raw = [g.imgs for g in gens[2:]]
    for v1 in n_elems:
        lift = v1 * g1
        if not htilde(lift):
            continue
        a = lift.imgs
        for v2 in n_elems:
            b = (v2 * g2).imgs
            if _generates(G, [a, b] + rest_raw):
                return v1, v2
    return None
