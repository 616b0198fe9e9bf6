"""Generating tuples: d(G), pooled searches, D-metrics, densities, replacements.

All searches are exhaustive and run in a fixed canonical order (elements
ascending by image tuple), so returned witnesses are deterministic.  The
first slot is reduced to one representative per conjugacy class whenever
every later pool is closed under conjugation.  Three prunes cut the tuple
search without changing the order or the first witness, because each drops
only subtrees that contain no generating tuple:

* order-monotone: a candidate already in the subgroup K generated by the
  partial tuple leaves K unchanged, so its subtree is the same as that of the
  first such candidate and only that one is explored;
* suffix join: every completion lies in the join of K, the candidate and all
  later pools, so if that join is proper no completion generates G;
* cyclic quotient: with one slot left and K proper, a completion x with
  <K, x> = G makes G/N cyclic, generated by xN, where N is the normal closure
  of K (Holt-Eick-O'Brien, *Handbook of CGT*, 2005, sec. 4.4); so when G/N is
  not cyclic no element of any pool completes K.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import log2
from typing import Callable, Sequence

from .group import BoundExceeded, Group, _build_chain, normal_closure
from .perm import Permutation, _inv, _mul, _pow, prime_factors
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
    nodes: int = 0
    pruned: int = 0


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


def _resolve_pools(G: Group, pools) -> list[list]:
    out = []
    for pool in pools:
        if pool == ALL:
            out.append(list(G.elements_raw()))
        else:
            raw = sorted(p.imgs if isinstance(p, Permutation) else tuple(p) for p in pool)
            if not raw:
                raise ValueError("empty pool")
            out.append(raw)
    return out


def _conjugation_closed(G: Group, pool_raw: list) -> bool:
    class_of = G.class_index_raw()
    by_class: dict[int, int] = {}
    for p in pool_raw:
        c = class_of[p]
        by_class[c] = by_class.get(c, 0) + 1
    classes = G.conjugacy_classes_raw()
    return all(by_class[c] == len(classes[c]) for c in by_class)


def _quotient_is_cyclic(G: Group, N: Group) -> bool:
    """Whether G/N is cyclic, for N normal in G.

    G/N is abelian iff every commutator of G's generators lies in N.  An
    abelian G/N of order m is cyclic iff some xN has order m, that is
    x^(m/p) is not in N for every prime p dividing m; xN depends only on the
    conjugacy class of x, so class representatives suffice.
    """
    gens = G._raw_gens
    for i, a in enumerate(gens):
        for b in gens[i + 1:]:
            if not N._contains_raw(_mul(_mul(a, b), _inv(_mul(b, a)))):
                return False
    m = G.order() // N.order()
    primes = prime_factors(m)
    return any(all(not N._contains_raw(_pow(cls[0], m // p)) for p in primes)
               for cls in G.conjugacy_classes_raw())


def exists_generating_tuple(G: Group, pools: Sequence, stats: SearchStats | None = None):
    """Tuple with entry i drawn from pool i generating G, or None if none exists.

    The exhaustive search certificate is exact: a None return means no such
    tuple exists.  Returned witnesses are the first found in canonical order.
    Every prune is exact, so none changes the witness:

    * order-monotone: of the candidates lying in K = <partial>, only the
      first is explored, since each leaves K, and so the subtree, unchanged;
    * suffix join: a candidate g is dropped when <K, g, all later pools> is
      proper, since every completion lies inside that join;
    * cyclic quotient: with one slot left, g is dropped when <K, g> is proper
      and G / ncl_G(<K, g>) is not cyclic, since <K, g, x> = G would make
      that quotient cyclic, generated by the image of x.
    """
    if stats is None:
        stats = SearchStats()
    raw_pools = _resolve_pools(G, pools)
    d = len(raw_pools)
    target = G.order()
    if d == 0:
        return () if target == 1 else None

    # first-slot conjugacy reduction when the rest is conjugation-closed
    if all(_conjugation_closed(G, p) for p in raw_pools[1:]):
        class_of = G.class_index_raw()
        seen: set[int] = set()
        reduced = []
        for p in raw_pools[0]:
            c = class_of[p]
            if c not in seen:
                seen.add(c)
                reduced.append(p)
        raw_pools[0] = reduced

    # suffix joins for pruning: no completion can exceed <partial, suffix pool>
    suffix_gens: list[list] = [[] for _ in range(d + 1)]
    suffix_spans: list[bool] = [False] * (d + 1)
    for k in range(d - 1, -1, -1):
        chain = _build_chain(G.degree, list(suffix_gens[k + 1]))
        gens = list(suffix_gens[k + 1])
        for p in raw_pools[k]:
            if chain.extend(p):
                gens.append(p)
        suffix_gens[k] = gens
        suffix_spans[k] = chain.order() == target

    def rec(level: int, partial: tuple, partial_order: int):
        if level == d:
            return partial if partial_order == target else None
        pool = raw_pools[level]
        skipped_inside = False
        for g in pool:
            stats.nodes += 1
            new_order = _build_chain(G.degree, list(partial) + [g]).order()
            if new_order == partial_order:
                if skipped_inside:
                    continue  # same subgroup as a previous candidate
                skipped_inside = True
            if level + 1 < d:
                # when the suffix pools alone span G the join test cannot prune
                if not suffix_spans[level + 1]:
                    reach = _build_chain(
                        G.degree, list(partial) + [g] + suffix_gens[level + 1])
                    if reach.order() < target:
                        stats.pruned += 1
                        continue
            elif new_order != target:
                stats.pruned += 1
                continue
            if level == d - 2 and new_order < target:
                closure = normal_closure(G, [Permutation._wrap(p) for p in partial + (g,)])
                if not _quotient_is_cyclic(G, closure):
                    stats.pruned += 1
                    continue
            got = rec(level + 1, partial + (g,), new_order)
            if got is not None:
                return got
        return None

    found = rec(0, (), 1)
    if found is None:
        return None
    return tuple(Permutation._wrap(p) for p in found)


def min_generators(G: Group) -> GenerationReport:
    """Exact d(G) with a witness; non-existence of shorter tuples is certified
    by exhausted search."""
    stats = SearchStats()
    n = G.order()
    if n == 1:
        return GenerationReport(0, (), stats)
    # d = 1: cyclic
    for rep in G.class_representatives():
        stats.nodes += 1
        if rep.order() == n:
            return GenerationReport(1, (rep,), stats)
    k = 2
    while True:
        if k > max(2, int(log2(n)) + 1):
            raise AssertionError("generating-set search exceeded the log2 bound")
        witness = exists_generating_tuple(G, [ALL] * k, stats)
        if witness is not None:
            return GenerationReport(k, witness, stats)
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
    h_elems = H.elements()
    for k in range(d - 1, 0, -1):
        pools = [h_elems] * k + [ALL] * (d - k)
        witness = exists_generating_tuple(G, pools, stats)
        if witness is not None:
            return DReport(H, k, witness, tuple(range(k)), stats)
    return DReport(H, 0, base.witness,
                   tuple(i for i, w in enumerate(base.witness) if H.contains(w)), stats)


def d_min(G: Group, lattice_bound: int = DEFAULT_LATTICE_BOUND) -> tuple[int, MaximalSubgroupReport]:
    """D(G): minimum of D_M(G) over one maximal subgroup per conjugacy class."""
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


def _generates(G: Group, raw_gens) -> bool:
    return _build_chain(G.degree, list(raw_gens)).order() == G.order()


def check_monolithic_nonabelian(G: Group, N: Group) -> None:
    mins = minimal_normal_subgroups(G)
    if len(mins) != 1:
        raise ValueError("group is not monolithic")
    m = mins[0]
    if m.order() != N.order() or not N.is_subgroup_of(G) or not m.is_subgroup_of(N):
        raise ValueError("N is not the socle")
    if m.is_abelian():
        raise ValueError("socle is abelian")


def generation_density(G: Group, N: Group, lifts: Sequence[Permutation],
                       budget: int = DEFAULT_DENSITY_BUDGET) -> DensityReport:
    """Exact count of (n_1..n_d) in N^d with <l_1 n_1, .., l_d n_d> = G."""
    check_monolithic_nonabelian(G, N)
    lifts = tuple(lifts)
    d = len(lifts)
    if d < 2:
        raise ValueError("at least two lifts required")
    n_gens = [g.imgs for g in N.generators]
    if not _generates(G, [l.imgs for l in lifts] + n_gens):
        raise ValueError("lifts do not generate G modulo N")
    n_elems = N.elements_raw()
    total = len(n_elems) ** d
    if total > budget:
        raise BoundExceeded(f"|N|^d = {total} exceeds the enumeration budget {budget}")
    raw_lifts = [l.imgs for l in lifts]
    favorable = 0
    for combo in product(n_elems, repeat=d):
        if _generates(G, [_mul(n, l) for n, l in zip(combo, raw_lifts)]):
            favorable += 1
    return DensityReport(lifts, favorable, total, Fraction(favorable, total))


# ---------------------------------------------------------------------------
# the replacement search

class HypothesisError(ValueError):
    """None of the replacement conditions on the top projections holds."""


def socle_block_projection(G: Group, N: Group) -> Callable[[Permutation], Permutation]:
    """Projection onto the permutation of the socle factors' supports.

    The simple factors of N = S^n have disjoint supports forming a block
    system for G; the projection maps g to the induced block permutation.
    For n = 1 every element projects to the identity on one point.
    """
    factors = minimal_normal_subgroups(N)
    supports = []
    for f in factors:
        moved = set()
        for g in f.generators:
            moved.update(i for i, j in enumerate(g.imgs) if i != j)
        supports.append(frozenset(moved))
    supports.sort(key=min)
    block_of = {}
    for bi, sup in enumerate(supports):
        for pt in sup:
            block_of[pt] = bi

    def project(g: Permutation) -> Permutation:
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
    computed up front; enumeration order is canonical.  Returns None only
    after exhausting all of N^2 for the restricted v1 range.
    """
    gens = tuple(gens)
    if len(gens) < 2:
        raise ValueError("need at least two generators")
    check_monolithic_nonabelian(G, N)
    n_raw = [g.imgs for g in N.generators]
    if not _generates(G, [g.imgs for g in gens] + n_raw):
        raise ValueError("gens do not generate G modulo N")
    project = socle_block_projection(G, N)
    g1, g2 = gens[0], gens[1]
    replacement_hypothesis(project(g1), project(g2), g1, g2, project)

    n_elems = N.elements()
    pool1 = [v for v in n_elems if htilde(v * g1)]
    rest_raw = [g.imgs for g in gens[2:]]
    for v1 in pool1:
        a = (v1 * g1).imgs
        for v2 in n_elems:
            b = (v2 * g2).imgs
            if _generates(G, [a, b] + rest_raw):
                return v1, v2
    return None
