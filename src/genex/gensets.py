"""Generating tuples: d(G), pooled searches, D-metrics, densities, replacements.

All searches are exhaustive and run in a fixed canonical order (elements
ascending by image tuple), so returned witnesses are deterministic.  Every
generation test goes through ``group._generates``, which first compares
orbit counts: <T> <= G, so each orbit of <T> lies inside an orbit of G, and
equal groups have equal orbits; a tuple with more orbits than G generates a
proper subgroup.  When the counts agree and G is Alt or Sym of the 5 or
more points it moves, as S5 over A5 is, an all-even tuple in Sym is
rejected and one that Jordan's theorem certifies is accepted, with no
chain; only the tuples left build a stabilizer chain.

Every search is one walk (``_tuple_walk``) over the tuples (x_1..x_d) with
x_i = v_i l_i for v_i in a pool P_i, one slot (P_i, l_i) per entry, each
tuple tested with any fixed trailing entries.  A subgroup pool of G (G
itself for every element) has l_i None, so x_i = v_i and no product is
taken; a socle slot is a coset N l_i of the nonabelian socle N.  Each pool
is walked lazily in lex order down its chain, whose base is in point order
(``Group._lex_walk``), so no pool is enumerated or sorted, and the tuples
come in lex order of the v_i.  The walk returns the v_i of the first tuple
that generates G, or, counting, the number that do.  ``exists_generating_tuple``
(d(G), D_M(G)) walks subgroup pools, and ``replacement_search`` and
``generation_density`` socle slots.  Its cuts change neither the first
witness nor a count, because each drops only candidates whose subtrees hold
no generating tuple, or counts them whole:

* slot-0 class reduction (first witness, every pool a subgroup, every later
  pool normal in G, no filter and no fixed entry): slot 0 takes the first
  member of each conjugacy class of G that it holds.  If (x^c, y_2..y_d)
  generates G then so does (x, y_2^(c^-1)..y_d^(c^-1)), whose entries lie
  in the same pools, so a class member after the first has a completion
  only if the first has one, and the walk would already have returned.  A
  class is orbited only once the subtree of its first member has failed, so
  no class table of G is built;
* cyclic quotient (slot d-1 of d, subgroup pools only): a completion x
  with <K, x> = G, K = <partial>, makes G/N cyclic, generated by xN, where
  N is the normal closure of K (Holt-Eick-O'Brien, *Handbook of CGT*, 2005,
  sec. 4.4); so when G/N is not cyclic no element of any pool completes K.
  When G is Alt or Sym of the 5 or more points it moves, the answer needs
  no closure: N >= Alt(omega) unless K = 1, so G/N has order at most 2,
  and G/1 = G is not cyclic (``_closure_quotient_is_cyclic``); nor is it
  for any nonabelian G, so an all-identity K builds no closure.  Otherwise
  the closure stops as soon as the subgroup it has grown has index 1 or a
  prime in G, since |G : N| divides it and a group of order 1 or a prime is
  cyclic, and only a composite index builds all of N (proof of the test in
  ``_quotient_is_cyclic``).  On socle slots the cut is not run, as it
  would build a closure per candidate to drop one partial tuple at most:
  an entry x_i = v_i l_i != 1 or a fixed entry != 1 puts N, the unique
  minimal normal subgroup, in the normal closure of the partial tuple and
  the fixed entries, which then holds every l_i = v_i^-1 x_i of the
  partial tuple and every fixed entry; the lifts generate G modulo N, so
  G over that closure is generated by the image of l_d, and is cyclic;
* lex coset (the last slot of a first-witness walk): the last pool is
  walked by cosets C = {v : v[p] = c[p] for all p < j} of its chain
  (Seress, *Permutation Group Algorithms*, 2003, ch. 4), so x = v l has
  x(p) = l(c(p)) for p < j, with l the identity on a subgroup pool.  Join p
  and y(p) for each entry y of the partial tuple, each fixed entry and each
  point p, and p and l(c(p)) for each p < j.  A component Z of this graph
  with every point below j is mapped into itself by every entry and every
  x, so Z is a union of orbits of the tuple.  If Z is smaller than the
  G-orbit containing it, no v in C completes the tuple, and C is skipped
  unvisited.  Only the points in Z must lie below j: a point at or above j
  has an unknown image under x;
* generating prefix (counting): by Gaschuetz's lemma (*Math. Nachr.* 14,
  1955) the number of generating tuples depends only on the cosets, and a
  prefix of k >= 2 entries that generates G stands for its |N|^(d-k)
  completions, unwalked; one entry never generates G, whose minimal normal
  N is nonabelian;
* orbit reduction (counting): conjugation by c in K = {g in G : g^-1 l_i g
  in N l_i for every i} (``_coset_fixer``) maps each coset onto itself,
  since c^-1 n l c = (c^-1 n c)(c^-1 l c), and keeps generation, since
  <x_1^c, ..> = G^c = G; K contains N, and is G when G/N is abelian.  So a
  partial tuple's completions are constant on the orbits of its centralizer
  in K on the next coset, and that slot tries only the least member of each
  orbit, each coset scanned once from ``N.elements_raw()``.  The inverses
  of an orbit form an orbit of the same size with the same completions,
  which takes the count of the first of the two.  A first-witness walk is
  not reduced: Htilde, the replacement search's filter, is not K-invariant,
  K need not fix a fixed entry, and a walk that stops at its first witness
  would pay for a centralizer per candidate.  Unreduced, the witness is the
  lex-first, and N is walked only as far as it.

The paper conjectures that every maximal M has a minimal generating set
with d(G) - 1 entries in M.  For d(G) = 2 that witness is a generating
tuple over the pools [M, G], so ``d_metric`` runs this conjecture-shaped
search first when d(G) is not yet known, H is proper and G is nonabelian:
a witness proves d(G) = 2, since a nonabelian group is not cyclic, and
D_H(G) = 1, since two entries of a proper H generate at most H; it is the
witness, with the stats, of the k = 1 search that would follow
``min_generators``, which then never runs.  An abelian G is left out, since
it may be cyclic: C6 has a generating pair with an entry in C3, yet d = 1.
A failed search falls back to ``min_generators``, and counts in the stats.

The walk counts candidates visited (``nodes``) and dropped (``pruned``), and
cosets the lex-coset prune drops unvisited (``skipped``), in ``perm.Trace``.
The class reduction marks a class only among visited candidates, so a
class whose first member lay in a skipped coset is reached at a later member.

The socle queries' one precondition (``_check_lifts``) certifies the socle
N by ``structure.check_monolithic_nonabelian``, which keeps N's factors.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from math import log2

from .group import (
    Group,
    _conjugations,
    _generates,
    _normal_closure,
    _orbits,
    _stabilizer,
    _support,
    centralizer_in,
    coset_canonical,
    subgroup_closure,
)
from .perm import (Permutation, Trace, _check_bound, _count, _identity, _inv, _mul, _pow,
                   prime_factors, trace)
from .structure import (
    MaximalSubgroupReport,
    all_subgroups,
    check_monolithic_nonabelian,
    classify_maximal,
    simple_factors,
)


class GenerationReport:
    def __init__(self, d: int, witness: tuple[Permutation, ...], stats: Trace):
        self.d = d
        self.witness = witness
        self.stats = stats


class DReport:
    def __init__(self, subgroup: Group, value: int, witness: tuple[Permutation, ...], stats: Trace):
        self.subgroup = subgroup
        self.value = value
        self.witness = witness
        self.stats = stats

    @property
    def in_subgroup(self) -> tuple[int, ...]:
        """0-based witness slots lying in the subgroup: the first ``value``."""
        return tuple(range(self.value))


class DensityReport:
    def __init__(self, lifts: tuple[Permutation, ...], favorable: int, total: int):
        self.lifts = lifts
        self.favorable = favorable
        self.total = total

    @property
    def ratio(self):
        """favorable / total as an exact ``fractions.Fraction``, built when
        read, so a density query never imports ``fractions``."""
        from fractions import Fraction
        return Fraction(self.favorable, self.total)


def _quotient_is_cyclic(G: Group, N: Group) -> bool:
    """Whether G/N is cyclic, for N normal in G.

    G/N is abelian iff every commutator of G's generators lies in N.  An
    abelian A = G/N of order m is cyclic iff every Sylow subgroup is, that is
    iff |A : A^p| = p for every prime p dividing m, since A/A^p is elementary
    abelian of rank the number of cyclic factors of the Sylow p-subgroup.
    The p-th power map of an abelian group is a homomorphism, so A^p is
    generated by the p-th powers of the images of G's generators, and its
    preimage in G is <N, g_1^p, .., g_k^p>.  A Sylow subgroup of prime order
    is cyclic, so only the primes p with p^2 | m need that closure.
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
            if subgroup_closure(G.degree, list(N._raw_gens) + powers).order() * p != G.order():
                return False
    return True


def _closure_quotient_is_cyclic(G: Group, raw_gens) -> bool:
    """Whether G/N is cyclic, N the normal closure in G of raw tuples lying
    in G.

    When G is Alt or Sym of the 5 or more points omega it moves
    (``Group._alt_or_sym``), no closure is built.  Every nontrivial normal
    subgroup of G contains Alt(omega), which is simple, and Sym(omega) has
    no other normal subgroup but 1 (Dixon-Mortimer, *Permutation Groups*,
    1996, ch. 3).  So a tuple with an entry other than the identity has
    |G : N| <= 2, and G/N is cyclic; an all-identity one has N = 1, and
    G/N = G is not even abelian.  On any other G an all-identity tuple
    builds no closure either when G is nonabelian, as G/1 = G is then not
    cyclic.

    Otherwise the closure stops as soon as the subgroup K it has grown has
    index 1 or a prime in G: K <= N <= G, so |G : N| divides |G : K|, and a
    group of order 1 or a prime is cyclic.  Only a composite index builds
    all of N and asks ``_quotient_is_cyclic``.
    """
    ident = _identity(G.degree)
    trivial = all(x == ident for x in raw_gens)
    if G._alt_or_sym is not None:
        return not trivial
    if trivial and not G.is_abelian():
        return False
    n = G.order()
    stops = {n} | {n // p for p in prime_factors(n)}
    N = _normal_closure(G, raw_gens, stops)
    return N.order() in stops or _quotient_is_cyclic(G, N)


def exists_generating_tuple(G: Group, pools: Sequence):
    """Tuple with entry i drawn from pool i generating G, or None if none exists.

    Each pool is a subgroup of G, with G itself for every element; each
    distinct pool that is not G is checked once, on its generators, and
    anything else raises ValueError.  The exhaustive search certificate is
    exact: a None return means no such tuple exists.  Returned witnesses
    are the first found in canonical order, by the tuple walk over the
    pools (module docstring), whose cuts never change the witness.  Pools
    are walked lazily in canonical order, and raise ``BoundExceeded`` above
    the element bound as ``Group.elements_raw`` does.
    """
    pools = list(pools)
    # each distinct pool is checked once, however many slots it fills
    distinct = {id(pool): pool for pool in pools if pool is not G}
    for pool in distinct.values():
        if not (isinstance(pool, Group) and pool.is_subgroup_of(G)):
            raise ValueError("pool is not a subgroup of G")
    if not pools:
        return () if G.order() == 1 else None
    found = _tuple_walk(G, [(pool, None) for pool in pools])
    return None if found is None else tuple(Permutation._wrap(p) for p in found)


def _tuple_walk(G: Group, slots: Sequence, fixed: tuple = (), keep=None, count: bool = False):
    """The tuple walk (module docstring) over (x_1..x_d), x_i = v_i l_i for
    v_i in P_i, d >= 1, one slot (P_i, l_i) per entry, with x_1 passing
    ``keep`` and the raw ``fixed`` trailing: the raw v_i of the first tuple
    that generates G, in lex order of the v_i, None if there is none, or,
    with ``count``, the number that generate, the slots then being cosets
    N l_i, d >= 2, with no ``keep`` and nothing fixed."""
    d, P, l_last = len(slots), slots[0][0], slots[-1][1]
    socle = l_last is not None
    # the pools are subgroups of G by now, so normality needs no containment
    later = {id(Q): Q for Q, _ in slots[1:] if Q is not G}
    reduce_first = not (count or socle or fixed) and keep is None and all(
        Q._normalized_by(G) for Q in later.values())
    labels = _components(G.degree, G._raw_gens)
    orbit_size = [labels.count(label) for label in labels]
    image = range(G.degree) if l_last is None else l_last  # p -> l(p) on the last slot

    def lex_coset_prune(comp, c, lo, hi):
        # comp labels the components of the graph with edges p - y(p) for the
        # partial tuple's and the fixed entries y and p - l(c(p)) for p < lo;
        # add p < hi
        for p in range(lo, hi):
            comp = _join(comp, p, image[c[p]])
        for p in range(lo, hi):
            members = [q for q, label in enumerate(comp) if label == comp[p]]
            if members[-1] < hi and len(members) < orbit_size[p]:
                _count("skipped")
                return None
        return comp

    def first_of_each_class(vs):
        # v's class is orbited only once the walk asks for the next
        # candidate, so a witness's first entry is never orbited
        conjugations, marked = list(_conjugations(G._raw_gens)), set()
        for v in vs:
            if v not in marked:
                yield v
                marked.update(_orbits([v], conjugations)[0])

    if count:
        cosets = [[_mul(v, l) for v in P.elements_raw()] for _, l in slots]
        fixer = _coset_fixer(G, P, [Permutation._wrap(l) for _, l in slots])

    def members(level, xs, C):
        # (v, x, the number of entries with x's completions) per entry walked
        if count:
            orbits = _orbits(cosets[level], _conjugations(C._raw_gens))
            orbit_of = {x: i for i, orbit in enumerate(orbits) for x in orbit}
            counted = set()
            for i, orbit in enumerate(orbits):
                if i not in counted:
                    x = orbit[0]
                    j = orbit_of.get(_inv(x), i)  # the inverses' orbit, if in this coset
                    counted.add(j)
                    yield None, x, len(orbit) + (len(orbits[j]) if j != i else 0)
            return
        Q, l = slots[level]
        if level < d - 1:
            vs = Q._lex_walk()
        else:
            vs = Q._lex_walk(lex_coset_prune, _components(G.degree, xs + fixed))
        if level == 0 and reduce_first:
            vs = first_of_each_class(vs)
        for v in vs:
            x = v if l is None else _mul(v, l)
            if level or keep is None or keep(Permutation._wrap(x)):
                yield v, x, 1

    def walk(vs, xs, C, weight):
        # (weight, vs) per generating tuple, or generating prefix when counting
        level = len(xs)
        for v, x, w in members(level, xs, C):
            _count("nodes")
            tup = xs + (x,)
            if (level == d - 1 or count and level) and _generates(G, tup + fixed):
                yield weight * w * P.order() ** (d - 1 - level), vs + (v,)
            elif level == d - 1 or (level == d - 2 and not socle
                                    and not _closure_quotient_is_cyclic(G, tup)):
                _count("pruned")
            else:
                C_next = centralizer_in(C, Permutation._wrap(x)) if count else None
                yield from walk(vs + (v,), tup, C_next, weight * w)

    found = walk((), (), fixer if count else None, 1)
    return sum(w for w, _ in found) if count else next(found, (0, None))[1]


def min_generators(G: Group) -> GenerationReport:
    """Exact d(G) with a witness; non-existence of shorter tuples is certified
    by exhausted search.

    d and the witness are kept on G.  The stats are this call's ``Trace``: a
    later call on the same G searches nothing and counts nothing.
    """
    with trace() as stats:
        if G._generation is None:
            G._generation = _search_d(G)
    return GenerationReport(*G._generation, stats)


def _search_d(G: Group) -> tuple:
    """(d(G), witness) by the exhaustive search."""
    n = G.order()
    if n == 1:
        return 0, ()
    k = 1 if G.is_abelian() else 2  # a nonabelian group is not cyclic
    while True:
        if k > max(2, int(log2(n)) + 1):
            raise AssertionError("generating-set search exceeded the log2 bound")
        witness = exists_generating_tuple(G, [G] * k)
        if witness is not None:
            return k, witness
        k += 1


def d_metric(G: Group, H: Group) -> DReport:
    """D_H(G): the most entries of any generating d(G)-tuple lying in H.

    Searched by descending count k; a k = d(G) tuple inside a proper H cannot
    generate, so that case is settled structurally rather than by search.
    When d(G) is not yet known, H is proper and G is nonabelian, the
    conjecture-shaped search over [H, G] runs first (module docstring); a
    witness settles d(G) = 2 and D_H(G) = 1 with no search over G alone,
    and otherwise ``min_generators`` decides d(G).  The stats are one
    ``Trace`` of these searches, not of ``min_generators`` between them.
    """
    if not H.is_subgroup_of(G):
        raise ValueError("H is not a subgroup of G")
    stats = Trace()
    shortcut = H.order() < G.order() and G._generation is None and not G.is_abelian()
    if shortcut:
        with trace(stats):
            witness = exists_generating_tuple(G, [H, G])
        if witness is not None:
            return DReport(H, 1, witness, stats)
    base = min_generators(G)
    d = base.d
    if H.order() == G.order():
        return DReport(H, d, base.witness, stats)
    if shortcut and d == 2:
        # the failed search over [H, G] was the k = 1 search
        return DReport(H, 0, base.witness, stats)
    with trace(stats):
        for k in range(d - 1, 0, -1):
            witness = exists_generating_tuple(G, [H] * k + [G] * (d - k))
            if witness is not None:
                return DReport(H, k, witness, stats)
    # no witness entry lies in H: with d >= 2 it would make a generating
    # tuple with an entry in H, which the k = 1 search rules out, and with
    # d = 1 the entry generates G, which H is not
    return DReport(H, 0, base.witness, stats)


def d_min(G: Group) -> tuple[int, MaximalSubgroupReport | None]:
    """D(G): minimum of D_M(G) over one maximal subgroup per conjugacy class.

    Returns the value with the classification of the first maximal subgroup
    attaining it; the trivial group has no maximal subgroup, and gives
    (d(G), None).  A value below d(G) - 2 contradicts the paper's theorem
    and raises AssertionError, with no search run: d(G) is read off G, and
    if no search set it, every value is a shortcut witness's, and d(G) = 2.
    """
    classes = all_subgroups(G).maximal_classes()
    if not classes:
        # no maximal subgroups: the trivial group
        return min_generators(G).d, None
    values = [d_metric(G, cls.rep).value for cls in classes]
    d = G._generation[0] if G._generation else 2
    for cls, value in zip(classes, values):
        if value < d - 2:
            raise AssertionError(f"D_M(G) = {value} < d(G) - 2 = {d - 2} for the maximal"
                                 f" class of order {cls.order} and key {cls.key}")
    best = min(values)
    return best, classify_maximal(G, classes[values.index(best)].rep)


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


def _coset_fixer(G: Group, N: Group, lifts: tuple) -> Group:
    """The subgroup of G whose conjugation maps each coset N l_i onto
    itself: the stabilizer of the tuple of cosets, each named by its least
    member, which is G itself, with no chain built, when no generator of G
    moves any coset."""
    moves = [lambda t, conj=conj: tuple(coset_canonical(N, conj(x)) for x in t)
             for conj in _conjugations(G._raw_gens)]
    return _stabilizer(G, moves, tuple(coset_canonical(N, l.imgs) for l in lifts))


def _check_lifts(G: Group, N: Group, lifts: tuple) -> None:
    """Raise ValueError unless the lifts lie in G and generate it modulo N,
    and N is the nonabelian socle of a monolithic G."""
    if not all(G.contains(l) for l in lifts):
        raise ValueError("lift does not lie in G")
    check_monolithic_nonabelian(G, N)
    if not _generates(G, [l.imgs for l in lifts] + [g.imgs for g in N.generators]):
        raise ValueError("lifts do not generate G modulo N")


def generation_density(G: Group, N: Group, lifts: Sequence[Permutation]) -> DensityReport:
    """Exact count of (n_1..n_d) in N^d with <n_1 l_1, .., n_d l_d> = G,
    by the tuple walk over the cosets N l_i, counting (module docstring).
    ``total`` is |N|^d, and a total above ``BOUNDS["density"]`` raises
    ``BoundExceeded`` before N is checked.
    """
    lifts = tuple(lifts)
    if len(lifts) < 2:
        raise ValueError("at least two lifts required")
    total = N.order() ** len(lifts)
    _check_bound("density", total, "|N|^d =")
    _check_lifts(G, N, lifts)
    return DensityReport(lifts, _tuple_walk(G, [(N, l.imgs) for l in lifts], count=True), total)


# ---------------------------------------------------------------------------
# the replacement search

class HypothesisError(ValueError):
    """None of the replacement conditions on the top projections holds."""


def socle_block_projection(G: Group, N: Group) -> Callable[[Permutation], Permutation]:
    """Projection onto the permutation of the socle factors' supports.

    The simple factors of N = S^n have disjoint supports forming a block
    system for G; the projection maps g to the induced block permutation.
    For n = 1 every element projects to the identity on one point.  An
    argument of another degree than G raises ValueError.  The factors come
    from ``structure.simple_factors``, which the certificate keeps on N.
    """
    supports = sorted(map(_support, simple_factors(G, N)), key=min)
    block_of = {pt: bi for bi, sup in enumerate(supports) for pt in sup}

    def project(g: Permutation) -> Permutation:
        if g.degree != G.degree:
            raise ValueError("degree mismatch")
        imgs = [block_of.get(g.imgs[min(sup)]) for sup in supports]
        if None in imgs or any(block_of.get(g.imgs[pt]) != tgt
                               for tgt, sup in zip(imgs, supports) for pt in sup):
            raise ValueError("element does not permute the socle factors")
        return Permutation(imgs)

    return project


def replacement_hypothesis(g1: Permutation, g2: Permutation, project) -> str:
    """Which of the three replacement conditions holds for the projections
    of g1 and g2; raises otherwise."""
    pi_g1, pi_g2 = project(g1), project(g2)
    if pi_g1.has_fixed_point():
        return "g1-fixed-point"
    if pi_g2.has_fixed_point():
        return "g2-fixed-point"
    # powers exhaust the distinct projections of g2^i and g1^i
    for a, b, pi_b, word in ((g1, g2, pi_g2, "g1^-1 g2"), (g2, g1, pi_g1, "g2^-1 g1")):
        for i in range(1, pi_b.order() + 1):
            if project(a.inverse() * b ** i).has_fixed_point():
                raise HypothesisError(
                    f"({word}^{i}) projects with a fixed point; no condition holds")
    return "difference-fixed-point-free"


def replacement_search(G: Group, N: Group, gens: Sequence[Permutation],
                       htilde: Callable[[Permutation], bool]):
    """Search v1, v2 in N with <v1 g1, v2 g2, g3, ..> = G and v1 g1 in Htilde.

    The tuple walk over the cosets N g1, N g2 (module docstring), with
    ``htilde`` on slot 1 and g3, .. fixed, returns the lex-first such
    (v1, v2), or None: ``htilde`` is asked of v1 g1 as each v1 is reached,
    and N is walked only that far.  An ``htilde`` that is not callable
    raises TypeError.
    """
    if not callable(htilde):
        raise TypeError("htilde must be a callable filter on G")
    gens = tuple(gens)
    if len(gens) < 2:
        raise ValueError("need at least two generators")
    _check_lifts(G, N, gens)
    replacement_hypothesis(gens[0], gens[1], socle_block_projection(G, N))
    found = _tuple_walk(G, [(N, g.imgs) for g in gens[:2]], tuple(g.imgs for g in gens[2:]), htilde)
    return None if found is None else tuple(Permutation._wrap(v) for v in found)
