from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from genex import gensets
from genex import group as group_module
from genex.group import Group, direct_product, trivial_group, wreath_product
from genex.gensets import (
    ALL,
    SearchStats,
    HypothesisError,
    check_monolithic_nonabelian,
    d_metric,
    d_min,
    exists_generating_tuple,
    generation_density,
    min_generators,
    replacement_search,
    socle_block_projection,
)
from genex.perm import Permutation, parse_permutation
from genex.structure import all_subgroups, classify_maximal, frattini, minimal_normal_subgroups


def P(text, degree):
    return parse_permutation(text, degree)


def make(texts, degree):
    return Group([P(t, degree) for t in texts], degree)


S4 = make(["(1,2,3,4)", "(1,2)"], 4)
S5 = make(["(1,2,3,4,5)", "(1,2)"], 5)
A5 = make(["(1,2,3,4,5)", "(3,4,5)"], 5)
C6 = make(["(1,2,3,4,5,6)"], 6)
V8 = make(["(1,2)", "(3,4)", "(5,6)"], 6)  # C2 x C2 x C2
A4 = make(["(1,2,3)", "(1,2)(3,4)"], 4)
D8 = make(["(1,2,3,4)(5,6,7,8)", "(1,5)(2,8)(3,7)(4,6)"], 8)  # regular action
A6 = make(["(1,2,3)", "(1,2,4)", "(1,2,5)", "(1,2,6)"], 6)
S6 = make(["(1,2,3,4,5,6)", "(1,2)"], 6)
S7 = make(["(1,2,3,4,5,6,7)", "(1,2)"], 7)


def _wreath_a5_c2():
    W, _ = wreath_product(A5, make(["(1,2)"], 2))
    N = make(["(1,2,3,4,5)", "(3,4,5)", "(6,7,8,9,10)", "(8,9,10)"], 10)
    return W, N


def test_min_generators_cyclic():
    rep = min_generators(C6)
    assert rep.d == 1
    assert rep.witness[0].order() == 6


def test_min_generators_elementary_abelian():
    rep = min_generators(V8)
    assert rep.d == 3
    assert Group(rep.witness, 6).order() == 8


def test_min_generators_a5():
    rep = min_generators(A5)
    assert rep.d == 2
    assert Group(rep.witness, 5).order() == 60


def test_min_generators_matches_oracle():
    for g in [S4, C6, V8, make(["(1,2)", "(1,2,3)"], 3)]:
        elems = oracles.closure([x.imgs for x in g.generators], g.degree)
        assert min_generators(g).d == oracles.min_generating_size(elems, g.degree)


def test_min_generators_trivial():
    assert min_generators(trivial_group(3)).d == 0


def test_witness_is_deterministic():
    a = min_generators(make(["(1,2,3,4)", "(1,2)"], 4))
    b = min_generators(make(["(1,2,3,4)", "(1,2)"], 4))
    assert [w.imgs for w in a.witness] == [w.imgs for w in b.witness]


# First witnesses in canonical order, frozen from the search without the
# cyclic-quotient prune; every prune is exact, so none may change them.
FROZEN_WITNESSES = [
    (S4, ["(3,4)", "(1,2,3)"]),
    (D8, ["(1,2,3,4)(5,6,7,8)", "(1,5)(2,8)(3,7)(4,6)"]),
    (A4, ["(2,3,4)", "(1,2)(3,4)"]),
    (S5, ["(4,5)", "(1,2,3,4)"]),
    (V8, ["(5,6)", "(3,4)", "(1,2)"]),  # d = 3: the prune runs at level 1 of 3
]


@pytest.mark.parametrize("g, witness", FROZEN_WITNESSES)
def test_min_generators_frozen_witness(g, witness):
    rep = min_generators(g)
    assert rep.witness == tuple(P(t, g.degree) for t in witness)
    elems = oracles.closure([x.imgs for x in g.generators], g.degree)
    assert rep.d == len(witness) == oracles.min_generating_size(elems, g.degree)


def test_d_metric_frozen_witness():
    s4 = make(["(1,2,3,4)", "(1,2)"], 5)
    rep = d_metric(S5, s4)
    assert rep.value == 1
    assert rep.witness == (P("(3,4)", 5), P("(1,2,3)(4,5)", 5))
    assert rep.in_subgroup == (0,)


def test_exists_tuple_restricted_pools_frozen():
    first = [P("(1,2)(3,4)", 4)]
    got = exists_generating_tuple(S4, [first, ALL, ALL])
    assert got == (P("(1,2)(3,4)", 4), P("(3,4)", 4), P("(2,3)", 4))
    # <first two slots> <= V4 and S4/V4 = S3 is not cyclic: every second-slot
    # node is pruned by the cyclic quotient, and the certificate stays None
    doubles = [P("(1,2)(3,4)", 4), P("(1,3)(2,4)", 4)]
    four_cycles = [p for p in S4.elements() if p.order() == 4]
    stats = SearchStats()
    assert exists_generating_tuple(S4, [doubles, doubles, four_cycles], stats) is None
    assert stats.pruned > 0


# d(G) and D_M(G) with witnesses, frozen from the search that built a chain
# at every node and reduced the first slot through a conjugacy-class table;
# every prune is exact, so none may change them.  The (nodes, pruned) counts
# are those of the lex-coset prune, which skips last-slot cosets unvisited.
SEARCH_PINS = {  # G, M, (d witness, nodes, pruned), (D, witness, in_subgroup, nodes, pruned)
    "S6": (S6, make(["(1,2,3,4,5)", "(1,2)"], 6),
           (["(5,6)", "(1,2,3,4,5)"], 3, 1),
           (1, ["(4,5)", "(1,2,3,4,5,6)"], (0,), 6, 4)),
    "A6": (A6, make(["(1,2,3,4,5)", "(3,4,5)"], 6),
           (["(4,5,6)", "(1,2,3,4)(5,6)"], 3, 1),
           (1, ["(3,4,5)", "(1,2,3)(4,5,6)"], (0,), 4, 2)),
    "S7": (S7, make(["(1,2,3,4,5,6)", "(1,2)"], 7),
           (["(6,7)", "(1,2,3,4,5,6)"], 3, 1),
           (1, ["(5,6)", "(1,2,3,4,5)(6,7)"], (0,), 4, 2)),
    "A5wrC2": (_wreath_a5_c2()[0],
               make(["(1,2,3,4,5)(6,7,8,9,10)", "(3,4,5)(8,9,10)",
                     "(1,6)(2,7)(3,8)(4,9)(5,10)"], 10),  # diagonal A5.2
               (["(8,9,10)", "(1,6,2,7,3,8)(4,9)(5,10)"], 3, 1),
               (1, ["(3,4,5)(8,9,10)", "(1,6,2,7,3,8)(4,9)(5,10)"], (0,), 3, 1)),
}


@pytest.mark.parametrize("name", SEARCH_PINS)
def test_search_pins(name):
    G, M, (d_witness, d_nodes, d_pruned), (value, witness, in_subgroup, nodes, pruned) = \
        SEARCH_PINS[name]
    rep = min_generators(G)
    assert rep.d == 2
    assert rep.witness == tuple(P(t, G.degree) for t in d_witness)
    assert (rep.stats.nodes, rep.stats.pruned) == (d_nodes, d_pruned)
    dm = d_metric(G, M)
    assert dm.value == value
    assert dm.witness == tuple(P(t, G.degree) for t in witness)
    assert dm.in_subgroup == in_subgroup
    assert (dm.stats.nodes, dm.stats.pruned) == (nodes, pruned)


def test_first_slot_takes_one_member_per_class():
    # exhausted searches visit one first entry per class of S4 (5 classes),
    # counts frozen from the reduction through a conjugacy-class table.  As
    # the last slot, the lex-coset prune skips 4 cosets holding the first
    # members of 4 classes; the walk then reaches later members of two of
    # them, a 3-cycle and a double transposition, besides the first 4-cycle.
    # Over [ALL, doubles] the cyclic quotient makes the cuts: it prunes the
    # identity and the double transposition (S4/1 and S4/V4 are not cyclic),
    # and each of the other 3 class members tries all 3 doubles
    doubles = [P(t, 4) for t in ["(1,2)(3,4)", "(1,3)(2,4)", "(1,4)(2,3)"]]
    for pools, counts in (([ALL], (3, 3, 4)), ([ALL, doubles], (14, 11, 0))):
        stats = SearchStats()
        assert exists_generating_tuple(S4, pools, stats) is None
        assert (stats.nodes, stats.pruned, stats.skipped) == counts
    # {(2,3,4)} is not closed, so the conjugate (1,2) after (3,4) is still tried
    pools = [[P("(1,2)", 4), P("(3,4)", 4)], [P("(2,3,4)", 4)]]
    assert exists_generating_tuple(S4, pools) == (P("(1,2)", 4), P("(2,3,4)", 4))


def test_search_builds_no_class_table(monkeypatch):
    # classes are orbited one at a time as the first slot reaches them, and a
    # chain is built only where a tuple has as few orbits as G; fresh groups,
    # so no d or orbit count cached by an earlier test is reused
    G = make(["(1,2,3,4,5,6,7)", "(1,2)"], 7)
    M = make(["(1,2,3,4,5,6)", "(1,2)"], 7)
    builds = []
    for mod in (group_module, gensets):
        original = mod._build_chain
        monkeypatch.setattr(mod, "_build_chain",
                            lambda *a, f=original: builds.append(1) or f(*a))

    def no_classes(self, *args, **kwargs):
        raise AssertionError("conjugacy class table built")

    monkeypatch.setattr(Group, "conjugacy_classes_raw", no_classes)
    min_generators(G)
    d_metric(G, M)
    # d(G) is kept on G, so d_metric does not search for it again
    assert len(builds) == 6


Q8 = make(["(1,2,3,4)(5,6,7,8)", "(1,5,3,7)(2,8,4,6)"], 8)  # regular action
C4C2 = make(["(1,2,3,4)", "(5,6)"], 6)
S3 = make(["(1,2,3)", "(1,2)"], 3)


@pytest.mark.parametrize("g", [S3, S4, D8, Q8, V8, C4C2, C6, A4],
                         ids=["S3", "S4", "D8", "Q8", "C2^3", "C4xC2", "C6", "A4"])
def test_quotient_is_cyclic_matches_oracle(g):
    elems = oracles.closure([x.imgs for x in g.generators], g.degree)
    normals = [n for n in oracles.all_subgroups(elems, g.degree)
               if all(oracles.mul(oracles.mul(oracles.inv(x), h), x) in n
                      for x in elems for h in n)]
    seen = set()
    for n in normals:
        N = Group([Permutation(h) for h in sorted(n)], g.degree)
        want = oracles.quotient_is_cyclic(elems, n)
        assert gensets._quotient_is_cyclic(g, N) == want
        seen.add(want)
    assert seen == {True, False} or g is C6  # C6 has only cyclic quotients


# random subgroups of S4 and S5, each given by one or two of these generators
_SEARCH_GENS = [
    (4, ["(1,2,3,4)", "(1,2)", "(1,2)(3,4)", "(1,2,3)", "(1,3)(2,4)"]),
    (5, ["(1,2,3,4,5)", "(1,2)", "(3,4,5)", "(1,2)(3,4)", "(2,3,4,5)"]),
]


@st.composite
def _search_cases(draw):
    degree, texts = draw(st.sampled_from(_SEARCH_GENS))
    chosen = draw(st.lists(st.sampled_from(texts), min_size=1, max_size=2, unique=True))
    G = make(chosen, degree)
    elems = sorted(oracles.closure([x.imgs for x in G.generators], degree))
    d = draw(st.sampled_from([1, 2, 3]))
    pools, raws = [], []
    for _ in range(d):
        kind = draw(st.sampled_from(["all", "subgroup", "subset", "cyclic", "classes"]))
        # one pool above order 24 at most keeps the brute force small
        small = len(elems) <= 24 or all(len(raw) <= 24 for raw in raws)
        if kind == "all" and small:
            pools.append(ALL)
            raws.append(elems)
            continue
        picked = draw(st.lists(st.sampled_from(elems), min_size=1, max_size=3, unique=True))
        if kind == "subgroup":  # walked in lex order, like ALL
            members = sorted(oracles.closure(picked[:2], degree))
            if small or len(members) <= 24:
                pools.append(Group([Permutation(p) for p in picked[:2]], degree))
                raws.append(members)
                continue
        if kind == "cyclic":  # a subgroup as a list: often no tuple generates
            picked = sorted(oracles.closure(picked[:1], degree))
        elif kind == "classes":  # a union of conjugacy classes: a closed pool
            picked = sorted({oracles.mul(oracles.mul(oracles.inv(c), x), c)
                             for x in picked for c in elems})
        pools.append([Permutation(p) for p in picked])
        raws.append(sorted(picked))
    return G, elems, pools, raws


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_search_cases())
def test_search_agrees_with_brute_force(case):
    # the witness is the first generating tuple in canonical order: every
    # prune, the lex-coset prune of the last slot included, is exact
    G, elems, pools, raws = case
    degree, order = G.degree, len(elems)
    generated = {}

    def generates(tup):
        key = frozenset(tup)
        if key not in generated:
            generated[key] = oracles.generates(list(key), degree, order)
        return generated[key]

    first = next((t for t in product(*raws) if generates(t)), None)
    got = exists_generating_tuple(G, pools)
    assert (got if got is None else tuple(w.imgs for w in got)) == first
    assert min_generators(G).d == oracles.min_generating_size(elems, degree)


def test_class_index_survives_id_reuse(monkeypatch):
    # a cache keyed by id(G) would hand D8 the class map of the dead S4
    monkeypatch.setattr(gensets, "id", lambda g: 0, raising=False)
    assert min_generators(make(["(1,2,3,4)", "(1,2)"], 4)).d == 2
    assert min_generators(D8).witness == tuple(P(t, 8) for t in FROZEN_WITNESSES[1][1])


def test_exists_tuple_identity_pools():
    e = Permutation.identity(4)
    assert exists_generating_tuple(S4, [[e], [e]]) is None


def test_exists_tuple_s4_four_cycles_with_transpositions():
    four_cycles = [p for p in S4.elements() if p.order() == 4]
    transpositions = [p for p in S4.elements() if p.order() == 2 and len(p.cycles()) == 1]
    got = exists_generating_tuple(S4, [four_cycles, transpositions])
    assert got is not None
    a, b = got
    assert a.order() == 4 and b.order() == 2
    assert Group([a, b], 4).order() == 24


def test_exists_tuple_consistency_with_min_generators():
    rep = min_generators(S4)
    got = exists_generating_tuple(S4, [ALL] * rep.d)
    assert got is not None
    assert Group(got, 4).order() == 24


def test_exists_tuple_empty_pool():
    with pytest.raises(ValueError):
        exists_generating_tuple(S4, [[], ALL])


def test_pool_elements_must_lie_in_the_group():
    # (1,2,4) gives <(1,2,4)> the orbit count and order of <(1,2,3)>, so an
    # unchecked pool would pass it off as a generator
    c3 = make(["(1,2,3)"], 4)
    for pool in ([P("(1,2,4)", 4)], [P("(1,2)", 2)], [(0, 0, 1, 2)]):
        with pytest.raises(ValueError):
            exists_generating_tuple(c3, [pool])
    assert exists_generating_tuple(c3, [[P("(1,3,2)", 4)]]) == (P("(1,3,2)", 4),)


def test_subgroup_pools(monkeypatch):
    s3 = make(["(2,3,4)", "(2,3)"], 4)
    got = exists_generating_tuple(S4, [s3, ALL])
    assert got == exists_generating_tuple(S4, [s3.elements(), ALL])
    assert s3.contains(got[0]) and len(oracles.closure([g.imgs for g in got], 4)) == 24
    with pytest.raises(ValueError):
        exists_generating_tuple(s3, [S4, ALL])
    with pytest.raises(ValueError):
        exists_generating_tuple(S4, [S5, ALL])
    # d_metric hands the subgroup itself to the search, not its elements
    pools = []
    search = gensets.exists_generating_tuple
    monkeypatch.setattr(gensets, "exists_generating_tuple",
                        lambda G, p, stats=None: pools.append(p) or search(G, p, stats))
    assert d_metric(S4, s3).value == 1
    assert pools[-1] == [s3, ALL]  # after the min_generators searches


def test_d_metric_s4_s3():
    s3 = make(["(2,3,4)", "(2,3)"], 4)
    rep = d_metric(S4, s3)
    assert rep.value == 1  # = d(S4) - 1, type-1 maximal
    assert Group(rep.witness, 4).order() == 24
    assert s3.contains(rep.witness[0])


def test_d_metric_diag_a5a5():
    g = direct_product(A5, A5)
    diag_gens = [P("(1,2,3,4,5)(6,7,8,9,10)", 10), P("(3,4,5)(8,9,10)", 10)]
    diag = Group(diag_gens, 10)
    rep = d_metric(g, diag)
    assert rep.value == 1
    assert Group(rep.witness, 10).order() == 3600
    assert diag.contains(rep.witness[0])


def test_d_metric_c2c2():
    v4 = make(["(1,2)", "(3,4)"], 4)
    m = make(["(1,2)"], 4)
    rep = d_metric(v4, m)
    assert rep.value == 1


def test_d_metric_whole_group():
    rep = d_metric(S4, S4)
    assert rep.value == 2


def test_d_metric_requires_subgroup():
    with pytest.raises(ValueError):
        d_metric(A5, make(["(1,2)"], 5))


def test_d_min_s4_solvable():
    value, worst = d_min(S4)
    assert value == min_generators(S4).d - 1 == 1


def test_d_min_cyclic():
    value, worst = d_min(C6)
    assert value == 0


def test_d_min_trivial_group_has_no_report():
    assert d_min(trivial_group(3)) == (0, None)


def test_d_min_a5():
    value, worst = d_min(A5)
    assert value >= min_generators(A5).d - 2
    assert value == 1


def test_d_min_searches_for_d_once(monkeypatch):
    # d(S5) is searched once, not once per maximal class (A5, S4, F20, S3 x S2)
    G = make(["(1,2,3,4,5)", "(1,2)"], 5)
    searches = []
    original = gensets.exists_generating_tuple

    def counting(G, pools, stats=None):
        if all(p == ALL for p in pools):
            searches.append(len(pools))
        return original(G, pools, stats)

    monkeypatch.setattr(gensets, "exists_generating_tuple", counting)
    value, report = d_min(G)
    assert value == 1 and report is not None
    assert searches == [2]


def test_min_generators_kept_on_the_group_with_fresh_stats():
    G = make(["(1,2,3,4,5,6)", "(1,2)"], 6)
    first = min_generators(G)
    assert first.stats.nodes > 0
    again = min_generators(G)
    assert (again.d, again.witness) == (first.d, first.witness)
    assert again.stats == SearchStats()  # this call searched nothing


def _with_two_words(G):
    # the bench's shape: the generators plus two words in them, which lie in
    # the group the generators build and so never extend its chain
    g = G.generators
    return Group(list(g) + [g[0] * g[1], g[1] * g[0] * g[-1]], G.degree)


def _lattice_digest(G, bound):
    lat = all_subgroups(G, bound)
    maximal = lat.maximal_classes()
    reports = [classify_maximal(G, c.rep) for c in maximal]
    metrics = [d_metric(G, c.rep) for c in maximal]
    d = min_generators(G)
    return ([(c.order, c.size, c.key, c.orbit) for c in lat.classes],
            lat.maximality_flags,
            frattini(G, bound).elements_raw(),
            [(r.core.elements_raw(), r.quotient_order, r.primitive_type, r.intersection_shape)
             for r in reports],
            (d.d, d.witness),
            [(m.value, m.witness, m.in_subgroup) for m in metrics])


@pytest.mark.parametrize("texts, degree, bound", [
    (["(1,2,3,4,5)", "(1,2)"], 5, 120),
    (["(1,2,3,4,5,6)", "(1,2)"], 6, 720),
    (None, 10, 7200),
], ids=["S5", "S6", "A5wrC2"])
def test_group_acts_by_the_generators_that_built_its_chain(texts, degree, bound):
    plain = make(texts, degree) if texts else _wreath_a5_c2()[0]
    padded = _with_two_words(plain)
    given = padded.generators
    assert len(given) == len(plain.generators) + 2
    # a generator extends the chain iff it lies outside <the earlier ones>
    extending = [g.imgs for i, g in enumerate(given)
                 if not Group(given[:i], degree).contains(g)]
    assert padded._raw_gens == tuple(extending) == plain._raw_gens
    assert _lattice_digest(padded, bound) == _lattice_digest(plain, bound)


def test_d_metric_conjugation_invariance():
    s3 = make(["(2,3,4)", "(2,3)"], 4)
    for g in [P("(1,3)", 4), P("(1,2,3,4)", 4), P("(1,4)(2,3)", 4)]:
        conjugate = Group([g.inverse() * h * g for h in s3.generators], 4)
        assert d_metric(S4, conjugate).value == d_metric(S4, s3).value


# -- density ------------------------------------------------------------------

def test_density_s5_basic():
    lifts = (P("(1,2)", 5), Permutation.identity(5))
    rep = generation_density(S5, A5, lifts)
    assert rep.total == 3600
    assert rep.ratio >= Fraction(53, 90)
    assert rep.ratio == Fraction(rep.favorable, rep.total)


PHI2_A5 = 2280  # generating pairs of A5 (P. Hall, Q. J. Math. 7, 1936)


def test_density_a5_matches_hall_and_oracle():
    ident = Permutation.identity(5)
    rep = generation_density(A5, A5, (ident, ident))
    elems = oracles.closure([g.imgs for g in A5.generators], 5)
    brute = sum(1 for x in elems for y in elems if oracles.generates([x, y], 5, 60))
    assert rep.favorable == brute == PHI2_A5
    assert rep.total == 3600


@pytest.mark.parametrize("lifts", [("(1,2)", "(1,2,3,4)"), ("(1,2)", "()"), ("()", "(1,3)")],
                         ids=["odd-odd", "odd-even", "even-odd"])
def test_density_s5_independent_of_lifts(lifts):
    # Gaschuetz: the count does not depend on the lifts chosen
    rep = generation_density(S5, A5, [P(t, 5) for t in lifts])
    assert (rep.favorable, rep.total) == (PHI2_A5, 3600)


def test_density_s5_matches_oracle():
    lifts = (P("(1,2)", 5), Permutation.identity(5))
    l1, l2 = (l.imgs for l in lifts)
    elems = oracles.closure([g.imgs for g in A5.generators], 5)
    brute = sum(1 for x in elems for y in elems
                if oracles.generates([oracles.mul(x, l1), oracles.mul(y, l2)], 5, 120))
    assert generation_density(S5, A5, lifts).favorable == brute


def test_density_requires_generating_lifts():
    lifts = (P("(1,2)", 5), P("(1,2)", 5))
    # fine: <(1,2)> A5 = S5 even with both lifts equal
    generation_density(S5, A5, lifts)
    bad = (Permutation.identity(5), Permutation.identity(5))
    with pytest.raises(ValueError):
        generation_density(S5, A5, bad)


@pytest.mark.parametrize("degree", [4, 6])
def test_density_rejects_lifts_outside_the_group(degree):
    with pytest.raises(ValueError):
        generation_density(S5, A5, (P("(1,2)", degree), P("(1,2,3)", degree)))


def test_density_requires_socle():
    with pytest.raises(ValueError):
        generation_density(S5, make(["(1,2,3,4,5)"], 5), (P("(1,2)", 5), P("(1,2)", 5)))
    with pytest.raises(ValueError):
        generation_density(S4, make(["(1,2)(3,4)", "(1,3)(2,4)"], 4),
                           (P("(1,2)", 4), P("(1,2)", 4)))


def test_density_budget():
    from genex.group import BoundExceeded
    with pytest.raises(BoundExceeded):
        generation_density(S5, A5, (P("(1,2)", 5), Permutation.identity(5)), budget=100)


# -- monolithic check ---------------------------------------------------------

MONOLITHIC_CASES = {  # G, N, message of the failing branch (None: passes)
    "S5/A5": (S5, A5, None),
    "S6/A6": (S6, A6, None),
    "A6/A6": (A6, A6, None),
    "A5wrC2/A5xA5": _wreath_a5_c2() + (None,),
    "S5/C5": (S5, make(["(1,2,3,4,5)"], 5), "normal"),
    "S4/V4": (S4, make(["(1,2)(3,4)", "(1,3)(2,4)"], 4), "abelian"),
    "S5/S5": (S5, S5, "direct product"),
    "A5xA5/A5xA5": (direct_product(A5, A5), direct_product(A5, A5), "transitively"),
    "A5xC2/A5": (direct_product(A5, make(["(1,2)"], 2)),
                 make(["(1,2,3,4,5)", "(3,4,5)"], 7), "C_G"),
}


def _monolithic_by_definition(G, N):
    mins = minimal_normal_subgroups(G)
    return (len(mins) == 1 and mins[0].order() == N.order() and N.is_subgroup_of(G)
            and mins[0].is_subgroup_of(N) and not N.is_abelian())


@pytest.mark.parametrize("name", MONOLITHIC_CASES)
def test_monolithic_check_agrees_with_definition(name):
    G, N, message = MONOLITHIC_CASES[name]
    assert _monolithic_by_definition(G, N) == (message is None)
    if message is None:
        check_monolithic_nonabelian(G, N)
    else:
        with pytest.raises(ValueError, match=message):
            check_monolithic_nonabelian(G, N)


def test_monolithic_check_never_enumerates_the_group(monkeypatch):
    W, N = _wreath_a5_c2()
    enumerated = []
    original = Group.elements_raw

    def spy(self, *args, **kwargs):
        enumerated.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Group, "elements_raw", spy)
    check_monolithic_nonabelian(W, N)
    assert any(g is N for g in enumerated)
    assert not any(g is W for g in enumerated)


# -- replacement --------------------------------------------------------------

def test_socle_projection_s5():
    project = socle_block_projection(S5, A5)
    assert project(P("(1,2)", 5)).degree == 1


def test_socle_projection_rejects_wrong_degree():
    project = socle_block_projection(S5, A5)
    for n in (4, 6):
        with pytest.raises(ValueError):
            project(P("(1,2)", n))


def test_socle_projection_wreath():
    c2 = make(["(1,2)"], 2)
    W, _ = wreath_product(A5, c2)
    N = Group([P("(1,2,3,4,5)", 10), P("(3,4,5)", 10),
               P("(6,7,8,9,10)", 10), P("(8,9,10)", 10)], 10)
    project = socle_block_projection(W, N)
    swap = P("(1,6)(2,7)(3,8)(4,9)(5,10)", 10)
    assert project(swap) == P("(1,2)", 2)
    assert project(P("(1,2,3)", 10)).is_identity()


def test_replacement_search_s5():
    # H = S4 inside Aut(A5) = S5; gens chosen in H with <gens> A5 = S5
    h = make(["(2,3,4,5)", "(2,3)"], 5)

    def htilde(g):
        return h.contains(g)

    gens = (P("(2,3,4,5)", 5), P("(2,3)", 5))
    got = replacement_search(S5, A5, gens, htilde)
    assert got is not None
    v1, v2 = got
    assert A5.contains(v1) and A5.contains(v2)
    assert htilde(v1 * gens[0])
    assert Group([v1 * gens[0], v2 * gens[1]], 5).order() == 120


def test_replacement_trivial_when_already_generating():
    h = make(["(2,3,4,5)", "(2,3)"], 5)
    gens = (P("(2,3)", 5), P("(2,3,4,5)", 5))
    assert Group(gens, 5).order() != 120  # inside S4, not generating alone
    got = replacement_search(S5, A5, gens, h.contains)
    assert got is not None


@pytest.mark.parametrize("degree", [4, 6])
def test_replacement_search_rejects_generators_outside_the_group(degree):
    gens = (P("(2,3,4)", degree), P("(2,3)", degree))
    with pytest.raises(ValueError):
        replacement_search(S5, A5, gens, lambda g: True)


def test_replacement_hypothesis_failure():
    c2 = make(["(1,2)"], 2)
    W, dec = wreath_product(A5, c2)
    N = Group([P("(1,2,3,4,5)", 10), P("(3,4,5)", 10),
               P("(6,7,8,9,10)", 10), P("(8,9,10)", 10)], 10)
    swap = P("(1,6)(2,7)(3,8)(4,9)(5,10)", 10)
    g1 = P("(1,2,3,4,5)", 10) * swap
    g2 = swap
    # pi(g1) = pi(g2) = the 2-cycle; g1^-1 g2 projects to identity: fixed point
    with pytest.raises(HypothesisError):
        replacement_search(W, N, (g1, g2), lambda g: True)


def test_replacement_search_wreath():
    c2 = make(["(1,2)"], 2)
    W, dec = wreath_product(A5, c2)
    N = Group([P("(1,2,3,4,5)", 10), P("(3,4,5)", 10),
               P("(6,7,8,9,10)", 10), P("(8,9,10)", 10)], 10)
    a4 = make(["(1,2,3)", "(1,2)(3,4)"], 5)

    def htilde(g):
        w = dec(g)
        return all(a4.contains(b) for b in w.base)

    swap = P("(1,6)(2,7)(3,8)(4,9)(5,10)", 10)
    # g1 has identity top (fixed point); g2 swaps the blocks; together mod N
    # they generate W/N = C2
    g1 = P("(1,2,3)(6,7,8)", 10)
    g2 = swap
    assert htilde(g1) and htilde(g2)
    tested = []
    got = replacement_search(W, N, (g1, g2), lambda g: tested.append(g) or htilde(g))
    assert got is not None
    v1, v2 = got
    assert htilde(v1 * g1)
    # htilde is tested lazily: on N in order, up to the v1 returned
    assert tested == [v * g1 for v in N.elements()[:N.elements().index(v1) + 1]]
    assert Group([v1 * g1, v2 * g2], 10).order() == W.order()
