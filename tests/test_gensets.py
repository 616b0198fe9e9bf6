from fractions import Fraction

import pytest

import oracles
from genex import gensets
from genex.group import Group, direct_product, trivial_group, wreath_product
from genex.gensets import (
    ALL,
    SearchStats,
    HypothesisError,
    d_metric,
    d_min,
    exists_generating_tuple,
    generation_density,
    min_generators,
    replacement_search,
    socle_block_projection,
)
from genex.perm import Permutation, parse_permutation


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


def test_d_min_a5():
    value, worst = d_min(A5)
    assert value >= min_generators(A5).d - 2
    assert value == 1


def test_d_metric_conjugation_invariance():
    s3 = make(["(2,3,4)", "(2,3)"], 4)
    for g in [P("(1,3)", 4), P("(1,2,3,4)", 4), P("(1,4)(2,3)", 4)]:
        assert d_metric(S4, s3.conjugated(g)).value == d_metric(S4, s3).value


# -- density ------------------------------------------------------------------

def test_density_s5_basic():
    lifts = (P("(1,2)", 5), Permutation.identity(5))
    rep = generation_density(S5, A5, lifts)
    assert rep.total == 3600
    assert rep.ratio >= Fraction(53, 90)
    assert rep.ratio == Fraction(rep.favorable, rep.total)


def test_density_requires_generating_lifts():
    lifts = (P("(1,2)", 5), P("(1,2)", 5))
    # fine: <(1,2)> A5 = S5 even with both lifts equal
    generation_density(S5, A5, lifts)
    bad = (Permutation.identity(5), Permutation.identity(5))
    with pytest.raises(ValueError):
        generation_density(S5, A5, bad)


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


# -- replacement --------------------------------------------------------------

def test_socle_projection_s5():
    project = socle_block_projection(S5, A5)
    assert project(P("(1,2)", 5)).degree == 1


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
    got = replacement_search(W, N, (g1, g2), htilde)
    assert got is not None
    v1, v2 = got
    assert htilde(v1 * g1)
    assert Group([v1 * g1, v2 * g2], 10).order() == W.order()
