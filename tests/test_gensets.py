import random
from fractions import Fraction
from itertools import islice, product

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from genex import gensets, structure
from genex import group as group_module
from genex.group import (BoundExceeded, Group, centralizer_in, coset_action, direct_product,
                         normal_closure, trivial_group, wreath_product)
from genex.gensets import (
    HypothesisError,
    check_monolithic_nonabelian,
    d_metric,
    d_min,
    exists_generating_tuple,
    generation_density,
    min_generators,
    replacement_hypothesis,
    replacement_search,
    socle_block_projection,
)
from genex.grpfmt import parse_group_text
from genex.perm import BOUNDS, Permutation, Trace, _order, is_prime, parse_permutation, trace
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
    W = wreath_product(A5, make(["(1,2)"], 2))
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


def _first_generating_tuple(G, pools):
    """The first tuple in product order of the pools' elements, each pool
    closed by the oracle, that generates G; None if there is none."""
    order = len(oracles.closure([x.imgs for x in G.generators], G.degree))
    raws = [sorted(oracles.closure([x.imgs for x in pool.generators], G.degree))
            for pool in pools]
    first = next((t for t in product(*raws) if oracles.generates(list(t), G.degree, order)),
                 None)
    return first if first is None else tuple(Permutation(p) for p in first)


V4 = make(["(1,2)(3,4)", "(1,3)(2,4)"], 4)  # normal in S4
C4 = make(["(1,2,3,4)"], 4)


def test_exists_tuple_restricted_pools_frozen():
    pools = [make(["(1,2)(3,4)"], 4), S4, S4]
    got = exists_generating_tuple(S4, pools)
    assert got == (Permutation.identity(4), P("(3,4)", 4), P("(1,2,3)", 4))
    assert got == _first_generating_tuple(S4, pools)
    # <first two slots> <= V4 and S4/V4 = S3 is not cyclic: every second-slot
    # node is pruned by the cyclic quotient, and the certificate stays None
    with trace() as t:
        assert exists_generating_tuple(S4, [V4, V4, C4]) is None
    assert _first_generating_tuple(S4, [V4, V4, C4]) is None
    assert t.pruned > 0


# d(G) and D_M(G) with witnesses, frozen from the search that built a chain
# at every node and reduced the first slot through a conjugacy-class table;
# every prune is exact, so none may change them.  The (nodes, pruned,
# skipped) counts are those of the lex-coset prune, which skips last-slot
# cosets unvisited.
SEARCH_PINS = {  # G, M, (d witness, counts), (D, witness, in_subgroup, counts)
    "S6": (S6, make(["(1,2,3,4,5)", "(1,2)"], 6),
           (["(5,6)", "(1,2,3,4,5)"], (3, 1, 4)),
           (1, ["(4,5)", "(1,2,3,4,5,6)"], (0,), (6, 4, 3))),
    "A6": (A6, make(["(1,2,3,4,5)", "(3,4,5)"], 6),
           (["(4,5,6)", "(1,2,3,4)(5,6)"], (3, 1, 3)),
           (1, ["(3,4,5)", "(1,2,3)(4,5,6)"], (0,), (4, 2, 2))),
    "S7": (S7, make(["(1,2,3,4,5,6)", "(1,2)"], 7),
           (["(6,7)", "(1,2,3,4,5,6)"], (3, 1, 5)),
           (1, ["(5,6)", "(1,2,3,4,5)(6,7)"], (0,), (4, 2, 4))),
    "A5wrC2": (_wreath_a5_c2()[0],
               make(["(1,2,3,4,5)(6,7,8,9,10)", "(3,4,5)(8,9,10)",
                     "(1,6)(2,7)(3,8)(4,9)(5,10)"], 10),  # diagonal A5.2
               (["(8,9,10)", "(1,6,2,7,3,8)(4,9)(5,10)"], (3, 1, 43)),
               (1, ["(3,4,5)(8,9,10)", "(1,6,2,7,3,8)(4,9)(5,10)"], (0,), (3, 1, 43))),
}


def _search_counts(stats):
    return stats.nodes, stats.pruned, stats.skipped


@pytest.mark.parametrize("name", SEARCH_PINS)
def test_search_pins(name):
    G, M, (d_witness, d_counts), (value, witness, in_subgroup, counts) = SEARCH_PINS[name]
    rep = min_generators(G)
    assert rep.d == 2
    assert rep.witness == tuple(P(t, G.degree) for t in d_witness)
    assert _search_counts(rep.stats) == d_counts
    dm = d_metric(G, M)
    assert dm.value == value
    assert dm.witness == tuple(P(t, G.degree) for t in witness)
    assert dm.in_subgroup == in_subgroup
    assert _search_counts(dm.stats) == counts


def test_first_slot_takes_one_member_per_class():
    # exhausted searches visit one first entry per class of S4 (5 classes),
    # counts frozen from the reduction through a conjugacy-class table.  As
    # the last slot, the lex-coset prune skips 4 cosets holding the first
    # members of 4 classes; the walk then reaches later members of two of
    # them, a 3-cycle and a double transposition, besides the first 4-cycle.
    # Over [S4, V4] the cyclic quotient makes the cuts: it prunes the
    # identity and the double transposition (S4/1 and S4/V4 are not cyclic),
    # and each of the other 3 class members tries all 4 elements of V4, none
    # completing it: 5 + 3 * 4 nodes, 2 + 3 * 4 pruned
    for pools, counts in (([S4], (3, 3, 4)), ([S4, V4], (17, 14, 0))):
        with trace() as t:
            assert exists_generating_tuple(S4, pools) is None
        assert _first_generating_tuple(S4, pools) is None
        assert _search_counts(t) == counts
    # <(2,3,4)> is not normal, so the conjugate (1,2) after (3,4) is still tried
    pools = [make(["(1,2)", "(3,4)"], 4), make(["(2,3,4)"], 4)]
    got = exists_generating_tuple(S4, pools)
    assert got == (P("(1,2)", 4), P("(2,3,4)", 4)) == _first_generating_tuple(S4, pools)


def test_search_builds_no_class_table():
    # classes are orbited one at a time as the first slot reaches them, and a
    # chain is built only where a tuple has as few orbits as G; fresh groups,
    # so no d or orbit count cached by an earlier test is reused
    G = make(["(1,2,3,4,5,6,7)", "(1,2)"], 7)
    M = make(["(1,2,3,4,5,6)", "(1,2)"], 7)
    with trace() as t:
        min_generators(G)
        d_metric(G, M)
    # d(G) is kept on G, so d_metric does not search for it again; of the
    # tuples with one orbit, those that Jordan's theorem certifies as
    # generating S7 build no chain (group._generates), and S7 is Sym of its
    # points, so the cyclic-quotient cut builds no closure either
    assert (t.chain_builds, t.class_tables) == (0, 0)


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


@pytest.mark.parametrize("g", [S4, S5, A4, D8, Q8, C4C2],
                         ids=["S4", "S5", "A4", "D8", "Q8", "C4xC2"])
def test_prime_index_stop_keeps_the_prune_verdict(g):
    # the prune stops the closure at index 1 or a prime; its verdict is the
    # full closure's for every single element
    for x in g.elements_raw():
        closure = normal_closure(g, [Permutation._wrap(x)])
        assert gensets._closure_quotient_is_cyclic(g, [x]) == \
            gensets._quotient_is_cyclic(g, closure)


def _pgl2_5():
    # PGL(2, 5), a copy of S5, on the projective line over F_5, point 5
    # standing for infinity, with PSL(2, 5), a copy of A5: x -> x + 1 and
    # x -> -1/x generate PSL, and x -> 2x, a square times a non-square, adds
    # the rest; neither is Alt or Sym of its 6 points
    t = tuple((x + 1) % 5 for x in range(5)) + (5,)
    s = tuple((-pow(x, -1, 5)) % 5 if x else 5 for x in range(5)) + (0,)
    m = tuple(2 * x % 5 for x in range(5)) + (5,)
    t, s, m = map(Permutation, (t, s, m))
    return Group([t, s, m], 6), Group([t, s], 6)


def test_prime_index_stop_skips_the_quotient_test(record):
    # an element of PSL(2, 5) in PGL(2, 5) has closure PSL(2, 5), of index 2:
    # the chain stops on reaching order 60, its last extension being the one
    # that grew it there, and G/N is not tested; S4/V4 = S3 has composite
    # index 6 and is tested; S5, Sym of its points, extends no chain at all
    grew, tested = record(group_module._Chain, "extend"), record(gensets, "_quotient_is_cyclic")
    pgl, psl = _pgl2_5()
    assert (pgl.order(), psl.order()) == (120, 60)
    assert pgl._alt_or_sym is None and S5._alt_or_sym is not None
    for x in pgl.elements_raw():
        if x != tuple(range(6)) and psl._contains_raw(x):
            grew.clear()
            assert gensets._closure_quotient_is_cyclic(pgl, [x])
            _, grown = grew[-1]
            assert grown
    assert tested == []
    assert not gensets._closure_quotient_is_cyclic(S4, [P("(1,2)(3,4)", 4).imgs])
    assert [N.order() for (_, N), _ in tested] == [4]
    grew.clear()
    for x in S5.elements_raw():
        assert gensets._closure_quotient_is_cyclic(S5, [x]) == (x != tuple(range(5)))
    assert grew == [] and len(tested) == 1


CUT_GROUPS = {  # Alt and Sym of 5 and 6 points, alone and inside degree 8
    "S5": S5, "A5": A5, "S6": S6, "A6": A6,
    "Sym5 in 8": make(["(2,4,5,7,8)", "(2,4)"], 8),
    "Alt5 in 8": make(["(2,4,5,7,8)", "(5,7,8)"], 8),
    "Sym6 in 8": make(["(1,3,4,5,6,8)", "(1,3)"], 8),
    "Alt6 in 8": make(["(1,3,4)", "(3,4,5,6,8)"], 8),
}


@pytest.mark.parametrize("name", CUT_GROUPS)
def test_cut_on_alt_and_sym_builds_no_closure(name):
    # every nontrivial normal subgroup of Alt or Sym of 5 or more points
    # holds the Alt, so the cut reads whether the entry is the identity off
    # the group's record, builds nothing, and agrees with the quotient by
    # the full normal closure
    G = CUT_GROUPS[name]
    assert G._alt_or_sym is not None
    elems = G.elements_raw()
    with trace() as t:
        verdicts = [gensets._closure_quotient_is_cyclic(G, [x]) for x in elems]
    assert t.chain_builds == 0
    assert verdicts == [x != tuple(range(G.degree)) for x in elems]
    for x, verdict in zip(elems, verdicts):
        assert verdict == gensets._quotient_is_cyclic(G, normal_closure(G, [Permutation._wrap(x)]))


CUT_SEARCHES = {  # group, and the subgroup whose D_M is searched too
    "A5wrC2": (_wreath_a5_c2()[0], SEARCH_PINS["A5wrC2"][1]),
    "C2xS4xC2": (direct_product(direct_product(make(["(1,2)"], 2), S4), make(["(1,2)"], 2)), None),
    "C2^3": (V8, None),
}


@pytest.mark.parametrize("name", CUT_SEARCHES)
def test_cut_on_the_identity_builds_no_closure_on_a_nonabelian_group(record, name):
    # on every partial tuple the searches cut, the verdict is the quotient's
    # by the full normal closure; an all-identity tuple on a nonabelian
    # group leaves G/1 = G, not cyclic, and builds no chain (C2^3, abelian,
    # takes the closure)
    G, M = CUT_SEARCHES[name]
    G = Group(G.generators, G.degree)
    cut = gensets._closure_quotient_is_cyclic
    calls = record(gensets, "_closure_quotient_is_cyclic")
    min_generators(G)
    if M is not None:
        d_metric(G, Group(M.generators, M.degree))
    ident = tuple(range(G.degree))
    assert any(all(x == ident for x in tup) for (_, tup), _ in calls)
    for (H, tup), verdict in calls:
        assert H is G
        assert verdict == gensets._quotient_is_cyclic(G, normal_closure(G, [Permutation._wrap(x) for x in tup]))
    if not G.is_abelian():
        (_, tup), _ = calls[0]
        with trace() as t:
            assert not cut(G, (ident,) * len(tup))
        assert t.chain_builds == 0


def test_no_certificate_is_tried_inside_a5_wr_c2():
    # |A5 wr C2| = 7200, which 10!/2 does not divide, so no tuple of a search
    # over a relabelled A5 wr C2 and its diagonal A5.2, nor of the
    # replacement search over A5 x A5, offers a prefix to Jordan's
    # certificate, which could only fail; nor does the generation test
    W, N = _wreath_a5_c2()
    diagonal = SEARCH_PINS["A5wrC2"][1]
    rng = random.Random(55)
    sigma = tuple(rng.sample(range(10), 10))
    back = tuple(sorted(range(10), key=sigma.__getitem__))

    def relabelled(H):
        return Group([Permutation(tuple(sigma[g.imgs[back[a]]] for a in range(10)))
                      for g in H.generators], 10)

    G, D = relabelled(W), relabelled(diagonal)
    with trace() as t:
        assert min_generators(G).d == 2
        assert d_metric(G, D).value == 1
        gens = (P("(1,2,3)(6,7,8)", 10), P("(1,6)(2,7)(3,8)(4,9)(5,10)", 10))
        htilde = wreath_product(make(["(1,2,3)", "(1,2)(3,4)"], 5), make(["(1,2)"], 2)).contains
        assert replacement_search(W, N, gens, htilde) is not None
        elements = W.elements_raw()
        answers = []
        for _ in range(50):
            tup = [rng.choice(elements) for _ in range(rng.randint(2, 3))]
            answers.append(group_module._generates(W, tup))
            assert answers[-1] == (len(oracles.closure(tup, 10)) == W.order())
    assert True in answers and False in answers
    assert t.jordan_tests == 0


# The exchange property for minimal generating sets of tiny groups with
# d = 2, decided by the oracle's own closures: for all generating pairs x
# and y and each slot i, some entry of y in slot i of x generates G.
EXCHANGE_VERDICTS = {  # name: (G, whether the property holds)
    "S3": (S3, True),
    "C2^2": (make(["(1,2)", "(3,4)"], 4), True),
    "D8": (D8, True),
    "Q8": (Q8, True),
    "C3^2": (make(["(1,2,3)", "(4,5,6)"], 6), True),
    "D10": (make(["(1,2,3,4,5)", "(2,5)(3,4)"], 5), True),
    "A4": (A4, True),
    "S4": (S4, False),
    "C6xC2": (make(["(1,2,3,4,5,6)", "(7,8)"], 8), False),
    "S3xC2": (make(["(1,2,3)", "(1,2)", "(4,5)"], 5), False),
    "C5:C4": (make(["(1,2,3,4,5)", "(2,3,5,4)"], 5), False),
}


@pytest.mark.parametrize("name", EXCHANGE_VERDICTS)
def test_exchange_property_verdicts(name):
    G, holds = EXCHANGE_VERDICTS[name]
    elems = oracles.closure([x.imgs for x in G.generators], G.degree)
    assert min_generators(G).d == 2
    verdict, counterexample = oracles.mgse_by_definition(elems, G.degree, 2)
    assert verdict == holds
    if holds:
        assert counterexample is None
        return
    # the counterexample re-checked by chain orders: x and y generate G, and
    # no entry of y in slot i of x does
    x, i, y = counterexample

    def order(tup):
        return Group([Permutation(p) for p in tup], G.degree).order()

    assert order(x) == order(y) == G.order()
    assert all(order(x[:i] + (yj,) + x[i + 1:]) < G.order() for yj in y)


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
        kind = draw(st.sampled_from(["all", "subgroup", "cyclic", "normal"]))
        # one pool above order 24 at most keeps the brute force small
        small = len(elems) <= 24 or all(len(raw) <= 24 for raw in raws)
        if kind == "all" and small:
            pools.append(G)
            raws.append(elems)
            continue
        picked = draw(st.lists(st.sampled_from(elems), min_size=1, max_size=3, unique=True))
        gens = picked[:1]  # cyclic: often no tuple generates
        if kind == "subgroup":
            gens = picked[:2]
        elif kind == "normal":  # the normal closure of the picked elements
            gens = sorted({oracles.mul(oracles.mul(oracles.inv(c), x), c)
                           for x in picked for c in elems})
        members = sorted(oracles.closure(gens, degree))
        if not small and len(members) > 24:
            gens = picked[:1]
            members = sorted(oracles.closure(gens, degree))
        pools.append(Group([Permutation(p) for p in gens], degree))
        raws.append(members)
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
    pools = [trivial_group(4), trivial_group(4)]
    assert exists_generating_tuple(S4, pools) is None
    assert _first_generating_tuple(S4, pools) is None


def test_exists_tuple_s4_four_cycles_with_transpositions():
    pools = [C4, make(["(1,2)"], 4)]
    got = exists_generating_tuple(S4, pools)
    assert got == (P("(1,2,3,4)", 4), P("(1,2)", 4)) == _first_generating_tuple(S4, pools)
    assert Group(got, 4).order() == 24


def test_exists_tuple_consistency_with_min_generators():
    rep = min_generators(S4)
    got = exists_generating_tuple(S4, [S4] * rep.d)
    assert got is not None
    assert Group(got, 4).order() == 24


def test_exists_tuple_with_no_slots():
    # the empty tuple generates exactly the trivial group
    assert exists_generating_tuple(trivial_group(3), []) == ()
    assert exists_generating_tuple(S4, []) is None


def test_exists_tuple_empty_pool():
    with pytest.raises(ValueError):
        exists_generating_tuple(S4, [[], S4])


@pytest.mark.parametrize("pool", [[P("(1,2)", 4)], P("(1,2)", 4), "all"],
                         ids=["list", "Permutation", "string"])
def test_pools_must_be_groups(pool):
    with pytest.raises(ValueError, match="not a subgroup"):
        exists_generating_tuple(S4, [S4, pool])


def test_pool_elements_must_lie_in_the_group():
    # (1,2,4) gives <(1,2,4)> the orbit count and order of <(1,2,3)>, so an
    # unchecked pool would pass it off as a generator
    c3 = make(["(1,2,3)"], 4)
    for pool in (make(["(1,2,4)"], 4), make(["(1,2)"], 2)):
        with pytest.raises(ValueError):
            exists_generating_tuple(c3, [pool])
    pools = [make(["(1,3,2)"], 4)]  # c3 itself, as another Group
    got = exists_generating_tuple(c3, pools)
    assert got == (P("(1,2,3)", 4),) == _first_generating_tuple(c3, pools)


def test_subgroup_pools(record):
    s3 = make(["(2,3,4)", "(2,3)"], 4)
    got = exists_generating_tuple(S4, [s3, S4])
    assert got == (P("(3,4)", 4), P("(1,2,3)", 4)) == _first_generating_tuple(S4, [s3, S4])
    assert s3.contains(got[0])
    with pytest.raises(ValueError):
        exists_generating_tuple(s3, [S4, s3])
    with pytest.raises(ValueError):
        exists_generating_tuple(S4, [S5, S4])
    # d_metric hands the subgroup itself to the search, not its elements
    searches = record(gensets, "exists_generating_tuple")
    assert d_metric(S4, s3).value == 1
    (_, pools), _ = searches[-1]
    assert pools == [s3, S4]  # after the min_generators searches


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


def test_d_metric_checks_each_subgroup_pool_once(record):
    # d_metric checks H once itself; the search then checks the one distinct
    # pool H once, though H fills two slots, and its first-slot normality
    # test reuses that check
    G = make(["(1,2)", "(3,4)", "(5,6)"], 6)  # C2^3, fresh so d is searched here
    H = make(["(1,2)", "(3,4)"], 6)
    min_generators(G)
    calls = record(Group, "is_subgroup_of")
    rep = d_metric(G, H)
    assert (rep.value, len(rep.witness)) == (2, 3)
    assert [self for (self, _), _ in calls] == [H, H]


def test_d_metric_zero_puts_no_witness_entry_in_the_subgroup():
    # C6 is cyclic, so its d = 1 witness generates it and misses C3; no
    # generating pair of S4 has an entry in the trivial group
    for G, H in ((C6, make(["(1,3,5)(2,4,6)"], 6)), (S4, trivial_group(4))):
        rep = d_metric(G, H)
        assert rep.value == 0 and rep.in_subgroup == ()
        assert not any(H.contains(w) for w in rep.witness)


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


@pytest.mark.parametrize("build, classes, report", [
    (lambda: S7, 5, (2, "coordinate")),
    (lambda: direct_product(A5, A5), 8, (3, "not-applicable")),
    (lambda: _wreath_a5_c2()[0], 6, (2, "coordinate")),
], ids=["S7", "A5xA5", "A5wrC2"])
def test_d_min_reaches_type_2_and_3_classes_at_the_default_bound(build, classes, report):
    # the paper's conjecture D_M(G) = d(G) - 1, and with it the d - 2
    # theorem, on every maximal class, type-3 and diagonal ones included
    G = build()
    G = Group(G.generators, G.degree)
    value, worst = d_min(G)
    assert (value, worst.primitive_type, worst.intersection_shape) == (1,) + report
    maximal = all_subgroups(G).maximal_classes()
    assert len(maximal) == classes
    assert all(d_metric(G, c.rep).value == min_generators(G).d - 1 == 1 for c in maximal)


@pytest.mark.parametrize("G", [S4, S5, A6], ids=["S4", "S5", "A6"])
def test_d_min_classifies_one_maximal_class(record, G):
    # every D_M is computed first; only the first class attaining the least is classified
    calls = record(gensets, "classify_maximal")
    value, report = d_min(G)
    first = next(c.rep for c in all_subgroups(G).maximal_classes()
                 if d_metric(G, c.rep).value == value)
    assert [M for (_, M), _ in calls] == [report.subgroup] == [first]


def test_d_min_searches_for_d_once(record):
    # every maximal class of S5 (A5, S4, F20, S3 x S2) has a generating pair
    # with one entry in it, which settles d(S5) = 2, so G alone is never searched
    G = make(["(1,2,3,4,5)", "(1,2)"], 5)
    searches = record(gensets, "exists_generating_tuple")
    value, report = d_min(G)
    assert value == 1 and report is not None
    assert [pools for (_, pools), _ in searches if all(p is G for p in pools)] == []


def test_d_min_raises_below_the_theorem_bound(monkeypatch):
    # d(C2^3) = 3, so D_M >= 1 for every maximal M by the paper's theorem; a
    # D_M of 0 for one class is an engine fault, named by its class
    G = Group(V8.generators, 6)
    assert d_min(G)[0] == 2
    G = Group(V8.generators, 6)
    first = all_subgroups(G).maximal_classes()[0].rep
    real = gensets.d_metric

    def stub(G, M):
        report = real(G, M)
        if M is first:
            report.value = 0
        return report

    monkeypatch.setattr(gensets, "d_metric", stub)
    with pytest.raises(AssertionError, match="maximal class of order 4"):
        d_min(G)


def test_d_metric_abelian_guard(record):
    # C6 has a generating pair with an entry in C3, but d(C6) = 1, so no
    # pair search runs on an abelian group: only min_generators' k = 1 search
    G = Group(C6.generators, 6)
    H = make(["(1,3,5)(2,4,6)"], 6)
    searches = record(gensets, "exists_generating_tuple")
    rep = d_metric(G, H)
    assert (rep.value, rep.in_subgroup) == (0, ())
    assert [pools for (_, pools), _ in searches] == [[G]]
    assert G._generation[0] == 1


def test_d_metric_failed_pair_search_is_not_repeated(record):
    # no generating pair of S4 has an entry in the trivial group: the pair
    # search fails, min_generators finds d = 2 by a search over [G, G], and
    # the k = 1 search, the same pair search, is not run again
    G = Group(S4.generators, 4)
    H = trivial_group(4)
    searches = record(gensets, "exists_generating_tuple")
    rep = d_metric(G, H)
    assert (rep.value, rep.witness) == (0, min_generators(G).witness)
    assert [pools for (_, pools), _ in searches] == [[H, G], [G, G]]


S3_CUBED = direct_product(direct_product(S3, S3), S3)


def test_d_metric_falls_back_for_d_three():
    # S3^3 / S3^3' = C2^3, so d = 3 and the pair search over the order-72
    # maximal <(2,3)> x S3 x S3 fails; the answer is the one found after
    # min_generators, and the stats add the failed pair search's 18 nodes
    H = make(["(2,3)", "(4,5,6)", "(4,5)", "(7,8,9)", "(7,8)"], 9)
    old = Group(S3_CUBED.generators, 9)
    assert min_generators(old).d == 3
    before = d_metric(old, H)
    G = Group(S3_CUBED.generators, 9)
    rep = d_metric(G, H)
    assert (rep.value, rep.witness, rep.in_subgroup) == \
        (before.value, before.witness, before.in_subgroup)
    assert (rep.value, rep.in_subgroup) == (2, (0, 1))
    assert (before.stats.nodes, rep.stats.nodes) == (122, 140)
    assert (before.stats.pruned, rep.stats.pruned) == (118, 136)
    assert G._generation[0] == 3


@pytest.mark.parametrize("name", SEARCH_PINS)
def test_d_metric_shortcut_leaves_d_unsearched(name):
    G, M, (d_witness, d_counts), (value, witness, in_subgroup, counts) = SEARCH_PINS[name]
    G = Group(G.generators, G.degree)
    dm = d_metric(G, M)
    assert (dm.value, dm.in_subgroup) == (value, in_subgroup)
    assert dm.witness == tuple(P(t, G.degree) for t in witness)
    assert _search_counts(dm.stats) == counts
    assert G._generation is None
    rep = min_generators(G)
    assert rep.witness == tuple(P(t, G.degree) for t in d_witness)
    assert (rep.d, _search_counts(rep.stats)) == (2, d_counts)


def test_min_generators_kept_on_the_group_with_fresh_stats():
    G = make(["(1,2,3,4,5,6)", "(1,2)"], 6)
    first = min_generators(G)
    assert first.stats.nodes > 0
    again = min_generators(G)
    assert (again.d, again.witness) == (first.d, first.witness)
    # this call searched nothing
    assert [getattr(again.stats, name) for name in Trace.__slots__] == [0] * len(Trace.__slots__)


def _with_two_words(G):
    # the bench's shape: the generators plus two words in them, which lie in
    # the group the generators build and so never extend its chain
    g = G.generators
    return Group(list(g) + [g[0] * g[1], g[1] * g[0] * g[-1]], G.degree)


def _lattice_digest(G):
    lat = all_subgroups(G)
    maximal = lat.maximal_classes()
    reports = [classify_maximal(G, c.rep) for c in maximal]
    metrics = [d_metric(G, c.rep) for c in maximal]
    d = min_generators(G)
    maximal_ids = {c.ids for c in maximal}
    return ([(c.order, c.size, c.key, c.orbit) for c in lat.classes],
            [c.ids in maximal_ids for c in lat.classes],
            frattini(G).elements_raw(),
            [(r.core.elements_raw(), r.quotient_order, r.primitive_type, r.intersection_shape)
             for r in reports],
            (d.d, d.witness),
            [(m.value, m.witness, m.in_subgroup) for m in metrics])


@pytest.mark.parametrize("texts, degree", [
    (["(1,2,3,4,5)", "(1,2)"], 5), (["(1,2,3,4,5,6)", "(1,2)"], 6), (None, 10),
], ids=["S5", "S6", "A5wrC2"])
def test_group_acts_by_the_generators_that_built_its_chain(texts, degree):
    plain = make(texts, degree) if texts else _wreath_a5_c2()[0]
    padded = _with_two_words(plain)
    given = padded.generators
    assert len(given) == len(plain.generators) + 2
    # a generator extends the chain iff it lies outside <the earlier ones>
    extending = [g.imgs for i, g in enumerate(given)
                 if not Group(given[:i], degree).contains(g)]
    assert padded._raw_gens == tuple(extending) == plain._raw_gens
    assert _lattice_digest(padded) == _lattice_digest(plain)


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
    assert isinstance(rep.ratio, Fraction)
    assert rep.ratio >= Fraction(53, 90)
    assert rep.ratio == Fraction(rep.favorable, rep.total)


PHI2_A5 = 2280  # generating pairs of A5 (P. Hall, Q. J. Math. 7, 1936)
PHI3_A5 = 200160  # generating triples of A5, the Eulerian function phi_3 (Hall, 1936)


def test_density_a5_matches_hall_and_oracle():
    ident = Permutation.identity(5)
    rep = generation_density(A5, A5, (ident, ident))
    elems = oracles.closure([g.imgs for g in A5.generators], 5)
    brute = sum(1 for x in elems for y in elems if oracles.generates([x, y], 5, 60))
    assert rep.favorable == brute == PHI2_A5
    assert rep.total == 3600


def test_density_a5_triples_match_hall():
    # slot 3 is counted per orbit of the centralizer of the first two entries
    ident = Permutation.identity(5)
    rep = generation_density(A5, A5, (ident, ident, ident))
    assert (rep.favorable, rep.total) == (PHI3_A5, 60 ** 3)


PHI4_A5 = 60 ** 4 - 5 * 12 ** 4 - 6 * 10 ** 4 - 10 * 6 ** 4 + 20 * 3 ** 4 + 60 * 2 ** 4 - 60


def test_density_a5_quadruples_match_hall():
    # Hall's Moebius sum over the subgroups of A5 gives phi_4(A5) = 12785880;
    # a generating pair or triple completes with every later entry, untested
    favorable, total, calls = _counted_density(A5, A5, (Permutation.identity(5),) * 4)
    assert (favorable, total) == (PHI4_A5, 60 ** 4) == (12785880, 12960000)
    assert calls <= 7183


def test_density_counts_whole_cosets_after_a_generating_prefix():
    # a pair that generates A5 completes with all 60 last entries, untested,
    # and an orbit takes the count of the orbit of its members' inverses: one
    # test per slot-2 orbit not so counted (56, 25 of them generating), then
    # 744 over the slot-3 orbits of the 31 pairs that do not generate, besides
    # the lifts' test: 1 + 56 + 744
    ident = Permutation.identity(5)
    favorable, total, calls = _counted_density(A5, A5, (ident, ident, ident))
    assert (favorable, total) == (PHI3_A5, 60 ** 3)
    assert calls <= 801


def test_density_counts_per_centralizer_orbit():
    # one generation test for the lifts, then one per orbit of C_A5(x) on A5
    # for each class representative x, less the orbits that take the count of
    # their inverses' orbit: 1 + 5 + 17 + 14 + 10 + 10 (from 18, 22, 16, 16)
    ident = Permutation.identity(5)
    favorable, _, calls = _counted_density(A5, A5, (ident, ident))
    assert favorable == PHI2_A5
    assert calls <= 57


def _counted_density(G, N, lifts):
    """(favorable, total, generation tests) of one density query."""
    with trace() as t:
        rep = generation_density(G, N, lifts)
    return rep.favorable, rep.total, t.generation_tests


@pytest.mark.parametrize("lifts", [("(1,2)", "(1,2,3,4)"), ("(1,2)", "()"), ("()", "(1,3)")],
                         ids=["odd-odd", "odd-even", "even-odd"])
def test_density_s5_independent_of_lifts(lifts):
    # Gaschuetz: the count does not depend on the lifts chosen; S5/A5 is
    # abelian, so slot 1 counts per class of S5, not of A5
    favorable, total, calls = _counted_density(S5, A5, [P(t, 5) for t in lifts])
    assert (favorable, total) == (PHI2_A5, 3600)
    assert calls <= 32


SWAP = P("(1,6)(2,7)(3,8)(4,9)(5,10)", 10)


@pytest.mark.parametrize("lifts", [(SWAP, Permutation.identity(10)), (SWAP, SWAP),
                                   (Permutation.identity(10), SWAP)],
                         ids=["swap-1", "swap-swap", "1-swap"])
def test_density_wreath_a5_c2(lifts):
    # Gaschuetz: the same count for all three generating coset pairs, which
    # the count over orbits of C_N alone also gives; G/N = C2, so slot 1
    # counts per class of G
    W, N = _wreath_a5_c2()
    favorable, total, calls = _counted_density(W, N, lifts)
    assert (favorable, total) == (11736000, 60 ** 4)
    assert calls <= 1087


def _s5_wreath_c2():
    W = wreath_product(S5, make(["(1,2)"], 2))
    return W, _wreath_a5_c2()[1]


def test_coset_fixer_is_the_preimage_of_the_centre():
    # G/N = C2 wr C2 = D8, and lifts generating it mod N are fixed by
    # conjugation exactly by the preimage of Z(D8): N < K < G
    W, N = _s5_wreath_c2()
    lifts = (SWAP, P("(1,2)", 10))
    K = gensets._coset_fixer(W, N, lifts)
    assert (W.order(), K.order()) == (28800, 7200)
    assert N.is_subgroup_of(K)
    top = [Permutation.identity(10), P("(1,2)", 10), P("(6,7)", 10), P("(1,2)(6,7)", 10)]
    reps = [t * s for t in top for s in (Permutation.identity(10), SWAP)]
    assert len({group_module.coset_canonical(N, r.imgs) for r in reps}) == 8
    for r in reps:
        fixes = all(N.contains(r.inverse() * l * r * l.inverse()) for l in lifts)
        assert K.contains(r) == fixes
    assert sum(K.contains(r) for r in reps) == 2


def test_coset_fixer_is_the_group_over_an_abelian_quotient():
    with trace() as t:
        assert gensets._coset_fixer(S5, A5, (P("(1,2)", 5), P("(1,2,3)", 5))) is S5
    assert t.chain_builds == 0


@pytest.mark.parametrize("lifts", [(SWAP, P("(1,2)", 10)), (P("(1,2)", 10) * SWAP, P("(6,7)", 10))],
                         ids=["swap-(1,2)", "(1,2)swap-(6,7)"])
def test_density_wreath_s5_c2(lifts):
    # the two lift pairs lie in different cosets of N; Gaschuetz gives one count
    W, N = _s5_wreath_c2()
    rep = generation_density(W, N, lifts)
    assert (rep.favorable, rep.total) == (12009600, 60 ** 4)


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


def test_density_rejects_malformed_lifts():
    with pytest.raises(ValueError, match="at least two lifts"):
        generation_density(S5, A5, (P("(1,2)", 5),))
    W, N = _wreath_a5_c2()
    with pytest.raises(ValueError, match="lift does not lie in G"):
        generation_density(W, N, (P("(1,2)", 10), SWAP))


def test_density_requires_socle():
    with pytest.raises(ValueError):
        generation_density(S5, make(["(1,2,3,4,5)"], 5), (P("(1,2)", 5), P("(1,2)", 5)))
    with pytest.raises(ValueError):
        generation_density(S4, make(["(1,2)(3,4)", "(1,3)(2,4)"], 4),
                           (P("(1,2)", 4), P("(1,2)", 4)))


def test_density_budget(monkeypatch):
    # |A5|^5 = 60^5 is above the default budget of 10^8 tuples, and the
    # budget raises before the monolithic certificate runs
    calls = []
    monkeypatch.setattr(gensets, "check_monolithic_nonabelian", lambda *args: calls.append(args))
    with pytest.raises(BoundExceeded):
        generation_density(S5, A5, (P("(1,2)", 5),) + (Permutation.identity(5),) * 4)
    assert calls == []


def _s4():
    return make(["(1,2,3,4)", "(1,2)"], 4)


# site: (its key in BOUNDS, the value it checks, the function, its fresh arguments,
# and the group-module step that must not run once the value is above the bound);
# the lattice sites check the subgroup classes they register, 11 on S4
BOUND_SITES = {
    "Group": ("points", 6, Group, lambda: ([], 6), None),
    "trivial_group": ("points", 6, trivial_group, lambda: (6,), None),
    "parse_permutation": ("points", 6, parse_permutation, lambda: ("(1,2)", 6), None),
    "Permutation.identity": ("points", 6, Permutation.identity, lambda: (6,), None),
    "parse_group_text": ("points", 6, parse_group_text, lambda: ("degree: 6\ngen: (1,2)\n",), None),
    "coset_action": ("points", 12, coset_action, lambda: (_s4(), make(["(1,2)"], 4)), "_walk"),
    "direct_product": ("points", 5, direct_product,
                       lambda: (make(["(1,2,3)"], 3), make(["(1,2)"], 2)), "Group"),
    "wreath_product": ("points", 6, wreath_product,
                       lambda: (make(["(1,2,3)", "(1,2)"], 3), make(["(1,2)"], 2)), "wreath_flat"),
    "elements_raw": ("elements", 24, Group.elements_raw, lambda: (_s4(),), None),
    "_lex_walk": ("elements", 24, min_generators, lambda: (_s4(),), None),
    "_walk": ("elements", 24, centralizer_in,
              lambda: (make(["(1,2,3,4,5)", "(1,2)"], 5), P("(1,2,3,4,5)", 5)), None),
    "all_subgroups": ("lattice", 11, all_subgroups, lambda: (_s4(),), None),
    "frattini": ("lattice", 11, frattini, lambda: (_s4(),), None),
    "d_min": ("lattice", 11, d_min, lambda: (_s4(),), None),
    "generation_density": ("density", 60 ** 2, generation_density,
                           lambda: (S5, A5, (P("(1,2)", 5), Permutation.identity(5))), None),
}


@pytest.mark.parametrize("key, value, site, args, guarded", list(BOUND_SITES.values()),
                         ids=list(BOUND_SITES))
def test_every_bound_site_reads_the_table(monkeypatch, key, value, site, args, guarded):
    monkeypatch.setitem(BOUNDS, key, value)
    site(*args())
    monkeypatch.setitem(BOUNDS, key, value - 1)
    inputs = args()
    if guarded:
        monkeypatch.setattr(group_module, guarded, lambda *a: pytest.fail(f"{guarded} ran"))
    with pytest.raises(BoundExceeded):
        site(*inputs)


@pytest.mark.parametrize("query", [all_subgroups, frattini, d_min],
                         ids=["all_subgroups", "frattini", "d_min"])
def test_lattice_queries_refuse_c2_7_by_classes_and_s9_by_elements(monkeypatch, record, query):
    # C2^7 has 29212 subgroup classes, above the default lattice bound of
    # 5000: the class that would pass it raises before its orbit is walked,
    # and no lattice is kept
    walked = record(structure, "_schreier_generators")
    G = make([f"({i},{i + 1})" for i in range(1, 14, 2)], 14)
    with pytest.raises(BoundExceeded, match="subgroup classes"):
        query(G)
    assert len(walked) == BOUNDS["lattice"]
    assert G._lattice is None

    # |S9| = 362880 is above the default elements bound of 200000, which
    # raises before any element is indexed
    def no_index(self):
        raise AssertionError("element index built")

    monkeypatch.setattr(Group, "_element_index", no_index)
    with pytest.raises(BoundExceeded, match="group order"):
        query(make(["(1,2,3,4,5,6,7,8,9)", "(1,2)"], 9))


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


# The passing cases as the same abstract groups acting where no factor of N
# is Alt of the points it moves, so the certificate scans a factor and cuts
# C_G(N), as for any socle that is no giant: S5/A5 as PGL(2,5)/PSL(2,5) on
# the projective line over F_5 (x -> x + 1, -1/x, 2x; point 6 is infinity),
# S6/A6 on the 10 cosets of S3 wr C2, and A5 wr C2 as PSL(2,5) wr C2 on 12
# points.
PSL25 = make(["(1,2,3,4,5)", "(1,6)(2,5)"], 6)
S6_ON_10, _S6_HOM = coset_action(S6, make(["(1,2,3)", "(1,2)", "(1,4)(2,5)(3,6)"], 6))
A6_ON_10 = Group([Permutation(_S6_HOM._apply(g.imgs)) for g in A6.generators], 10)
SCANNED_CASES = {
    "S5/A5": (make(["(1,2,3,4,5)", "(1,6)(2,5)", "(2,3,5,4)"], 6), PSL25),
    "S6/A6": (S6_ON_10, A6_ON_10),
    "A6/A6": (A6_ON_10, A6_ON_10),
    "A5wrC2/A5xA5": (wreath_product(PSL25, make(["(1,2)"], 2)),
                     make(["(1,2,3,4,5)", "(1,6)(2,5)", "(7,8,9,10,11)", "(7,12)(8,11)"], 12)),
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


def test_monolithic_check_never_enumerates_the_group(record):
    W, N = SCANNED_CASES["A5wrC2/A5xA5"]
    enumerated, walked = record(Group, "elements_raw"), record(Group, "_lex_walk")
    check_monolithic_nonabelian(W, N)
    # the certificate scans one simple factor, never W or N = PSL(2,5)^2,
    # and takes the other as its conjugate
    groups = [args[0] for args, _ in enumerated + walked]
    assert len(groups) == 1
    assert groups[0] is not N and groups[0].order() == 60


@pytest.mark.parametrize("name", ["S5/A5", "S6/A6", "A6/A6", "A5wrC2/A5xA5"])
def test_monolithic_check_centralizes_only_for_c_g(record, name):
    # the conjugates of the scanned factor reach |N|, so no centralizer in N
    # of a factor is taken: the centralizer_in calls cut C_G(N) down from G,
    # one generator of N at a time, each on the one before's result, and
    # stop once the result lies in N, whose centre is trivial: at once for
    # N = G, and after C_G(x_1) = <x_1> x A5 for A5 wr C2 (on SCANNED_CASES,
    # whose factors are not Alt of their supports)
    G, N = SCANNED_CASES[name]
    N = Group(N.generators, N.degree)
    calls = record(structure, "centralizer_in")
    check_monolithic_nonabelian(G, N)
    assert len(calls) == {"S5/A5": 1, "S6/A6": 3, "A6/A6": 0, "A5wrC2/A5xA5": 1}[name]
    assert [H for (H, _), _ in calls] == ([G] + [C for _, C in calls[:-1]])[:len(calls)]
    assert [x.imgs for (_, x), _ in calls] == [g.imgs for g in N.generators[:len(calls)]]


def test_monolithic_check_closes_no_class_of_a_simple_factor(record):
    # no closure is taken inside a simple factor of A5 x A5: the seed and
    # each of the 4 prime-order classes of the scanned factor K are closed
    # in N, and, K being simple, every class closes to all of K (the
    # scan's order |K| = 60), so no ncl_K(s) is ever built
    W, N = SCANNED_CASES["A5wrC2/A5xA5"]
    N = Group(N.generators, N.degree)
    calls = record(structure, "normal_closure")
    check_monolithic_nonabelian(W, N)
    assert [G for (G, _), _ in calls] == [N] * 5
    assert [closure.order() for _, closure in calls] == [60] * 5
    assert [f.order() for f in minimal_normal_subgroups(N)] == [60, 60]


def test_monolithic_check_rejects_a_closure_too_large_to_scan():
    # in A5 wr C3 the closure of an element of the chain's last level is the
    # base group A5^3, of order 216000, above the element bound; a direct
    # product of simple groups would have ncl_K(s) = K, but here it is one A5
    W = wreath_product(A5, make(["(1,2,3)"], 3))
    assert W.order() == 648000
    with pytest.raises(ValueError, match="direct product") as caught:
        check_monolithic_nonabelian(W, W)
    assert not isinstance(caught.value, BoundExceeded)


@pytest.mark.parametrize("N", [
    A5, direct_product(A5, A5), A6,
    make(["(1,2,3,4,5)", "(3,4,5)", "(6,7,8,9,10)", "(8,9,10)", "(11,12,13,14,15)", "(13,14,15)"], 15),
], ids=["A5", "A5xA5", "A6", "A5^3"])
def test_monolithic_seed_lies_in_the_deepest_level(N):
    # the certificate's seed, the second member of the descent, is N's least
    # non-identity element, so it fixes every base point but the last
    seed = list(islice(group_module._descend(N), 2))[1]
    base = N._chain.base
    assert seed[base[-1]] != base[-1]
    assert all(seed[b] == b for b in base[:-1])
    if N.order() <= BOUNDS["elements"]:
        assert seed == N.elements_raw()[1]
    else:
        assert N.order() == 216000  # A5^3, the base group of A5 wr C3


def test_monolithic_check_lets_a_scan_bound_stand_for_a_simple_socle():
    # K = ncl_N(s) is all of M24, too large to scan and no Alt of its
    # support, and ncl_K(s) = K, as for a direct product of simple groups:
    # the bound is reported
    M24 = make(["(1,4)(2,7)(3,17)(5,13)(6,9)(8,15)(10,19)(11,18)(12,21)(14,16)(20,24)(22,23)",
                "(1,4,6)(2,21,14)(3,9,15)(5,18,10)(13,17,16)(19,24,23)"], 24)
    assert M24.order() == 244823040
    with pytest.raises(BoundExceeded):
        check_monolithic_nonabelian(M24, M24)


@pytest.mark.parametrize("n", [10, 30])
def test_monolithic_check_reads_an_alt_socle_off_its_order(monkeypatch, n):
    # A_n is Alt of the n points it moves, so it is its own simple factor,
    # and covers every point S_n moves, so C_G(N) = 1 with no cut: nothing
    # is enumerated, walked or centralized, though |A_n| is far above the
    # element bound
    cycle = "(" + ",".join(map(str, range(1, n + 1))) + ")"
    odd_cycle = "(" + ",".join(map(str, range(1, n))) + ")" if n % 2 == 0 else cycle
    G = make([cycle, "(1,2)"], n)
    N = make([odd_cycle, f"({n - 2},{n - 1},{n})"], n)
    assert G.order() == 2 * N.order() and N.order() > BOUNDS["elements"]

    def forbidden(*args, **kwargs):
        raise AssertionError("enumerated, walked or centralized")

    for name in ("elements_raw", "_lex_walk"):
        monkeypatch.setattr(Group, name, forbidden)
    monkeypatch.setattr(structure, "centralizer_in", forbidden)
    check_monolithic_nonabelian(G, N)
    assert minimal_normal_subgroups(N) == [N]


@pytest.mark.parametrize("n", [5, 8, 9, 60])
def test_monolithic_check_rejects_a_sym_socle_off_its_record(n):
    # S_n, n >= 5, is no product of simple factors, as its record shows: the
    # check raises ValueError at once, with no closure, walk or chain, where
    # it once scanned S8's 40320 elements and raised the element bound
    # from n = 9 on
    G = make(["(" + ",".join(map(str, range(1, n + 1))) + ")", "(1,2)"], n)
    with trace() as t, pytest.raises(ValueError, match="^N is not a direct product of simple"
                                                   " factors that G permutes transitively$") as caught:
        check_monolithic_nonabelian(G, G)
    assert not isinstance(caught.value, BoundExceeded)
    assert t.chain_builds == 0


@pytest.mark.parametrize("name", SCANNED_CASES)
def test_monolithic_check_closes_once_when_the_factor_is_scanned(record, name):
    # K = ncl_N(s) is one simple factor, small enough to scan, so the seed
    # is closed once and no ncl_K(s) is built (on SCANNED_CASES, where K is
    # no Alt of its support and is scanned); the scan then closes the least
    # member of each N-class of prime-order elements of K: 4 for PSL(2,5)
    # (orders 2, 3, 5, 5) and 5 for A6 (orders 2, 3, 3, 5, 5)
    G, N = SCANNED_CASES[name]
    N = Group(N.generators, N.degree)
    calls = record(structure, "normal_closure")
    check_monolithic_nonabelian(G, N)
    factors = {"S5/A5": [60], "S6/A6": [360], "A6/A6": [360], "A5wrC2/A5xA5": [60, 60]}[name]
    assert [H for (H, _), _ in calls] == [N] * (1 + {60: 4, 360: 5}[factors[0]])
    assert all(is_prime(_order(gens[0].imgs)) for (_, gens), _ in calls[1:])
    assert [f.order() for f in minimal_normal_subgroups(N)] == factors


@pytest.mark.parametrize("name", ["S6/A6", "A5wrC2/A5xA5"])
def test_monolithic_check_keeps_the_minimal_normal_subgroups(name):
    G, N, _ = MONOLITHIC_CASES[name]
    N = Group(N.generators, N.degree)
    check_monolithic_nonabelian(G, N)
    kept = minimal_normal_subgroups(N)
    assert kept == sorted(kept, key=structure._minimal_normal_key)
    scanned = structure.minimal_normals_inside(N, N)
    assert [set(f.elements_raw()) for f in kept] == [set(f.elements_raw()) for f in scanned]


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
    W = wreath_product(A5, c2)
    N = Group([P("(1,2,3,4,5)", 10), P("(3,4,5)", 10),
               P("(6,7,8,9,10)", 10), P("(8,9,10)", 10)], 10)
    project = socle_block_projection(W, N)
    swap = P("(1,6)(2,7)(3,8)(4,9)(5,10)", 10)
    assert project(swap) == P("(1,2)", 2)
    assert project(P("(1,2,3)", 10)) == Permutation.identity(2)


def test_socle_projection_rejects_an_element_splitting_a_factor():
    project = socle_block_projection(*_wreath_a5_c2())
    with pytest.raises(ValueError, match="does not permute the socle factors"):
        project(P("(1,6)", 10))


def test_replacement_hypothesis_branches():
    def same(g):
        return g

    assert replacement_hypothesis(P("(1,2)", 2), Permutation.identity(2), same) == "g2-fixed-point"
    assert replacement_hypothesis(P("(1,2)(3,4)", 4), P("(1,3)(2,4)", 4), same) \
        == "difference-fixed-point-free"
    c = P("(1,2,3,4)", 4)
    # c^-1 c^2 = c and c^-1 c^4 = c^3 are fixed-point-free, but (c^2)^-1 c^2 = 1
    with pytest.raises(HypothesisError, match=r"g2\^-1 g1\^2"):
        replacement_hypothesis(c, c ** 2, same)


def test_replacement_search_s5():
    # H = S4 inside Aut(A5) = S5; gens chosen in H with <gens> A5 = S5
    h = make(["(2,3,4,5)", "(2,3)"], 5)

    def htilde(g):
        return h.contains(g)

    gens = (P("(2,3,4,5)", 5), P("(2,3)", 5))
    got = replacement_search(S5, A5, gens, htilde)
    assert got == (Permutation.identity(5), P("(1,2)(4,5)", 5))
    v1, v2 = got
    assert A5.contains(v1) and A5.contains(v2)
    assert htilde(v1 * gens[0])
    assert Group([v1 * gens[0], v2 * gens[1]], 5).order() == 120


S4_FIX1 = make(["(2,3,4,5)", "(2,3)"], 5)


def _first_replacement(gens, keep):
    """The lex-first (v1, v2) in A5 x A5 with keep(v1 g1) and
    <v1 g1, v2 g2, g3, ..> = S5, by brute force over sorted elements."""
    elems = sorted(oracles.closure([g.imgs for g in A5.generators], 5))
    g1, g2, rest = gens[0].imgs, gens[1].imgs, [g.imgs for g in gens[2:]]
    for v1 in elems:
        if keep(Permutation(oracles.mul(v1, g1))):
            for v2 in elems:
                if oracles.generates([oracles.mul(v1, g1), oracles.mul(v2, g2)] + rest, 5, 120):
                    return Permutation(v1), Permutation(v2)
    return None


@pytest.mark.parametrize("texts", [("(2,3,4,5)", "(2,3)"), ("(1,2)", "()"),
                                   ("(2,3)", "(2,3)", "(4,5)"),
                                   ("(2,3,4,5)", "(2,3)", "(1,2)(3,4)")])
@pytest.mark.parametrize("filter_name", ["S4_fix1", "always", "reject-g1"])
def test_replacement_search_returns_the_lex_first_witness(texts, filter_name):
    # with three generators the third is a fixed entry of every tested tuple
    gens = tuple(P(t, 5) for t in texts)
    keep = {"S4_fix1": S4_FIX1.contains, "always": lambda g: True,
            "reject-g1": lambda g: g != gens[0]}[filter_name]
    assert replacement_search(S5, A5, gens, keep) == _first_replacement(gens, keep)


@pytest.mark.parametrize("texts, filter_name, bound", [
    (("(2,3,4,5)", "(2,3)"), "S4_fix1", 2), (("(2,3,4,5)", "(2,3)"), "always", 2),
    (("(1,2)", "()"), "always", 12), (("(2,3)", "(2,3)", "(4,5)"), "always", 3),
    (("(2,3,4,5)", "(2,3)", "(1,2)(3,4)"), "always", 2)])
def test_replacement_walk_skips_lex_cosets_that_cannot_complete(texts, filter_name, bound):
    # the lex-coset prune joins p and g2(c(p)) for the points c(p) fixed on a
    # coset of A5's chain, beside v1 g1 and the fixed entries, and skips the
    # coset when a closed component is smaller than S5's one orbit; one test
    # is the lifts' check, and the witness is still the lex-first
    gens = tuple(P(t, 5) for t in texts)
    keep = {"S4_fix1": S4_FIX1.contains, "always": lambda g: True}[filter_name]
    expected = _first_replacement(gens, keep)
    with trace() as t:
        assert replacement_search(S5, A5, gens, keep) == expected
    assert t.generation_tests <= bound


@pytest.mark.parametrize("htilde", [None, S4_FIX1], ids=["None", "a-group"])
def test_replacement_search_requires_a_callable_htilde(htilde):
    # None must not read as "no filter", which would return an unfiltered witness
    with pytest.raises(TypeError, match="callable"):
        replacement_search(S5, A5, (P("(2,3,4,5)", 5), P("(2,3)", 5)), htilde)


def test_every_search_is_the_one_tuple_walk():
    # nodes are counted only inside gensets._tuple_walk
    gens = (P("(2,3,4,5)", 5), P("(2,3)", 5))
    lifts = (P("(1,2)", 5), Permutation.identity(5))
    queries = {  # fresh groups, since d(G) is kept on G
        "min_generators": lambda: min_generators(_s4()),
        "d_metric": lambda: d_metric(_s4(), make(["(1,2,3)", "(1,2)"], 4)),
        "generation_density": lambda: generation_density(S5, A5, lifts),
        "replacement_search": lambda: replacement_search(S5, A5, gens, S4_FIX1.contains),
    }
    for name, query in queries.items():
        with trace() as t:
            query()
        assert t.nodes, name
    assert not hasattr(gensets, "_lift_walk")


def test_replacement_trivial_when_already_generating():
    h = make(["(2,3,4,5)", "(2,3)"], 5)
    gens = (P("(2,3)", 5), P("(2,3,4,5)", 5))
    assert Group(gens, 5).order() != 120  # inside S4, not generating alone
    got = replacement_search(S5, A5, gens, h.contains)
    assert got is not None


def test_replacement_search_skips_rejected_v1_and_exhausts():
    gens = (P("(2,3,4,5)", 5), P("(2,3)", 5))
    # the identity is N's first element, so v1 = 1 is rejected
    v1, v2 = replacement_search(S5, A5, gens, lambda g: g != gens[0])
    assert v1 != Permutation.identity(5)
    assert Group([v1 * gens[0], v2 * gens[1]], 5).order() == 120
    assert replacement_search(S5, A5, gens, lambda g: False) is None


def test_replacement_search_rejects_malformed_generators():
    with pytest.raises(ValueError, match="at least two generators"):
        replacement_search(S5, A5, (P("(1,2)", 5),), lambda g: True)
    W, N = _wreath_a5_c2()
    with pytest.raises(ValueError, match="does not lie in G"):
        replacement_search(W, N, (P("(1,2)", 10), SWAP), lambda g: True)
    with pytest.raises(ValueError, match="modulo N"):
        replacement_search(S5, A5, (P("(1,2,3)", 5), P("(3,4,5)", 5)), lambda g: True)


@pytest.mark.parametrize("degree", [4, 6])
def test_replacement_search_rejects_generators_outside_the_group(degree):
    gens = (P("(2,3,4)", degree), P("(2,3)", degree))
    with pytest.raises(ValueError):
        replacement_search(S5, A5, gens, lambda g: True)


def test_replacement_hypothesis_failure():
    c2 = make(["(1,2)"], 2)
    W = wreath_product(A5, c2)
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
    W = wreath_product(A5, c2)
    N = Group([P("(1,2,3,4,5)", 10), P("(3,4,5)", 10),
               P("(6,7,8,9,10)", 10), P("(8,9,10)", 10)], 10)
    # A4 wr C2 inside A5 wr C2: both base coordinates lie in A4
    htilde = wreath_product(make(["(1,2,3)", "(1,2)(3,4)"], 5), c2).contains

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


def test_replacement_search_walks_the_socle_lazily(record):
    W, N = _wreath_a5_c2()
    htilde = wreath_product(make(["(1,2,3)", "(1,2)(3,4)"], 5), make(["(1,2)"], 2)).contains
    enumerated = record(Group, "elements_raw")
    gens = (P("(1,2,3)(6,7,8)", 10), P("(1,6)(2,7)(3,8)(4,9)(5,10)", 10))
    with trace() as t:
        got = replacement_search(W, N, gens, htilde)
    assert got == (Permutation.identity(10), P("(8,9,10)", 10))
    # the certificate reads both factors as Alt of their supports
    assert enumerated == []
    assert t.generation_tests <= 3  # the lifts' check included
    # PSL(2,5) wr C2 on 12 points, over Htilde = A4 wr C2, with the lex-first
    # pair found by a brute-force walk of N x N
    W, N = SCANNED_CASES["A5wrC2/A5xA5"]
    A4 = make(["(1,5,6)(2,3,4)", "(3,5)(4,6)"], 6)
    htilde = wreath_product(A4, make(["(1,2)"], 2)).contains
    gens = (P("(1,5,6)(2,3,4)(7,11,12)(8,9,10)", 12), P("(1,7)(2,8)(3,9)(4,10)(5,11)(6,12)", 12))
    with trace() as t:
        got = replacement_search(W, N, gens, htilde)
    assert got == (Permutation.identity(12), P("(8,9,12,10,11)", 12))
    assert {g.order() for (g,), _ in enumerated} == {60}  # the certificate's factors only
    assert t.generation_tests == 5  # the lifts' check and four pairs (1, v2)
