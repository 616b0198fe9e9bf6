import math
import random
import sys
import tracemalloc
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from genex import group as group_module
from genex.group import (
    BoundExceeded,
    _Chain,
    Group,
    centralizer_in,
    commutator_subgroup,
    coset_action,
    coset_canonical,
    direct_product,
    normal_closure,
    trivial_group,
    wreath_product,
    _conjugations,
    _orbits,
    _schreier_generators,
    _stabilizer,
    _walk,
)
from genex.gensets import _generates, min_generators
from genex.grpfmt import parse_group_text, serialize_group
from genex.perm import BOUNDS, Permutation, _identity, _inv, _mul, parse_permutation
from genex.structure import all_subgroups


def P(text, degree):
    return parse_permutation(text, degree)


def make(texts, degree):
    return Group([P(t, degree) for t in texts], degree)


def _cycle_text(first, last):
    return "(" + ",".join(map(str, range(first, last + 1))) + ")"


S4 = make(["(1,2,3,4)", "(1,2)"], 4)
A4 = make(["(1,2,3)", "(1,2)(3,4)"], 4)
S5 = make(["(1,2,3,4,5)", "(1,2)"], 5)
A5 = make(["(1,2,3,4,5)", "(3,4,5)"], 5)
C6 = make(["(1,2,3,4,5,6)"], 6)
Q8 = make(["(1,3,2,4)(5,7,6,8)", "(1,5,2,6)(3,8,4,7)"], 8)


def test_trivial_group():
    t = trivial_group(3)
    assert t.order() == 1
    assert t.contains(Permutation.identity(3))


def test_orders_against_closure_oracle():
    for g in [S4, A4, S5, A5, C6, Q8]:
        assert g.order() == len(oracles.closure([x.imgs for x in g.generators], g.degree))


def test_s5_order():
    assert S5.order() == 120
    assert repr(S5) == "Group(degree=5, order=120, ngens=2)"


def test_a5_order():
    assert make(["(1,2,3,4,5)", "(3,4,5)"], 5).order() == 60


def test_c7_order():
    assert make(["(1,2,3,4,5,6,7)"], 7).order() == 7


def test_mixed_degree_rejected():
    with pytest.raises(ValueError):
        Group([P("(1,2)", 2), P("(1,2,3)", 3)])


def test_membership_identity_and_generators():
    for g in [S4, A5, Q8]:
        assert g.contains(Permutation.identity(g.degree))
        for x in g.generators:
            assert g.contains(x)


def test_membership_matches_closure():
    # contains agrees with closure membership on every element of S6
    import itertools
    g = make(["(1,2,3,4)", "(1,2)"], 4)
    elems = oracles.closure([x.imgs for x in g.generators], 4)
    for imgs in itertools.permutations(range(4)):
        assert g._contains_raw(imgs) == (imgs in elems)


def test_transposition_not_in_a4():
    a4 = make(["(1,2,3)", "(1,2)(3,4)"], 4)
    assert a4.order() == 12
    assert not a4.contains(P("(1,2)", 4))


def test_membership_degree_mismatch():
    with pytest.raises(ValueError):
        S4.contains(P("(1,2)", 5))


def test_elements_enumeration():
    elems = S4.elements()
    assert len(elems) == 24
    assert len(set(elems)) == 24
    oracle = oracles.closure([x.imgs for x in S4.generators], 4)
    assert {e.imgs for e in elems} == set(oracle)


def test_elements_sorted_and_cached():
    e1 = S4.elements_raw()
    assert list(e1) == sorted(e1)
    assert S4.elements_raw() is e1


def test_lex_walk_yields_the_sorted_elements():
    # random subgroups of S5 and S6, one with points fixed below moved ones
    # (levels dropped from the lex chain), relabelled S7 and A5 wr C2, and
    # trivial groups, the one on one point included
    rng = random.Random(11)
    groups = [trivial_group(4), trivial_group(1), make(["(2,4,5)", "(4,5)"], 6)]
    for degree in (5, 6):
        for _ in range(6):
            gens = [Permutation(rng.sample(range(degree), degree))
                    for _ in range(rng.randint(1, 3))]
            groups.append(Group(gens, degree))
    W = wreath_product(A5, make(["(1,2)"], 2))
    for G in (make(["(1,2,3,4,5,6,7)", "(1,2)"], 7), W):
        sigma = Permutation(rng.sample(range(G.degree), G.degree))
        groups.append(Group([sigma.inverse() * g * sigma for g in G.generators], G.degree))
    for G in groups:
        assert list(G._lex_walk()) == list(G.elements_raw())


def test_enumeration_above_the_element_bound_raises():
    S9 = make(["(1,2,3,4,5,6,7,8,9)", "(1,2)"], 9)  # 362880 > BOUNDS["elements"]
    assert S9.order() == 362880
    for query in (S9.elements_raw, S9.conjugacy_classes_raw, lambda: min_generators(S9)):
        with pytest.raises(BoundExceeded):
            query()


@pytest.mark.parametrize("texts, degree", [
    (["(1,2,3,4)", "(1,2)"], 4), (["(1,2,3,4,5)", "(3,4,5)"], 5), (["(1,2,3,4,5,6)", "(1,2)"], 6),
], ids=["S4", "A5", "S6"])
def test_conjugacy_classes_from_the_element_index(monkeypatch, texts, degree):
    G = make(texts, degree)
    want = tuple(_orbits(G.elements_raw(), _conjugations(G._raw_gens)))
    G._element_index()

    def no_mul(p, q):
        raise AssertionError("perm._mul called")

    monkeypatch.setattr(group_module, "_mul", no_mul)
    assert G.conjugacy_classes_raw() == want


def test_stabilizer_moves_each_orbit_point_once():
    # S5 on points and on 2-sets of points, given by three generators; it
    # acts only by the two that extend its chain
    K = make(["(1,2,3,4,5)", "(1,2)", "(1,3)(2,4)"], 5)
    gens = K._raw_gens
    assert len(gens) == 2
    actions = [lambda y, g: g[y], lambda y, g: frozenset(g[i] for i in y)]
    for act, start, orbit in zip(actions, (0, frozenset({0, 1})), (5, 10)):
        calls = [0] * len(gens)

        def counted(k):
            def move(y):
                calls[k] += 1
                return act(y, gens[k])
            return move

        stab = _stabilizer(K, [counted(k) for k in range(len(gens))], start)
        assert calls == [orbit] * len(gens)
        assert stab.order() * orbit == K.order()
        assert all(act(start, g) == start for g in stab._raw_gens)


@pytest.mark.parametrize(("G", "x"), [(S4, "()"), (make(["(1,2,3,4)", "(1,3)"], 4), "(1,3)(2,4)"),
                                      (Q8, "(1,2)(3,4)(5,6)(7,8)")],
                         ids=["identity in S4", "centre of D8", "centre of Q8"])
def test_stabilizer_of_a_fixed_point_is_the_group(monkeypatch, G, x):
    # an x that every generator fixes under conjugation has the whole group
    # as centralizer, returned as is, with no chain built
    built = []
    monkeypatch.setattr(group_module, "_build_chain", lambda *args: built.append(args))
    assert centralizer_in(G, P(x, G.degree)) is G
    assert built == []


def _eager_schreier(degree, gens, moves, start):
    # every rep built up front, then rep(i) g rep(j)^-1 for each pair of the
    # walk that did not find its point
    _, rows, found = _walk(start, moves)
    reps = [_identity(degree)]
    for i, k in found[1:]:
        reps.append(_mul(reps[i], gens[k]))
    return [_mul(_mul(reps[i], g), _inv(reps[j]))
            for i, row in enumerate(rows) for k, (g, j) in enumerate(zip(gens, row))
            if found[j] != (i, k)]


def test_lazy_schreier_reps_match_the_eager_formula():
    # S6 on the sorted id tuples of its subgroups by conjugation, as the
    # lattice acts, then a 500-point cycle on its points, whose walk tree is
    # a path far deeper than the recursion limit
    G = make(["(1,2,3,4,5,6)", "(1,2)"], 6)
    moves = [lambda s, t=t: tuple(sorted(itemgetter(*s)(t))) if len(s) > 1 else s
             for t in G._element_index()[1]]
    for c in all_subgroups(G).classes:
        orbit, schreier = _schreier_generators(6, G._raw_gens, moves, c.key)
        assert set(orbit) == set(c.orbit)
        assert list(schreier) == _eager_schreier(6, G._raw_gens, moves, c.key)
    cycle = (tuple(range(1, 500)) + (0,),)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        orbit, schreier = _schreier_generators(500, cycle, [cycle[0].__getitem__], 0)
        got = list(schreier)
    finally:
        sys.setrecursionlimit(limit)
    assert len(orbit) == 500
    assert got == _eager_schreier(500, cycle, [cycle[0].__getitem__], 0) == [_identity(500)]


def test_generators_must_be_permutations():
    for bad in ([(1, 0, 2)], [[1, 0, 2]], [P("(1,2)", 3), (1, 0, 2)]):
        with pytest.raises(ValueError):
            Group(bad)
        with pytest.raises(ValueError):
            Group(bad, 3)


def test_conjugacy_classes():
    classes = S4.conjugacy_classes_raw()
    assert sorted(len(c) for c in classes) == [1, 3, 6, 6, 8]
    # class reps are least members and products of all class sizes cover G
    assert sum(len(c) for c in classes) == 24


def test_products_of_generators_are_members():
    rng = random.Random(7)
    for g in [S5, Q8, A4]:
        gens = g.generators
        for _ in range(25):
            w = Permutation.identity(g.degree)
            for _ in range(rng.randrange(1, 8)):
                w = w * rng.choice(gens)
            assert g.contains(w)


def test_is_subgroup_and_normal():
    assert A4.is_subgroup_of(S4)
    assert A4.is_normal_in(S4)
    s3 = make(["(1,2,3)", "(1,2)"], 4)
    assert s3.is_subgroup_of(S4)
    assert not s3.is_normal_in(S4)


def test_is_cyclic_and_abelian():
    assert min_generators(C6).d == 1
    assert C6.is_abelian()
    assert min_generators(S4).d == 2
    assert not Q8.is_abelian()


def test_normal_closure():
    # normal closure of a transposition in S4 is S4; of a 3-cycle is A4
    assert normal_closure(S4, [P("(1,2)", 4)]).order() == 24
    assert normal_closure(S4, [P("(1,2,3)", 4)]).order() == 12
    assert normal_closure(S4, [P("(1,2)(3,4)", 4)]).order() == 4


def test_normal_closure_stops_at_the_whole_group(monkeypatch):
    # the closure lies in G, so once its chain reaches |G| no further
    # conjugate is sifted: the last extension is the one that grew it to G
    grew = []
    original = _Chain.extend
    monkeypatch.setattr(_Chain, "extend",
                        lambda self, p: grew.append(original(self, p)) or grew[-1])
    for n in (4, 5, 6, 7):
        G = Group([Permutation(list(range(1, n)) + [0]), P("(1,2)", n)], n)
        grew.clear()
        assert normal_closure(G, [P("(1,2)", n)]).order() == math.factorial(n)
        assert grew[-1]


def test_normal_closure_rejects_seeds_outside_the_group():
    for bad in (P("(1,2)", 4), P("(1,2)", 6)):
        with pytest.raises(ValueError):
            normal_closure(S5, [bad])
    # (1,2) has degree 5 but is odd: its closure would leave A5
    with pytest.raises(ValueError):
        normal_closure(A5, [P("(1,2)", 5)])


def test_commutator_subgroup_matches_oracle(monkeypatch):
    seeded = []
    closure = group_module._normal_closure
    monkeypatch.setattr(group_module, "_normal_closure",
                        lambda G, seeds, stops:
                        seeded.append(len(seeds)) or closure(G, seeds, stops))
    for g in [S4, A4, Q8, C6, make(["(1,2)", "(2,3)", "(3,4)", "(4,5)"], 5)]:
        elems = oracles.closure([x.imgs for x in g.generators], g.degree)
        expect = oracles.commutator_closure(elems, g.degree)
        got = commutator_subgroup(g)
        assert got.order() == len(expect)
        assert all(imgs in expect for imgs in got.elements_raw())
        # one seed per unordered pair of the generators G acts by
        k = len(g._raw_gens)
        assert seeded.pop() == k * (k - 1) // 2


def test_centralizer():
    z = centralizer_in(S4, P("(1,2)", 4))
    assert z.order() == 4
    assert all(e * P("(1,2)", 4) == P("(1,2)", 4) * e for e in z.elements())
    # center of Q8
    zq = centralizer_in(Q8, Q8.generators[0])
    assert zq.order() == 4


def test_centralizer_rejects_wrong_degree():
    for bad in (P("(1,2)", 4), P("(1,2)", 6), (1, 0, 2, 3, 4)):
        with pytest.raises(ValueError):
            centralizer_in(S5, bad)
    # an element outside G is fine: C_A5((1,2)) = <(3,4,5), (1,2)(3,4)>
    assert centralizer_in(A5, P("(1,2)", 5)).order() == 6


def test_base_is_deterministic():
    g1 = make(["(1,2,3,4)", "(1,2)"], 4)
    g2 = make(["(1,2,3,4)", "(1,2)"], 4)
    assert g1.base() == g2.base()
    assert g1.elements_raw() == g2.elements_raw()


def test_base_is_in_point_order():
    g = make(["(3,4)", "(1,2)"], 4)
    assert g.base() == (1, 3)
    # (3,4) makes the level of point 2 first, (1,2) inserts point 0 before
    # it, and the sift loop's levels follow
    assert g._chain.base == [0, 2]
    elems = oracles.closure([x.imgs for x in g.generators], 4)
    for p in oracles.closure([P("(1,2,3,4)", 4).imgs, P("(1,2)", 4).imgs], 4):
        assert g.contains(Permutation(p)) == (p in elems)


def test_coset_canonical_is_the_least_coset_member():
    """Over a chain whose base is in point order, level i's group is the
    pointwise stabilizer of the points below its base point, so the greedy
    representative of H*p is the least member min(h*p for h in H).  With the
    base in discovery order, 182 of these 1200 cases gave another member."""
    rng = random.Random(3)
    for _ in range(1200):
        n = rng.randint(2, 6)
        gens = []
        for _ in range(rng.randint(1, 3)):
            support = rng.sample(range(n), rng.randint(2, n))
            imgs = list(range(n))
            for a, b in zip(support, rng.sample(support, len(support))):
                imgs[a] = b
            gens.append(Permutation(imgs))
        H = Group(gens, n)
        p = tuple(rng.sample(range(n), n))
        assert coset_canonical(H, p) == min(_mul(h, p) for h in H.elements_raw())


def test_degree_above_the_point_bound_raises():
    bound = BOUNDS["points"]
    assert Group([], bound).degree == trivial_group(bound).degree == bound
    for build in (lambda: Group([], bound + 1), lambda: trivial_group(bound + 1),
                  lambda: direct_product(trivial_group(bound), trivial_group(1))):
        with pytest.raises(BoundExceeded):
            build()


def test_orbit_above_the_element_bound_raises(monkeypatch):
    # the class of a 5-cycle in S5 has 24 members; the bound is read at call time
    x = P("(1,2,3,4,5)", 5)
    assert centralizer_in(S5, x).order() == 5
    monkeypatch.setitem(BOUNDS, "elements", 10)
    with pytest.raises(BoundExceeded, match="orbit too large"):
        centralizer_in(S5, x)


def test_degree_and_membership_inputs_are_checked():
    for bad in (lambda: Group([], -1), lambda: trivial_group(-3), lambda: Group([], 2.5),
                lambda: Group([], True), lambda: Group([]),
                lambda: S4.contains((0, 1, 2, 3))):
        with pytest.raises(ValueError):
            bad()


# -- coset actions ----------------------------------------------------------

def test_coset_action_point_stabilizer():
    s3 = make(["(2,3,4)", "(2,3)"], 4)  # stabilizer of 1 in S4
    image, hom = coset_action(S4, s3)
    assert image.degree == 4
    assert image.order() == 24
    assert hom.kernel().order() == 1


def test_coset_action_index_two():
    image, hom = coset_action(S4, A4)
    assert image.order() == 2
    assert hom.kernel().order() == 12


def test_coset_action_q8_center():
    center = make(["(1,2)(3,4)(5,6)(7,8)"], 8)
    image, hom = coset_action(Q8, center)
    assert image.order() == 4
    assert image.is_abelian()
    assert all(x.order() <= 2 for x in image.elements())  # elementary abelian


def test_coset_action_kernel_is_core():
    # core of S3 <= S4 is trivial; core of A4 is A4; checked via order product
    for h_texts in [["(2,3,4)", "(2,3)"], ["(1,2,3)", "(1,2)(3,4)"], ["(1,2)(3,4)", "(1,3)(2,4)"]]:
        h = make(h_texts, 4)
        image, hom = coset_action(S4, h)
        ker = hom.kernel()
        assert image.order() * ker.order() == S4.order()
        assert ker.is_normal_in(S4)
        assert ker.is_subgroup_of(h)


def brute_force_core(G, H):
    """Intersection of the conjugates g^-1 H g over all g in G (oracle closures)."""
    h_elems = oracles.closure([x.imgs for x in H.generators], H.degree)
    core = set(h_elems)
    for g in oracles.closure([x.imgs for x in G.generators], G.degree):
        ginv = oracles.inv(g)
        core &= {oracles.mul(oracles.mul(ginv, h), g) for h in h_elems}
    return core


@pytest.mark.parametrize("G, core_orders", [(S4, {1, 4, 12, 24}), (S5, {1, 60, 120})],
                         ids=["S4", "S5"])
def test_coset_action_kernel_equals_brute_force_core(G, core_orders):
    seen = set()
    for H in (cls.rep for cls in all_subgroups(G).classes):
        _, hom = coset_action(G, H)
        core = set(hom.kernel().elements_raw())
        assert core == brute_force_core(G, H)
        seen.add(len(core))
    assert seen == core_orders  # V4 and A4 in S4, A5 in S5, besides 1 and G


def test_quotient_kernel_is_v4():
    v4 = make(["(1,2)(3,4)", "(1,3)(2,4)"], 4)
    _, hom = coset_action(S4, v4)
    assert set(hom.kernel().elements_raw()) == set(v4.elements_raw())


def test_kernel_does_not_enumerate_source(monkeypatch):
    G = make(["(1,2,3,4,5)", "(1,2)"], 5)
    H = make(["(1,2,3,4)", "(1,3)"], 5)  # D4, core trivial
    _, hom = coset_action(G, H)
    enumerated = []
    elements_raw = Group.elements_raw

    def counted(self, *args, **kwargs):
        enumerated.append(self)
        return elements_raw(self, *args, **kwargs)

    monkeypatch.setattr(Group, "elements_raw", counted)
    assert hom.kernel().order() == 1
    assert not any(g is G for g in enumerated)


def test_faithful_coset_action_kernel_needs_no_stabilizer(monkeypatch):
    # |image| = |G| makes the action injective, so the kernel is trivial
    S6 = make(["(1,2,3,4,5,6)", "(1,2)"], 6)
    homs = [coset_action(S6, cls.rep)[1] for cls in all_subgroups(S6).maximal_classes()]
    faithful = [hom for hom in homs if hom.target.order() == S6.order()]
    assert len(faithful) == 5 == len(homs) - 1  # all but the action on A6's two cosets

    def no_stabilizer(*args):
        raise AssertionError("_stabilizer called")

    monkeypatch.setattr(group_module, "_stabilizer", no_stabilizer)
    assert all(hom.kernel().order() == 1 for hom in faithful)


def test_normal_closure_acts_by_the_seeds_that_extend():
    seeds = [P("(1,2,3)", 5), P("(1,3,2)", 5), P("(1,2,3)", 5), P("(3,4,5)", 5)]
    N = normal_closure(A5, seeds)
    assert N.order() == 60
    assert N._raw_gens[:2] == (seeds[0].imgs, seeds[3].imgs)
    # S4 wr C2: the commutator seeds of each derived term are not all kept
    G = wreath_product(S4, make(["(1,2)"], 2))
    orders = []
    while G.order() > 1:
        G = commutator_subgroup(G)
        orders.append(G.order())
        assert len(G._raw_gens) <= math.log2(G.order()) + len(G._chain.base)
    assert orders == [288, 144, 16, 1]


def test_coset_action_returns_the_recorded_generator_images(monkeypatch):
    G = make(["(1,2,3,4,5)", "(1,2)"], 5)
    H = make(["(1,2,3,4)", "(1,3)"], 5)
    image, hom = coset_action(G, H)

    def no_canonical(H, p):
        raise AssertionError("coset_canonical called")

    monkeypatch.setattr(group_module, "coset_canonical", no_canonical)
    assert [hom._apply(g) for g in G._raw_gens] == [g.imgs for g in image.generators]


def test_coset_action_requires_subgroup():
    with pytest.raises(ValueError):
        coset_action(A4, make(["(1,2)"], 4))


def test_coset_action_bound():
    # index 9! = 362880 is above the default bound of 100000 points
    S9 = make(["(1,2,3,4,5,6,7,8,9)", "(1,2)"], 9)
    with pytest.raises(BoundExceeded):
        coset_action(S9, trivial_group(9))


def test_homomorphism_multiplicative():
    image, hom = coset_action(S4, A4)
    rng = random.Random(3)
    elems = S4.elements()
    for _ in range(30):
        a, b = rng.choice(elems), rng.choice(elems)
        assert hom._apply((a * b).imgs) == _mul(hom._apply(a.imgs), hom._apply(b.imgs))


# -- products ---------------------------------------------------------------

def test_direct_product_orders():
    g = direct_product(A5, A5)
    assert g.degree == 10
    assert g.order() == 3600


def test_direct_product_identity_factor():
    g = direct_product(trivial_group(1), S4)
    assert g.order() == 24
    assert g.degree == 5


def test_direct_product_c2_c3_cyclic():
    c2 = make(["(1,2)"], 2)
    c3 = make(["(1,2,3)"], 3)
    g = direct_product(c2, c3)
    assert g.order() == 6
    assert any(e.order() == 6 for e in g.elements())


def test_wreath_a5_c2():
    c2 = make(["(1,2)"], 2)
    w = wreath_product(A5, c2)
    assert w.degree == 10
    assert w.order() == 3600 * 2


def test_wreath_c2_c2_is_d4():
    c2 = make(["(1,2)"], 2)
    w = wreath_product(c2, c2)
    assert w.order() == 8
    assert not w.is_abelian()
    assert any(e.order() == 4 for e in w.elements())


def test_direct_product_degree_is_checked_before_any_generator():
    # the two halves are built first; their product's degree is one above
    # the bound, and no (da + db)-point generator may be built on the way
    half = BOUNDS["points"] // 2
    A = make(["(1,2)"], half)
    B = make(["(1,2)"], BOUNDS["points"] + 1 - half)
    tracemalloc.start()
    try:
        with pytest.raises(BoundExceeded):
            direct_product(A, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_wreath_degree_bound():
    # degree 2 * 50001 = 100002 is above the default bound of 100000 points
    with pytest.raises(BoundExceeded):
        wreath_product(make(["(1,2)"], 2), trivial_group(50001))


@st.composite
def _support_perm(draw, n):
    """A permutation of range(n) that fixes every point outside a drawn
    support, so that groups fix points below the ones they move."""
    support = draw(st.lists(st.integers(0, n - 1), unique=True))
    imgs = list(range(n))
    for a, b in zip(support, draw(st.permutations(support))):
        imgs[a] = b
    return tuple(imgs)


@st.composite
def _generating_sets(draw):
    n = draw(st.integers(1, 6))
    perm = st.permutations(range(n)).map(tuple)
    gens = st.lists(st.one_of(perm, _support_perm(n)), max_size=3)
    return n, draw(gens), draw(st.lists(perm, min_size=1, max_size=8))


def _check_chain_invariants(chain, n):
    # the sift loop's levels hold the base points, strictly ascending, each
    # with the one transversal of its level: the inverse of every
    # representative, as a table in the chain's encoding
    base = [b for b, _ in chain.levels]
    assert base == chain.base and all(a < b for a, b in zip(base, base[1:]))
    assert len(chain.levels) == len(chain.gens)
    for b, itrans in chain.levels:
        assert itrans[b] == chain.one + chain.tail
        for pt, table in itrans.items():
            assert type(table) is type(chain.one) and table[n:] == chain.tail
            # its inverse, the representative, carries the base point to pt
            # and fixes every point below the base point
            rep = chain.inv(table)[:n]
            assert rep[b] == pt and rep[:b] == chain.one[:b]
    for strong in chain.gens:
        assert all(g[n:] == chain.tail for g in strong)
    for i, (strong, (b, itrans)) in enumerate(zip(chain.gens, chain.levels)):
        assert all(g[a] == a for g in strong for a in chain.base[:i])
        # level i's generators fix every point below its base point
        assert all(g[q] == q for g in strong for q in range(b))
        # every Schreier generator rep * g * rep(img)^-1 of the final orbit
        # and generators sifts to the identity through the deeper levels
        for pt, table in itrans.items():
            rep = chain.inv(table)[:n]
            for g in strong:
                schreier = chain.mul(chain.mul(rep, g), itrans[g[pt]])
                assert chain._sift_from(i + 1, schreier) == chain.one


@settings(max_examples=80, deadline=None)
@given(_generating_sets())
def test_chain_matches_closure(case):
    n, gens, probes = case
    G = Group([Permutation(g) for g in gens], n)
    elems = oracles.closure(gens, n)
    assert G.order() == len(elems)
    for p in probes:
        assert G.contains(Permutation(p)) == (p in elems)
    assert all(G.contains(Permutation(p)) for p in elems)
    chain = G._chain
    for p in probes:
        assert chain.sift(p) == (p in elems)
    _check_chain_invariants(chain, n)
    # the base is the lex base: the points q that some element fixing every
    # point below q moves
    assert chain.base == [q for q in range(n)
                          if any(p[q] != q and p[:q] == chain.ident[:q] for p in elems)]
    # neither the order nor the base depends on the order or redundancy of
    # the generators
    redundant = [_mul(a, b) for a, b in zip(gens, gens[1:])]
    shuffled = Group([Permutation(g) for g in gens[::-1] + redundant], n)
    assert shuffled.order() == G.order()
    assert shuffled.base() == G.base()


def test_chain_encodings_agree_across_the_byte_boundary():
    # up to 256 points the chain works on bytes, above on tuples; padding S5
    # and A5 with fixed points changes neither the chain nor any answer,
    # the lex walk and coset representatives included, which invert a
    # table of the chain at each step
    rng = random.Random(11)
    probes = [tuple(rng.sample(range(5), 5)) for _ in range(40)]
    sub = make(["(1,2,3)", "(1,2)(4,5)"], 5)  # S3, in S5 and A5, on two levels
    cosets = [coset_canonical(sub, p) for p in probes]
    assert cosets == [min(_mul(h, p) for h in sub.elements_raw()) for p in probes]
    for small in (S5, A5):
        elements = small.elements_raw()
        for n in (256, 257, 300):
            pad = tuple(range(5, n))
            big = Group([Permutation(g.imgs + pad) for g in small.generators], n)
            assert isinstance(big._chain.one, bytes) == (n <= 256)
            assert big.order() == small.order()
            assert big.base() == small.base()
            assert [big.contains(Permutation(p + pad)) for p in probes] == \
                [small.contains(Permutation(p)) for p in probes]
            assert not big.contains(P(f"(5,{n})", n))
            assert tuple(p[:5] for p in big.elements_raw()) == elements
            assert tuple(p[:5] for p in big._lex_walk()) == elements
            big_sub = Group([Permutation(g.imgs + pad) for g in sub.generators], n)
            assert [coset_canonical(big_sub, p + pad) for p in probes] == \
                [c + pad for c in cosets]


@pytest.mark.parametrize("G, H", [
    (make(["(1,2,3,4,5,6)", "(1,2)"], 6), make(["(1,2,3)", "(1,2)(4,5)"], 6)),
    (wreath_product(A5, make(["(1,2)"], 2)), make(["(1,2,3,4,5)", "(3,4,5)"], 10)),
], ids=["S6", "A5wrC2"])
def test_chain_readers_compose_in_the_chains_encoding(monkeypatch, G, H):
    # on at most 256 points the readers of a chain's tables compose bytes
    # with the chain's mul, so they make no perm._mul call, and still return
    # plain tuples of ints
    G, H = Group(G.generators, G.degree), Group(H.generators, H.degree)
    elements = sorted(oracles.closure([g.imgs for g in G.generators], G.degree))
    probes = random.Random(3).sample(elements, 30)
    least = [min(_mul(h, p) for h in oracles.closure([g.imgs for g in H.generators], H.degree))
             for p in probes]
    calls = []
    monkeypatch.setattr(group_module, "_mul", lambda p, q: calls.append(1) or _mul(p, q))
    got = (list(G.elements_raw()), list(G._lex_walk()), [coset_canonical(H, p) for p in probes])
    assert calls == []
    assert got == (elements, elements, least)
    assert all(type(p) is tuple and all(type(x) is int for x in p) for part in got for p in part)


def test_membership_above_the_byte_boundary_matches_closure():
    # on 300 points the chain sifts tuples; S4 x S4 on points 1-4 and 297-300
    n = 300
    g = make(["(1,2,3,4)", "(1,2)", "(297,298,299,300)", "(297,298)"], n)
    assert isinstance(g._chain.one, tuple)
    elems = oracles.closure([x.imgs for x in g.generators], n)
    assert g.order() == len(elems) == 576
    moved = (0, 1, 2, 3, 296, 297, 298, 299)
    rng = random.Random(5)
    for _ in range(200):
        imgs = list(range(n))
        for a, b in zip(moved, rng.sample(moved, len(moved))):
            imgs[a] = b
        p = tuple(imgs)
        assert g.contains(Permutation(p)) == (p in elems)
    assert all(g.contains(Permutation(p)) for p in elems)
    chain = g._chain
    _check_chain_invariants(chain, n)
    # inverse representatives hold ident's own ints: above 256 points fresh
    # ones would double the chain's size
    assert all(x is chain.ident[x] for _, itrans in chain.levels
               for inv in itrans.values() for x in inv)


def test_regular_action_above_the_byte_boundary():
    A6 = make(["(1,2,3)", "(2,3,4,5,6)"], 6)
    image, hom = coset_action(A6, trivial_group(6))
    assert image.degree == 360 and isinstance(image._chain.one, tuple)
    assert image.order() == 360
    _check_chain_invariants(image._chain, 360)
    assert hom.kernel().order() == 1


def test_chain_holds_one_transversal():
    # each level keeps its representatives once, as inverse tables: Group()
    # of the 1000-point cycle (Schreier-Sims on tuples) holds 7.8 MiB, where
    # a second store of the representatives as tuples held 15.5 MiB; S200,
    # certified, keeps no chain (its written one held 6.5 MiB)
    for texts, n, order, limit in (([_cycle_text(1, 200), "(1,2)"], 200, math.factorial(200), 1),
                                   ([_cycle_text(1, 1000)], 1000, 1000, 10)):
        gens = [P(t, n) for t in texts]
        tracemalloc.start()
        try:
            G = Group(gens, n)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert G.order() == order
        assert G._alt_or_sym == ((list(range(n)), (), False) if n == 200 else None)
        assert held < limit << 20


def test_literature_orders():
    # ATLAS standard generators of the Mathieu groups
    assert make(["(2,10)(4,11)(5,7)(8,9)", "(1,4,3,8)(2,5,6,9)"], 11).order() == 7920
    assert make(["(1,4)(3,10)(5,11)(6,12)", "(1,8,9)(2,3,4)(5,12,11)(6,10,7)"], 12).order() == 95040
    assert make(["(1,4)(2,7)(3,17)(5,13)(6,9)(8,15)(10,19)(11,18)(12,21)(14,16)(20,24)(22,23)",
                 "(1,4,6)(2,21,14)(3,9,15)(5,18,10)(13,17,16)(19,24,23)"], 24).order() == 244823040
    cycle = "(" + ",".join(map(str, range(1, 31))) + ")"
    assert make([cycle, "(1,2)"], 30).order() == math.factorial(30)
    # A_n for even n: <(1,2,3), (2,3,...,n)>
    long_cycle = "(" + ",".join(map(str, range(2, 31))) + ")"
    assert make(["(1,2,3)", long_cycle], 30).order() == math.factorial(30) // 2


# -- giants: Alt and Sym certified by Jordan, their chains written on read ----

def _odd(p):
    seen, odd = set(), 0
    for a in range(len(p)):
        b = p[a]
        seen.add(a)
        while b not in seen:
            seen.add(b)
            b = p[b]
            odd ^= 1
    return odd


def _spy(monkeypatch, name):
    # the result of every call of group_module's function ``name``
    results = []
    original = getattr(group_module, name)
    monkeypatch.setattr(group_module, name,
                        lambda *args: results.append(original(*args)) or results[-1])
    return results


def _spies(monkeypatch):
    # chain builds, written giant chains and Jordan certificates
    return [_spy(monkeypatch, name) for name in ("_build_chain", "_giant_chain", "_jordan")]


def _moving(rng, degree, support, point):
    # a random permutation of support with point's image swapped with
    # another's, so it moves point whenever point lies outside support
    p = list(_on_support(rng, degree, support))
    other = rng.choice([a for a in range(degree) if a != point])
    p[point], p[other] = p[other], p[point]
    return tuple(p)


def _plain_schreier_sims(degree, raw_gens):
    # a chain extended by one generator at a time, with no giant certificate,
    # and the generators that extended it
    chain = _Chain(degree)
    return chain, [g for g in raw_gens if chain.extend(g)]


def _summary(chain, used):
    return chain.order(), chain.base, [set(itrans) for _, itrans in chain.levels], tuple(used)


def _schreier_sims_summary(G):
    # order, base, orbit sets and acting generators of G against those of
    # a plain Schreier-Sims build from G's given generators
    chain, used = _plain_schreier_sims(G.degree, [g.imgs for g in G.generators])
    return _summary(G._chain, G._raw_gens), _summary(chain, used), chain


def _on_support(rng, degree, support, odd=None):
    imgs = list(range(degree))
    for a, b in zip(support, rng.sample(support, len(support))):
        imgs[a] = b
    if odd is not None and _odd(imgs) != odd:
        imgs[support[0]], imgs[support[1]] = imgs[support[1]], imgs[support[0]]
    return tuple(imgs)


@pytest.mark.parametrize(("n", "spare"), [(n, 7) for n in range(8, 15)] + [(n, 0) for n in range(8, 15)],
                         ids=[str(n) for n in range(8, 15)] + [f"{n} on every point" for n in range(8, 15)])
@pytest.mark.parametrize("alt", [False, True], ids=["Sym", "Alt"])
def test_giant_chain_equals_schreier_sims(monkeypatch, n, alt, spare):
    # a random generating pair of Sym or Alt on n points placed at random
    # in a larger degree, away from point 1, or on every point, plus two
    # redundant words: the group is certified, acts by the pair and builds
    # no chain; its first chain read writes one, that of Schreier-Sims
    rng = random.Random(100 * n + alt if spare else 1000 * n + alt)
    degree = n + spare
    support = sorted(rng.sample(range(2, degree), n)) if spare else list(range(n))
    outside = [q for q in range(degree) if q not in support]
    target = math.factorial(n) // (2 if alt else 1)
    while True:
        pair = [_on_support(rng, degree, support, 0 if alt else None) for _ in range(2)]
        if _plain_schreier_sims(degree, pair)[0].order() == target:
            break
    words = [_mul(pair[0], pair[1]), _mul(_mul(pair[1], pair[0]), pair[1])]
    built, written, certified = _spies(monkeypatch)
    G = Group([Permutation(g) for g in pair + words], degree)
    assert built == written == [] and certified == [True]
    assert G.order() == target and G._raw_gens == tuple(pair)
    # the group answers by support and parity, with no chain, as a plain
    # chain and the written one do
    assert G._alt_or_sym == (support, tuple(outside), alt)
    members = [_mul(_mul(pair[i % 2], pair[1 - i % 2]), words[i % 2]) for i in range(4)]
    members += [_on_support(rng, degree, support, 0) for _ in range(20)]
    others = [_on_support(rng, degree, support, 1) for _ in range(20)]
    others += [_on_support(rng, degree, outside[:2] + support[:3]) for _ in range(20)]
    inside = [all(p[q] == q for q in outside) and not (alt and _odd(p)) for p in members + others]
    assert [G.contains(Permutation(p)) for p in members + others] == inside
    assert written == []
    chain = G._chain
    assert written == [chain] and G._chain is chain
    ours, theirs, plain = _schreier_sims_summary(G)
    assert ours == theirs
    assert chain.base == support[:n - 2 if alt else n - 1]
    _check_chain_invariants(chain, degree)
    assert [plain.sift(p) for p in members + others] == inside
    assert [chain.sift(p) for p in members + others] == inside
    # a chain built for a moment (``_generates``, closures) is Schreier-Sims's
    # and offers no certificate
    transient = group_module._build_chain(degree, pair)
    assert _summary(*transient) == theirs and len(built) == 1 and certified == [True]


def _grown_giant_answers_as_a_plain_chain(G, chain, omega, alt, rng):
    # G's record names omega and Alt or Sym, and on even and odd elements of
    # Sym(omega), on elements moving point 12 (which the growth added to
    # omega, or left outside it) and on ones moving point 1 (outside omega),
    # G's membership equals a sift of a plain chain and of G's own chain
    degree = G.degree
    assert G._alt_or_sym == (omega, tuple(q for q in range(degree) if q not in omega), alt)
    probes = [_on_support(rng, degree, omega, odd) for odd in (0, 1) * 15]
    probes += [_on_support(rng, degree, [11] + rng.sample([q for q in omega if q != 11], 4)) for _ in range(20)]
    probes += [_on_support(rng, degree, [0] + omega) for _ in range(20)]
    inside = [G.contains(Permutation(p)) for p in probes]
    assert inside == [chain.sift(p) for p in probes] == [G._chain.sift(p) for p in probes]
    assert True in inside and False in inside


def test_certified_prefix_acts_by_a_repeated_generator_once(monkeypatch):
    # the first transitive prefix of a, a, b is all three, and a repeat adds
    # nothing to the group: S8 on 9 points acts by a and b, keeps all three
    # as given (so the .grp text does not change), and answers membership
    # as S8 on the pair
    a, b = P("(1,2,3,4,5,6,7)", 9), P("(7,8)", 9)
    built, written, certified = _spies(monkeypatch)
    G = Group([a, a, b], 9)
    assert built == [] and certified == [True]
    assert G._raw_gens == (a.imgs, b.imgs) and G.generators == (a, a, b)
    assert G.order() == math.factorial(8)
    assert parse_group_text(serialize_group(G)).generators == (a, a, b)
    pair = Group([a, b], 9)
    rng = random.Random(9)
    probes = [tuple(rng.sample(range(9), 9)) for _ in range(40)]
    inside = [G.contains(Permutation(p)) for p in probes]
    assert inside == [pair.contains(Permutation(p)) for p in probes] == [p[8] == 8 for p in probes]
    assert True in inside and False in inside


@pytest.mark.parametrize("name", ["S7", "S5xS3"])
def test_alt_or_sym_record_matches_brute_force_on_a_lattice(name):
    # the record tests only k! <= 2|H|, k = degree - orbits + 1; on every
    # subgroup class of S7, and of S5 x S3 with its two orbits, it holds
    # exactly when H is transitive on the 5 or more points it moves, with
    # order |omega|! or |omega|!/2, counted by brute force
    G = {"S7": lambda: make(["(1,2,3,4,5,6,7)", "(1,2)"], 7),
         "S5xS3": lambda: make(["(1,2,3,4,5)", "(1,2)", "(6,7,8)", "(6,7)"], 8)}[name]()
    several = 0  # classes with k >= 5 and two or more nontrivial orbits
    for H in (c.rep for c in all_subgroups(G).classes):
        elems = H.elements_raw()
        omega = [q for q in range(G.degree) if any(x[q] != q for x in elems)]
        orbits = len({frozenset(x[q] for x in elems) for q in range(G.degree)})
        full = math.factorial(len(omega))
        giant = (len(omega) >= 5 and {x[omega[0]] for x in elems} == set(omega)
                 and len(elems) in (full, full // 2))
        outside = tuple(q for q in range(G.degree) if q not in omega)
        assert H._alt_or_sym == ((omega, outside, len(elems) != full) if giant else None)
        several += G.degree - orbits + 1 >= 5 and orbits > G.degree - len(omega) + 1
    assert several > 0


@pytest.mark.parametrize("alt", [False, True], ids=["Sym", "Alt"])
def test_giant_chain_extended_by_a_later_generator(monkeypatch, alt):
    # after a prefix that alone is certified, a generator outside its giant
    # (an odd one over Alt, one moving a new point over Sym) leaves the
    # group to a plain chain, with no certificate tried; it is Sym of a
    # larger omega, or of the same omega over Alt
    n, degree = 10, 13
    cycle = P("(2,3,4,5,6,7,8,9,10,11)" if not alt else "(3,4,5,6,7,8,9,10,11)", degree)
    second = P("(2,3)" if not alt else "(2,3,4)", degree)
    later = P("(11,12)" if not alt else "(5,6)", degree)
    assert Group([cycle, second], degree)._alt_or_sym == (list(range(1, 11)), (0, 11, 12), alt)
    built, written, certified = _spies(monkeypatch)
    G = Group([cycle, second, later], degree)
    assert len(built) == 1 and written == certified == []
    assert G._chain is built[0][0]
    ours, theirs, chain = _schreier_sims_summary(G)
    assert ours == theirs
    assert G.order() == math.factorial(n + (not alt))
    _check_chain_invariants(G._chain, degree)
    omega = list(range(1, n + 1 + (not alt)))
    _grown_giant_answers_as_a_plain_chain(G, chain, omega, False, random.Random(11 + alt))


def test_giant_reached_by_a_normal_closure(monkeypatch):
    # the normal closure in Sym(2..12) of a pair generating Alt(2..11) grows
    # a plain chain by conjugates (``_grown``), with no certificate tried,
    # into Alt(2..12), which answers membership as a plain chain does
    degree = 13
    G = make(["(2,3,4,5,6,7,8,9,10,11,12)", "(2,3)"], degree)
    seeds = [P("(3,4,5,6,7,8,9,10,11)", degree), P("(2,3,4)", degree)]
    built, written, certified = _spies(monkeypatch)
    N = normal_closure(G, seeds)
    assert len(built) == 1 and written == certified == []
    assert N._chain is built[0][0]
    assert N.order() == math.factorial(11) // 2
    _check_chain_invariants(N._chain, degree)
    chain = _plain_schreier_sims(degree, [g.imgs for g in N.generators])[0]
    _grown_giant_answers_as_a_plain_chain(N, chain, list(range(1, 12)), True, random.Random(12))


def _psl2(q):
    # PSL(2, q) on the projective line over F_q, q prime: x -> x + 1 and
    # x -> -1/x, with point q standing for infinity
    t = tuple((x + 1) % q for x in range(q)) + (q,)
    s = tuple((-pow(x, -1, q)) % q if x else q for x in range(q)) + (0,)
    return Group([Permutation(t), Permutation(s)], q + 1)


def _psl2_11_on_11_points():
    # PSL(2, 11) on the cosets of an A5, generated by a (2, 3, 5) pair
    G = _psl2(11)
    elems = G.elements_raw()
    a = next(x for x in elems if oracles.element_order(x) == 2)
    b = next(y for y in elems
             if oracles.element_order(y) == 3 and oracles.element_order(_mul(a, y)) == 5)
    return coset_action(G, Group([Permutation(a), Permutation(b)], 12))[0]


NON_GIANTS = {  # name: (group, order), built when the test runs
    "M11": lambda: (make(["(2,10)(4,11)(5,7)(8,9)", "(1,4,3,8)(2,5,6,9)"], 11), 7920),
    "M12": lambda: (make(["(1,4)(3,10)(5,11)(6,12)", "(1,8,9)(2,3,4)(5,12,11)(6,10,7)"], 12),
                    95040),
    "M24": lambda: (make(["(1,4)(2,7)(3,17)(5,13)(6,9)(8,15)(10,19)(11,18)(12,21)(14,16)(20,24)"
                          "(22,23)", "(1,4,6)(2,21,14)(3,9,15)(5,18,10)(13,17,16)(19,24,23)"], 24),
                    244823040),
    "PSL(2,7) on 8": lambda: (_psl2(7), 168),
    "PSL(2,11) on 12": lambda: (_psl2(11), 660),
    "PSL(2,11) on 11": lambda: (_psl2_11_on_11_points(), 660),
    "A5wrC2": lambda: (wreath_product(A5, make(["(1,2)"], 2)), 7200),
    "S4wrS2": lambda: (wreath_product(S4, make(["(1,2)"], 2)), 1152),
    "A6 regular": lambda: (coset_action(make(["(1,2,3)", "(2,3,4,5,6)"], 6),
                                        trivial_group(6))[0], 360),
}


SHOWS_BLOCKS = {"A5wrC2", "S4wrS2"}  # the last generator of the prefix swaps the blocks


@pytest.mark.parametrize("name", NON_GIANTS)
def test_giant_search_certifies_no_other_transitive_group(monkeypatch, name):
    # none of these contains Alt of its points, so Jordan's theorem certifies
    # none: each group's prefix that shows no blocks is tried once, fails,
    # and the group is built by Schreier-Sims; the wreath products' prefixes
    # show blocks, so theirs are never tried, and a chain built for a moment
    # (closures) tries none
    given, order = NON_GIANTS[name]()
    certified = _spy(monkeypatch, "_jordan")
    G = Group(given.generators, given.degree)
    tried = [] if name in SHOWS_BLOCKS else [False]
    assert certified == tried
    transient = group_module._build_chain(G.degree, [g.imgs for g in given.generators])
    assert certified == tried
    ours, theirs, _ = _schreier_sims_summary(G)
    assert ours == theirs == _summary(*transient)
    assert G.order() == order and G._alt_or_sym is None


def _bfs_transitive_prefix(degree, raw_gens):
    # the least k >= 2 whose prefix moves at least 8 points and has one
    # orbit on them, walked breadth-first, with the moved points ascending
    for k in range(2, len(raw_gens) + 1):
        prefix = raw_gens[:k]
        omega = [a for a in range(degree) if any(g[a] != a for g in prefix)]
        if len(omega) < 8:
            continue
        orbit, queue = {omega[0]}, [omega[0]]
        for a in queue:  # grows while it is walked
            for g in prefix:
                if g[a] not in orbit:
                    orbit.add(g[a])
                    queue.append(g[a])
        if len(orbit) == len(omega):
            return k, omega
    return None


def _bfs_shows_blocks(degree, raw_gens, k):
    # whether the earlier generators of the prefix raw_gens[:k] have two or
    # more orbits on the points the prefix moves, and raw_gens[k - 1] maps
    # each of them into one, the orbits walked breadth-first
    prefix = raw_gens[:k]
    omega = [a for a in range(degree) if any(g[a] != a for g in prefix)]
    orbit_of = {}
    for a in omega:
        if a not in orbit_of:
            orbit, queue = {a}, [a]
            for b in queue:  # grows while it is walked
                for g in prefix[:-1]:
                    if g[b] not in orbit:
                        orbit.add(g[b])
                        queue.append(g[b])
            orbit_of.update((b, a) for b in orbit)
    last = prefix[-1]
    images = [{orbit_of[last[b]] for b in omega if orbit_of[b] == a}
              for a in set(orbit_of.values())]
    return len(images) > 1 and all(len(image) == 1 for image in images)


def _random_generator_lists(count):
    # degree 8-14, generators on random supports (so with fixed points), and
    # redundant words: repeats, products of earlier entries, the identity
    rng = random.Random(50)
    for _ in range(count):
        n = rng.randint(8, 14)
        gens = []
        for _ in range(rng.randint(1, 6)):
            kind = rng.random()
            if gens and kind < 0.15:
                gens.append(rng.choice(gens))
            elif len(gens) >= 2 and kind < 0.35:
                gens.append(_mul(*rng.sample(gens, 2)))
            elif kind < 0.4:
                gens.append(_identity(n))
            else:
                gens.append(_on_support(rng, n, rng.sample(range(n), rng.randint(2, n))))
        yield n, gens


def test_transitive_prefix_matches_breadth_first_orbits():
    inputs = list(_random_generator_lists(400))
    inputs += [(G.degree, [g.imgs for g in G.generators])
               for G in (NON_GIANTS[name]()[0] for name in NON_GIANTS)]
    inputs.append((10, [g.imgs for g in wreath_product(A5, make(["(1,2)"], 2)).generators]))
    found = []
    for degree, gens in inputs:
        want = _bfs_transitive_prefix(degree, gens)
        if want is not None and _bfs_shows_blocks(degree, gens, want[0]):
            want = "blocks"
        assert group_module._transitive_prefix(degree, gens) == (None if want == "blocks" else want)
        found.append(want if want in (None, "blocks") else want[0])
    # the random lists reach each outcome: none, k = 2, a later k, and a
    # transitive prefix that shows blocks, so is not offered
    assert {None, "blocks", 2} <= set(found) and any(k not in (None, "blocks", 2) for k in found)


@st.composite
def _giant_generating_sets(draw):
    # a generating set of S_n or A_n, n = 8..16, relabelled at random: the
    # n-cycle and a transposition, (1,2,3) and an n- or (n-1)-cycle, or a
    # random generating pair; then 0 to 2 random words in it, as the
    # benchmark's worker appends them
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    n, alt, kind = draw(st.integers(8, 16)), draw(st.booleans()), draw(st.integers(0, 2))
    if kind == 2:
        target = math.factorial(n) // (2 if alt else 1)
        while True:
            gens = [_on_support(rng, n, list(range(n)), 0 if alt else None) for _ in range(2)]
            if _plain_schreier_sims(n, gens)[0].order() == target:
                break
    else:
        cycle = list(range(1 if alt and n % 2 == 0 else 0, n))
        long_cycle = list(range(n))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            long_cycle[a] = b
        short = (1, 0) if not alt else (1, 2, 0)
        gens = [tuple(long_cycle), short + tuple(range(len(short), n))]
        if alt and kind:
            gens.reverse()
        sigma = tuple(rng.sample(range(n), n))
        back = _inv(sigma)
        gens = [tuple(sigma[g[back[a]]] for a in range(n)) for g in gens]
    for _ in range(draw(st.integers(0, 2))):
        word = _identity(n)
        for _ in range(rng.randint(2, 5)):
            word = _mul(word, rng.choice(gens[:2]))
        gens.append(word)
    return n, alt, gens


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_giant_generating_sets())
def test_generating_sets_of_giants_show_no_blocks(case):
    # S_n and A_n are primitive, so no generating set of theirs shows blocks:
    # the first transitive prefix, the generating pair, is offered, and
    # Jordan's theorem certifies it
    n, alt, gens = case
    assert group_module._transitive_prefix(n, gens) == (2, list(range(n)))
    G = Group([Permutation(g) for g in gens], n)
    assert G._alt_or_sym == (list(range(n)), (), alt)
    assert G.order() == math.factorial(n) // (2 if alt else 1)


WREATHS = {  # name: (inner generators and degree, top generators and degree)
    "A5wrC2": ((["(1,2,3,4,5)", "(3,4,5)"], 5), (["(1,2)"], 2)),
    "S4wrS2": ((["(1,2,3,4)", "(1,2)"], 4), (["(1,2)"], 2)),
    "A5wrC3": ((["(1,2,3,4,5)", "(3,4,5)"], 5), (["(1,2,3)"], 3)),
    "S4wrS4": ((["(1,2,3,4)", "(1,2)"], 4), (["(1,2,3,4)", "(1,2)"], 4)),
    "S3wrS3": ((["(1,2,3)", "(1,2)"], 3), (["(1,2,3)", "(1,2)"], 3)),
}


@pytest.mark.parametrize("name", WREATHS)
def test_wreath_products_show_blocks(monkeypatch, name):
    # the generators of inner wr top list each block's inner generators,
    # then top's: the first transitive prefix ends with a generator of top,
    # which permutes the blocks, the orbits of the generators before it, so
    # it is offered to no certificate, and the chain is Schreier-Sims's
    (inner, m), (top, k) = WREATHS[name]
    A, B = make(inner, m), make(top, k)
    results = _spy(monkeypatch, "_jordan")
    W = wreath_product(A, B)
    gens = [g.imgs for g in W.generators]
    prefix = _bfs_transitive_prefix(W.degree, gens)
    assert prefix is not None and _bfs_shows_blocks(W.degree, gens, prefix[0])
    assert group_module._transitive_prefix(W.degree, gens) is None
    assert results == []
    assert W.order() == A.order() ** k * B.order()
    ours, theirs, _ = _schreier_sims_summary(W)
    assert ours == theirs


def test_generates_certifies_a_generating_pair_of_s30(monkeypatch):
    # a 30-cycle and a transposition of adjacent points, relabelled at random:
    # S30 is Sym of its points, so Jordan's theorem certifies the pair with
    # no chain built, and an all-even pair is rejected with none either
    n = 30
    G = make(["(" + ",".join(map(str, range(1, n + 1))) + ")", "(1,2)"], n)
    relabel = tuple(random.Random(30).sample(range(n), n))
    back = _inv(relabel)
    cycle = tuple((a + 1) % n for a in range(n))
    swap = (1, 0) + tuple(range(2, n))
    pair = [tuple(relabel[p[back[x]]] for x in range(n)) for p in (cycle, swap)]
    built, certified = [], []
    original, jordan = group_module._build_chain, group_module._jordan
    monkeypatch.setattr(group_module, "_build_chain",
                        lambda *args: built.append(1) or original(*args))
    monkeypatch.setattr(group_module, "_jordan",
                        lambda *args: certified.append(jordan(*args)) or certified[-1])
    assert _generates(G, pair)
    assert built == [] and certified == [True]
    assert not _generates(G, [_mul(p, p) for p in pair] + [_mul(pair[1], pair[0])])
    assert built == [] and certified == [True]


def test_generates_tries_one_certificate_on_a_proper_transitive_pair(monkeypatch):
    # PGL(2,7) on the projective line over F_7 (point 7 standing for
    # infinity) is transitive on 8 points and holds odd elements, but no
    # Alt(8): on seeded pairs generating it, S8's generation test tries
    # Jordan's certificate once, then a plain chain answers False
    t = tuple((x + 1) % 7 for x in range(7)) + (7,)
    m = tuple(3 * x % 7 for x in range(7)) + (7,)
    s = tuple((-pow(x, -1, 7)) % 7 if x else 7 for x in range(7)) + (0,)
    PGL = Group([Permutation(g) for g in (t, m, s)], 8)
    assert PGL.order() == 336
    S8 = make(["(1,2,3,4,5,6,7,8)", "(1,2)"], 8)
    certified = _spy(monkeypatch, "_jordan")
    for pair in _generating_tuples(random.Random(113), PGL, 2, 5):
        assert any(_odd(g) for g in pair)
        before = len(certified)
        assert not _generates(S8, pair)
        assert certified[before:] == [False]


def _generating_tuples(rng, H, size, count):
    # seeded tuples of elements of H that generate it, by a plain chain
    elements = H.elements_raw()
    while count:
        gens = [rng.choice(elements) for _ in range(size)]
        if _plain_schreier_sims(H.degree, gens)[0].order() == H.order():
            count -= 1
            yield gens


@pytest.mark.parametrize("alt", [False, True], ids=["S8", "A8"])
def test_every_generating_pair_certifies(alt):
    # with a third slot holding the product of two generators, product
    # replacement reaches both of Jordan's witnesses for every seeded
    # generating pair of S8 and A8 within the draw budget; on two slots
    # alone, every step makes (ab, b) or (a, ba)
    n = 8
    rng = random.Random(800 + alt)
    support = list(range(n))
    target = math.factorial(n) // (2 if alt else 1)
    pairs = 0
    while pairs < 100:
        pair = [_on_support(rng, n, support, 0 if alt else None) for _ in range(2)]
        if _plain_schreier_sims(n, pair)[0].order() == target:
            pairs += 1
            assert group_module._jordan(n, pair, support)


@pytest.mark.parametrize("name", ["S5", "S6", "S7"])
def test_jordan_certifies_exactly_the_giants(name):
    # every class of subgroups transitive on the 5 or more points it moves:
    # on its generators and on 3 seeded generating pairs, a certificate
    # holds exactly when the class is Alt or Sym of those points, and
    # Group._alt_or_sym reads that off its order
    n = int(name[1])
    G = make(["(" + ",".join(map(str, range(1, n + 1))) + ")", "(1,2)"], n)
    rng = random.Random(n)
    giants = 0
    for cls in all_subgroups(G).classes:
        H = cls.rep
        omega = sorted({a for g in H.generators for a, b in enumerate(g.imgs) if a != b})
        if len(omega) < 5 or H._orbits != n - len(omega) + 1:
            continue
        giant = H.order() in (math.factorial(len(omega)), math.factorial(len(omega)) // 2)
        giants += giant
        assert (H._alt_or_sym is not None) == giant
        tuples = [[g.imgs for g in H.generators]] + list(_generating_tuples(rng, H, 2, 3))
        for gens in tuples:
            assert group_module._jordan(n, gens, omega) == giant
    # one class each of Alt and Sym of 5 points, of 6 points in S6 and S7,
    # and of 7 points in S7
    assert giants == {"S5": 2, "S6": 4, "S7": 6}[name]


@pytest.mark.parametrize("name", ["S5", "A5", "S6", "A6", "S7"])
def test_generates_agrees_with_a_plain_chain(name):
    # 200 seeded tuples of 1 to 3 elements: _generates, with its orbit,
    # parity and Jordan shortcuts, against the order of a plain chain
    n = int(name[1])
    cycle = "(" + ",".join(map(str, range(1, n + 1))) + ")"
    G = make([cycle, "(1,2)"] if name[0] == "S" else ["(1,2,3)", cycle if n % 2 else "(2,3,4,5,6)"], n)
    assert G.order() == math.factorial(n) // (1 if name[0] == "S" else 2)
    elements = G.elements_raw()
    rng = random.Random(name)
    answers = []
    for _ in range(200):
        gens = [rng.choice(elements) for _ in range(rng.randint(1, 3))]
        answers.append(_generates(G, gens))
        assert answers[-1] == (_plain_schreier_sims(n, gens)[0].order() == G.order())
    assert True in answers and False in answers


@st.composite
def _membership_cases(draw):
    # a subgroup of S7 on 1 to 3 random elements, or Alt or Sym of 5 to 8
    # random points inside degree 9 on a random generating pair, and the
    # generator of its probes
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        return 7, [tuple(rng.sample(range(7), 7)) for _ in range(rng.randint(1, 3))], rng
    n, k, alt = 9, draw(st.integers(5, 8)), draw(st.booleans())
    support = sorted(rng.sample(range(n), k))
    target = math.factorial(k) // (2 if alt else 1)
    while True:
        pair = [_on_support(rng, n, support, 0 if alt else None) for _ in range(2)]
        if _plain_schreier_sims(n, pair)[0].order() == target:
            return n, pair, rng


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_membership_cases())
def test_membership_and_alt_or_sym_match_the_closure(case):
    # on members, odd elements and elements moving a point outside omega,
    # contains equals membership in the closure; the record of Alt or Sym
    # holds exactly when the closure is |omega|! or |omega|!/2 on one orbit
    # of the 5 or more moved points; and _generates equals the order test
    n, gens, rng = case
    G = Group([Permutation(g) for g in gens], n)
    elems = oracles.closure(gens, n)
    members = sorted(elems)
    omega = [a for a in range(n) if any(g[a] != a for g in gens)]
    outside = [a for a in range(n) if a not in omega]
    full = math.factorial(len(omega))
    one_orbit = bool(omega) and {x[omega[0]] for x in elems} == set(omega)
    if len(omega) >= 5 and one_orbit and len(elems) in (full, full // 2):
        assert G._alt_or_sym == (omega, tuple(outside), len(elems) != full)
    else:
        assert G._alt_or_sym is None
    probes = [rng.choice(members) for _ in range(7)]
    probes += [_on_support(rng, n, omega if len(omega) >= 2 else list(range(n)), 1) for _ in range(7)]
    probes += [_moving(rng, n, omega, rng.choice(outside) if outside else rng.randrange(n))
               for _ in range(6)]
    for p in probes:
        assert G.contains(Permutation(p)) == (p in elems) == G._chain.sift(p)
    for _ in range(5):
        tup = [rng.choice(members) for _ in range(rng.randint(1, 3))]
        assert _generates(G, tup) == oracles.generates(tup, n, len(elems))


@pytest.mark.parametrize("alt", [False, True], ids=["Sym", "Alt"])
def test_giant_chain_above_the_byte_boundary(monkeypatch, alt):
    # Sym or Alt of 40 points inside 260 keeps no chain until one is read,
    # which then takes the tuple encoding; a full Sym(260) would hold 33670
    # representatives of 260 entries each
    degree, n = 260, 40
    rng = random.Random(260 + alt)
    support = sorted(rng.sample(range(degree), n))
    long_cycle = list(range(degree))
    cyc = support[1:] if alt else support  # a 39-cycle is even
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        long_cycle[a] = b
    short = list(range(degree))
    short_cycle = support[:3] if alt else support[:2]
    for a, b in zip(short_cycle, short_cycle[1:] + short_cycle[:1]):
        short[a] = b
    built, written, certified = _spies(monkeypatch)
    G = Group([Permutation(long_cycle), Permutation(short)], degree)
    assert built == written == [] and certified == [True]
    assert G.order() == math.factorial(n) // (2 if alt else 1)
    assert isinstance(G._chain.one, tuple) and written == [G._chain]
    assert G.base() == tuple(q + 1 for q in support[:n - 2 if alt else n - 1])
    _check_chain_invariants(G._chain, degree)
    # a plain chain of the same generators is the reference
    chain = _plain_schreier_sims(degree, [long_cycle, short])[0]
    outside = [q for q in range(degree) if q not in support]
    for odd in (0, 1) * 10:
        p = _on_support(rng, degree, support, odd)
        assert G.contains(Permutation(p)) == (not (alt and odd)) == chain.sift(p)
    for _ in range(5):
        p = _moving(rng, degree, support, rng.choice(outside))
        assert not G.contains(Permutation(p)) and not chain.sift(p)


@pytest.mark.parametrize("alt", [False, True], ids=["S1000", "A1000"])
def test_giant_of_1000_points_keeps_no_chain(monkeypatch, alt):
    # Sym or Alt of points 2..1001 inside 1002: certified with no chain
    # built or written, in well under 1 MiB, where the written chain of
    # S1000 held 3.86 GB; order, record and membership need no chain
    degree = 1002
    omega = list(range(1, 1001))
    texts = ["(2,3,4)", _cycle_text(3, 1001)] if alt else [_cycle_text(2, 1001), "(2,3)"]
    gens = [P(text, degree) for text in texts]
    built, written, certified = _spies(monkeypatch)
    tracemalloc.start()
    try:
        G = Group(gens, degree)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert built == written == [] and certified == [True]
    assert held < 1 << 20
    assert G.order() == math.factorial(1000) // (2 if alt else 1)
    assert G._alt_or_sym == (omega, (0, 1001), alt)
    rng = random.Random(1000 + alt)
    probes = [_on_support(rng, degree, omega, odd) for odd in (0, 1) * 5]
    probes += [_moving(rng, degree, omega, rng.choice((0, 1001))) for _ in range(10)]
    assert ([G.contains(Permutation(p)) for p in probes]
            == [not (alt and odd) for odd in (0, 1) * 5] + [False] * 10)
    assert written == []


def test_first_base_read_writes_the_giant_chain_once(monkeypatch):
    # S200 writes its chain on the first read of its base, and keeps it
    built, written, _ = _spies(monkeypatch)
    G = make([_cycle_text(1, 200), "(1,2)"], 200)
    assert built == written == []
    assert G.base() == tuple(range(1, 200))
    assert len(written) == 1 and G._chain is written[0]
    assert G.base() == tuple(range(1, 200)) and G._chain is written[0]
    assert len(written) == 1 and built == []
