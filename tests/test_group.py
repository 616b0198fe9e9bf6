import math
import random

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
    _conjugation_orbits,
    _stabilizer,
)
from genex.gensets import min_generators
from genex.perm import Permutation, _inv, _mul, parse_permutation
from genex.structure import all_subgroups


def P(text, degree):
    return parse_permutation(text, degree)


def make(texts, degree):
    return Group([P(t, degree) for t in texts], degree)


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
    W, _ = wreath_product(A5, make(["(1,2)"], 2))
    for G in (make(["(1,2,3,4,5,6,7)", "(1,2)"], 7), W):
        sigma = Permutation(rng.sample(range(G.degree), G.degree))
        groups.append(Group([sigma.inverse() * g * sigma for g in G.generators], G.degree))
    for G in groups:
        assert list(G._lex_walk()) == list(G.elements_raw())


def test_enumeration_above_the_element_bound_raises():
    S9 = make(["(1,2,3,4,5,6,7,8,9)", "(1,2)"], 9)  # 362880 > DEFAULT_ELEMENT_BOUND
    assert S9.order() == 362880
    for query in (S9.elements_raw, S9.conjugacy_classes_raw, lambda: min_generators(S9)):
        with pytest.raises(BoundExceeded):
            query()


@pytest.mark.parametrize("texts, degree", [
    (["(1,2,3,4)", "(1,2)"], 4), (["(1,2,3,4,5)", "(3,4,5)"], 5), (["(1,2,3,4,5,6)", "(1,2)"], 6),
], ids=["S4", "A5", "S6"])
def test_conjugacy_classes_from_the_element_index(monkeypatch, texts, degree):
    G = make(texts, degree)
    pairs = [(g, _inv(g)) for g in G._raw_gens]
    want = tuple(_conjugation_orbits(G.elements_raw(), pairs))
    G._element_index()

    def no_mul(p, q):
        raise AssertionError("perm._mul called")

    monkeypatch.setattr(group_module, "_mul", no_mul)
    assert G.conjugacy_classes_raw() == want


def test_stabilizer_moves_each_orbit_point_once():
    # S5 on points and on 2-sets of points, given by three generators
    gens = [P(t, 5).imgs for t in ("(1,2,3,4,5)", "(1,2)", "(1,3)(2,4)")]
    actions = [lambda y, g: g[y], lambda y, g: frozenset(g[i] for i in y)]
    for act, start in zip(actions, (0, frozenset({0, 1}))):
        calls = [0] * len(gens)

        def counted(k):
            def move(y):
                calls[k] += 1
                return act(y, gens[k])
            return move

        stab, chain, orbit = _stabilizer(5, 120, gens, [counted(k) for k in range(3)], start)
        assert calls == [len(orbit)] * 3
        assert chain.order() * len(orbit) == 120
        assert all(act(start, g) == start for g in stab)
        assert all(act(start, rep) == y for y, rep in orbit.items())


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


def test_commutator_subgroup_matches_oracle():
    for g in [S4, A4, Q8, C6]:
        elems = oracles.closure([x.imgs for x in g.generators], g.degree)
        expect = oracles.commutator_closure(elems, g.degree)
        got = commutator_subgroup(g)
        assert got.order() == len(expect)
        assert all(imgs in expect for imgs in got.elements_raw())


def test_centralizer():
    z = centralizer_in(S4, P("(1,2)", 4))
    assert z.order() == 4
    assert all(e * P("(1,2)", 4) == P("(1,2)", 4) * e for e in z.elements())
    # center of Q8
    zq = centralizer_in(Q8, Q8.generators[0])
    assert zq.order() == 4


def test_centralizer_rejects_wrong_degree():
    for bad in (P("(1,2)", 4), P("(1,2)", 6)):
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
    assert make(["(3,4)", "(1,2)"], 4).base() == (1, 3)


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


def test_degree_and_membership_inputs_are_checked():
    for bad in (lambda: Group([], -1), lambda: trivial_group(-3), lambda: Group([], 2.5),
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
    for H in all_subgroups(G).groups:
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
    with pytest.raises(BoundExceeded):
        coset_action(S5, trivial_group(5), max_points=10)


def test_homomorphism_multiplicative():
    image, hom = coset_action(S4, A4)
    rng = random.Random(3)
    elems = S4.elements()
    for _ in range(30):
        a, b = rng.choice(elems), rng.choice(elems)
        assert hom.apply(a * b) == hom.apply(a) * hom.apply(b)


def test_homomorphism_rejects_elements_outside_the_source():
    _, hom = coset_action(S5, make(["(1,2,3,4)", "(1,2)"], 5))
    for degree in (4, 6):
        with pytest.raises(ValueError):
            hom.apply(P("(1,2)", degree))
    _, hom = coset_action(A5, make(["(1,2,3)", "(1,2)(3,4)"], 5))
    with pytest.raises(ValueError):
        hom.apply(P("(1,2)", 5))


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
    w, _ = wreath_product(A5, c2)
    assert w.degree == 10
    assert w.order() == 3600 * 2


def test_wreath_c2_c2_is_d4():
    c2 = make(["(1,2)"], 2)
    w, _ = wreath_product(c2, c2)
    assert w.order() == 8
    assert not w.is_abelian()
    assert any(e.order() == 4 for e in w.elements())


def test_wreath_decomposer_roundtrip():
    c2 = make(["(1,2)"], 2)
    w, decompose = wreath_product(A5, c2)
    rng = random.Random(11)
    elems = None
    for _ in range(20):
        # random member as a word in the generators
        x = Permutation.identity(10)
        for _ in range(rng.randrange(1, 10)):
            x = x * rng.choice(w.generators)
        we = decompose(x)
        assert we.flat == x
        from genex.group import wreath_flat
        assert wreath_flat(we.base, we.top, 5) == x
        assert all(A5.contains(b) for b in we.base)


def test_wreath_decomposition_unique():
    c2 = make(["(1,2)"], 2)
    w, decompose = wreath_product(make(["(1,2,3)"], 3), c2)
    seen = {}
    for x in w.elements():
        we = decompose(x)
        key = (we.base, we.top.imgs)
        assert key not in seen
        seen[key] = x
    assert len(seen) == w.order() == 18


def test_wreath_degree_bound():
    with pytest.raises(BoundExceeded):
        wreath_product(A5, make(["(1,2)"], 2), max_degree=5)


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
        # members get the identity itself back, other residues are tuples
        residue = chain.sift(p)
        assert type(residue) is tuple and (residue is chain.ident) == (p in elems)
    for trans, itrans in zip(chain.trans, chain.itrans):
        assert trans.keys() == itrans.keys()
        for pt, rep in trans.items():
            assert _mul(rep, itrans[pt]) == chain.ident
            # each stored table decodes to the inverse of its tuple rep
            assert itrans[pt][n:] == chain.tail and tuple(itrans[pt][:n]) == _inv(rep)
    for strong, invs in zip(chain.gens, chain.ginvs):
        for g, ginv in zip(strong, invs):
            assert g[n:] == ginv[n:] == chain.tail
            assert tuple(ginv[:n]) == _inv(tuple(g[:n]))
    for i, (strong, trans) in enumerate(zip(chain.gens, chain.trans)):
        assert all(g[b] == b for g in strong for b in chain.base[:i])
        # level i's generators fix every point below its base point
        assert all(g[q] == q for g in strong for q in range(chain.base[i]))
        # every Schreier pair of the final orbit and generators was handled
        assert chain.sifted[i] == (len(trans), len(strong))
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
    # and A5 with fixed points changes neither the chain nor any answer
    rng = random.Random(11)
    probes = [tuple(rng.sample(range(5), 5)) for _ in range(40)]
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


def test_regular_action_above_the_byte_boundary():
    A6 = make(["(1,2,3)", "(2,3,4,5,6)"], 6)
    image, hom = coset_action(A6, trivial_group(6))
    assert image.degree == 360 and isinstance(image._chain.one, tuple)
    assert image.order() == 360
    assert hom.kernel().order() == 1


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
