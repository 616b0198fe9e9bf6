import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from genex.group import (
    BoundExceeded,
    Group,
    centralizer_in,
    commutator_subgroup,
    coset_action,
    direct_product,
    normal_closure,
    quotient,
    trivial_group,
    wreath_product,
)
from genex.gensets import min_generators
from genex.perm import Permutation, _mul, parse_permutation
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


def test_enumeration_above_the_element_bound_raises():
    S9 = make(["(1,2,3,4,5,6,7,8,9)", "(1,2)"], 9)  # 362880 > DEFAULT_ELEMENT_BOUND
    assert S9.order() == 362880
    for query in (S9.elements_raw, S9.conjugacy_classes_raw, lambda: min_generators(S9)):
        with pytest.raises(BoundExceeded):
            query()


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
    assert C6.is_cyclic()
    assert C6.is_abelian()
    assert not S4.is_cyclic()
    assert not Q8.is_abelian()


def test_normal_closure():
    # normal closure of a transposition in S4 is S4; of a 3-cycle is A4
    assert normal_closure(S4, [P("(1,2)", 4)]).order() == 24
    assert normal_closure(S4, [P("(1,2,3)", 4)]).order() == 12
    assert normal_closure(S4, [P("(1,2)(3,4)", 4)]).order() == 4


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


def test_base_is_deterministic():
    g1 = make(["(1,2,3,4)", "(1,2)"], 4)
    g2 = make(["(1,2,3,4)", "(1,2)"], 4)
    assert g1.base() == g2.base()
    assert g1.elements_raw() == g2.elements_raw()


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
    _, hom = quotient(S4, v4)
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


def test_coset_action_requires_subgroup():
    with pytest.raises(ValueError):
        coset_action(A4, make(["(1,2)"], 4))


def test_coset_action_bound():
    with pytest.raises(BoundExceeded):
        coset_action(S5, trivial_group(5), max_points=10)


def test_quotient_requires_normal():
    s3 = make(["(2,3,4)", "(2,3)"], 4)
    with pytest.raises(ValueError):
        quotient(S4, s3)


def test_homomorphism_multiplicative():
    image, hom = coset_action(S4, A4)
    rng = random.Random(3)
    elems = S4.elements()
    for _ in range(30):
        a, b = rng.choice(elems), rng.choice(elems)
        assert hom.apply(a * b) == hom.apply(a) * hom.apply(b)


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
def _generating_sets(draw):
    n = draw(st.integers(1, 6))
    perm = st.permutations(range(n)).map(tuple)
    return n, draw(st.lists(perm, max_size=3)), draw(st.lists(perm, min_size=1, max_size=8))


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
    for trans, itrans in zip(chain.trans, chain.itrans):
        assert trans.keys() == itrans.keys()
        for pt, rep in trans.items():
            assert _mul(rep, itrans[pt]) == chain.ident
    for i, (strong, trans) in enumerate(zip(chain.gens, chain.trans)):
        assert all(g[b] == b for g in strong for b in chain.base[:i])
        # every Schreier pair of the final orbit and generators was handled
        assert chain.sifted[i] == (len(trans), len(strong))
    # the order does not depend on the order or redundancy of the generators
    redundant = [_mul(a, b) for a, b in zip(gens, gens[1:])]
    shuffled = Group([Permutation(g) for g in gens[::-1] + redundant], n)
    assert shuffled.order() == G.order()


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
