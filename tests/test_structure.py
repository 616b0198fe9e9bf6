from collections import Counter
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from genex import structure
from genex.group import BoundExceeded, Group, coset_action, direct_product, wreath_product
from genex.perm import Permutation, parse_permutation
from genex.structure import (
    MaximalSubgroupReport,
    all_subgroups,
    classify_maximal,
    frattini,
    is_primitive,
    is_transitive,
    minimal_block,
    minimal_normal_subgroups,
    subgroup_classes_up_to,
)


def P(text, degree):
    return parse_permutation(text, degree)


def make(texts, degree):
    return Group([P(t, degree) for t in texts], degree)


S4 = make(["(1,2,3,4)", "(1,2)"], 4)
A4 = make(["(1,2,3)", "(1,2)(3,4)"], 4)
A5 = make(["(1,2,3,4,5)", "(3,4,5)"], 5)
S5 = make(["(1,2,3,4,5)", "(1,2)"], 5)
C6 = make(["(1,2,3,4,5,6)"], 6)
Q8 = make(["(1,3,2,4)(5,7,6,8)", "(1,5,2,6)(3,8,4,7)"], 8)
D4 = make(["(1,2,3,4)", "(1,3)"], 4)
S3 = make(["(1,2,3)", "(1,2)"], 3)


def test_minimal_normal_subgroups():
    assert [m.order() for m in minimal_normal_subgroups(A5)] == [60]
    assert [m.order() for m in minimal_normal_subgroups(S4)] == [4]
    assert sorted(m.order() for m in minimal_normal_subgroups(C6)) == [2, 3]
    with pytest.raises(ValueError):
        minimal_normal_subgroups(Group([], 3))


S3xS3 = direct_product(S3, S3)
A5xC2 = direct_product(A5, make(["(1,2)"], 2))
MINIMAL_NORMAL_CASES = {  # group, number of minimal normal subgroups
    "S3": (S3, 1), "S4": (S4, 1), "D8": (D4, 1), "Q8": (Q8, 1),
    "C2^3": (make(["(1,2)", "(3,4)", "(5,6)"], 6), 7), "C6": (C6, 2), "A4": (A4, 1),
    "S3xS3": (S3xS3, 2), "A5": (A5, 1), "S5": (S5, 1), "A5xC2": (A5xC2, 2),
}


@pytest.mark.parametrize("name", MINIMAL_NORMAL_CASES)
def test_minimal_normal_subgroups_match_oracle(name):
    g, count = MINIMAL_NORMAL_CASES[name]
    got = [frozenset(m.elements_raw()) for m in minimal_normal_subgroups(g)]
    want = oracles.minimal_normal_subgroups([x.imgs for x in g.generators], g.degree)
    # sorted by order, then by generators; the first generator of each is the
    # least prime-order element in it, whose class is the first to reach it
    want.sort(key=lambda m: (len(m), min(x for x in m if _is_prime(oracles.element_order(x)))))
    assert got == want
    assert len(got) == count


def _is_prime(n):
    return n > 1 and all(n % k for k in range(2, n))


def test_minimal_normal_subgroups_orbit_no_classes(monkeypatch):
    calls = []
    original = Group.conjugacy_classes_raw

    def counting(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Group, "conjugacy_classes_raw", counting)
    for g in [make(["(1,2,3,4,5)", "(1,2)"], 5), direct_product(A5, make(["(1,2)"], 2))]:
        assert minimal_normal_subgroups(g)
    assert calls == []


def test_minimal_normal_subgroups_kept_on_the_group():
    g = make(["(1,2,3,4)", "(1,2)"], 4)
    first = minimal_normal_subgroups(g)
    again = minimal_normal_subgroups(g)
    assert again is not first  # a fresh list each call
    assert [id(m) for m in again] == [id(m) for m in first]


def test_blocks_and_primitivity():
    assert is_primitive(S4)
    assert is_primitive(A5)
    assert is_transitive(D4)
    assert not is_primitive(D4)  # opposite corners form blocks
    c4 = make(["(1,2,3,4)"], 4)
    assert not is_primitive(c4)
    reps = minimal_block(4, [g.imgs for g in D4.generators], 0, 2)
    assert len(set(reps)) == 2


# -- lattice -----------------------------------------------------------------

def lattice_orders(G):
    lat = all_subgroups(G)
    return sorted(c.order for c in lat.classes)


def test_lattice_q8():
    lat = all_subgroups(Q8)
    assert sorted(c.order for c in lat.classes) == [1, 2, 4, 4, 4, 8]
    maximal = [c.order for c in lat.maximal_classes()]
    assert maximal == [4, 4, 4]


def test_lattice_c6():
    lat = all_subgroups(C6)
    assert sorted(c.order for c in lat.classes) == [1, 2, 3, 6]
    assert sorted(c.order for c in lat.maximal_classes()) == [2, 3]


def test_lattice_s4_maximal_orders():
    lat = all_subgroups(S4)
    assert sorted(c.order for c in lat.maximal_classes()) == [6, 8, 12]


def test_lattice_matches_join_closure_oracle():
    for g in [S4, A4, Q8, D4, C6, S3]:
        elems = oracles.closure([x.imgs for x in g.generators], g.degree)
        oracle_subs = oracles.all_subgroups(elems, g.degree)
        lat = all_subgroups(g)
        # class sizes sum to the subgroup count, per-order multiset matches
        assert sum(lat.class_sizes) == len(oracle_subs)
        by_order_lat = {}
        for c in lat.classes:
            by_order_lat[c.order] = by_order_lat.get(c.order, 0) + c.size
        by_order_oracle = {}
        for s in oracle_subs:
            by_order_oracle[len(s)] = by_order_oracle.get(len(s), 0) + 1
        assert by_order_lat == by_order_oracle


def test_lattice_a5_contains_perfect_layer():
    lat = all_subgroups(A5)
    assert max(c.order for c in lat.classes) == 60  # A5 itself, found as perfect
    # A5 has 59 subgroups in total
    assert sum(lat.class_sizes) == 59
    assert sorted(c.order for c in lat.maximal_classes()) == [6, 10, 12]


def test_lattice_class_count_s5():
    lat = all_subgroups(S5)
    assert sum(lat.class_sizes) == 156
    assert sorted(c.order for c in lat.maximal_classes()) == [12, 20, 24, 60]


@pytest.mark.parametrize("texts, classes, subgroups", [
    (["(1,2,3,4,5)", "(4,5,6)"], 22, 501),
    (["(1,2,3,4,5,6)", "(1,2)"], 56, 1455),
], ids=["A6", "S6"])
def test_lattice_a6_s6_counts_and_perfect_seeds(monkeypatch, texts, classes, subgroups):
    tested = []
    is_perfect = structure.is_perfect

    def counted(H):
        tested.append(frozenset(H.elements_raw()))
        return is_perfect(H)

    monkeypatch.setattr(structure, "is_perfect", counted)
    lat = all_subgroups(make(texts, 6))
    assert len(lat.classes) == classes
    assert sum(lat.class_sizes) == subgroups
    # each distinct candidate subgroup is tested for perfectness at most once
    assert len(tested) == len(set(tested))
    perfect = [c.order for c in lat.classes if c.order > 1 and is_perfect(c.rep)]
    assert perfect == [60, 60, 360]


def test_perfect_seeds_enumerate_only_the_derived_subgroup(monkeypatch):
    # candidates <a, b> are deduplicated by order and containment, so no
    # candidate's elements are listed, and class reps come from G' alone
    calls = []
    elements_raw = Group.elements_raw

    def counted(self):
        calls.append(self)
        return elements_raw(self)

    monkeypatch.setattr(Group, "elements_raw", counted)
    a6 = make(["(1,2,3,4,5)", "(4,5,6)"], 6)
    seeds = structure._perfect_seed_classes(a6, 360)
    assert [H.order() for H in seeds] == [60, 360, 60, 60, 60, 60]
    assert len(calls) == 1
    assert calls[0] is not a6 and calls[0].order() == 360  # the derived subgroup


def _conjugacy_closure(G, subgroups):
    """Every G-conjugate of the given element sets."""
    pairs = [(g.imgs, g.inverse().imgs) for g in G.generators]
    seen, queue = set(subgroups), list(subgroups)
    while queue:
        s = queue.pop()
        for g, ginv in pairs:
            t = frozenset(oracles.mul(oracles.mul(ginv, h), g) for h in s)
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return seen


@pytest.mark.parametrize("texts, degree, max_order", [
    (["(1,2,3,4,5)", "(3,4,5)"], 5, 60), (["(1,2,3,4,5)", "(1,2)"], 5, 120),
    (["(1,2,3,4,5)", "(4,5,6)"], 6, 360), (["(1,2,3,4,5,6)", "(1,2)"], 6, 720),
    (["(1,2,3,4,5,6,7)", "(1,2)"], 7, 360),
], ids=["A5", "S5", "A6", "S6", "S7"])
def test_perfect_seeds_cover_every_perfect_class(texts, degree, max_order):
    # the unrestricted loop: a over the class reps of G in G', b over every
    # C_G(a)-orbit of G', commuting pairs included
    G = make(texts, degree)
    derived = structure.commutator_subgroup(G)
    orbits = structure._conjugation_orbits
    pairs = [(g.imgs, g.inverse().imgs) for g in G.generators]
    want = set()
    for cls in orbits(derived.elements_raw(), pairs):
        a = Permutation(cls[0])
        cent = structure.centralizer_in(G, a)
        cpairs = [(g.imgs, g.inverse().imgs) for g in cent.generators]
        for orbit in orbits(derived.elements_raw(), cpairs):
            H = Group([a, Permutation(orbit[0])], degree)
            if 60 <= H.order() <= max_order and structure.is_perfect(H):
                want.add(frozenset(H.elements_raw()))
    got = {frozenset(H.elements_raw()) for H in structure._perfect_seed_classes(G, max_order)}
    assert _conjugacy_closure(G, got) == _conjugacy_closure(G, want)
    if max_order < G.order():
        lat = subgroup_classes_up_to(G, max_order)
        perfect = [c.order for c in lat.classes if c.order > 1 and structure.is_perfect(c.rep)]
        # A5 on 5 points, PSL(2,5) on 6 points, PSL(3,2) on 7 points, A6
        assert perfect == [60, 60, 168, 360]


# random subgroups of S4 and of S3 x S3 on 6 points, each given by 1-3 elements
_LATTICE_AMBIENTS = [
    (4, sorted(oracles.closure([P("(1,2,3,4)", 4).imgs, P("(1,2)", 4).imgs], 4))),
    (6, sorted(oracles.closure([x.imgs for x in S3xS3.generators], 6))),
]


@st.composite
def _lattice_cases(draw):
    degree, elems = draw(st.sampled_from(_LATTICE_AMBIENTS))
    gens = draw(st.lists(st.sampled_from(elems), min_size=1, max_size=3, unique=True))
    return Group([Permutation(g) for g in gens], degree)


@cache  # examples often draw the same subgroup
def _oracle_lattice(elems, degree):
    return oracles.all_subgroups(elems, degree), set(oracles.maximal_subgroups(elems, degree))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_lattice_cases())
def test_lattice_agrees_with_oracle(g):
    degree = g.degree
    elems = oracles.closure([x.imgs for x in g.generators], degree)
    conj = {x: oracles.inv(x) for x in elems}

    def conjugate(s, x):
        return frozenset(oracles.mul(oracles.mul(conj[x], h), x) for h in s)

    oracle_subs, maximal = _oracle_lattice(elems, degree)
    want_sizes = Counter((len(s), len({conjugate(s, x) for x in elems})) for s in oracle_subs)
    lat = all_subgroups(g)
    got_sizes = Counter()
    for c in lat.classes:
        got_sizes[(c.order, c.size)] += c.size
        members = frozenset(lat.elements[i] for i in c.ids)
        normalizer = {x for x in elems if conjugate(members, x) == members}
        assert set(c.normalizer.elements_raw()) == normalizer
        assert c.size == len(elems) // c.normalizer.order()
    assert got_sizes == want_sizes

    got_maximal = {frozenset(lat.elements[i] for i in s)
                   for c in lat.maximal_classes() for s in c.orbit}
    assert got_maximal == maximal
    want_frattini = frozenset(elems).intersection(*maximal)
    assert set(frattini(g).elements_raw()) == want_frattini


def test_bounded_enumeration_matches_full():
    lat = subgroup_classes_up_to(S4, 8)
    full = all_subgroups(S4)
    want = sorted((c.order, c.size) for c in full.classes if c.order <= 8)
    got = sorted((c.order, c.size) for c in lat.classes)
    assert got == want
    assert not lat.complete
    with pytest.raises(ValueError):
        lat.maximality_flags


def test_bounded_enumeration_rejects_a_bound_below_one():
    for bound in (0, -5):
        with pytest.raises(ValueError):
            subgroup_classes_up_to(S4, bound)
    assert [c.order for c in subgroup_classes_up_to(S4, 1).classes] == [1]


def test_lattice_deterministic():
    a = all_subgroups(S4)
    b = all_subgroups(make(["(1,2,3,4)", "(1,2)"], 4))
    assert [(c.order, c.size, c.key) for c in a.classes] == \
        [(c.order, c.size, c.key) for c in b.classes]


def test_lattice_cached_on_group(monkeypatch):
    calls = []
    enumerate_classes = structure._enumerate_classes

    def counted(*args, **kwargs):
        calls.append(args[0])
        return enumerate_classes(*args, **kwargs)

    monkeypatch.setattr(structure, "_enumerate_classes", counted)
    g = make(["(1,2,3,4)", "(1,2)"], 4)
    lat = all_subgroups(g)
    assert all_subgroups(g) is lat
    assert frattini(g).order() == 1
    assert calls == [g]
    # the bound is checked before the cache is consulted
    with pytest.raises(BoundExceeded):
        all_subgroups(g, lattice_bound=23)
    # subgroup_classes_up_to is not cached
    subgroup_classes_up_to(g, 8)
    assert len(calls) == 2


# -- frattini -----------------------------------------------------------------

def test_frattini_values():
    assert frattini(S4).order() == 1
    assert frattini(Q8).order() == 2
    c4 = make(["(1,2,3,4)"], 4)
    assert frattini(c4).order() == 2


def test_frattini_equals_non_generators():
    for g in [S4, Q8, D4, C6, A4, S3]:
        elems = oracles.closure([x.imgs for x in g.generators], g.degree)
        oracle = set(oracles.non_generators(elems, g.degree))
        frat = frattini(g)
        assert set(frat.elements_raw()) == oracle


def test_frattini_is_the_lattice_class_rep():
    # Phi(G) is normal, so its lattice class has one member and no new
    # chain is built for it
    for g in [S4, Q8, C6]:
        assert any(frattini(g) is cls.rep for cls in all_subgroups(g).classes)


# -- classification -----------------------------------------------------------

A5xA5 = direct_product(A5, A5)
A5xA5_DIAGONAL = make(["(1,2,3,4,5)(6,7,8,9,10)", "(3,4,5)(8,9,10)"], 10)
A5wrC2, _ = wreath_product(A5, make(["(1,2)"], 2))
A5wrC2_DIAGONAL = Group(list(A5xA5_DIAGONAL.generators) + [P("(1,6)(2,7)(3,8)(4,9)(5,10)", 10)],
                        10)  # the diagonal A5.2


def test_classify_s4_s3_type1():
    s3 = make(["(2,3,4)", "(2,3)"], 4)
    rep = classify_maximal(S4, s3)
    assert rep.primitive_type == 1
    assert rep.core.order() == 1
    assert rep.intersection_shape == "not-applicable"


def test_classify_s5_s4_type2_coordinate():
    s4 = make(["(2,3,4,5)", "(2,3)"], 5)
    rep = classify_maximal(S5, s4)
    assert rep.primitive_type == 2
    assert rep.intersection_shape == "coordinate"
    assert rep.core.order() == 1
    assert rep.quotient_order == 120


def test_classify_diagonal_type3():
    assert A5xA5_DIAGONAL.order() == 60
    rep = classify_maximal(A5xA5, A5xA5_DIAGONAL)
    assert rep.primitive_type == 3
    assert rep.core.order() == 1


def test_classify_wreath_diagonal_type2():
    # A5 wr C2 acting on the cosets of the diagonal A5.2: socle A5 x A5, and the
    # point stabilizer meets it in a diagonal subgroup
    assert A5wrC2_DIAGONAL.order() == 120
    rep = classify_maximal(A5wrC2, A5wrC2_DIAGONAL)
    assert rep.primitive_type == 2
    assert rep.intersection_shape == "diagonal"
    assert rep.core.order() == 1
    assert rep.quotient_order == 7200


def test_classify_rejects_non_maximal():
    v4 = make(["(1,2)(3,4)", "(1,3)(2,4)"], 4)
    with pytest.raises(ValueError):
        classify_maximal(S4, v4)


def test_classify_maximal_certifies_maximality():
    v4 = make(["(1,2)(3,4)", "(1,3)(2,4)"], 4)
    assert isinstance(classify_maximal(A4, v4), MaximalSubgroupReport)
    assert isinstance(classify_maximal(S4, A4), MaximalSubgroupReport)
    for M in [make(["(1,2)"], 4), v4, S4]:  # C2 and V4 lie in A4 < S4
        with pytest.raises(ValueError, match="not maximal"):
            classify_maximal(S4, M)


def test_classify_rejects_the_whole_group_before_acting(monkeypatch):
    calls = []
    monkeypatch.setattr(structure, "coset_action", lambda *args: calls.append(args))
    for g in [S4, A5, S5]:
        with pytest.raises(ValueError, match="not maximal"):
            classify_maximal(g, g)
    assert calls == []


def _image_reference(image, hom, M):
    """The report fields read off the coset image itself: its minimal normal
    subgroups give the type, element sets give the shape, and the core is
    the part of M acting trivially."""
    mins = minimal_normal_subgroups(image)
    nonab = [m for m in mins if not m.is_abelian()]
    ptype = 1 if len(nonab) < len(mins) else 3 if len(nonab) == 2 else 2
    shape = "not-applicable"
    if ptype == 2:
        shape = oracles.socle_intersection_shape(
            [hom.apply(g).imgs for g in M.generators],
            [[g.imgs for g in f.generators] for f in minimal_normal_subgroups(nonab[0])],
            image.degree)
    ident = tuple(range(image.degree))
    core = sorted(g for g in M.elements_raw() if hom._apply(g) == ident)
    return ptype, shape, image.order(), core


S7 = make(["(1,2,3,4,5,6,7)", "(1,2)"], 7)
SHAPE_CASES = {  # group, and its maximal subgroups or the number of its maximal classes
    "S4": (S4, 3), "A5": (A5, 3), "S5": (S5, 4),
    "A6": (make(["(1,2,3,4,5)", "(4,5,6)"], 6), 5),
    "S6": (make(["(1,2,3,4,5,6)", "(1,2)"], 6), 6),
    "A5xA5": (A5xA5, [direct_product(A5, make(["(1,2,3)", "(1,2)(3,4)"], 5)), A5xA5_DIAGONAL]),
    "S7": (S7, [make(texts, 7) for texts in [
        ["(1,2,3,4,5,6,7)", "(2,4,3,7,5,6)"],  # AGL(1,7)
        ["(1,2,3,4,5,6)", "(1,2)"], ["(1,2,3,4,5)", "(1,2)", "(6,7)"],
        ["(1,2,3,4)", "(1,2)", "(5,6,7)", "(5,6)"]]]),
    "A5wrC2": (A5wrC2, [A5wrC2_DIAGONAL]),
}


@pytest.mark.parametrize("name", SHAPE_CASES)
def test_classify_shape_matches_element_set_reference(monkeypatch, name):
    # minimal normal subgroups carried over a faithful action must give the
    # report that scanning the image gives
    actions = []  # the reference reuses classify_maximal's coset action
    monkeypatch.setattr(structure, "coset_action",
                        lambda *args: actions.append(coset_action(*args)) or actions[-1])
    G, maximal = SHAPE_CASES[name]
    if isinstance(maximal, int):
        count, maximal = maximal, [c.rep for c in all_subgroups(G).maximal_classes()]
        assert len(maximal) == count
    for M in maximal:
        rep = classify_maximal(G, M)
        got = (rep.primitive_type, rep.intersection_shape, rep.quotient_order,
               sorted(rep.core.elements_raw()))
        assert got == _image_reference(*actions[-1], M)


def test_faithful_classify_reads_minimal_normals_on_the_group(monkeypatch):
    images, scanned = [], []

    def action(*args):
        images.append(coset_action(*args))
        return images[-1]

    original = structure.minimal_normal_subgroups
    monkeypatch.setattr(structure, "coset_action", action)
    monkeypatch.setattr(structure, "minimal_normal_subgroups",
                        lambda g: scanned.append(g) or original(g))
    for G, M in [(S4, make(["(2,3,4)", "(2,3)"], 4)), (S5, make(["(2,3,4,5)", "(2,3)"], 5)),
                 (A5xA5, A5xA5_DIAGONAL), (A5wrC2, A5wrC2_DIAGONAL)]:
        assert classify_maximal(G, M).core.order() == 1
    assert scanned and not any(g is image for g in scanned for image, _ in images)
    # a nontrivial core still reads the image: S4 over D8 acts as S3
    classify_maximal(S4, make(["(1,2,3,4)", "(1,3)"], 4))
    assert scanned[-1] is images[-1][0]


def test_classify_type2_with_core():
    # D4 < S4: core is V4? no -- D4 has core V4, quotient S4/V4 = S3 acts on 3 pts
    d4 = make(["(1,2,3,4)", "(1,3)"], 4)
    rep = classify_maximal(S4, d4)
    assert rep.core.order() == 4
    assert rep.quotient_order == 6
    assert rep.primitive_type == 1
