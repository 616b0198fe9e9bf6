from collections import Counter
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from genex import structure
from genex.gensets import min_generators
from genex.group import (
    Group,
    Homomorphism,
    _conjugations,
    _orbits,
    coset_action,
    direct_product,
    is_transitive,
    wreath_product,
)
from genex.perm import Permutation, parse_permutation, trace
from genex.structure import (
    MaximalSubgroupReport,
    all_subgroups,
    classify_maximal,
    frattini,
    is_primitive,
    minimal_normal_subgroups,
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


def test_minimal_normal_subgroups_orbit_no_classes():
    for g in [make(["(1,2,3,4,5)", "(1,2)"], 5), direct_product(A5, make(["(1,2)"], 2))]:
        with trace() as t:
            assert minimal_normal_subgroups(g)
        assert t.class_tables == 0


@pytest.mark.parametrize("name", MINIMAL_NORMAL_CASES)
def test_minimal_normal_subgroups_read_off_the_lattice(name):
    # a cross-method check: on a group whose lattice is built, the scan finds
    # the lattice's inclusion-minimal nontrivial classes of size 1 (a normal
    # subgroup is its own class)
    g = MINIMAL_NORMAL_CASES[name][0]
    G = Group(g.generators, g.degree)
    lat = all_subgroups(G)
    normal = [c.ids for c in lat.classes if c.size == 1 and c.order > 1]
    read = {frozenset(lat.elements[i] for i in n) for n in normal if not any(m < n for m in normal)}
    got = [frozenset(m.elements_raw()) for m in minimal_normal_subgroups(G)]
    assert len(got) == len(read)
    assert set(got) == read


C2 = make(["(1,2)"], 2)
A6 = make(["(1,2,3,4,5)", "(4,5,6)"], 6)
S6 = make(["(1,2,3,4,5,6)", "(1,2)"], 6)
# PSL(2, 5) ~ A5 and PGL(2, 5) ~ S5 on the projective line over F_5: x -> x + 1,
# -1/x and 2x, with point 6 for infinity; PSL(2, 5) is no Alt of its points,
# so the socle certificate scans it
PSL25 = make(["(1,2,3,4,5)", "(1,6)(2,5)"], 6)
PGL25 = make(["(1,2,3,4,5)", "(1,6)(2,5)", "(2,3,5,4)"], 6)
# PGL(2, 7) on the projective line: x -> x + 1, -1/x and 3x, with normal
# PSL(2, 7); and A6 on the 10 cosets of its meet with S3 wr C2, where it is
# no Alt of its points
PGL27 = make(["(1,2,3,4,5,6,7)", "(1,8)(2,7)(3,4)(5,6)", "(2,4,3,7,5,6)"], 8)
A6_ON_10 = coset_action(A6, make(["(1,2,3)", "(1,2)(4,5)", "(1,4,2,5)(3,6)"], 6))[0]
INSIDE_CASES = dict(
    {name: g for name, (g, _) in MINIMAL_NORMAL_CASES.items()},
    **{"S4xC2": direct_product(S4, C2), "A4xC3": direct_product(A4, make(["(1,2,3)"], 3)),
       "S3wrC2": wreath_product(S3, C2), "C3wrC2": wreath_product(make(["(1,2,3)"], 3), C2),
       "PSL(2,5)": PSL25, "PGL(2,5)": PGL25, "A6on10": A6_ON_10, "PGL(2,7)": PGL27})


@pytest.mark.parametrize("name", INSIDE_CASES)
def test_minimal_normals_inside_every_normal_subgroup_match_oracle(name):
    # the result is G's minimal normal subgroups that lie in K, and a K that
    # is one of them comes back as the given group
    G = Group(INSIDE_CASES[name].generators, INSIDE_CASES[name].degree)
    oracle = oracles.minimal_normal_subgroups([x.imgs for x in G.generators], G.degree)
    normal = [c.rep for c in all_subgroups(G).classes if c.size == 1 and c.order > 1]
    for K in normal:
        inside = set(K.elements_raw())
        found = structure.minimal_normals_inside(G, K)
        got = [frozenset(m.elements_raw()) for m in found]
        assert len(got) == len(set(got))
        assert set(got) == {m for m in oracle if m <= inside}
        if inside in oracle:
            assert found == [K] and found[0] is K


@pytest.mark.parametrize("G, found", [(S4, 4), (S5, 60)], ids=["S4", "S5"])
def test_class_sizes_leave_a_proper_normal_order_to_the_scan(record, G, found):
    # K = G is not minimal, and its closures find S4's V4 and S5's A5
    calls = record(structure, "normal_closure")
    K = Group(G.generators, G.degree)
    assert [m.order() for m in structure.minimal_normals_inside(K, K)] == [found]
    assert calls


def test_scan_orders_one_element_per_class(record):
    # conjugation keeps orders, so the scan orders each non-identity G-class
    # of K by its least member alone: 19 classes of a fresh A5 wr C2 (7199
    # elements), and 4 of A5 in the socle certificate of S5 over A5 (59), as
    # PGL(2, 5) over PSL(2, 5)
    calls = record(structure, "_order")
    W = wreath_product(A5, C2)
    G = Group(W.generators, W.degree)
    assert [m.order() for m in minimal_normal_subgroups(G)] == [3600]
    assert [p for (p,), _ in calls] == [cls[0] for cls in G.conjugacy_classes_raw()[1:]]
    assert len(calls) == 19
    calls.clear()
    structure.check_monolithic_nonabelian(Group(PGL25.generators, 6), Group(PSL25.generators, 6))
    assert [p for (p,), _ in calls] == [cls[0] for cls in PSL25.conjugacy_classes_raw()[1:]]
    assert len(calls) == 4


def test_minimal_normal_subgroups_kept_on_the_group():
    g = make(["(1,2,3,4)", "(1,2)"], 4)
    first = minimal_normal_subgroups(g)
    again = minimal_normal_subgroups(g)
    assert again is not first  # a fresh list each call
    assert [id(m) for m in again] == [id(m) for m in first]


def _point_stabilizer_is_maximal(H):
    """Primitivity of a transitive H by definition: H_0, the stabilizer of
    point 0, is maximal in H.  Small H ask the brute-force lattice; a larger
    H checks <H_0, x> = H for one x per coset H_0 x != H_0, the cosets being
    the sets of elements with one image of point 0."""
    elems, n = H.elements_raw(), H.degree
    stab = frozenset(x for x in elems if x[0] == 0)
    if len(elems) <= 24:
        return stab in oracles.maximal_subgroups(elems, n)
    gens, span = [], frozenset([tuple(range(n))])
    for x in sorted(stab):
        if x not in span:
            gens.append(x)
            span = oracles.closure(gens, n)
    return all(len(oracles.closure(gens + [min(x for x in elems if x[0] == b)], n)) == len(elems)
               for b in range(1, n))


def _transitive_reps(G):
    return [c.rep for c in all_subgroups(G).classes if is_transitive(c.rep)]


@pytest.mark.parametrize("groups, transitive, primitive", [
    (lambda: _transitive_reps(S4) + [D4, make(["(1,2,3,4)"], 4)], 7, 2),
    (lambda: _transitive_reps(S5), 5, 5),  # prime degree
    (lambda: _transitive_reps(make(["(1,2,3,4,5,6)", "(1,2)"], 6)), 16, 4),
], ids=["S4-D4-C4", "S5", "S6"])
def test_is_primitive_matches_the_definition(groups, transitive, primitive):
    # one beta per orbit of the point stabilizer gives the answer of the
    # definition; S6's primitive classes are PSL(2,5), PGL(2,5), A6 and S6
    answers = [is_primitive(H) for H in groups()]
    assert answers == [_point_stabilizer_is_maximal(H) for H in groups()]
    assert (len(answers), sum(answers)) == (transitive, primitive)


def test_blocks_and_primitivity():
    assert is_primitive(S4)
    assert is_primitive(A5)
    assert is_transitive(D4)
    assert not is_primitive(D4)  # opposite corners form blocks
    c4 = make(["(1,2,3,4)"], 4)
    assert not is_primitive(c4)
    assert not is_transitive(make(["(1,2)"], 3))
    assert not is_primitive(make(["(1,2)"], 3))  # intransitive
    assert is_primitive(Group([], 1))  # one point: transitive, no blocks


@pytest.mark.parametrize("G, images, primitive, large", [
    (S5, 18, 4, 0),
    (make(["(1,2,3,4,5,6)", "(1,2)"], 6), 55, 6, 4),
    (make(["(1,2,3,4,5)", "(4,5,6)"], 6), 21, 5, 1),
], ids=["S5", "S6", "A6"])
def test_is_primitive_on_coset_actions_matches_lattice_maximality(G, images, primitive, large):
    # G acts primitively on the cosets of a proper subgroup exactly when it
    # is maximal, which the lattice decides by id-set containment alone;
    # images above 256 points run on chains of tuples, not byte tables
    lat = all_subgroups(G)
    maximal = set(lat.maximal_subgroups_of(-1))
    answers, degrees = [], []
    for c in lat.classes:
        if c.order < G.order():
            image = coset_action(G, c.rep)[0]
            answers.append(is_primitive(image))
            degrees.append(image.degree)
            assert answers[-1] == (c.ids in maximal)
    assert (len(answers), sum(answers), sum(n > 256 for n in degrees)) == (images, primitive, large)


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
        assert sum(c.size for c in lat.classes) == len(oracle_subs)
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
    assert sum(c.size for c in lat.classes) == 59
    assert sorted(c.order for c in lat.maximal_classes()) == [6, 10, 12]


def test_lattice_class_count_s5():
    lat = all_subgroups(S5)
    assert sum(c.size for c in lat.classes) == 156
    assert sorted(c.order for c in lat.maximal_classes()) == [12, 20, 24, 60]


@pytest.mark.parametrize("texts, degree", [
    (["(1,2,3,4)", "(1,2)"], 4), (["(1,2,3,4,5)", "(1,2)"], 5), (["(1,2,3,4,5,6)", "(1,2)"], 6),
], ids=["S4", "S5", "S6"])
def test_maximal_subgroups_of_every_class(texts, degree):
    # the walk on the parent's id sets against the class representative's
    # own lattice and, up to order 24, the brute-force oracle
    lat = all_subgroups(make(texts, degree))
    for i, cls in enumerate(lat.classes):
        got = {frozenset(lat.elements[k] for k in s) for s in lat.maximal_subgroups_of(i)}
        own = all_subgroups(cls.rep)
        assert got == {frozenset(own.elements[k] for k in s)
                       for c in own.maximal_classes() for s in c.orbit}
        if cls.order <= 24:
            assert got == set(oracles.maximal_subgroups(sorted(cls.rep.elements_raw()), degree))


A5xA5_TEXTS = ["(1,2,3,4,5)", "(3,4,5)", "(6,7,8,9,10)", "(8,9,10)"]


@pytest.mark.parametrize("texts, degree, counts, maximal_orders", [
    # S7 is normal in itself, so the walk tests class representatives only:
    # 96 classes (OEIS A000638), 11300 subgroups (OEIS A005432), and the
    # maximal classes 7:6, S4 x S3, S5 x 2, S6 and A7 (ATLAS)
    (["(1,2,3,4,5,6,7)", "(1,2)"], 7, (96, 11300), [42, 144, 240, 720, 2520]),
    # 296 classes (OEIS A000638) and 151221 subgroups (OEIS A005432), at the
    # default bound; the maximal classes are PGL(2,7), S2 wr S4, S5 x S3,
    # S4 wr S2, S6 x S2, S7 and A8 (ATLAS)
    (["(1,2,3,4,5,6,7,8)", "(1,2)"], 8, (296, 151221), [336, 384, 720, 1152, 1440, 5040, 20160]),
    # the class and subgroup counts of A5 x A5 and A5 wr C2 are regression
    # pins read off this engine, where the paper's exchange and D_M checks
    # run.  The maximal orders follow from Goursat: A4, D10 and S3 times A5
    # on either side, and two diagonal classes (|Out A5| = 2); in the
    # wreath product, A5 x A5, H wr C2 for H in {A4, D10, S3}, and two
    # diagonal classes of order 120
    (A5xA5_TEXTS, 10, (113, 8381), [60, 60, 360, 360, 600, 600, 720, 720]),
    (A5xA5_TEXTS + ["(1,6)(2,7)(3,8)(4,9)(5,10)"], 10, (103, 15144), [72, 120, 120, 200, 288, 3600]),
], ids=["S7", "S8", "A5xA5", "A5wrC2"])
def test_lattice_counts_and_maximal_classes(texts, degree, counts, maximal_orders):
    G = make(texts, degree)
    lat = all_subgroups(G)
    assert (len(lat.classes), sum(c.size for c in lat.classes)) == counts
    assert sorted(c.order for c in lat.maximal_classes()) == maximal_orders
    assert frattini(G).order() == 1


def eulerian(lat, k):
    """Hall's Eulerian function phi_k(G) = sum of mu(H) |H|^k over the
    subgroups H of G, the number of generating k-tuples of G (Hall, "The
    Eulerian functions of a group", 1936), read off G's lattice: mu(G) = 1
    and mu(H) = -(sum of mu(K) over the subgroups K > H), walking the
    classes by descending order.  mu is constant on a class, and the K of
    a class above H are counted among its conjugates (``orbit``)."""
    conjugates = [[frozenset(s) for s in c.orbit] for c in lat.classes]
    mu = {len(lat.classes) - 1: 1}
    for i in range(len(lat.classes) - 2, -1, -1):
        h = lat.classes[i]
        mu[i] = -sum(m * sum(h.ids <= s for s in conjugates[j]) for j, m in mu.items()
                     if m and lat.classes[j].order > h.order)
    return sum(mu[i] * c.size * c.order ** k for i, c in enumerate(lat.classes))


@pytest.mark.parametrize("texts, degree, phi2", [
    (["(1,2,3,4)", "(1,2)"], 4, 216),  # 576 * 3/8
    (["(1,2,3,4,5)", "(3,4,5)"], 5, 2280),  # 3600 * 19/30
    (["(1,2,3,4,5)", "(1,2)"], 5, 6840),
    (["(1,2,3,4,5)", "(4,5,6)"], 6, 76320),
    (["(1,2,3,4,5,6)", "(1,2)"], 6, 228960),
    (["(1,2,3,4,5,6,7)", "(1,2)"], 7, 15573600),
], ids=["S4", "A5", "S5", "A6", "S6", "S7"])
def test_eulerian_phi2_counts_generating_pairs(texts, degree, phi2):
    assert eulerian(all_subgroups(make(texts, degree)), 2) == phi2


@pytest.mark.parametrize("texts, degree", [
    (["(1,2,3,4,5)", "(1,2)"], 5), (["(1,2,3,4,5)", "(4,5,6)"], 6), (["(1,2,3,4,5,6)", "(1,2)"], 6),
], ids=["S5", "A6", "S6"])
def test_eulerian_least_k_is_d_on_every_class(texts, degree):
    # d(H) is the least k with a generating k-tuple, that is with phi_k(H) > 0;
    # the Moebius sum and the generating-tuple search share no code
    for c in all_subgroups(make(texts, degree)).classes:
        own = all_subgroups(c.rep)
        assert next(k for k in range(4) if eulerian(own, k) > 0) == min_generators(c.rep).d


@pytest.mark.parametrize("texts, classes, subgroups", [
    (["(1,2,3,4,5)", "(4,5,6)"], 22, 501),
    (["(1,2,3,4,5,6)", "(1,2)"], 56, 1455),
], ids=["A6", "S6"])
def test_lattice_a6_s6_counts_and_perfect_seeds(record, texts, classes, subgroups):
    calls = record(structure, "is_perfect")
    lat = all_subgroups(make(texts, 6))
    assert len(lat.classes) == classes
    assert sum(c.size for c in lat.classes) == subgroups
    # each distinct candidate subgroup is tested for perfectness at most once
    tested = [frozenset(H.elements_raw()) for (H,), _ in calls]
    assert len(tested) == len(set(tested))
    perfect = [c.order for c in lat.classes if c.order > 1 and structure.is_perfect(c.rep)]
    assert perfect == [60, 60, 360]


def test_perfect_seeds_enumerate_only_the_derived_subgroup(record):
    # candidates <a, b> are deduplicated by order and containment, so no
    # candidate's elements are listed, and the classes of G' are read off
    # G's classes, so no subgroup of G is enumerated at all
    calls = record(Group, "elements_raw")
    a6 = make(["(1,2,3,4,5)", "(4,5,6)"], 6)
    seeds = structure._perfect_seed_classes(a6)
    assert [H.order() for H in seeds] == [360, 60, 60, 60]
    assert calls and all(g is a6 for (g,), _ in calls)


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


# PSL(2,8) on the 9 points of the projective line over F_8 = F_2[x]/(x^3 + x + 1),
# by z -> z + 1, z -> xz and z -> 1/z; point 9 is infinity
PSL28_TEXTS = ["(1,2)(3,4)(5,6)(7,8)", "(2,3,5,4,7,8,6)", "(1,9)(3,6)(4,7)(5,8)"]


@pytest.mark.parametrize("texts, degree, lattice", [
    (["(1,2,3,4,5)", "(3,4,5)"], 5, None), (["(1,2,3,4,5)", "(1,2)"], 5, None),
    (["(1,2,3,4,5)", "(4,5,6)"], 6, None), (["(1,2,3,4,5,6)", "(1,2)"], 6, None),
    # S7: 96 classes (OEIS A000638), 11300 subgroups (OEIS A005432), and the
    # perfect ones A5 on 5 points, PSL(2,5) on 6 points, PSL(3,2) on 7 points, A6, A7
    (["(1,2,3,4,5,6,7)", "(1,2)"], 7, (96, 11300, [60, 60, 168, 360, 2520])),
    # |D| = 504 < 600 and no element has order 5, so D is the only seed
    (PSL28_TEXTS, 9, (12, 386, [504])),
    (["(1,2,3,4,5)", "(4,5,6)", "(7,8)"], 8, (58, 1523, [60, 60, 360])),
], ids=["A5", "S5", "A6", "S6", "S7", "PSL(2,8)", "A6xC2"])
def test_perfect_seeds_cover_every_perfect_class(texts, degree, lattice):
    # the unrestricted loop: a over the class reps of G in G', b over every
    # C_G(a)-orbit of G', commuting pairs included
    G = make(texts, degree)
    derived = structure.commutator_subgroup(G)
    is_perfect = cache(structure.is_perfect)  # tests G' once, however many pairs reach it
    want = set()
    for cls in _orbits(derived.elements_raw(), _conjugations(g.imgs for g in G.generators)):
        a = Permutation(cls[0])
        cent = structure.centralizer_in(G, a)
        cmaps = _conjugations(g.imgs for g in cent.generators)
        for orbit in _orbits(derived.elements_raw(), cmaps):
            H = Group([a, Permutation(orbit[0])], degree)
            if H.order() == derived.order():
                H = derived  # H lies in G', so it is G'
            if H.order() >= 60 and is_perfect(H):
                want.add(frozenset(H.elements_raw()))
    got = {frozenset(H.elements_raw()) for H in structure._perfect_seed_classes(G)}
    assert _conjugacy_closure(G, got) == _conjugacy_closure(G, want)
    if lattice is not None:
        lat = all_subgroups(G)
        perfect = [c.order for c in lat.classes if c.order > 1 and structure.is_perfect(c.rep)]
        assert (len(lat.classes), sum(c.size for c in lat.classes), perfect) == lattice


def _is_solvable(H):
    while H.order() > 1:
        D = structure.commutator_subgroup(H)
        if D.order() == H.order():
            return False
        H = D
    return True


@pytest.mark.parametrize("texts, degree, counts", [
    (["(1,2,3,4,5)", "(4,5,6)"], 6, (32, 122, 12, 32)),
    (["(1,2,3,4,5,6)", "(1,2)"], 6, (26, 66, 6, 18)),
    (["(1,2,3,4,5,6,7)", "(1,2)"], 7, (42, 547, 6, 154)),
], ids=["A6", "S6", "S7"])
def test_perfect_seed_cuts_are_sound(texts, degree, counts):
    # every noncommuting pair of the seed loop, closed in full: a pair the von
    # Dyck test skips generates a solvable group, a pair whose group passes
    # the cap generates D, and a (2, 3, 5) pair generates an A5.  Below the
    # cap of 120 (A6, S6) the seed loop skips every other pair: each
    # generates D, a group that is not perfect, or an A5, which also has
    # (2, 3, 5) generating pairs (``test_perfect_seeds_cover_every_perfect_class``
    # checks that the seeds reach it)
    G = make(texts, degree)
    D = structure._perfect_residuum(G)
    cap = D.order() // 5
    classes = _orbits(D.elements_raw(), _conjugations(g.imgs for g in G.generators))
    seen = Counter()
    for i in range(1, len(classes)):
        a = Permutation(classes[i][0])
        cent = structure.centralizer_in(G, a)
        cmaps = _conjugations(g.imgs for g in cent.generators)
        for orbit in _orbits([x for cls in classes[i:] for x in cls], cmaps):
            b = Permutation(orbit[0])
            if a * b == b * a:
                continue
            H = Group([a, b], degree)
            if structure._von_dyck_solvable(a.order(), b.order(), (a * b).order()):
                assert _is_solvable(H)
                seen["skipped"] += 1
            elif H.order() > cap:
                assert H.order() == D.order()
                seen["stopped"] += 1
            elif sorted((a.order(), b.order(), (a * b).order())) == [2, 3, 5]:
                assert H.order() == 60 and structure.is_perfect(H)
                seen["a5"] += 1
            else:
                assert H.order() <= cap
                if structure.is_perfect(H):
                    assert cap >= 120 or H.order() == 60
                    seen["other perfect"] += 1
    assert tuple(seen[k] for k in ("skipped", "stopped", "a5", "other perfect")) == counts


@pytest.mark.parametrize("text", ["()", "(1,2)", "(1,2,3,4)", "(1,2,3,4,5,6)",
                                  "(1,2,3)(4,5,6,7,8)", "(1,2,3,4)(5,6,7,8,9,10)"])
def test_generators_of_cyclic_are_its_elements_of_full_order(text):
    # the power cuts rest on these generating <x>, and on nothing else doing so
    x = P(text, 10)
    cyclic = [x ** k for k in range(x.order())]
    want = sorted(y.imgs for y in cyclic if y.order() == x.order())
    got = list(structure._generators_of_cyclic(x.imgs, x.order()))
    assert sorted(got) == want and len(set(got)) == len(got)


@pytest.mark.parametrize("texts, degree, built_count, a5_count, skipped", [
    (["(1,2,3,4,5)", "(4,5,6)"], 6, 0, 3, 176), (["(1,2,3,4,5,6)", "(1,2)"], 6, 0, 2, 97),
    (["(1,2,3,4,5,6,7)", "(1,2)"], 7, 288, 1, 479),
], ids=["A6", "S6", "S7"])
def test_power_cuts_skip_only_conjugates_of_closed_pairs(monkeypatch, texts, degree,
                                                          built_count, a5_count, skipped):
    # every pair that the seed loop without the power cuts would close, but
    # the seed search skips, generates D or a G-conjugate of a subgroup
    # generated by a pair the seed search closes; below the cap of 120
    # (A6, S6) it may also generate a group that is not perfect.  A (2, 3, 5)
    # pair is closed with no perfectness test, and its closure has order 60
    G = make(texts, degree)
    D = structure._perfect_residuum(G)
    built, a5 = [], []
    closure = structure.subgroup_closure

    def recorded(degree, pair):
        # told apart by the orders of a, b and ab, as the seed search does
        H = closure(degree, pair)
        a, b = map(Permutation, pair)
        if sorted((a.order(), b.order(), (a * b).order())) == [2, 3, 5]:
            a5.append((pair, H))
        else:
            built.append(pair)
        return H

    monkeypatch.setattr(structure, "subgroup_closure", recorded)
    structure._perfect_seed_classes(G)
    assert all(H.order() == 60 for _, H in a5)
    closed = built + [pair for pair, _ in a5]
    id_of, tables = G._element_index()

    def ids(H):
        return frozenset(id_of[p] for p in H.elements_raw())

    reached = set()
    for a, b in closed:
        H = Group([Permutation(a), Permutation(b)], degree)
        if H.order() < D.order():
            reached.add(ids(H))
    queue = list(reached)
    while queue:  # every G-conjugate, by conjugating ids with G's generators
        s = queue.pop()
        for table in tables:
            t = frozenset(map(table.__getitem__, s))
            if t not in reached:
                reached.add(t)
                queue.append(t)
    classes = _orbits(D.elements_raw(), _conjugations(g.imgs for g in G.generators))
    done = set(closed)
    count = 0
    for i in range(1, len(classes)):
        a = Permutation(classes[i][0])
        cent = structure.centralizer_in(G, a)
        cmaps = _conjugations(g.imgs for g in cent.generators)
        for orbit in _orbits([x for cls in classes[i:] for x in cls], cmaps):
            b = Permutation(orbit[0])
            if (a * b == b * a or (a.imgs, b.imgs) in done
                    or structure._von_dyck_solvable(a.order(), b.order(), (a * b).order())):
                continue
            count += 1
            H = Group([a, b], degree)
            assert (H.order() == D.order() or ids(H) in reached
                    or D.order() // 5 < 120 and not structure.is_perfect(H))
    assert (len(built), len(a5), count) == (built_count, a5_count, skipped)


def test_solvable_group_makes_no_seed_closure(record):
    # S4 wr C2 is solvable: its perfect residuum is trivial, so the seed
    # search closes no pair, though |G'| = 288
    built = record(structure, "subgroup_closure")
    G = wreath_product(S4, make(["(1,2)"], 2))
    assert structure.commutator_subgroup(G).order() == 288
    lat = all_subgroups(G)
    assert not built
    assert (len(lat.classes), sum(c.size for c in lat.classes)) == (221, 4586)


@pytest.mark.parametrize("texts", [["(1,2,3,4,5)", "(3,4,5)"], ["(1,2,3,4,5)", "(1,2)"]],
                         ids=["A5", "S5"])
def test_small_perfect_residuum_makes_no_seed_closure(record, texts):
    # |D| = 60 < 300: D has no proper perfect subgroup, so it is the one seed
    # and no pair is closed; fresh groups, so no kept lattice is reused
    built = record(structure, "subgroup_closure")
    G = make(texts, 5)
    lat = all_subgroups(G)
    assert not built
    perfect = [c for c in lat.classes if c.order == 60]
    assert len(perfect) == 1 and perfect[0].size == 1
    assert len(lat.classes) == {60: 9, 120: 19}[G.order()]


@pytest.mark.parametrize("G", [S5, make(["(1,2,3,4,5,6)", "(1,2)"], 6)], ids=["S5", "S6"])
def test_class_rep_is_the_closure_of_its_generators(G):
    id_of = G._element_index()[0]
    for cls in all_subgroups(G).classes:
        elements = cls.rep.elements_raw()
        assert set(elements) == oracles.closure(cls.gens, G.degree)
        assert frozenset(id_of[p] for p in elements) == cls.ids


def test_lattice_query_builds_only_the_reps_it_reads():
    G = make(["(1,2,3,4,5,6)", "(1,2)"], 6)
    lat = all_subgroups(G)
    # the seed classes are registered with their closures
    seeded = {i for i, c in enumerate(lat.classes) if "rep" in vars(c)}
    assert sorted(lat.classes[i].order for i in seeded) == [60, 60, 360]
    maximal_ids = {c.ids for c in lat.maximal_classes()}
    maximal = {i for i, c in enumerate(lat.classes) if c.ids in maximal_ids}
    for i in maximal:
        classify_maximal(G, lat.classes[i].rep)
    phi = frattini(G)
    read = maximal | {i for i, c in enumerate(lat.classes) if vars(c).get("rep") is phi}
    built = {i for i, c in enumerate(lat.classes) if "rep" in vars(c)}
    assert built == seeded | read
    assert len(built) == 9 < len(lat.classes)


@pytest.mark.parametrize("G", [S4, A5, S5, make(["(1,2,3,4,5)", "(4,5,6)"], 6),
                               make(["(1,2,3,4,5,6)", "(1,2)"], 6)],
                         ids=["S4", "A5", "S5", "A6", "S6"])
def test_normalizer_ids_are_certified(G):
    # normalizer_ids is the brute-force normalizer {x in G : x^-1 H x = H},
    # and orbit-stabilizer fixes its size.  As H = <gens>, x normalizes H
    # iff it conjugates each generator into H: then x^-1 H x lies in H and
    # has its order
    G = Group(G.generators, G.degree)  # a lattice no other test has read
    id_of = G._element_index()[0]
    elems = G.elements_raw()
    inverse = {x: oracles.inv(x) for x in elems}
    for cls in all_subgroups(G).classes:
        assert frozenset(id_of[p] for p in cls.rep.elements_raw()) == cls.ids
        assert len(cls.normalizer_ids) * cls.size == G.order()
        assert cls.normalizer_ids == {
            id_of[x] for x in elems
            if all(id_of[oracles.mul(oracles.mul(inverse[x], g), x)] in cls.ids for g in cls.gens)}


def test_cyclic_extension_builds_each_extension_once(record):
    # the cosets H n^k (0 < k < p) all give J = <H, n>, so each J is built
    # once per H: 135 builds for S6, where 151 rebuilt some J from H n^k
    calls = record(structure, "_cyclic_extension_ids")
    lat = all_subgroups(make(["(1,2,3,4,5,6)", "(1,2)"], 6))
    assert (len(lat.classes), sum(c.size for c in lat.classes)) == (56, 1455)
    built = Counter((args[0], j_ids) for args, j_ids in calls)
    assert sum(built.values()) == 135
    assert set(built.values()) == {1}


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
    id_of = {x: i for i, x in enumerate(lat.elements)}
    got_sizes = Counter()
    for c in lat.classes:
        got_sizes[(c.order, c.size)] += c.size
        members = frozenset(lat.elements[i] for i in c.ids)
        normalizer = {x for x in elems if conjugate(members, x) == members}
        assert {lat.elements[i] for i in c.normalizer_ids} == normalizer
        assert c.size == len(elems) // len(c.normalizer_ids)
        # the orbit is every conjugate as a sorted id tuple, in ascending
        # order, and the least is the key
        assert set(c.orbit) == {tuple(sorted(id_of[h] for h in conjugate(members, x)))
                                for x in elems}
        assert list(c.orbit) == sorted(c.orbit) and c.key == c.orbit[0]
    assert got_sizes == want_sizes
    # the maximal walk and its map still hand back frozensets
    assert all(type(s) is frozenset
               for i in range(len(lat.classes)) for s in lat.maximal_subgroups_of(i))
    assert all(type(s) is frozenset for s in lat.maximal)

    got_maximal = {frozenset(lat.elements[i] for i in s)
                   for c in lat.maximal_classes() for s in c.orbit}
    assert got_maximal == maximal
    want_frattini = frozenset(elems).intersection(*maximal)
    assert set(frattini(g).elements_raw()) == want_frattini


def test_lattice_deterministic():
    a = all_subgroups(S4)
    b = all_subgroups(make(["(1,2,3,4)", "(1,2)"], 4))
    assert [(c.order, c.size, c.key) for c in a.classes] == \
        [(c.order, c.size, c.key) for c in b.classes]


def test_lattice_cached_on_group(record):
    calls = record(structure, "_enumerate_classes")
    g = make(["(1,2,3,4)", "(1,2)"], 4)
    lat = all_subgroups(g)
    assert all_subgroups(g) is lat
    assert frattini(g).order() == 1
    assert [args[0] for args, _ in calls] == [g]


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
A5wrC2 = wreath_product(A5, make(["(1,2)"], 2))
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


def test_classify_rejects_the_whole_group_before_acting():
    with trace() as t:
        for g in [S4, A5, S5]:
            with pytest.raises(ValueError, match="not maximal"):
                classify_maximal(g, g)
    assert t.coset_actions == 0


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
            [hom._apply(g.imgs) for g in M.generators],
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


def _report_fields(rep):
    return (rep.primitive_type, rep.intersection_shape, rep.quotient_order,
            sorted(rep.core.elements_raw()))


@pytest.mark.parametrize("name", SHAPE_CASES)
def test_classify_shape_matches_element_set_reference(name):
    # the report, read off G's lattice where it is built and carried over a
    # faithful coset action otherwise, must give what scanning the image gives
    G, maximal = SHAPE_CASES[name]
    groups = [G]
    if isinstance(maximal, int):
        count, maximal = maximal, [c.rep for c in all_subgroups(G).maximal_classes()]
        assert len(maximal) == count
        groups.append(Group(G.generators, G.degree))  # the same group with no lattice
    for H in groups:
        for M in maximal:
            assert _report_fields(classify_maximal(H, M)) == \
                _image_reference(*coset_action(H, M), M)


def test_faithful_classify_reads_minimal_normals_on_the_group(record):
    actions, scans = record(structure, "coset_action"), record(structure, "minimal_normal_subgroups")
    # fresh groups: a lattice another test built would skip the coset action
    for G, M in [(S4, make(["(2,3,4)", "(2,3)"], 4)), (S5, make(["(2,3,4,5)", "(2,3)"], 5)),
                 (A5xA5, A5xA5_DIAGONAL), (A5wrC2, A5wrC2_DIAGONAL)]:
        assert classify_maximal(Group(G.generators, G.degree), M).core.order() == 1
    assert scans and not any(g is image for (g,), _ in scans for _, (image, _) in actions)
    # a nontrivial core still reads the image: S4 over D8 acts as S3
    classify_maximal(Group(S4.generators, 4), make(["(1,2,3,4)", "(1,3)"], 4))
    ((scanned,), _), (_, (image, _)) = scans[-1], actions[-1]
    assert scanned is image


@pytest.mark.parametrize("name", ["S5", "S6", "S7"])
def test_simple_socle_is_never_scanned(record, name):
    # |A5|, |A6|, |A7| are no proper powers, so a type-2 socle there is
    # simple: its shape is read off |soc| and the degree alone
    actions, scans = record(structure, "coset_action"), record(structure, "minimal_normal_subgroups")
    G, maximal = SHAPE_CASES[name]
    if isinstance(maximal, int):
        maximal = [c.rep for c in all_subgroups(G).maximal_classes()]
    G = Group(G.generators, G.degree)  # no lattice: the coset path runs
    types = [classify_maximal(G, M).primitive_type for M in maximal]
    assert 2 in types and actions
    assert all(g is G or any(g is image for _, (image, _) in actions) for (g,), _ in scans)


def test_proper_power_socle_scans_one_factor(monkeypatch, record):
    # A5 wr C2 over the diagonal A5.2, as PSL(2, 5) wr C2 on 12 points:
    # |soc| = 3600 = 60^2, so the socle's factors are found and their images
    # taken; the factor walk scans one PSL(2, 5), no Alt of its points, and
    # conjugates it, so the socle itself is never scanned
    applied = []

    def action(*args):
        image, hom = coset_action(*args)
        return image, Homomorphism(hom.source, hom.target,
                                   lambda p: applied.append(p) or hom._apply(p))

    monkeypatch.setattr(structure, "coset_action", action)
    inside = record(structure, "minimal_normals_inside")
    W = wreath_product(PSL25, C2)
    G = Group(W.generators, W.degree)
    diagonal = make(["(1,2,3,4,5)(7,8,9,10,11)", "(1,6)(2,5)(7,12)(8,11)",
                     "(1,7)(2,8)(3,9)(4,10)(5,11)(6,12)"], 12)
    assert classify_maximal(G, diagonal).intersection_shape == "diagonal"
    orders = [K.order() for (_, K), _ in inside]
    assert 3600 not in orders and 60 in orders
    (soc,) = minimal_normal_subgroups(G)
    factors = minimal_normal_subgroups(soc)
    assert [f.order() for f in factors] == [60, 60]
    assert {g for f in factors for g in f._raw_gens} <= set(applied)


def test_classify_type2_with_core():
    # D4 < S4: core is V4? no -- D4 has core V4, quotient S4/V4 = S3 acts on 3 pts
    d4 = make(["(1,2,3,4)", "(1,3)"], 4)
    rep = classify_maximal(S4, d4)
    assert rep.core.order() == 4
    assert rep.quotient_order == 6
    assert rep.primitive_type == 1


C3 = make(["(1,2,3)"], 3)
CROSS_PATH_CASES = {  # S5xC2 and A5xC3 have type-2 classes with cores of order 2 and 3
    "S4": S4, "A5": A5, "S5": S5, "A6": A6, "S6": S6,
    "S5xC2": direct_product(S5, C2), "A5xC3": direct_product(A5, C3),
    "S4xS3": direct_product(S4, S3), "C2xS4xC2": direct_product(direct_product(C2, S4), C2),
    "A4xA4": direct_product(A4, A4), "S3wrC2": wreath_product(S3, C2),
    "A5xA5": direct_product(A5, A5),  # two type-3 classes and six of type 2 with cores A5
}


@pytest.mark.parametrize("name", CROSS_PATH_CASES)
def test_lattice_classify_matches_the_coset_path(monkeypatch, name):
    # a group with no lattice classifies through the coset action; once the
    # lattice is built, the same report comes off its id sets, with no coset
    # action, primitivity test or kernel
    G = CROSS_PATH_CASES[name]
    maximal = [c.rep for c in all_subgroups(G).maximal_classes()]
    H = Group(G.generators, G.degree)  # no lattice
    want = [_report_fields(classify_maximal(H, M)) for M in maximal]

    def forbidden(*args):
        raise AssertionError("the lattice path tested primitivity or took a kernel")

    monkeypatch.setattr(structure, "is_primitive", forbidden)
    monkeypatch.setattr(Homomorphism, "kernel", forbidden)
    with trace() as t:
        assert [_report_fields(classify_maximal(G, M)) for M in maximal] == want
    assert t.coset_actions == 0


def test_lattice_classify_falls_back_to_cosets_on_a_proper_power_socle(record):
    # A5 wr C2: five of its six maximal classes have trivial core and the
    # type-2 socle A5 x A5, of order 3600 = 60^2, whose simple factors decide
    # the shape, so with the lattice built those five still act on cosets;
    # the reports equal the coset path's on all six
    G = Group(A5wrC2.generators, A5wrC2.degree)
    maximal = [c.rep for c in all_subgroups(G).maximal_classes()]
    H = Group(G.generators, G.degree)  # no lattice
    want = [_report_fields(classify_maximal(H, M)) for M in maximal]
    actions = record(structure, "coset_action")
    got = [classify_maximal(G, M) for M in maximal]
    assert [_report_fields(r) for r in got] == want
    acted = [M for (_, M), _ in actions]
    assert len(maximal) == 6 and len(acted) == 5
    on_cosets = [r for r in got if r.subgroup in acted]
    assert all(r.primitive_type == 2 and r.quotient_order == 7200 for r in on_cosets)
    assert sorted(r.intersection_shape for r in on_cosets) == [
        "coordinate", "coordinate", "coordinate", "diagonal", "diagonal"]


@pytest.mark.parametrize("lattice", [False, True], ids=["cosets", "lattice"])
def test_classify_errors_match_on_both_paths(lattice):
    G, A = Group(S4.generators, 4), Group(A5.generators, 5)
    if lattice:
        all_subgroups(G)
        all_subgroups(A)
    for M in [make(["(1,2)"], 4), make(["(1,2)(3,4)", "(1,3)(2,4)"], 4)]:  # C2, V4 < A4 < S4
        with pytest.raises(ValueError, match="^M is not maximal in G$"):
            classify_maximal(G, M)
    with pytest.raises(ValueError, match="^H is not a subgroup of G$"):
        classify_maximal(A, make(["(1,2)"], 5))
