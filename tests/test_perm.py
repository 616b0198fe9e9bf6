import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from genex.group import Group, wreath_product
from genex.perm import (
    BOUNDS,
    BoundExceeded,
    Permutation,
    _identity,
    _inv,
    _mul,
    _order,
    _pow,
    format_cycles,
    is_prime,
    parse_permutation,
    prime_factors,
)


def P(text, degree):
    return parse_permutation(text, degree)


def test_parse_identity():
    p = P("()", 4)
    assert p.images == (1, 2, 3, 4)
    assert p == Permutation.identity(4)


def test_parse_single_cycle():
    assert P("(1,2,3)", 5).images == (2, 3, 1, 4, 5)


def test_parse_disjoint_cycles():
    assert P("(1,2)(3,4)", 4).images == (2, 1, 4, 3)


def test_parse_space_separated():
    assert P("(1 2 3)", 3).images == (2, 3, 1)
    assert P(" (1,2) (3,4)\t", 4) == P("(1,2)(3,4)", 4)


def test_parse_errors():
    with pytest.raises(ValueError):
        P("(1,2", 3)
    with pytest.raises(ValueError):
        P("(1,7)", 3)
    with pytest.raises(ValueError):
        P("(1,2)(2,3)", 3)
    with pytest.raises(ValueError):
        P("1,2", 3)
    with pytest.raises(ValueError):
        P("", 3)
    # only ASCII decimal numerals are points: int() would take all of these
    for text in ("(1_0,2)", "(+3,1)", "(\uff13,1)", "(\u00b3,1)", "(-1,2)", "(1,2 )(0x3,4)"):
        with pytest.raises(ValueError):
            P(text, 10)
    for text, degree in (("()", "5"), ("(1,2)", 2.0), ("()", True)):
        with pytest.raises(ValueError):
            P(text, degree)


def test_format_roundtrip():
    for text, deg in [("(1,2,3)", 5), ("(1,2)(3,4)", 4), ("()", 4), ("(2,4)(3,5,6)", 6)]:
        p = P(text, deg)
        assert parse_permutation(format_cycles(p), deg) == p
        assert parse_permutation(str(p), deg) == p
        assert repr(p) == f"Permutation({str(p)!r}, degree={deg})"


def test_product_left_to_right():
    # p then q: 1 ->p 2 ->q 3
    p = P("(1,2)", 3)
    q = P("(2,3)", 3)
    assert (p * q)(1) == 3
    with pytest.raises(ValueError, match="degree mismatch"):
        p * P("(1,2)", 4)


def test_order_is_by_degree_then_images():
    # a permutation of lower degree sorts first, whatever its images
    perms = [P("(1,2)", 3), P("()", 3), P("(1,2)", 2), P("()", 4), P("()", 2)]
    assert sorted(perms) == [P("()", 2), P("(1,2)", 2), P("()", 3), P("(1,2)", 3), P("()", 4)]
    assert not P("()", 3) < P("()", 3)
    # <= and >= follow the same order, equality included
    assert P("()", 3) <= P("()", 3) and P("()", 3) >= P("()", 3)
    assert P("(1,2)", 2) <= P("()", 3) and not P("(1,2)", 2) >= P("()", 3)
    assert P("(1,2)", 3) >= P("()", 3) and not P("(1,2)", 3) <= P("()", 3)
    assert P("(1,2)", 3) > P("()", 3)


def test_mul_degree_zero_and_one():
    # itemgetter returns a scalar for one index and cannot take none, so
    # these degrees must still come back as tuples
    assert _mul((), ()) == ()
    assert _mul((0,), (0,)) == (0,)
    assert Permutation([0]) * Permutation([0]) == Permutation.identity(1)
    assert (Permutation([]) * Permutation([])).imgs == ()
    for n in (0, 1):
        G = Group([], n)
        assert G.order() == 1
        assert G.elements_raw() == (_identity(n),)
        assert G.contains(Permutation.identity(n))
    assert Group([Permutation([0])], 1).order() == 1


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 40).flatmap(
    lambda n: st.tuples(*[st.permutations(range(n)).map(tuple)] * 2)))
def test_mul_composes_left_to_right(pq):
    p, q = pq
    r = _mul(p, q)
    assert type(r) is tuple
    assert all(r[i] == q[p[i]] for i in range(len(p)))
    assert _mul(p, _inv(p)) == _identity(len(p))


def test_inverse_and_identity():
    p = P("(1,4,2)(3,5)", 5)
    assert p * p.inverse() == Permutation.identity(5)
    assert p.inverse() * p == Permutation.identity(5)


def test_power_and_order():
    p = P("(1,2)(3,4,5)", 5)
    assert p.order() == 6
    assert p ** 6 == Permutation.identity(5)
    assert p ** -1 == p.inverse()
    assert p ** 7 == p
    # every element of S6 and of A5 wr C2 (fixed points, orders up to 15)
    S6 = Group([P("(1,2,3,4,5,6)", 6), P("(1,2)", 6)])
    A5 = Group([P("(1,2,3,4,5)", 5), P("(3,4,5)", 5)])
    for G in (S6, wreath_product(A5, Group([P("(1,2)", 2)]))):
        assert all(_order(x) == oracles.element_order(x) for x in G.elements_raw())


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 8).flatmap(lambda n: st.permutations(range(n)).map(tuple)),
       st.integers(-7, 39))
def test_pow_matches_repeated_products(p, n):
    base = p if n >= 0 else _inv(p)
    expected = _identity(len(p))
    for _ in range(abs(n)):
        expected = _mul(expected, base)
    assert _pow(p, n) == expected
    # a large exponent reduces modulo the order, here 6
    q = P("(1,2)(3,4,5)", 5).imgs
    assert _pow(q, 6 * 10 ** 30 + n) == _pow(q, n % 6)


def test_call_and_fixed_points():
    p = P("(1,2,3)", 5)
    assert p(3) == 1
    for point in (0, 6):
        with pytest.raises(ValueError, match="out of range"):
            p(point)
    assert p.has_fixed_point()
    assert not P("(1,2)(3,4)", 4).has_fixed_point()


def test_conjugate():
    p = P("(1,2)", 4)
    g = P("(1,3)(2,4)", 4)
    assert p.conjugate(g) == P("(3,4)", 4)


def test_cycles_canonical():
    p = P("(3,4)(1,2)", 4)
    assert p.cycles() == [(1, 2), (3, 4)]
    assert format_cycles(p) == "(1,2)(3,4)"


def test_bad_images_rejected():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_permutation_is_immutable():
    p = P("(1,2)", 3)
    with pytest.raises(AttributeError, match="immutable"):
        p.imgs = (0, 1, 2)
    assert p.imgs == (1, 0, 2)


_P3 = P("(1,2,3)", 3)


@pytest.mark.parametrize("misuse, error", [
    (lambda: _P3 * 5, TypeError),
    (lambda: 5 * _P3, TypeError),
    (lambda: _P3 < 5, TypeError),
    (lambda: _P3 <= 5, TypeError),
    (lambda: _P3 >= 5, TypeError),
    (lambda: _P3(1.5), ValueError),
    (lambda: _P3(True), ValueError),
    (lambda: _P3 ** 1.5, TypeError),
    (lambda: _P3 ** True, TypeError),
    (lambda: _P3.conjugate(5), ValueError),
    (lambda: _P3.conjugate(P("(1,2)", 4)), ValueError),
    (lambda: parse_permutation(5, 3), ValueError),
], ids=["mul-int", "int-mul", "lt-int", "le-int", "ge-int", "call-float", "call-bool",
        "pow-float", "pow-bool", "conjugate-int", "conjugate-degree", "parse-int"])
def test_misuse_raises_the_documented_error(misuse, error):
    with pytest.raises(error):
        misuse()


@pytest.mark.parametrize("imgs", [
    (0, 2), (-1, 0), (1.0, 0.0, 2.0), (0, "a"), (None, 0), (0.5, 1), "10", [b"\x00"],
    tuple(range(299)) + (299.0,), tuple(range(299)) + ("a",),
    tuple(range(299)) + (298,), tuple(range(299)) + (-1,),
    5, None, tuple(range(255)) + (254,), (0, 1, 5), (0, 256),
], ids=["gap", "negative", "floats", "str", "None", "fraction", "text", "bytes",
        "large-float", "large-str", "large-repeat", "large-negative",
        "int", "none-iterable", "256-repeat", "image-past-degree", "image-256"])
def test_non_integer_or_out_of_range_images_rejected(imgs):
    # each raises ValueError here, not TypeError later in Group, contains or *
    with pytest.raises(ValueError):
        Permutation(imgs)


def test_images_accepted_at_any_degree():
    for n in (0, 1, 2, 255, 256, 257, 300):
        imgs = tuple(reversed(range(n)))
        p = Permutation(imgs)
        assert p.imgs == imgs and p * p == Permutation.identity(n)
    assert Permutation(range(3)).imgs == (0, 1, 2)


def test_prime_helpers():
    sieve = [False, False] + [True] * 498
    for p in range(2, 23):
        sieve[p * p::p] = [False] * len(sieve[p * p::p])
    assert [p for p in range(500) if is_prime(p)] == [p for p in range(500) if sieve[p]]
    assert not is_prime(-7)
    assert prime_factors(360) == {2: 3, 3: 2, 5: 1}


@pytest.mark.parametrize("build", [lambda n: parse_permutation("(1,2)", n), Permutation.identity,
                                   lambda n: Group([], n)],
                         ids=["parse_permutation", "identity", "Group"])
def test_degree_is_checked_before_any_point_list(build):
    tracemalloc.start()
    try:
        with pytest.raises(BoundExceeded):
            build(BOUNDS["points"] + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    for bad in (-1, True, 2.5):
        with pytest.raises(ValueError) as caught:
            build(bad)
        assert not isinstance(caught.value, BoundExceeded)
