import pytest
from hypothesis import given, settings, strategies as st

from genex.group import Group
from genex.perm import (
    Permutation,
    _identity,
    _inv,
    _mul,
    element_order_r_part,
    format_cycles,
    is_prime,
    parse_permutation,
    prime_factors,
    r_part,
)


def P(text, degree):
    return parse_permutation(text, degree)


def test_parse_identity():
    p = P("()", 4)
    assert p.images == (1, 2, 3, 4)
    assert p.is_identity()


def test_parse_single_cycle():
    assert P("(1,2,3)", 5).images == (2, 3, 1, 4, 5)


def test_parse_disjoint_cycles():
    assert P("(1,2)(3,4)", 4).images == (2, 1, 4, 3)


def test_parse_space_separated():
    assert P("(1 2 3)", 3).images == (2, 3, 1)


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


def test_format_roundtrip():
    for text, deg in [("(1,2,3)", 5), ("(1,2)(3,4)", 4), ("()", 4), ("(2,4)(3,5,6)", 6)]:
        p = P(text, deg)
        assert parse_permutation(format_cycles(p), deg) == p


def test_product_left_to_right():
    # p then q: 1 ->p 2 ->q 3
    p = P("(1,2)", 3)
    q = P("(2,3)", 3)
    assert (p * q)(1) == 3


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
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()


def test_power_and_order():
    p = P("(1,2)(3,4,5)", 5)
    assert p.order() == 6
    assert (p ** 6).is_identity()
    assert p ** -1 == p.inverse()
    assert p ** 7 == p


def test_call_and_fixed_points():
    p = P("(1,2,3)", 5)
    assert p(3) == 1
    assert p.fixed_points() == [4, 5]
    assert p.has_fixed_point()
    assert not P("(1,2)(3,4)", 4).has_fixed_point()


def test_sign():
    assert P("(1,2)", 3).sign() == -1
    assert P("(1,2,3)", 3).sign() == 1
    assert P("(1,2)(3,4)", 4).sign() == 1


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


def test_order_r_part():
    g = P("(1,2,3,4)(5,6,7)", 7)  # order 12
    assert element_order_r_part(g, 2) == (12, 4)
    assert element_order_r_part(g, 5) == (12, 1)
    assert element_order_r_part(Permutation.identity(4), 3) == (1, 1)
    with pytest.raises(ValueError):
        element_order_r_part(g, 4)


def test_r_part_properties():
    for n in [1, 2, 12, 60, 360, 1440]:
        for r in [2, 3, 5, 7]:
            part = r_part(n, r)
            assert n % part == 0
            assert (n // part) % r != 0


def test_prime_helpers():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert prime_factors(360) == {2: 3, 3: 2, 5: 1}
