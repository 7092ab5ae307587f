"""x-side polynomials, z-side Laurent polynomials, and the conversions."""

import random

import pytest

import qaw
from qaw.scalar import HALF, ONE, T, ZERO, rational, tpow
from qaw.zsym import (
    NEG_INF,
    XPoly,
    ZLaurent,
    x_to_z,
    z_to_x,
)
from qaw.scalar import ExactDivisionError

X = XPoly.x()


def rand_xpoly(rng, deg):
    return XPoly([rational(rng.randint(-9, 9)) for _ in range(deg + 1)])


def rand_sym(rng, deg):
    return x_to_z(rand_xpoly(rng, deg))


def z_scale(g, k):
    """g(t^(2k) z): the coefficient of z^m picks up t^(2km)."""
    return ZLaurent({m: c * tpow(2 * k * m) for m, c in g.terms()})


def test_xpoly_basics():
    f = XPoly([1, 0, 3])
    assert f.degree == 2
    assert f.coeff(2) == rational(3)
    assert f.coeff(7) == ZERO
    assert f.leading == rational(3)
    assert XPoly.zero().degree == NEG_INF
    assert not XPoly.zero()
    assert XPoly([0, 0, 0]) == XPoly.zero()


def test_constant_xpoly_hashes_as_its_scalar():
    # `==` makes a constant XPoly equal to the Scalar (or int) it holds,
    # so both must land on one set element and one dict key
    assert XPoly.one() == ONE and len({XPoly.one(), ONE}) == 1
    assert XPoly.zero() == 0 and hash(XPoly.zero()) == hash(0)
    assert len({XPoly.zero(), ZERO, 0}) == 1
    assert {XPoly([T]): "t"}[T] == "t"
    assert hash(XPoly([HALF])) == hash(HALF)


def test_xpoly_arith():
    f = XPoly([1, 2])
    g = XPoly([0, 0, 1])
    assert f * g == XPoly([0, 0, 1, 2])
    assert f + g - f == g
    assert (X + 1) * (X - 1) == X ** 2 - 1
    assert f.scale(HALF) == XPoly([HALF, ONE])
    assert (-f) + f == XPoly.zero()
    # powers square; every exponent bit pattern matches repeated products
    h = XPoly.one()
    for e in range(12):
        assert f ** e == h
        h = h * f


def test_x_to_z_examples():
    assert x_to_z(X) == ZLaurent({1: HALF, -1: HALF})
    quarter = rational(1, 4)
    assert x_to_z(X ** 2) == ZLaurent({2: quarter, 0: HALF, -2: quarter})
    assert x_to_z(XPoly.one()) == ZLaurent({0: ONE})


def test_z_to_x_examples():
    assert z_to_x(ZLaurent({1: HALF, -1: HALF})) == X
    g = ZLaurent({2: ONE, -2: ONE})
    f = z_to_x(g)
    assert f == XPoly([-2, 0, 4])
    # oracle: convert the claimed answer back
    assert x_to_z(f) == g
    assert z_to_x(ZLaurent({0: ONE})) == XPoly.one()


def test_z_to_x_rejects_asymmetric():
    with pytest.raises(ValueError):
        z_to_x(ZLaurent({1: ONE}))
    # a form built without the constructor is checked as well
    with pytest.raises(ValueError):
        z_to_x(ZLaurent._raw({1: ONE}))
    with pytest.raises(ValueError):
        z_to_x(ZLaurent({2: T, -2: ONE}))


def test_sym_arith_examples():
    half_zz = ZLaurent({1: HALF, -1: HALF})
    sq = half_zz * half_zz
    assert sq == ZLaurent({2: rational(1, 4), 0: HALF, -2: rational(1, 4)})
    assert sq.is_symmetric()
    rng = random.Random(11)
    assert rand_sym(rng, 4) * ZLaurent() == ZLaurent()


def test_multiplication_matches_x_side():
    rng = random.Random(12)
    for _ in range(20):
        f = rand_xpoly(rng, rng.randint(0, 5))
        g = rand_xpoly(rng, rng.randint(0, 5))
        prod = x_to_z(f) * x_to_z(g)
        assert prod == x_to_z(f * g)
        assert prod.is_symmetric()


def test_roundtrip():
    rng = random.Random(13)
    for deg in range(13):
        f = rand_xpoly(rng, deg)
        assert z_to_x(x_to_z(f)) == f


def test_symmetry_and_degree_preserved():
    rng = random.Random(14)
    for _ in range(20):
        f = rand_xpoly(rng, rng.randint(0, 12))
        g = x_to_z(f)
        assert g.is_symmetric()
        if f:
            assert g.max_exp == f.degree


def test_z_scale_examples():
    g = ZLaurent({1: ONE, -1: ONE})
    assert z_scale(g, 1) == ZLaurent({1: tpow(2), -1: tpow(-2)})
    assert z_scale(ZLaurent({0: ONE}), 5) == ZLaurent({0: ONE})
    rng = random.Random(15)
    for _ in range(10):
        h = rand_sym(rng, rng.randint(0, 6))
        assert z_scale(z_scale(h, 1), -1) == h
    # the scaled image of a symmetric polynomial is not symmetric
    assert not z_scale(g, 1).is_symmetric()


def test_divide_exact_examples():
    num = ZLaurent({2: ONE, -2: -ONE})
    den = ZLaurent({1: ONE, -1: -ONE})
    assert num.divide_exact(den) == ZLaurent({1: ONE, -1: ONE})

    s = tpow(4) - tpow(-4)
    r = tpow(2) - tpow(-2)
    num2 = ZLaurent({2: s, -2: -s})
    den2 = ZLaurent({1: r, -1: -r})
    expect = ZLaurent({1: tpow(2) + tpow(-2), -1: tpow(2) + tpow(-2)})
    got = num2.divide_exact(den2)
    assert got == expect
    assert got * den2 == num2

    g = ZLaurent({3: T, 0: ONE})
    assert g.divide_exact(ZLaurent({0: ONE})) == g


def test_divide_exact_random_products():
    rng = random.Random(16)
    for _ in range(20):
        a = rand_sym(rng, rng.randint(0, 5))
        b = rand_sym(rng, rng.randint(1, 5))
        if not b:
            continue
        assert (a * b).divide_exact(b) == a


def test_divide_exact_rejects_inexact():
    num = ZLaurent({2: ONE, 0: ONE, -1: ONE})
    den = ZLaurent({1: ONE, -1: -ONE})
    with pytest.raises(ExactDivisionError):
        num.divide_exact(den)
    with pytest.raises(ZeroDivisionError):
        num.divide_exact(ZLaurent())


def test_divide_exact_refuses_coefficients_outside_the_ring():
    # the z-side quotient t/(t + 1) is not a Laurent polynomial in t,
    # although the division in z alone leaves no remainder
    zz = ZLaurent({1: ONE, -1: ONE})
    with pytest.raises(ExactDivisionError):
        zz.scale(T).divide_exact(zz.scale(T + 1))
    assert zz.scale(T * (T + 1)).divide_exact(zz.scale(T + 1)) == ZLaurent({0: T})


def test_divide_exact_round_trips_negative_exponents():
    # every z-exponent is negative, so every key is below the t^0 u^0 one
    a = ZLaurent({-1: T, -3: ONE - tpow(-2)})
    b = ZLaurent({-2: T + 1, -5: HALF})
    assert (a * b).divide_exact(b) == a
    assert (a * b).divide_exact(a) == b


def test_xpoly_parse():
    assert XPoly.parse("x^2 - t*x + 1") == X ** 2 - X.scale(T) + 1
    assert XPoly.parse("(1/2)*x") == X.scale(HALF)


def test_public_names_resolve():
    for name in qaw.__all__:
        assert hasattr(qaw, name), name
