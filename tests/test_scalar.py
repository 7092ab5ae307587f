"""Exact arithmetic in Q[t^+-1, u^+-1]."""

import doctest
import random
from fractions import Fraction

import pytest

import qaw.scalar
from qaw.scalar import (
    HALF,
    MAX_EXPONENT,
    ONE,
    T,
    U,
    ZERO,
    ExactDivisionError,
    Rat,
    Scalar,
    as_scalar,
    rational,
    tpow,
    upow,
)
from qaw.zsym import XPoly, ZLaurent


def qint(n):
    """The q-integer (t^(2n) - t^(-2n)) / (t^2 - t^-2), by exact division."""
    return (tpow(2 * n) - tpow(-2 * n)) / (tpow(2) - tpow(-2))


def rand_scalar(rng, deg=4, with_u=True, nonzero=False):
    """Random Laurent polynomial, degree <= deg, coefficients in [-9, 9]."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, 6)):
            i = rng.randint(-deg, deg)
            j = rng.randint(-2, 2) if with_u else 0
            terms[(i, j)] = terms.get((i, j), 0) + rng.randint(-9, 9)
        s = Scalar.from_terms(terms)
        if not (nonzero and s.is_zero):
            return s


def rand_monomial(rng):
    """A random unit of the ring: c t^i u^j with c a nonzero rational."""
    c = Rat(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 4))
    return Scalar.from_terms({(rng.randint(-4, 4), rng.randint(-2, 2)): c})


def test_inverse_pair():
    assert T * T ** -1 == ONE
    assert (T * (ONE / T)).is_one


def test_difference_of_squares():
    left = (tpow(2) - tpow(-2)) * (tpow(2) + tpow(-2))
    assert left == tpow(4) - tpow(-4)


def test_long_division():
    num = ONE - tpow(4)
    den = ONE - tpow(2)
    quotient = ONE + tpow(2)
    # oracle: the claimed quotient re-multiplies to the numerator
    assert quotient * den == num
    assert num / den == quotient


def test_division_by_monomial_times_factor_needs_no_gcd():
    # t^14 - t^10 = t^10 (t^4 - 1) carries a monomial factor that the
    # numerator lacks; the exact division must still find the quotient
    got = (tpow(24) - ONE) / (tpow(14) - tpow(10))
    want = Scalar.from_terms({(e, 0): 1 for e in (10, 6, 2, -2, -6, -10)})
    assert got == want


def test_division_outside_the_ring_raises():
    # 1/(1 - u), (t^2 - 1)/(t + 2) and u/(t + u) are not Laurent polynomials
    for num, den in ((ONE, ONE - U), (tpow(2) - ONE, T + rational(2)), (U, T + U)):
        with pytest.raises(ExactDivisionError):
            num / den
    with pytest.raises(ExactDivisionError):
        (ONE - U) ** -1
    with pytest.raises(ZeroDivisionError):
        T / ZERO
    assert issubclass(ExactDivisionError, ArithmeticError)


def test_exact_quotients_recover_the_factor():
    # the shared factor t - 1 is not a monomial, and it cancels
    assert (tpow(2) - ONE) / (T - ONE) == T + ONE
    rng = random.Random(8)
    for _ in range(20):
        lau = rand_scalar(rng)
        den = rand_scalar(rng, nonzero=True) * (ONE - U + T)
        got = (lau * den) / den
        assert got == lau and hash(got) == hash(lau)
        assert list(got.laurent_terms()) == list(lau.laurent_terms())


def test_constants_hash_as_the_numbers_they_equal():
    # `==` makes a constant equal to its int or rational, so `hash` must agree
    assert rational(3) == 3 and len({rational(3), 3}) == 1
    assert hash(ZERO) == hash(0)
    assert hash(rational(1, 2)) == hash(Fraction(1, 2))
    assert len({ONE, 1, Fraction(1), T}) == 2


def test_from_terms_merges_and_drops_zeros():
    s = Scalar.from_terms([((1, 0), 2), ((1, 0), -2), ((0, 0), 3)])
    assert s == rational(3)
    assert Scalar.from_terms({}) == ZERO


def test_exponent_guard():
    with pytest.raises(OverflowError):
        Scalar.from_terms({(MAX_EXPONENT + 1, 0): 1})
    assert U ** MAX_EXPONENT == upow(MAX_EXPONENT)
    assert (T * U) ** -MAX_EXPONENT == tpow(-MAX_EXPONENT) * upow(-MAX_EXPONENT)
    # u^(2^32) would wrap onto the packed key of t
    for base, e in ((U, 1 << 32), (U, MAX_EXPONENT + 1), (T * T, -(MAX_EXPONENT // 2 + 1))):
        with pytest.raises(OverflowError):
            base ** e


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        T * 0.5  # pytest: disable


def test_canonical_idempotence():
    rng = random.Random(1)
    for _ in range(50):
        a = rand_scalar(rng) * rand_scalar(rng, nonzero=True)
        terms = {(i, j): c for i, j, c in a.laurent_terms()}
        again = Scalar.from_terms(terms)
        assert {(i, j): c for i, j, c in again.laurent_terms()} == terms
        # a common factor of 7/3 must divide away entirely
        scaled = Scalar.from_terms({k: c * Rat(7, 3) for k, c in terms.items()})
        assert scaled / rational(7, 3) == a


def test_canonical_form_shape():
    # the terms, highest key first and none zero, over the constant 1
    rng = random.Random(2)
    for _ in range(50):
        a = rand_scalar(rng) * rand_scalar(rng, nonzero=True)
        terms = list(a.numerator_terms())
        assert terms == list(a.laurent_terms())
        assert all(c for _, _, c in terms)
        keys = [(i, j) for i, j, _ in terms]
        assert keys == sorted(set(keys), reverse=True)
        assert list(a.denominator_terms()) == [(0, 0, 1)]


def test_field_axioms():
    # the ring axioms, the units (nonzero monomials) and exact division
    rng = random.Random(3)
    for _ in range(40):
        a = rand_scalar(rng)
        b = rand_scalar(rng)
        c = rand_scalar(rng, nonzero=True)
        m = rand_monomial(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == ZERO
        assert m * (ONE / m) == ONE
        assert (a / m) * m == a
        assert (a * c) / c + (b * c) / c == ((a + b) * c) / c == a + b


def test_pow():
    assert T ** 4 == tpow(4)
    assert (T + U) ** 0 == ONE
    s = (ONE + tpow(2)) ** 3
    assert s == (ONE + tpow(2)) * (ONE + tpow(2)) * (ONE + tpow(2))
    assert (tpow(2)) ** -2 == tpow(-4)
    assert (HALF * U) ** -2 == rational(4) * upow(-2)


def test_shift_definition():
    assert U.shift_n(1) == U * tpow(2)
    assert (U + U ** -1).shift_n(-1) == U * tpow(-2) + U ** -1 * tpow(2)
    assert T.shift_n(5) == T


def test_shift_roundtrip_and_morphism():
    rng = random.Random(4)
    for _ in range(30):
        a = rand_scalar(rng)
        b = rand_scalar(rng, nonzero=True)
        assert a.shift_n(1).shift_n(-1) == a
        assert (a * b).shift_n(2) == a.shift_n(2) * b.shift_n(2)
        assert (a + b).shift_n(-3) == a.shift_n(-3) + b.shift_n(-3)
        assert ((a * b) / b).shift_n(1) == (a * b).shift_n(1) / b.shift_n(1)


def test_instantiate_examples():
    assert U.instantiate_n(0) == ONE
    assert U.instantiate_n(2) == tpow(4)
    assert qint(1) == ONE
    assert qint(3) == tpow(4) + ONE + tpow(-4)
    # the negative-index convention needs n = -1 to make sense too
    assert U.instantiate_n(-1) == tpow(-2)


def test_shift_then_instantiate():
    rng = random.Random(5)
    for _ in range(30):
        a = rand_scalar(rng)
        for k, n in ((1, 3), (-2, 5), (4, 0), (-1, 1)):
            assert a.shift_n(k).instantiate_n(n) == a.instantiate_n(n + k)


def test_instantiate_clears_u():
    s = (U - upow(3)) / (ONE + U)
    assert s == U - upow(2)
    inst = s.instantiate_n(3)
    assert not inst.has_u
    assert inst == tpow(6) - tpow(12)
    # terms that meet under the substitution merge, and may cancel
    assert (U - tpow(2)).instantiate_n(1) == ZERO


def test_eval_examples():
    assert T.evaluate(0.25) == pytest.approx(0.7071067811865476, abs=1e-15)
    alpha = (tpow(2) + tpow(-2)) * HALF
    assert alpha.evaluate(0.25) == pytest.approx(1.25, abs=1e-15)
    assert ONE.evaluate(0.9) == 1.0
    assert U.instantiate_n(2).evaluate(0.5) == pytest.approx(0.5, abs=1e-15)
    # negative exponents: t^-3 + u^-1 at q0 = 0.3, n = 2
    want = 0.3 ** -0.75 + 0.3 ** -1.0
    got = (tpow(-3) + upow(-1)).instantiate_n(2).evaluate(0.3)
    assert got == pytest.approx(want, rel=1e-14)


def test_eval_guards():
    with pytest.raises(ValueError):
        T.evaluate(1.5)
    # a scalar in u is instantiated first
    with pytest.raises(ValueError, match="depends on u"):
        U.evaluate(0.5)
    # the t^2000 that clears the exponent of t^-2000 underflows to 0.0
    with pytest.raises(ZeroDivisionError):
        tpow(-2000).evaluate(1e-300)


def test_eval_commutes_with_arithmetic():
    rng = random.Random(6)
    q0 = 0.37
    for _ in range(30):
        a = rand_scalar(rng)
        b = rand_scalar(rng, nonzero=True)
        m = rand_monomial(rng)
        n = rng.randint(0, 6)

        def at(s):
            return s.instantiate_n(n).evaluate(q0)

        va, vb, vm = at(a), at(b), at(m)
        assert at(a + b) == pytest.approx(va + vb, rel=1e-12, abs=1e-12)
        assert at(a * b) == pytest.approx(va * vb, rel=1e-12, abs=1e-12)
        assert at(a / m) == pytest.approx(va / vm, rel=1e-12, abs=1e-12)


def test_as_scalar_coercion():
    assert as_scalar(3) == rational(3)
    assert as_scalar(Rat(1, 2)) == HALF
    assert as_scalar(T) is T
    with pytest.raises(TypeError):
        as_scalar(0.5)


def test_rational_queries():
    assert rational(6, 4).as_rational() == Rat(3, 2)
    assert ZERO.as_rational() == 0
    assert not T.is_rational
    with pytest.raises(ValueError):
        T.as_rational()
    assert (U / U).is_one
    assert (HALF * T * U).is_monomial and not ZERO.is_monomial
    assert not (ONE + T).is_monomial
    assert U.has_u and not T.has_u


def test_laurent_terms_iteration():
    s = tpow(2) * upow(-1) + rational(3)
    terms = list(s.laurent_terms())
    assert terms == [(2, -1, 1), (0, 0, 3)]
    assert list((tpow(-3) / 2).laurent_terms()) == [(-3, 0, Rat(1, 2))]
    assert list(ZERO.laurent_terms()) == []


def test_parse_render_roundtrip():
    rng = random.Random(7)
    for _ in range(25):
        a = rand_scalar(rng) * rand_scalar(rng, nonzero=True)
        assert Scalar.parse(a.render()) == a
    assert Scalar.parse("(1/2)*t^2*u^-1 + 1") == HALF * tpow(2) * upow(-1) + ONE


def test_cross_type_and_reflected_operators(monkeypatch):
    # Scalar, XPoly and ZLaurent share one operator shell; a reflected
    # Scalar operator delegates to the forward one
    s = HALF * T + U
    X = XPoly.x()
    for got, want in (
        (3 - s, rational(3) - s),
        (1 + s, s + rational(1)),
        (2 * s, s * rational(2)),
        (1 / T, ONE / T),
    ):
        assert type(got) is Scalar and got == want
    assert s + X == XPoly([s, ONE]) == X + s
    assert 1 - X == XPoly([ONE, -ONE])
    assert s * X == XPoly([ZERO, s])
    for v in (s + X, X + s, 1 - X, s * X):
        assert type(v) is XPoly
    assert s == XPoly([s]) and XPoly([s]) == s
    with pytest.raises(TypeError):
        ZLaurent({1: ONE, -1: ONE}) + T
    assert hash(rational(3)) == hash(Rat(3))
    assert hash(XPoly([rational(3)])) == hash(rational(3))
    assert hash(XPoly.zero()) == hash(ZERO)
    assert hash(X + 1) == hash(XPoly([1, 1]))

    # the benchmark's tracer counts `3 - s` and `1 / T` once each, by
    # wrapping only __sub__ and __truediv__ in Scalar's own __dict__
    calls = []
    for name in ("__sub__", "__truediv__"):
        orig = vars(Scalar)[name]

        def spy(self, other, _orig=orig, _name=name):
            calls.append(_name)
            return _orig(self, other)

        monkeypatch.setattr(Scalar, name, spy)
    for op, name in ((lambda: 3 - s, "__sub__"), (lambda: 1 / T, "__truediv__")):
        calls.clear()
        op()
        assert calls == [name]

    result = doctest.testmod(qaw.scalar)
    assert result.failed == 0 and result.attempted >= 3
