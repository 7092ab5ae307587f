"""The divided-difference operator pair and its algebraic laws."""

import random

from qaw.awcore import ALPHA, ALPHA2M1, OperatorContext, context, u2
from qaw.families import counterexample_family
from qaw.scalar import HALF, ONE, U, ZERO, Scalar, rational, tpow, upow
from qaw.zsym import XPoly, ZLaurent, x_to_z
from test_zsym import z_scale

X = XPoly.x()
T2 = tpow(2)
CTX = context()


def gamma_at(n):
    """The q-integer (t^(2n) - t^(-2n)) / (t^2 - t^-2), by exact division."""
    return (tpow(2 * n) - tpow(-2 * n)) / (T2 - tpow(-2))


def alpha_at(n):
    return ((U + upow(-1)) * HALF).instantiate_n(n)


def rand_xpoly(rng, deg):
    return XPoly([rational(rng.randint(-9, 9)) for _ in range(deg + 1)])


def delta_half_step():
    s = (T2 - tpow(-2)) * HALF
    return ZLaurent({1: s, -1: -s})


def check_dq_against_lattice(f, expected):
    """Re-multiplication oracle on the z-side.

    D_q f must satisfy (D_q f) * delta = f(t^2 z) - f(t^-2 z), where
    delta is the shifted-x difference; this checks the claimed value
    without running the operator's own division routine.
    """
    g = x_to_z(f)
    diff = z_scale(g, 1) - z_scale(g, -1)
    assert x_to_z(expected) * delta_half_step() == diff
    assert CTX.dq(f) == expected


def test_alpha_constants():
    assert ALPHA == (T2 + tpow(-2)) * HALF
    assert ALPHA2M1 == ALPHA * ALPHA - ONE
    assert ALPHA2M1 == ((T2 - tpow(-2)) ** 2).scale(rational(1, 4).as_rational())


def test_dq_examples():
    assert CTX.dq(XPoly([rational(7)])) == XPoly.zero()
    check_dq_against_lattice(X, XPoly.one())
    check_dq_against_lattice(X ** 2, X.scale(ALPHA * 2))
    g3 = gamma_at(3)
    check_dq_against_lattice(X ** 3, X.scale(g3) * X + XPoly([(rational(3) - g3) / 4]))


def test_sq_examples():
    assert CTX.sq(XPoly.one()) == XPoly.one()
    assert CTX.sq(X) == X.scale(ALPHA)
    expected = (X ** 2).scale(ALPHA * ALPHA * 2 - ONE) + XPoly([ONE - ALPHA * ALPHA])
    assert CTX.sq(X ** 2) == expected
    # product-rule cross-check: S_q(x*x) = (D_q x)^2 U_2 + (S_q x)^2
    assert expected == u2() + CTX.sq(X) * CTX.sq(X)


def test_u2_shape():
    w = u2()
    assert w.degree == 2
    assert w.coeff(2) == ALPHA2M1
    assert sum(w.coeffs(), ZERO) == ZERO  # value at x = 1
    assert w.coeff(0) - w.coeff(1) + w.coeff(2) == ZERO  # value at x = -1


def test_product_rules():
    rng = random.Random(31)
    w = u2()
    for _ in range(40):
        f = rand_xpoly(rng, rng.randint(0, 8))
        g = rand_xpoly(rng, rng.randint(0, 8))
        df, dg = CTX.dq(f), CTX.dq(g)
        sf, sg = CTX.sq(f), CTX.sq(g)
        assert CTX.dq(f * g) == df * sg + sf * dg
        assert CTX.sq(f * g) == df * dg * w + sf * sg


def test_linearity():
    rng = random.Random(32)
    c1, c2 = tpow(3) + ONE, upow(1) - tpow(-2)
    for _ in range(10):
        f = rand_xpoly(rng, 6)
        g = rand_xpoly(rng, 6)
        combo = f.scale(c1) + g.scale(c2)
        assert CTX.dq(combo) == CTX.dq(f).scale(c1) + CTX.dq(g).scale(c2)
        assert CTX.sq(combo) == CTX.sq(f).scale(c1) + CTX.sq(g).scale(c2)


def test_degree_and_leading_laws():
    rng = random.Random(33)
    for deg in range(1, 13):
        f = rand_xpoly(rng, deg)
        if f.degree != deg:
            continue
        df = CTX.dq(f)
        assert df.degree == deg - 1
        assert df.leading == gamma_at(deg) * f.leading
        sf = CTX.sq(f)
        assert sf.degree == deg
        assert sf.leading == alpha_at(deg) * f.leading


def test_sq_degree_zero():
    f = XPoly([tpow(5)])
    assert CTX.sq(f) == f


def test_sym_side_operators():
    ctx = context()
    g = x_to_z(X ** 3 - X.scale(tpow(2)))
    assert ctx.dq_sym(g) == x_to_z(ctx.dq(X ** 3 - X.scale(tpow(2))))
    assert ctx.sq_sym(g) == x_to_z(ctx.sq(X ** 3 - X.scale(tpow(2))))
    assert ctx.dq_sym(g).is_symmetric()
    assert ctx.sq_sym(g).is_symmetric()


def test_context_is_shared():
    assert context() is context()
    fresh = OperatorContext()
    assert fresh.u2() == context().u2()


def rand_sympoly(rng, deg):
    terms = {}
    for m in range(deg + 1):
        c = Scalar.from_terms(
            {(rng.randint(-4, 4), rng.randint(-1, 1)): rng.randint(-3, 3)
             for _ in range(rng.randint(1, 3))}
        )
        terms[m] = terms[-m] = c
    return ZLaurent(terms)


def test_closed_forms_match_definition():
    """dq_sym and sq_sym against the shifted copies, the division by delta
    and the halved sum that define them."""
    ctx = context()
    delta = delta_half_step()
    rng = random.Random(34)
    # c_{n,1} = (alpha^2 - 1)(u - u^-1)/(t^2 - t^-2), by exact division
    c_n1 = ALPHA2M1 * (U - upow(-1)) / (T2 - tpow(-2))
    cases = [rand_sympoly(rng, deg) for deg in range(9) for _ in range(3)]
    cases.append(ZLaurent({2: c_n1, 0: ONE + c_n1, -2: c_n1}))
    cases.append(ZLaurent({1: c_n1, -1: c_n1}))
    for f in cases:
        plus, minus = z_scale(f, 1), z_scale(f, -1)
        assert ctx.dq_sym(f) == (plus - minus).divide_exact(delta)
        assert ctx.sq_sym(f) == (plus + minus).scale(HALF)
        assert ctx.dq_sym(f).is_symmetric()
        assert ctx.sq_sym(f).is_symmetric()


def test_operators_do_not_divide(monkeypatch):
    f = counterexample_family().poly(10)

    def refuse(*args):
        raise AssertionError("division on the operator path")

    monkeypatch.setattr(Scalar, "__truediv__", refuse)
    monkeypatch.setattr(ZLaurent, "divide_exact", refuse)
    assert CTX.dq(f).degree == 9
    assert CTX.sq(f).degree == 10
