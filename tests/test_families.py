"""Recurrence families, closed-form coefficients, and the hypergeometric oracle."""

import pytest

from qaw.awcore import ALPHA
from qaw.families import (
    ALPHA_SYM,
    B_SYM,
    C_SYM,
    COUNTEREXAMPLE_PARAMS,
    GAMMA_SYM,
    FamilyParams,
    OPSFamily,
    aw_hyp_poly,
    c_SYM,
    coeff_suite,
    counterexample_family,
    dual_qhahn_family,
    dual_qhahn_rec_coeffs,
    qpochhammer,
    ttrr_polys,
)
from qaw.scalar import HALF, ONE, Q, T, U, ZERO, rational, tpow, upow
from qaw.zsym import XPoly

X = XPoly.x()
GENERIC = FamilyParams(T, tpow(2), tpow(3), tpow(4))


def B_at(n):
    return B_SYM.instantiate_n(n)


def C_at(n):
    return C_SYM.instantiate_n(n)


def test_first_polys():
    fam = counterexample_family()
    assert fam.poly(0) == XPoly.one()
    assert fam.poly(1) == X - XPoly([T])
    p2 = X ** 2 - X.scale(B_at(0) + B_at(1)) + XPoly([B_at(0) * B_at(1) - C_at(1)])
    assert fam.poly(2) == p2
    assert fam.poly(-1) == XPoly.zero()
    assert fam.poly(-2) == XPoly.zero()


def test_counterexample_rec_values():
    fam = counterexample_family()
    assert fam.rec_a(0) == T
    assert fam.rec_b(0) == ZERO
    assert fam.rec_b(1) == (ONE - tpow(2)) ** 2 * HALF


def test_monic_and_degree():
    fam = counterexample_family()
    for n, p in enumerate(ttrr_polys(fam, 12)):
        assert p.degree == n
        assert p.leading == ONE


def test_zpoly_matches_xpoly():
    # the x-forms are conversions of the z-forms, so the oracle is the
    # recurrence itself, run in XPoly arithmetic
    for fam in (counterexample_family(), dual_qhahn_family(GENERIC)):
        for n in range(9):
            assert fam.zpoly(n).is_symmetric()
            step = (X - XPoly([fam.rec_a(n)])) * fam.poly(n)
            assert fam.poly(n + 1) == step - fam.poly(n - 1).scale(fam.rec_b(n))


def test_family_params_validation():
    with pytest.raises(ValueError):
        FamilyParams(ONE, ONE, T, ZERO)
    with pytest.raises(ValueError):
        FamilyParams(ONE, ONE, T, ONE)


def test_dual_qhahn_examples():
    fam = dual_qhahn_family(COUNTEREXAMPLE_PARAMS)
    assert fam.rec_b(0) == ZERO
    assert fam.rec_a(0) == T
    assert fam.rec_b(1) == (ONE - tpow(2)) ** 2 * HALF


def test_substitution_consistency_per_n():
    ctr = counterexample_family()
    sub = dual_qhahn_family(COUNTEREXAMPLE_PARAMS)
    for n in range(13):
        assert sub.rec_a(n) == ctr.rec_a(n)
        assert sub.rec_b(n) == ctr.rec_b(n)


def test_substitution_consistency_symbolic():
    # u stands for base^n, so the display becomes the closed forms exactly
    an, bn = dual_qhahn_rec_coeffs(COUNTEREXAMPLE_PARAMS, U)
    assert an == B_SYM
    assert bn == C_SYM


def test_qpochhammer():
    a = tpow(3)
    assert qpochhammer(a, Q, 0) == ONE
    assert qpochhammer(Q, Q, 1) == ONE - Q
    assert qpochhammer(a, Q, 2) == (ONE - a) * (ONE - a * Q)


def test_aw_hyp_poly_small():
    p = COUNTEREXAMPLE_PARAMS
    assert aw_hyp_poly(0, p.a, p.b, p.c, ZERO, p.base) == XPoly.one()
    assert aw_hyp_poly(1, p.a, p.b, p.c, ZERO, p.base) == X - XPoly([T])


@pytest.mark.parametrize("params", [COUNTEREXAMPLE_PARAMS, GENERIC], ids=["counterexample", "generic"])
def test_aw_hyp_poly_matches_recurrence(params):
    fam = dual_qhahn_family(params)
    for n in range(6):
        assert aw_hyp_poly(n, params.a, params.b, params.c, ZERO, params.base) == fam.poly(n)


def test_aw_hyp_poly_guards():
    with pytest.raises(ValueError):
        aw_hyp_poly(-1, ONE, ONE, T, ZERO, tpow(2))
    with pytest.raises(ValueError):
        aw_hyp_poly(2, ZERO, ONE, T, ZERO, tpow(2))
    # ab = 1 zeroes the denominator factor 1 - ab q^0 of the 4phi3 sum
    with pytest.raises(ValueError):
        aw_hyp_poly(2, tpow(2), tpow(-2), T, ZERO, tpow(4))


def test_suite_values_at_zero_and_one():
    s = coeff_suite()
    assert s.c_n.instantiate_n(0) == ZERO
    assert s.alpha_n.instantiate_n(0) == ONE
    assert s.gamma_n.instantiate_n(1) == ONE
    assert s.gamma_n.instantiate_n(0) == ZERO
    c1 = s.c_n.instantiate_n(1)
    c0 = s.c_n.instantiate_n(0)
    assert c1 - ALPHA * c0 + (ONE - ALPHA) * s.alpha_n.instantiate_n(0) * B_at(0) == ZERO


def test_suite_closed_forms_cohere():
    s = coeff_suite()
    assert s.B_n == B_SYM and s.C_n == C_SYM
    assert s.c_n == c_SYM
    assert s.c_n == C_SYM / U * T
    assert s.alpha_n == ALPHA_SYM and s.gamma_n == GAMMA_SYM
    # instantiated mode substitutes every field consistently
    inst = coeff_suite(symbolic=False, n=4)
    assert inst.c_n2 == s.c_n2.instantiate_n(4)
    assert not inst.d_k5.has_u
    with pytest.raises(ValueError):
        coeff_suite(symbolic=False)


def test_c_positivity_at_sampled_q():
    s = coeff_suite()
    for n in range(1, 21):
        cn = s.C_n.instantiate_n(n)
        for q0 in (0.3, 0.7):
            assert cn.evaluate(q0) > 0.0


def test_custom_family_recurrence():
    fam = OPSFamily(lambda n: ZERO, lambda n: rational(1), name="chebyshev-like")
    # p_{n+1} = x*p_n - p_{n-1} with a_n = 0, b_n = 1
    assert fam.poly(2) == X ** 2 - 1
    assert fam.poly(3) == X ** 3 - X.scale(rational(2))


@pytest.mark.parametrize(
    "params",
    [COUNTEREXAMPLE_PARAMS, FamilyParams(ONE, T, -T, tpow(2)), GENERIC],
    ids=["counterexample", "1,t,-t|t^2", "generic"],
)
def test_negating_the_parameters_reflects_the_recurrence(params):
    # (a, b, c) -> (-a, -b, -c) maps a_n to -a_n and keeps b_n, so
    # p_n(x) -> (-1)^n p_n(-x)
    fam = dual_qhahn_family(params)
    neg = dual_qhahn_family(FamilyParams(-params.a, -params.b, -params.c, params.base))
    for n in range(9):
        assert neg.rec_a(n) == -fam.rec_a(n)
        assert neg.rec_b(n) == fam.rec_b(n)
