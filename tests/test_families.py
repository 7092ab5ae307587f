"""Recurrence families, closed-form coefficients, and the hypergeometric oracle."""

import json
import os
import subprocess
import sys

import pytest

from qaw import families, zsym
from qaw.awcore import ALPHA
from qaw.cli import main
from qaw.families import (
    ALPHA_SYM,
    B_SYM,
    C_SYM,
    COUNTEREXAMPLE_PARAMS,
    CoeffSuite,
    FamilyParams,
    OPSFamily,
    aw_hyp_poly,
    c_SYM,
    coeff_suite,
    counterexample_family,
    dual_qhahn_family,
    dual_qhahn_rec_coeffs,
)
from qaw.inductor import _step, _suites
from qaw.scalar import HALF, ONE, T, U, ZERO, ExactDivisionError, Scalar, rational, tpow, upow
from qaw.zsym import XPoly, ZLaurent, x_to_z

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
    for n in range(13):
        p = fam.poly(n)
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
    # the recurrence divides by a and by the base, so both must be
    # nonzero monomials, which keeps every a_n and b_n Laurent
    for a, base in ((ONE + T, tpow(2)), (ZERO, tpow(2)), (ONE, tpow(2) + T), (T, ONE - U)):
        with pytest.raises(ValueError, match="nonzero monomial"):
            FamilyParams(a, ONE, T, base)
    with pytest.raises(ValueError, match="nonzero monomial"):
        aw_hyp_poly(2, ONE, ONE, T, ZERO, ONE + tpow(2))
    p = FamilyParams(-HALF * T, ONE + T, upow(0), rational(3) * tpow(4))
    assert dual_qhahn_rec_coeffs(p, p.base ** 3)[1] == dual_qhahn_family(p).rec_b(3)


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


def test_one_t_minus_t_is_al_salam_chihara():
    # (1, t, -t | t^2) is Al-Salam-Chihara with (alpha, beta) = (1, t^2) in
    # base q = t^4 (Koekoek-Lesky-Swarttouw 14.8), whose monic recurrence
    # has a_n = (alpha + beta) q^n / 2 and
    # b_n = (1 - q^n)(1 - alpha beta q^(n-1)) / 4; here q^n = u^2
    an, bn = dual_qhahn_rec_coeffs(FamilyParams(ONE, T, -T, tpow(2)), U)
    alpha, beta, q, qn = ONE, tpow(2), tpow(4), U * U
    assert an == (alpha + beta) * qn / 2
    assert bn == (ONE - qn) * (ONE - alpha * beta * qn / q) / 4


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
    # the sum is the continuous dual q-Hahn case only: d != 0 is refused
    with pytest.raises(ValueError, match="parameter d"):
        aw_hyp_poly(1, ONE, -ONE, T, T, tpow(2))


def test_oracle_stays_off_the_recurrence_side(monkeypatch):
    # the 4phi3 sum is built in x alone: neither z_to_x nor the family
    # cache that the recurrence side of `verify oracle` reads
    sets = (COUNTEREXAMPLE_PARAMS, GENERIC)
    want = [[dual_qhahn_family(p).poly(n) for n in range(5)] for p in sets]

    def refuse(*args):
        raise AssertionError("the oracle reached the recurrence side")

    for module in (zsym, families):
        monkeypatch.setattr(module, "z_to_x", refuse)
    for name in ("zpoly", "poly"):
        monkeypatch.setattr(OPSFamily, name, refuse)
    for p, polys in zip(sets, want):
        for n, pn in enumerate(polys):
            assert aw_hyp_poly(n, p.a, p.b, p.c, ZERO, p.base) == pn
    # each z-factor (1 - g z)(1 - g z^-1) of the sum is (1 + g^2) - 2 g x
    for g in (ONE, T, -tpow(3), T * U):
        factor = XPoly([ONE + g * g, g.scale(-2)])
        assert x_to_z(factor) == ZLaurent({1: -g, -1: -g, 0: ONE + g * g})


def test_suite_values_at_zero_and_one():
    s = coeff_suite()
    assert s.c_n.instantiate_n(0) == ZERO
    assert s.alpha_n.instantiate_n(0) == ONE
    assert s.c_n1.instantiate_n(1) == ALPHA * ALPHA - ONE
    assert s.c_n1.instantiate_n(0) == ZERO
    c1 = s.c_n.instantiate_n(1)
    c0 = s.c_n.instantiate_n(0)
    assert c1 - ALPHA * c0 + (ONE - ALPHA) * s.alpha_n.instantiate_n(0) * B_at(0) == ZERO


def test_suite_closed_forms_cohere():
    s = coeff_suite()
    assert s.B_n == B_SYM and s.C_n == C_SYM
    assert s.c_n == c_SYM
    assert s.c_n == C_SYM / U * T
    assert s.alpha_n == ALPHA_SYM
    # instantiated mode substitutes every field consistently
    inst = coeff_suite(4)
    assert inst.c_n2 == s.c_n2.instantiate_n(4)
    assert not inst.c_n4.has_u


def test_dq_coefficients_divide_by_t2_minus_t_minus2():
    # the closed-form side of the kernel's factored D_q elimination, whose
    # E_k are t^2 - t^-2 times integer Laurent polynomials
    s = coeff_suite()
    d = tpow(2) - tpow(-2)
    for c in (s.c_n1, s.c_n2, s.c_n3, s.c_n4):
        assert (c / d) * d == c
    # the S_q coefficients carry no such factor
    for c in (s.alpha_n, s.c_n):
        with pytest.raises(ExactDivisionError):
            c / d


def reference_suite() -> CoeffSuite:
    """The suite's formulas on Scalars, with gamma_n's denominator as the
    one division.

    The independent build that `coeff_suite` is checked against: c_{n,1}
    comes from (alpha^2 - 1) gamma_n, gamma_n = (u - u^-1)/(t^2 - t^-2),
    by exact division rather than from its Laurent form.
    """
    al, B, C, c = ALPHA_SYM, B_SYM, C_SYM, c_SYM
    a = ALPHA
    ga_num, ga_den = U - upow(-1), tpow(2) - tpow(-2)

    c1 = (a * a - ONE) * ga_num / ga_den
    c2 = c.shift_n(1) - a * c + (ONE - a) * al * B
    c3 = (B - a * B.shift_n(-1)) * c + (ONE - a * a) * ga_num * C / ga_den
    c4 = c.shift_n(-1) * C - a * c * C.shift_n(-1)
    return CoeffSuite(al, B, C, c, c1, c2, c3, c4)


def transcribed_d(s: CoeffSuite) -> list:
    """The paper's d_{k,1..6}, the coefficients of U_2 D_q P_{k+1} at
    offsets +2 .. -3 from k, as displayed, on the suite s at index k.

    The (alpha - 1) c_{k,2} B term of d_{k,3} takes B at index k.
    """
    al, B, C, c, c1, c2, c3, c4 = s
    a = ALPHA
    a2m1 = a * a - ONE
    Bm1, Bp1, Bm2 = B.shift_n(-1), B.shift_n(1), B.shift_n(-2)
    Cm1, Cp1, Cm2 = C.shift_n(-1), C.shift_n(1), C.shift_n(-2)

    d1 = a2m1 * al + a * c1
    d2 = a2m1 * (c + al * (B + Bp1)) + a * c2 - (B - a * Bp1) * c1
    d3 = (
        a2m1 * ((B + Bm1) * c + al * (B * B + C + Cp1 - ONE))
        + a * c1 * Cp1
        - c1.shift_n(-1) * C
        + (a - ONE) * c2 * B
        + a * c3
    )
    d4 = (
        a2m1 * ((B + Bm1) * al * C + (C + Bm1 * Bm1 + Cm1 - ONE) * c)
        - (c2.shift_n(-1) - a * c2) * C
        - (B - a * Bm1) * c3
        + a * c4
    )
    d5 = (
        a2m1 * Cm1 * (al * C + c * (Bm1 + Bm2))
        + a * c3 * Cm1
        - c3.shift_n(-1) * C
        - (B - a * Bm2) * c4
    )
    d6 = a2m1 * c * Cm1 * Cm2 + a * c4 * Cm2 - c4.shift_n(-1) * C
    return [d1, d2, d3, d4, d5, d6]


def test_transcribed_d_is_the_derived_step():
    # paper fidelity: the derivation of `inductor` reproduces the
    # displayed d_{k,1..6} offset by offset
    s = reference_suite()
    d = transcribed_d(s)
    _, dq_next = _step(_suites(None))
    assert [dq_next[j] for j in range(2, -4, -1)] == d
    # and settles the index of d_{k,3}'s B factor: B at k + 1 differs
    d3_k1 = d[2] + (ALPHA - ONE) * s.c_n2 * (s.B_n.shift_n(1) - s.B_n)
    assert d3_k1 != dq_next[0]


def suite_mismatches(suite: CoeffSuite, ref: CoeffSuite) -> list[str]:
    """Members that differ in value or in their stored terms."""

    def terms(s):
        return list(s.numerator_terms()), list(s.denominator_terms())

    return [
        name
        for name, got, want in zip(CoeffSuite._fields, suite, ref)
        if got != want or terms(got) != terms(want)
    ]


def test_suite_matches_the_fraction_build():
    suite, ref = coeff_suite(), reference_suite()
    assert len(suite) == 8
    assert suite_mismatches(suite, ref) == []


def test_sign_flipped_c_n1_is_caught(monkeypatch, capsys):
    monkeypatch.setattr(families, "_C_N1", -families._C_N1)
    # the members that read c_{n,1} change with it
    assert suite_mismatches(families._build_symbolic_suite(), reference_suite()) == [
        "c_n1", "c_n3",
    ]
    # `verify proof` reads the flipped suite: seven step certificates
    # turn nonzero and the command fails
    monkeypatch.setattr(families, "_SYMBOLIC_SUITE", None)
    assert main(["verify", "proof", "--format", "json"]) == 1
    recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["name"] for r in recs if r.get("verdict") == "nonzero"] == [
        "sq-offset-m1-cancels", "sq-alpha-advance", "dq-offset-p2",
        "dq-offset-p1", "dq-offset-0", "dq-offset-m1", "dq-offset-m2-cancels",
    ]


def test_import_and_suite_load_no_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize: a cold start
    # of every command paid for them before the records became tuples
    code = (
        "import sys; before = set(sys.modules); import qaw; qaw.coeff_suite(); "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(families.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    ).stdout.split()
    assert "qaw.families" in out
    assert not {"dataclasses", "inspect", "ast"} & set(out)


def test_c_positivity_at_sampled_q():
    s = coeff_suite()
    for n in range(1, 21):
        cn = s.C_n.instantiate_n(n)
        for q0 in (0.3, 0.7):
            assert cn.evaluate(q0) > 0.0


def test_custom_family_recurrence():
    fam = OPSFamily(lambda n: ZERO, lambda n: rational(1))
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


def t_inverse(s):
    """s with t -> t^-1."""
    return Scalar.from_terms({(-i, j): c for i, j, c in s.laurent_terms()})


@pytest.mark.parametrize(
    "params",
    [
        GENERIC,
        COUNTEREXAMPLE_PARAMS,
        FamilyParams(ONE, T, -T, tpow(2)),
        FamilyParams(T, rational(-1), tpow(2), -tpow(2)),
    ],
    ids=["generic", "counterexample", "1,t,-t|t^2", "t,-1,t^2|-t^2"],
)
def test_inverting_the_parameters_inverts_t_in_the_recurrence(params):
    # (a, b, c | q) -> (1/a, 1/b, 1/c | 1/q) maps a_n and b_n by t -> t^-1:
    # every parameter here is +-t^k, which inversion sends to +-t^-k
    fam = dual_qhahn_family(params)
    inv = dual_qhahn_family(FamilyParams(*(ONE / v for v in params)))
    for n in range(9):
        assert inv.rec_a(n) == t_inverse(fam.rec_a(n))
        assert inv.rec_b(n) == t_inverse(fam.rec_b(n))
