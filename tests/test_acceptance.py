"""Acceptance gate: the seven headline checks, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict
lines inline; without -s they still appear in captured output.
Tolerances and budgets are pinned here, not configurable.
"""

import random
import time

import pytest

from qaw.awcore import context, u2
from qaw.families import (
    B_SYM,
    C_SYM,
    COUNTEREXAMPLE_PARAMS,
    FamilyParams,
    aw_hyp_poly,
    coeff_suite,
    counterexample_family,
    dual_qhahn_family,
    dual_qhahn_rec_coeffs,
)
from qaw.inductor import certify_base_case, certify_dq_step, certify_sq_step
from qaw.numeric import NumericConfig, numeric_crosscheck
from qaw.scalar import ONE, T, U, ZERO, rational, tpow, upow
from qaw.structure import bandwidth_scan, iter_proposition_reports
from qaw.zsym import XPoly

SWEEP_NMAX = 40
SWEEP_BUDGET_S = 300.0
ORACLE_NMAX = 8
PAIR_COUNT = 200
PAIR_DEGREE = 8
LAW_DEGREE = 12
NUMERIC_NMAX = 15
NUMERIC_REL_TOL = 1e-9
NUMERIC_BUDGET_S = 10.0
CTX = context()


def verdict(num, label, ok, detail=""):
    line = "[%s] criterion %d: %s" % ("PASS" if ok else "FAIL", num, label)
    if detail:
        line += " -- " + detail
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def sweep():
    t0 = time.perf_counter()
    reports = list(iter_proposition_reports(SWEEP_NMAX))
    return reports, time.perf_counter() - t0


def test_criterion_1_proposition_sweep(sweep):
    reports, elapsed = sweep
    all_pass = all(r.status == "pass" for r in reports)
    no_residuals = all(not r.residuals for r in reports)
    covered = {r.n for r in reports} == set(range(SWEEP_NMAX + 1))
    ok = all_pass and no_residuals and covered and elapsed < SWEEP_BUDGET_S
    verdict(
        1,
        "both relations hold exactly for n <= %d" % SWEEP_NMAX,
        ok,
        "%d reports, %.1fs" % (len(reports), elapsed),
    )


def test_criterion_2_bandwidth_shape(sweep):
    reports, _ = sweep
    fam = counterexample_family()
    summary = bandwidth_scan(fam, u2(), SWEEP_NMAX, reports=reports)
    # c_{n,4} = C_{n-1} C_n u^-1 t (t^2 - t^-2)/2, and C_n vanishes only
    # at n = 0, so c_{n,4} is nonzero for every n >= 2
    got = coeff_suite().c_n4
    factored = C_SYM.shift_n(-1) * C_SYM / U * T * (tpow(2) - tpow(-2)) / 2
    shape_ok = (
        summary.status == "pass"
        and (summary.max_r, summary.max_s) == (2, 1)
        and summary.offset_m2_all_nonzero
    )
    witness_ok = got == factored and not got.is_zero
    verdict(
        2,
        "relation has shape (r, s) = (2, 1) with nonzero offset -2 for all n in [2, %d]"
        % SWEEP_NMAX,
        shape_ok and witness_ok,
        "symbolic witness nonzero" if witness_ok else "witness check failed",
    )


def test_criterion_3_proof_certificates():
    certs = certify_sq_step() + certify_dq_step() + certify_base_case()
    all_zero = all(c.verdict == "zero" for c in certs)
    verdict(
        3,
        "the derived step and the base case certify as zero in Q[t^+-1, u^+-1]",
        all_zero and len(certs) == 15,
        "%d certificates" % len(certs),
    )


def test_criterion_4_oracle_agreement():
    generic = FamilyParams(T, tpow(2), tpow(3), tpow(4))
    ok = True
    for params in (COUNTEREXAMPLE_PARAMS, generic):
        fam = dual_qhahn_family(params)
        for n in range(ORACLE_NMAX + 1):
            hyp = aw_hyp_poly(n, params.a, params.b, params.c, ZERO, params.base)
            ok = ok and hyp.coeffs() == fam.poly(n).coeffs()
    verdict(
        4,
        "hypergeometric and recurrence constructions agree termwise for n <= %d"
        % ORACLE_NMAX,
        ok,
        "two parameter sets, exact equality",
    )


def test_criterion_5_coefficient_consistency():
    ctr = counterexample_family()
    sub = dual_qhahn_family(COUNTEREXAMPLE_PARAMS)
    per_n = all(
        sub.rec_a(n) == ctr.rec_a(n) and sub.rec_b(n) == ctr.rec_b(n)
        for n in range(SWEEP_NMAX + 1)
    )
    an, bn = dual_qhahn_rec_coeffs(COUNTEREXAMPLE_PARAMS, U)
    symbolic = an == B_SYM and bn == C_SYM
    verdict(
        5,
        "substituted recurrence coefficients equal the closed forms",
        per_n and symbolic,
        "per-n to %d and symbolically in u" % SWEEP_NMAX,
    )


def test_criterion_6_operator_laws():
    rng = random.Random(0)
    w = u2()
    ok = True
    for _ in range(PAIR_COUNT):
        f = XPoly([rational(rng.randint(-9, 9)) for _ in range(rng.randint(1, PAIR_DEGREE + 1))])
        g = XPoly([rational(rng.randint(-9, 9)) for _ in range(rng.randint(1, PAIR_DEGREE + 1))])
        df, dg = CTX.dq(f), CTX.dq(g)
        sf, sg = CTX.sq(f), CTX.sq(g)
        ok = ok and CTX.dq(f * g) == df * sg + sf * dg
        ok = ok and CTX.sq(f * g) == df * dg * w + sf * sg
    def gamma_at(n):
        # the q-integer (t^(2n) - t^(-2n)) / (t^2 - t^-2), by exact division
        return (tpow(2 * n) - tpow(-2 * n)) / (tpow(2) - tpow(-2))

    alpha = (U + upow(-1)) / 2
    laws = True
    for deg in range(1, LAW_DEGREE + 1):
        f = XPoly([rational(rng.randint(-9, 9)) for _ in range(deg)] + [ONE])
        df, sf = CTX.dq(f), CTX.sq(f)
        laws = laws and df.degree == deg - 1 and df.leading == gamma_at(deg)
        laws = laws and sf.degree == deg and sf.leading == alpha.instantiate_n(deg)
    verdict(
        6,
        "product rules on %d random pairs and degree/leading laws to degree %d"
        % (PAIR_COUNT, LAW_DEGREE),
        ok and laws,
        "seed 0, exact equality",
    )


def test_criterion_7_numeric_second_witness():
    cfg = NumericConfig()
    t0 = time.perf_counter()
    summary = numeric_crosscheck(cfg, NUMERIC_NMAX)
    elapsed = time.perf_counter() - t0
    ok = (
        summary.status == "pass"
        and summary.max_rel_dev < NUMERIC_REL_TOL
        and elapsed < NUMERIC_BUDGET_S
    )
    verdict(
        7,
        "float lattice pipeline tracks the exact pipeline for n <= %d" % NUMERIC_NMAX,
        ok,
        "max rel dev %.3g, %.1fs" % (summary.max_rel_dev, elapsed),
    )
