"""Symbolic-in-the-index certificates for the induction step."""

import json

import pytest

from qaw import families, inductor
from qaw.awcore import ALPHA, context
from qaw.cli import main
from qaw.families import coeff_suite, counterexample_family
from qaw.inductor import (
    IdentityCertificate,
    certify_base_case,
    certify_dq_step,
    certify_sq_step,
    derive_step,
    instantiation_coherence,
)
from qaw.scalar import ONE, ZERO
from qaw.zsym import XPoly


def test_advance_identities_direct():
    """The step recurrences, stated straight on the coefficient suite."""
    s = coeff_suite()
    assert s.alpha_n.shift_n(1) == s.c_n1 + ALPHA * s.alpha_n
    expected_next_c = s.c_n2 + ALPHA * s.c_n + (ALPHA - ONE) * s.alpha_n * s.B_n
    assert s.c_n.shift_n(1) == expected_next_c


def test_c4_factor_chain():
    s = coeff_suite()
    residual = s.c_n4 + ALPHA * s.c_n * s.C_n.shift_n(-1) - s.c_n.shift_n(-1) * s.C_n
    assert residual == ZERO


def test_sq_step_certificates():
    certs = certify_sq_step()
    assert [c.name for c in certs] == [
        "sq-offset-m1-cancels",
        "sq-offset-m2-cancels",
        "sq-alpha-advance",
        "sq-c-advance",
    ]
    assert all(c.verdict == "zero" for c in certs)
    assert all(c.residual.is_zero for c in certs)


def test_dq_step_certificates():
    certs = certify_dq_step()
    assert [c.name for c in certs] == [
        "dq-offset-p2",
        "dq-offset-p1",
        "dq-offset-0",
        "dq-offset-m1",
        "dq-offset-m2-cancels",
        "dq-offset-m3-cancels",
    ]
    assert all(c.verdict == "zero" for c in certs)
    assert all(c.record() == {"name": c.name, "verdict": "zero", "residual_text": ""} for c in certs)


def test_base_case_certificates():
    certs = certify_base_case()
    assert [c.name for c in certs] == [
        "base-alpha0",
        "base-c0",
        "base-c1-cancel",
        "base-sq-constant",
        "base-dq-constant",
    ]
    assert all(c.verdict == "zero" for c in certs)


def test_certificate_records():
    cert = certify_sq_step()[0]
    rec = cert.record()
    assert rec["name"] == cert.name
    assert rec["verdict"] == "zero"
    assert rec["residual_text"] == ""


def test_certificate_is_its_name_and_residual():
    # the verdict and the rendering are derived, never stored
    assert IdentityCertificate._fields == ("name", "residual")
    assert IdentityCertificate("c", ZERO).verdict == "zero"
    assert IdentityCertificate("c", ONE - ALPHA).verdict == "nonzero"


def test_operator_certificate_renders_the_whole_polynomial():
    # a failing base-case operator check shows every coefficient, not
    # only the leading one
    diff = XPoly.x() * ALPHA + ONE
    cert = IdentityCertificate("base-sq-constant", diff)
    assert cert.verdict == "nonzero"
    assert cert.record()["residual_text"] == diff.render()
    assert diff.render() != diff.leading.render()
    cert = IdentityCertificate("base-sq-constant", XPoly.zero())
    assert (cert.verdict, cert.record()["residual_text"]) == ("zero", "")


def test_instantiation_coherence_defaults():
    rows = instantiation_coherence()
    assert {r["k"] for r in rows} == {2, 3, 5, 8}
    assert all(r["status"] == "pass" for r in rows)
    assert all(r["check"] == "instantiation-coherence" for r in rows)
    # ten step identities per sampled index
    assert len(rows) == 40


def test_instantiation_coherence_custom_ks():
    rows = instantiation_coherence(ks=(4,))
    assert len(rows) == 10
    assert all(r["k"] == 4 and r["status"] == "pass" for r in rows)


def materialise(v, n):
    """sum_j v_j P_{n+j} as a polynomial, with P_m = 0 for m < 0."""
    fam = counterexample_family()
    out = XPoly.zero()
    for j, c in v.items():
        out = out + fam.poly(n + j).scale(c)
    return out


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_derived_step_is_the_operators_on_p_next(n):
    # the formal sums, read as polynomials, are S_q and U_2 D_q applied
    # to P_{n+1}: the derivation against the closed-form operators
    ctx = context()
    p_next = counterexample_family().poly(n + 1)
    sq_next, dq_next = derive_step(n)
    assert materialise(sq_next, n) == ctx.sq(p_next)
    assert materialise(dq_next, n) == ctx.u2() * ctx.dq(p_next)


def test_base_cases_of_the_formal_step():
    # at n = 0 and n = 1 the step reaches P_-1 and P_-2, which are zero;
    # the coefficients that multiply them vanish there
    s0, s1 = coeff_suite(0), coeff_suite(1)
    assert [s0.C_n, s0.c_n, s0.c_n3, s0.c_n4, s1.c_n4] == [ZERO] * 5
    for k in (0, 1):
        assert all(r.is_zero for _, r in inductor._residuals(k))


def nonzero_certificates(capsys) -> list[str]:
    """`qaw verify proof` must fail; the names of its nonzero certificates."""
    assert main(["verify", "proof", "--format", "json"]) == 1
    recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    return [r["name"] for r in recs if r.get("verdict") == "nonzero"]


def test_sign_flipped_c_n4_is_caught(monkeypatch, capsys):
    build = families._build_symbolic_suite
    monkeypatch.setattr(
        families, "_build_symbolic_suite", lambda: (s := build())._replace(c_n4=-s.c_n4)
    )
    monkeypatch.setattr(families, "_SYMBOLIC_SUITE", None)
    assert nonzero_certificates(capsys) == [
        "sq-offset-m2-cancels",
        "dq-offset-m1",
        "dq-offset-m2-cancels",
        "dq-offset-m3-cancels",
    ]


def test_dropped_product_rule_term_is_caught(monkeypatch, capsys):
    # U_2 S_q P_n is the one term of U_2 D_q P_{n+1} that _u2 builds
    monkeypatch.setattr(inductor, "_u2", lambda v, at: {})
    assert nonzero_certificates(capsys) == [
        "dq-offset-p2",
        "dq-offset-p1",
        "dq-offset-0",
        "dq-offset-m1",
        "dq-offset-m2-cancels",
        "dq-offset-m3-cancels",
    ]


def test_verify_proof_derives_the_symbolic_step_once(monkeypatch, capsys):
    residuals = inductor._residuals
    symbolic = []

    def spy(k=None):
        symbolic.append(k is None)
        return residuals(k)

    monkeypatch.setattr(inductor, "_residuals", spy)
    assert main(["verify", "proof", "--format", "json"]) == 0
    # one symbolic run, then one instantiated run per k
    assert symbolic == [True, False, False, False, False]
    # the shared run gives the records of the three separate calls
    recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    certs = certify_sq_step() + certify_dq_step() + certify_base_case()
    assert recs == [c.record() for c in certs] + instantiation_coherence()
