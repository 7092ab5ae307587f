"""Float lattice pipeline against the exact operators."""

import random
from fractions import Fraction

import pytest

import qaw.awcore
from qaw import structure
from qaw.awcore import OperatorContext, context, u2
from qaw.families import OPSFamily, counterexample_family
from qaw.numeric import (
    NumericConfig,
    eval_poly,
    lattice_dq,
    lattice_sq,
    numeric_crosscheck,
)
from qaw.scalar import Rat, Scalar, T, U, rational
from qaw.structure import _operator_xrows, _unpack, _xrow_floats
from qaw.zsym import XPoly
from test_structure import bumped_family

X = XPoly.x()
CTX = context()


def rand_xpoly(rng, deg):
    return XPoly([rational(rng.randint(-9, 9)) for _ in range(deg + 1)])


def test_eval_poly_examples():
    assert eval_poly(XPoly.one(), 0.5, 2.0) == 1.0
    p1 = X - XPoly([T])
    assert eval_poly(p1, 0.25, 0.7071067811865476) == pytest.approx(0.0, abs=1e-12)
    assert eval_poly(u2(), 0.3, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert eval_poly(u2(), 0.3, -1.0) == pytest.approx(0.0, abs=1e-15)


def test_eval_poly_with_symbolic_index():
    # a coefficient in u is evaluated at its index, then Horner runs on
    # the floats
    f = XPoly([U, T])
    v = eval_poly([c.instantiate_n(2).evaluate(0.5) for c in f.coeffs()], 0.5, 2.0)
    assert v == pytest.approx(2.0 * 0.5 ** 0.25 + 0.5, rel=1e-12)


def test_config_validation():
    NumericConfig()
    with pytest.raises(ValueError):
        NumericConfig(q_samples=(0.0,))
    with pytest.raises(ValueError):
        NumericConfig(x_samples=(0.5,))
    with pytest.raises(ValueError):
        NumericConfig(x_samples=(float("inf"),))
    with pytest.raises(ValueError):
        NumericConfig(x_samples=(float("nan"),))
    with pytest.raises(ValueError):
        NumericConfig(rel_tol=0.0)
    # configurations that would compare nothing, or pass any deviation
    for bad in (
        dict(q_samples=()),
        dict(x_samples=()),
        dict(abs_tol=float("inf")),
        dict(abs_tol=float("nan")),
        dict(abs_tol=-1e-12),
        dict(rel_tol=float("inf")),
        dict(rel_tol=float("nan")),
    ):
        with pytest.raises(ValueError):
            NumericConfig(**bad)


def test_lattice_needs_outside_unit_interval():
    with pytest.raises(ValueError):
        lattice_dq(X, 0.5, 0.9)
    with pytest.raises(ValueError):
        lattice_sq(X, 0.5, -1.0)


def test_lattice_matches_exact_operators():
    rng = random.Random(51)
    for _ in range(15):
        f = rand_xpoly(rng, rng.randint(0, 10))
        for q0 in (0.3, 0.7):
            for x0 in (1.1, 1.5, 2.0):
                want = eval_poly(CTX.dq(f), q0, x0)
                got = lattice_dq(f, q0, x0)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
                want = eval_poly(CTX.sq(f), q0, x0)
                got = lattice_sq(f, q0, x0)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_crosscheck_base_case():
    cfg = NumericConfig()
    summary = numeric_crosscheck(cfg, 0)
    assert summary.status == "pass"
    assert summary.max_rel_dev == 0.0


def test_crosscheck_default_grid():
    cfg = NumericConfig()
    summary = numeric_crosscheck(cfg, 15)
    assert summary.status == "pass"
    assert summary.max_rel_dev < 1e-9
    rec = summary.record()
    assert rec["check"] == "numeric"
    assert rec["nmax"] == 15
    assert "q in" in rec["grid"]


def test_deviation_growth_stays_tame():
    cfg = NumericConfig(rel_tol=1e-8)
    summary = numeric_crosscheck(cfg, 20)
    assert summary.status == "pass"
    assert summary.max_rel_dev < 1e-8


def test_crosscheck_stays_on_the_z_side(monkeypatch):
    # the exact side is the integer kernel's z-rows, turned to x there:
    # neither x_to_z nor the Q(t, u) route of the family cache and awcore
    def refuse(*args):
        raise AssertionError("a conversion or the Q(t, u) route was called")

    for module in (qaw.awcore, structure):
        monkeypatch.setattr(module, "x_to_z", refuse)
    for module in (qaw.zsym, qaw.families):
        monkeypatch.setattr(module, "z_to_x", refuse)
    for cls, name in (
        (OPSFamily, "poly"),
        (OPSFamily, "zpoly"),
        (OperatorContext, "dq_sym"),
        (OperatorContext, "sq_sym"),
    ):
        monkeypatch.setattr(cls, name, refuse)
    summary = numeric_crosscheck(NumericConfig(), 6)
    assert summary.status == "pass"


def test_crosscheck_guards():
    with pytest.raises(ValueError):
        numeric_crosscheck(NumericConfig(), -1)


def exact(f):
    """The XPoly that the kernel's x-rows f stand for."""
    rows, shift, w, g = f
    return XPoly(
        [
            Scalar.from_terms({(e, 0): c for e, c in _unpack(r, w, g).items()}).scale(
                Rat(1, 1 << shift)
            )
            for r in rows
        ]
    )


def test_kernel_xrows_are_the_exact_operators():
    # the slow reference: the recurrence on Q(t, u) and the closed-form
    # operators of awcore on the x side
    fam = counterexample_family()
    polys, sq, dq = _operator_xrows(10, fam)
    assert len(polys) == 12 and len(sq) == len(dq) == 11
    for k, f in enumerate(polys):
        assert exact(f) == fam.poly(k)
    for n in range(11):
        p = fam.poly(n)
        assert exact(sq[n]) == CTX.sq(p)
        assert exact(dq[n]) == u2() * CTX.dq(p)


def test_xrow_floats_are_the_digit_sums():
    # every float is the slot-order sum of the correctly rounded digit
    # quotients times q0^(e/4), at every q0 of one call
    polys, sq, dq = _operator_xrows(10, counterexample_family())
    qs = (0.3, 0.7)
    for rows, shift, w, g in polys + sq + dq:
        got = _xrow_floats((rows, shift, w, g), qs)
        for q0, fs in zip(qs, got):
            want = []
            for r in rows:
                digits = sorted(_unpack(r, w, g).items())
                want.append(
                    sum(
                        (
                            float(Fraction(c, 1 << shift)) * q0 ** (0.25 * e)
                            for e, c in digits
                        ),
                        0.0,
                    )
                )
            assert [f.hex() for f in fs] == [f.hex() for f in want]


def test_breakdown_is_named_at_its_q_sample():
    # rows are evaluated at every q sample on first use; a q0 whose powers
    # overflow is still the one the failure names
    cfg = NumericConfig(q_samples=(0.3, 1e-300, 0.7))
    rec = numeric_crosscheck(cfg, 2).record()
    assert rec["status"] == "fail"
    assert "q=1e-300" in rec["worst"]


def test_tiny_slot_width_gives_the_same_record(monkeypatch):
    want = numeric_crosscheck(NumericConfig(), 12).record()
    monkeypatch.setattr(structure, "_SLOT_BITS", 8)
    # 8-bit slots cannot hold these rows, so the kernel widened
    assert _operator_xrows(12, counterexample_family())[0][-1][2] > 8
    assert numeric_crosscheck(NumericConfig(), 12).record() == want


def test_non_integral_family_is_refused():
    with pytest.raises(ValueError, match="integral 2 a_n and 4 b_n"):
        _operator_xrows(4, bumped_family(rational(1, 3)))

