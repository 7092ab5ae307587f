"""Float lattice pipeline against the exact operators and the closed forms."""

import random
from collections import Counter

import pytest

import qaw.awcore
import qaw.numeric
from qaw import structure
from qaw.awcore import OperatorContext, context, u2
from qaw.families import OPSFamily
from qaw.numeric import (
    NumericConfig,
    _closed_values,
    _lattice_pair,
    _split_closed_forms,
    eval_poly,
    lattice_dq,
    lattice_sq,
    numeric_crosscheck,
)
from qaw.scalar import T, U, rational
from qaw.zsym import XPoly

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
    # a coefficient in u is instantiated at its index first; evaluate
    # refuses it as it stands
    f = XPoly([U, T])
    v = eval_poly(XPoly([c.instantiate_n(2) for c in f.coeffs()]), 0.5, 2.0)
    assert v == pytest.approx(2.0 * 0.5 ** 0.25 + 0.5, rel=1e-12)
    with pytest.raises(ValueError):
        eval_poly(f, 0.5, 2.0)


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
    # configurations that would compare nothing
    for bad in (dict(q_samples=()), dict(x_samples=())):
        with pytest.raises(ValueError):
            NumericConfig(**bad)


def test_lattice_needs_outside_unit_interval():
    with pytest.raises(ValueError):
        lattice_dq(lambda x: x, 0.5, 0.9)
    with pytest.raises(ValueError):
        lattice_sq(lambda x: x, 0.5, -1.0)


def test_lattice_matches_exact_operators():
    rng = random.Random(51)
    for _ in range(15):
        f = rand_xpoly(rng, rng.randint(0, 10))
        for q0 in (0.3, 0.7):
            for x0 in (1.1, 1.5, 2.0):
                want = eval_poly(CTX.dq(f), q0, x0)
                got = lattice_dq(lambda x: eval_poly(f, q0, x), q0, x0)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
                want = eval_poly(CTX.sq(f), q0, x0)
                got = lattice_sq(lambda x: eval_poly(f, q0, x), q0, x0)
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


@pytest.mark.parametrize("nmax", [20, 25])
def test_deviation_growth_stays_tame(nmax):
    # Horner's rule on the monomial x-forms lost 8.6e-9 by n = 25
    summary = numeric_crosscheck(NumericConfig(), nmax)
    assert summary.status == "pass"
    assert summary.max_rel_dev < NumericConfig().rel_tol


def test_off_grid_points_pass():
    # near q = 1 and x = 1 a float sum of the kernel's z-rows cancelled
    # and failed the correct family here (max_rel_dev 1.004 at sq n=20)
    cfg = NumericConfig(q_samples=(0.05, 0.95), x_samples=(-3.0, -1.5, 1.01))
    summary = numeric_crosscheck(cfg, 30)
    assert summary.status == "pass"
    assert summary.max_rel_dev < cfg.rel_tol


def test_crosscheck_stays_off_the_kernel(monkeypatch):
    # the lattice side is the float recurrence and the other side the
    # closed forms: neither the integer kernel nor x_to_z nor the
    # Q(t, u) route of the family cache, awcore and expand_in_basis
    def refuse(*args):
        raise AssertionError("the kernel, a conversion or the Q(t, u) route was called")

    monkeypatch.setattr(qaw.awcore, "x_to_z", refuse)
    for module in (qaw.zsym, qaw.families):
        monkeypatch.setattr(module, "z_to_x", refuse)
    for name in ("_Kernel", "_lincomb", "_unpack", "expand_in_basis"):
        monkeypatch.setattr(structure, name, refuse)
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


def test_breakdown_is_named_at_its_q_sample():
    # a q0 whose powers overflow is the one the failure names
    cfg = NumericConfig(q_samples=(0.3, 1e-300, 0.7))
    rec = numeric_crosscheck(cfg, 2).record()
    assert rec["status"] == "fail"
    assert "q=1e-300" in rec["worst"]


@pytest.mark.parametrize("q0", [0.05, 0.3, 0.7, 0.95])
def test_closed_values_match_the_per_n_route(q0):
    # the u-split values against each closed form instantiated at n and
    # then evaluated, the route they replace.  Both routes sum floats, so
    # they agree relative to the size of the terms that they add, not of
    # the sum: at n = 0 the D_q offset 0 is exactly 0, and at q = 0.95
    # c_{2,4} is 1e-6 of its terms, where the per-n route is off by 4e-9
    # relative and the split by 1e-10 (against 60-digit mpmath)
    values = _closed_values(q0, 40, _split_closed_forms())
    for n, pair in enumerate(values):
        for check, got in zip(("sq-relation", "dq-relation"), pair):
            forms = structure._closed_forms(check)
            want = structure._expected(check, n)
            assert set(got) == set(want)
            for o, c in want.items():
                size = sum(
                    abs(float(v)) * q0 ** (0.25 * (i + 2 * n * j))
                    for i, j, v in forms[o].laurent_terms()
                )
                assert abs(got[o] - c.evaluate(q0)) <= 1e-13 * size


def test_recurrence_runs_once_per_distinct_point(monkeypatch):
    recurrence = qaw.numeric._recurrence
    points = []

    def spy(rec, q0):
        members = recurrence(rec, q0)

        def counted(x0):
            points.append(x0)
            return members(x0)

        return counted

    monkeypatch.setattr(qaw.numeric, "_recurrence", spy)
    cfg = NumericConfig()
    assert numeric_crosscheck(cfg, 15).status == "pass"
    want = Counter()
    for q0 in cfg.q_samples:
        for x0 in cfg.x_samples:
            want.update({x0, *_lattice_pair(q0, x0)})
    assert Counter(points) == want
    assert len(points) == 3 * len(cfg.q_samples) * len(cfg.x_samples)
