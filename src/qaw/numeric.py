"""Floating-point second witness for the exact identities.

For real x with |x| > 1 the lattice variable z = x + sqrt(x^2 - 1) is
real, so D_q and S_q can be evaluated directly from their defining
difference quotients at the shifted points x(s +- 1/2) without any
algebra.  That float pipeline is compared against Horner evaluation of
the exact operator output, and both against the closed-form right-hand
sides.

The exact side is the one that the sweep of `structure` expands: the
integer kernel's packed rows of Q_k = 2^k p_k, of S_q and of U_2 D_q,
turned to x there and to floats straight from their integer digits.
Each row is unpacked once, on its first use, and turned to floats at
every q sample of the grid from a table of that q's powers; only the
floats are kept.  So the witness checks the same operator rows that
the sweep compares against the closed forms, while the float lattice
and the closed forms stay independent of both.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .awcore import u2
from .families import counterexample_family
from .structure import (
    XRows,
    _expected,
    _operator_xrows,
    _xrow_floats,
)
from .zsym import XPoly


class _NumericFields(NamedTuple):
    q_samples: tuple[float, ...] = (0.3, 0.7)
    x_samples: tuple[float, ...] = (1.1, 1.5, 2.0, 3.0)
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12


class NumericConfig(_NumericFields):
    """The float grid and the tolerances of `numeric_crosscheck`."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.q_samples or not self.x_samples:
            raise ValueError("the grid needs at least one q and one x sample")
        for q0 in self.q_samples:
            if not 0.0 < q0 < 1.0:
                raise ValueError("q sample %r outside (0, 1)" % (q0,))
        for x0 in self.x_samples:
            if not (math.isfinite(x0) and abs(x0) > 1.0):
                raise ValueError(
                    "x sample %r needs a finite |x| > 1 for a real lattice "
                    "variable" % (x0,)
                )
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0.0):
            raise ValueError("rel_tol must be finite and positive")
        if not (math.isfinite(self.abs_tol) and self.abs_tol >= 0.0):
            raise ValueError("abs_tol must be finite and nonnegative")
        return self

    def grid(self) -> str:
        return "q in %s, x in %s" % (list(self.q_samples), list(self.x_samples))


def eval_poly(f: XPoly | list[float], q0: float, x0: float) -> float:
    """Horner evaluation with every coefficient instantiated at q0.

    f is an XPoly with u-free coefficients, or the list of its
    coefficients already evaluated at q0, lowest degree first.
    """
    cs = f if isinstance(f, list) else [c.evaluate(q0) for c in f.coeffs()]
    acc = 0.0
    for c in reversed(cs):
        acc = acc * x0 + c
    return acc


def _lattice_pair(q0: float, x0: float) -> tuple[float, float]:
    # x(s +- 1/2) for the real branch z = x + sqrt(x^2 - 1)
    z = x0 + math.sqrt(x0 * x0 - 1.0)
    rq = math.sqrt(q0)
    zp, zm = z * rq, z / rq
    return 0.5 * (zp + 1.0 / zp), 0.5 * (zm + 1.0 / zm)


def lattice_dq(f: XPoly | list[float], q0: float, x0: float) -> float:
    """D_q f at x0 straight from the difference quotient."""
    if abs(x0) <= 1.0:
        raise ValueError("lattice evaluation needs |x| > 1")
    xp, xm = _lattice_pair(q0, x0)
    return (eval_poly(f, q0, xp) - eval_poly(f, q0, xm)) / (xp - xm)


def lattice_sq(f: XPoly | list[float], q0: float, x0: float) -> float:
    """S_q f at x0 as the plain average of the shifted values."""
    if abs(x0) <= 1.0:
        raise ValueError("lattice evaluation needs |x| > 1")
    xp, xm = _lattice_pair(q0, x0)
    return 0.5 * (eval_poly(f, q0, xp) + eval_poly(f, q0, xm))


def _rel_dev(a: float, b: float, abs_tol: float) -> float:
    d = abs(a - b)
    if math.isnan(d):
        return d
    if d <= abs_tol:
        return 0.0
    return d / max(abs(a), abs(b))


class NumericSummary(NamedTuple):
    nmax: int
    grid: str
    max_rel_dev: float
    status: str
    worst: str = ""

    def record(self) -> dict:
        rec = {
            "check": "numeric",
            "nmax": self.nmax,
            "status": self.status,
            "max_rel_dev": self.max_rel_dev,
            "grid": self.grid,
        }
        if self.worst:
            rec["worst"] = self.worst
        return rec


def numeric_crosscheck(cfg: NumericConfig, nmax: int) -> NumericSummary:
    """Both relations of the counterexample family for n <= nmax on the grid.

    At every grid point three values of each side are compared: the
    float lattice operator, the Horner value of the exact operator
    output, and the closed-form right-hand side.  A grid point where the
    float pipeline breaks down (a deviation that is not finite, or an
    evaluation that divides by zero or overflows) fails the check and is
    named in `worst`.  The closed forms are the counterexample's, so
    the check takes no other family.
    """
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    polys, sq_exact, dq_exact = _operator_xrows(nmax, counterexample_family())
    weight = u2()
    worst = 0.0
    worst_at = ""
    broken = ""

    def track(a: float, b: float, label: str):
        nonlocal worst, worst_at, broken
        d = _rel_dev(a, b, cfg.abs_tol)
        if not math.isfinite(d):
            broken = broken or label + " not finite"
        elif d > worst:
            worst, worst_at = d, label

    # every exact coefficient is evaluated once per q0: those of p_k under
    # the key k, of a weight under (side,), of the n-th operator sides
    # under (side, part, n); Horner then runs on the floats.  A kernel row
    # is unpacked once, on first use, and evaluated at every q sample; if
    # that breaks down, at this q0 alone, so a breakdown is reported at
    # the q0 where it happens.  Only the floats are kept.
    memo: dict[tuple, list[float]] = {}

    def kernel(key, rows: XRows, q0: float) -> list[float]:
        if (key, q0) not in memo:
            qs = cfg.q_samples
            try:
                fs = _xrow_floats(rows, qs)
            except (ZeroDivisionError, OverflowError):
                qs = (q0,)
                fs = _xrow_floats(rows, qs)
            memo.update(((key, q), cs) for q, cs in zip(qs, fs))
        return memo[key, q0]

    def scalars(key, coeffs, q0: float) -> list[float]:
        cs = memo.get((key, q0))
        if cs is None:
            cs = memo[key, q0] = [c.evaluate(q0) for c in coeffs]
        return cs

    for n in range(nmax + 1):
        # (name, float operator, its weight, exact left side, closed-form right side)
        sides = (
            ("sq", lattice_sq, XPoly.one(), sq_exact[n], _expected("sq-relation", n)),
            ("dq", lattice_dq, weight, dq_exact[n], _expected("dq-relation", n)),
        )
        for q0 in cfg.q_samples:
            for x0 in cfg.x_samples:
                try:
                    fp = {
                        k: kernel(n + k, polys[n + k], q0) if n + k >= 0 else []
                        for k in (-2, -1, 0, 1)
                    }
                    vals = {k: eval_poly(cs, q0, x0) for k, cs in fp.items()}
                    for side, lattice, wt, exact, expected in sides:
                        wf = scalars((side,), wt.coeffs(), q0)
                        ef = kernel((side, "exact", n), exact, q0)
                        rf = scalars((side, "closed", n), expected.values(), q0)
                        lhs_f = eval_poly(wf, q0, x0) * lattice(fp[0], q0, x0)
                        lhs_e = eval_poly(ef, q0, x0)
                        # left to right, not `sum`, as `_xrow_floats` adds
                        rhs = 0.0
                        for k, c in zip(expected, rf):
                            rhs += c * vals[k]
                        at = "%s n=%d q=%g x=%g" % (side, n, q0, x0)
                        track(lhs_f, lhs_e, at + " lattice-vs-exact")
                        track(lhs_e, rhs, at + " exact-vs-closed")
                        track(lhs_f, rhs, at + " lattice-vs-closed")
                except (ZeroDivisionError, OverflowError) as exc:
                    at = "n=%d q=%g x=%g" % (n, q0, x0)
                    broken = broken or "%s float %s" % (at, type(exc).__name__)

    status = "pass" if worst < cfg.rel_tol and not broken else "fail"
    return NumericSummary(nmax, cfg.grid(), worst, status, broken or worst_at)
