"""Floating-point second witness for the exact identities.

For real x with |x| > 1 the lattice variable z = x + sqrt(x^2 - 1) is
real, so D_q and S_q can be evaluated directly from their defining
difference quotients at the shifted points x(s +- 1/2) without any
algebra.  That float pipeline is compared against the exact operator
output evaluated at the same real z, and both against the closed-form
right-hand sides.

The family members come from the three-term recurrence in floats,
with a_k and b_k evaluated once per q sample, which stays accurate
where Horner's rule on their monomial x-forms cancels (W. Gautschi,
Orthogonal Polynomials: Computation and Approximation, 2004).  The
exact side is the one that the sweep of `structure` expands: the
integer kernel's z-rows of S_q p_n and of U_2 D_q p_n, each digit
turned to a float from a table of q's powers and summed on
z^m + z^-m.  That sum still cancels where the value is tiny against
its terms, as near q = 1 and x = 1.  So the witness checks the same
operator rows that the sweep compares against the closed forms, while
the float lattice and the closed forms stay independent of both.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .awcore import u2
from .families import OPSFamily, counterexample_family
from .structure import _expected, _operator_zrows
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


def eval_poly(f: XPoly, q0: float, x0: float) -> float:
    """Horner evaluation with every coefficient of f, u-free, instantiated at q0."""
    acc = 0.0
    for c in reversed(f.coeffs()):
        acc = acc * x0 + c.evaluate(q0)
    return acc


def _recurrence(
    fam: OPSFamily, q0: float, count: int
) -> Callable[[float], list[float]]:
    """x -> [p_0(x), .., p_count(x)] in floats, with a_k and b_k evaluated
    at q0 once, by p_{k+1} = (x - a_k) p_k - b_k p_{k-1}."""
    ab = [(fam.rec_a(k).evaluate(q0), fam.rec_b(k).evaluate(q0)) for k in range(count)]

    def members(x0: float) -> list[float]:
        ps = [0.0, 1.0]
        for a, b in ab:
            ps.append((x0 - a) * ps[-1] - b * ps[-2])
        return ps[1:]

    return members


def _lattice_pair(q0: float, x0: float) -> tuple[float, float]:
    # x(s +- 1/2) for the real branch z = x + sqrt(x^2 - 1)
    z = x0 + math.sqrt(x0 * x0 - 1.0)
    rq = math.sqrt(q0)
    zp, zm = z * rq, z / rq
    return 0.5 * (zp + 1.0 / zp), 0.5 * (zm + 1.0 / zm)


def lattice_dq(f: Callable[[float], float], q0: float, x0: float) -> float:
    """D_q f at x0 straight from the difference quotient; f is a float function of x."""
    if abs(x0) <= 1.0:
        raise ValueError("lattice evaluation needs |x| > 1")
    xp, xm = _lattice_pair(q0, x0)
    return (f(xp) - f(xm)) / (xp - xm)


def lattice_sq(f: Callable[[float], float], q0: float, x0: float) -> float:
    """S_q f at x0 as the plain average of the shifted values."""
    if abs(x0) <= 1.0:
        raise ValueError("lattice evaluation needs |x| > 1")
    xp, xm = _lattice_pair(q0, x0)
    return 0.5 * (f(xp) + f(xm))


def _dot(pairs) -> float:
    """The sum of a * b over the pairs, added left to right from 0.0.

    `sum` is avoided: from Python 3.12 on it compensates float sums,
    which would make the floats depend on the interpreter's version.
    """
    s = 0.0
    for a, b in pairs:
        s += a * b
    return s


def _zrow_floats(
    rows: dict[int, dict[int, int]], shift: int, pw: dict[int, float]
) -> dict[int, float]:
    """{m: row_m / 2^shift} in floats, with pw[e] = q0^(e/4) = t^e.

    A digit c of t^e adds c / 2^shift, the correctly rounded quotient,
    times pw[e]; a row's terms are added in ascending exponent order.
    """
    den = 1 << shift
    return {
        m: _dot((row[e] / den, pw[e]) for e in sorted(row)) for m, row in rows.items()
    }


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
    float lattice operator on the recurrence's p_n, the exact operator
    output summed on z^m + z^-m, and the closed-form right-hand side on
    the recurrence's p_k.  A grid point where the float pipeline breaks
    down (a deviation that is not finite, or an evaluation that divides
    by zero or overflows) fails the check and is named in `worst`.  The
    closed forms are the counterexample's, so the check takes no other
    family.
    """
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    fam = counterexample_family()
    zrows = _operator_zrows(nmax, fam)
    exps = {e for pair in zrows for rows in pair for row in rows.values() for e in row}
    checks = ("sq-relation", "dq-relation")
    closed = [[_expected(c, n) for c in checks] for n in range(nmax + 1)]
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

    for q0 in cfg.q_samples:
        at = "q=%g" % q0
        try:
            # what depends on q0 alone is evaluated once
            members = _recurrence(fam, q0, nmax + 1)
            pw = {e: q0 ** (0.25 * e) for e in exps}
            exact = [
                [_zrow_floats(rows, n + s, pw) for rows, s in zip(pair, (1, 3))]
                for n, pair in enumerate(zrows)
            ]
            rhs_f = [
                [{k: c.evaluate(q0) for k, c in ex.items()} for ex in pair]
                for pair in closed
            ]
            for x0 in cfg.x_samples:
                at = "q=%g x=%g" % (q0, x0)
                z0 = x0 + math.sqrt(x0 * x0 - 1.0)
                zs = [1.0] + [z0**m + z0**-m for m in range(1, nmax + 2)]
                vals = members(x0)
                # (name, float operator, its weight) of each relation
                weight = eval_poly(u2(), q0, x0)
                sides = (("sq", lattice_sq, 1.0), ("dq", lattice_dq, weight))
                for n in range(nmax + 1):
                    for (side, lattice, wt), ex, cf in zip(sides, exact[n], rhs_f[n]):
                        lhs_f = wt * lattice(lambda x: members(x)[n], q0, x0)
                        lhs_e = _dot((r, zs[m]) for m, r in ex.items())
                        rhs = _dot((c, vals[n + k]) for k, c in cf.items())
                        label = "%s n=%d %s" % (side, n, at)
                        track(lhs_f, lhs_e, label + " lattice-vs-exact")
                        track(lhs_e, rhs, label + " exact-vs-closed")
                        track(lhs_f, rhs, label + " lattice-vs-closed")
        except (ZeroDivisionError, OverflowError) as exc:
            broken = broken or "%s float %s" % (at, type(exc).__name__)

    status = "pass" if worst < cfg.rel_tol and not broken else "fail"
    return NumericSummary(nmax, cfg.grid(), worst, status, broken or worst_at)
