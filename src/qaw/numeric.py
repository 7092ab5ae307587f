"""Floating-point second witness for the exact identities.

For real x with |x| > 1 the lattice variable z = x + sqrt(x^2 - 1) is
real, so D_q and S_q can be evaluated directly from their defining
difference quotients at the shifted points x(s +- 1/2) without any
algebra.  That float pipeline is compared against the closed-form
right-hand sides, one pair per relation, n and grid point.

The family members come from the three-term recurrence in floats,
which stays accurate where Horner's rule on their monomial x-forms
cancels (W. Gautschi, Orthogonal Polynomials: Computation and
Approximation, 2004).  The closed forms are split by powers of
u = t^(2n) = q^(n/2) into u-free parts f_j, and the value at n is the
float sum of f_j(q) q^(nj/2).  Each float is computed once:

- once per run: a_k, b_k, the split closed forms and U_2's coefficients,
  exactly and then as float terms (`Scalar.float_terms`, which `evaluate` sums too);
- once per q sample: each power q^e that they or the weights q^(nj/2)
  read, and from them the floats of all of these and the closed forms;
- once per grid point (q, x): the lattice pair x(s +- 1/2), the
  recurrence at x and at both lattice points, and the weight U_2(x);
  every n and both relations read them.

So a grid point costs O(nmax) float work, and a closed form O(terms)
float work per q sample.  Near q = 1 both the split and the form
instantiated at n cancel: at q = 0.95 the instantiated c_{2,4} lost
4e-9 relative against 60-digit mpmath, the split 1e-10.

The witness reads none of the sweep's integer kernel.  The sweep checks
exactly, at each n it runs, that the kernel's operator rows expand to
the closed forms; this checks the closed forms against the operators'
lattice definition, so the two together cover the rows against the
lattice.  A float sum of the rows themselves at a real z cancels where
the value is tiny against its terms, as near q = 1 and x = 1, and
failed the correct family there.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

from .awcore import u2
from .families import counterexample_family
from .scalar import float_value
from .structure import _closed_forms
from .zsym import XPoly


class _NumericFields(NamedTuple):
    q_samples: tuple[float, ...] = (0.3, 0.7)
    x_samples: tuple[float, ...] = (1.1, 1.5, 2.0, 3.0)


class NumericConfig(_NumericFields):
    """The float grid of `numeric_crosscheck`; its relative tolerance is
    the constant `rel_tol`, 1e-9, on every grid."""

    __slots__ = ()
    rel_tol = 1e-9

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
        return self

    def grid(self) -> str:
        return "q in %s, x in %s" % (list(self.q_samples), list(self.x_samples))


def _horner(cs: list[float], x0: float) -> float:
    """Horner's rule on the floats cs, constant term first."""
    acc = 0.0
    for c in reversed(cs):
        acc = acc * x0 + c
    return acc


def eval_poly(f: XPoly, q0: float, x0: float) -> float:
    """Horner evaluation with every coefficient of f, u-free, instantiated at q0."""
    return _horner([c.evaluate(q0) for c in f.coeffs()], x0)


# e -> q0 ** e, each distinct power computed once for all of one q sample
_powers = functools.lru_cache(maxsize=1)(lambda q0: functools.lru_cache(None)(q0.__pow__))


def _recurrence(rec: list[tuple[tuple, tuple]], q0: float) -> Callable[[float], list[float]]:
    """x -> [p_0(x), .., p_m(x)] in floats, m = len(rec), with the float
    terms of each pair (a_k, b_k) of `rec` evaluated at q0 once, by
    p_{k+1} = (x - a_k) p_k - b_k p_{k-1}."""
    pw = _powers(q0)
    ab = [(float_value(a, pw), float_value(b, pw)) for a, b in rec]

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


def _dq(fp: float, fm: float, xp: float, xm: float) -> float:
    return (fp - fm) / (xp - xm)


def _sq(fp: float, fm: float) -> float:
    return 0.5 * (fp + fm)


def lattice_dq(f: Callable[[float], float], q0: float, x0: float) -> float:
    """D_q f at x0 straight from the difference quotient; f is a float function of x."""
    if abs(x0) <= 1.0:
        raise ValueError("lattice evaluation needs |x| > 1")
    xp, xm = _lattice_pair(q0, x0)
    return _dq(f(xp), f(xm), xp, xm)


def lattice_sq(f: Callable[[float], float], q0: float, x0: float) -> float:
    """S_q f at x0 as the plain average of the shifted values."""
    if abs(x0) <= 1.0:
        raise ValueError("lattice evaluation needs |x| > 1")
    xp, xm = _lattice_pair(q0, x0)
    return _sq(f(xp), f(xm))


# a deviation at most this large counts as none
_ABS_TOL = 1e-12
# a compared point, formatted only once it is the worst or breaks
_LABEL = "%s n=%d %s lattice-vs-closed"


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


def _split_closed_forms() -> list[dict[int, list[tuple[float, tuple]]]]:
    """Both relations' closed forms, sq then dq, as {offset: [(j/2, float terms of f_j)]}."""
    return [
        {
            o: [(0.5 * j, p.float_terms()) for j, p in f.u_parts().items()]
            for o, f in _closed_forms(c).items()
        }
        for c in ("sq-relation", "dq-relation")
    ]


def _closed_values(q0: float, nmax: int, split) -> list[tuple[dict, dict]]:
    """For n = 0 .. nmax, the closed forms of both relations at q0 and n
    as {offset: float}, from the u-split forms of `split`: each f_j is evaluated
    once, and the value at n is `float_value` of the terms (f_j(q0), nj/2), d = 0."""
    pw = _powers(q0)
    evals = [
        {o: [(float_value(f, pw), h) for h, f in parts] for o, parts in rel.items()}
        for rel in split
    ]
    return [
        tuple(
            {
                o: float_value(([(v, h * n) for v, h in parts], 0.0), pw)
                for o, parts in rel.items()
                if n + o >= 0
            }
            for rel in evals
        )
        for n in range(nmax + 1)
    ]


def numeric_crosscheck(cfg: NumericConfig, nmax: int) -> NumericSummary:
    """Both relations of the counterexample family for n <= nmax on the grid.

    At every grid point each relation's float lattice operator on the
    recurrence's p_n is compared with its closed-form right-hand side
    on the recurrence's p_k.  A grid point where the float pipeline
    breaks down (a deviation that is not finite, or an evaluation that
    divides by zero or overflows) fails the check and is named in
    `worst`.  The closed forms are the counterexample's, so the check
    takes no other family.
    """
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    fam = counterexample_family()
    rec = [(fam.rec_a(k).float_terms(), fam.rec_b(k).float_terms()) for k in range(nmax + 1)]
    split = _split_closed_forms()
    weight_terms = [c.float_terms() for c in u2().coeffs()]
    worst, worst_at, broken = 0.0, None, ""
    for q0 in cfg.q_samples:
        at = "q=%r" % (q0,)
        try:
            members = _recurrence(rec, q0)
            closed = _closed_values(q0, nmax, split)
            weight_q = [float_value(c, _powers(q0)) for c in weight_terms]
            for x0 in cfg.x_samples:
                at = "q=%r x=%r" % (q0, x0)
                # one recurrence pass at x0 and at each of x(s +- 1/2)
                xp, xm = _lattice_pair(q0, x0)
                vals, vp, vm = members(x0), members(xp), members(xm)
                weight = _horner(weight_q, x0)
                for n, (sq_cf, dq_cf) in enumerate(closed):
                    fp, fm = vp[n], vm[n]
                    # (name, float lattice operator on p_n, closed form) of each relation
                    for side, lhs, cf in (
                        ("sq", _sq(fp, fm), sq_cf),
                        ("dq", weight * _dq(fp, fm, xp, xm), dq_cf),
                    ):
                        # added left to right from 0.0, as `float_value` adds
                        rhs = 0.0
                        for k, c in cf.items():
                            rhs += c * vals[n + k]
                        d = abs(lhs - rhs)
                        if d > _ABS_TOL:
                            d /= max(abs(lhs), abs(rhs))
                        elif not math.isnan(d):
                            continue
                        if d <= worst:  # NaN compares false
                            continue
                        if math.isfinite(d):
                            worst, worst_at = d, (side, n, at)
                        elif not broken:
                            broken = _LABEL % (side, n, at) + " not finite"
        except (ZeroDivisionError, OverflowError) as exc:
            broken = broken or "%s float %s" % (at, type(exc).__name__)

    status = "pass" if worst < cfg.rel_tol and not broken else "fail"
    label = _LABEL % worst_at if worst_at else ""
    return NumericSummary(nmax, cfg.grid(), worst, status, broken or label)
