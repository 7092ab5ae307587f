"""Basis expansion and per-n verification of the structure relations.

The family P_n satisfies, for every n,

    S_q P_n       = alpha_n P_n + c_n P_{n-1},
    U_2 D_q P_n   = c_{n,1} P_{n+1} + c_{n,2} P_n + c_{n,3} P_{n-1}
                                                  + c_{n,4} P_{n-2},

with all coefficients given in closed form by `families.coeff_suite`.
This module recomputes the left sides from the recurrence, expands them
in the basis, and compares coefficient by coefficient.  The D_q
relation has bandwidth (2, 1): offsets -2 .. +1, with the -2 entry
provably nonzero from n = 2 on, which is the whole point of the family.

Expansion works by leading-term elimination against the basis, on the
z side.  The private generator `_expansions` yields both expansions at
every n, and every relation entry point reads them from it.  It has two
routes:

- The integer route runs over Z[t^+-][z^+-] whenever the family's
  2 a_n and 4 b_n are integral, u-free Laurent polynomials in t, as
  they are for the counterexample family.  It uses the z-monic basis
  Q_n = 2^n P_n,

      Q_{n+1} = (z + z^-1 - 2 a_n) Q_n - 4 b_n Q_{n-1},

  and the two operators without division,

      Q_n(t^2 z) + Q_n(t^-2 z)                          = 2^(n+1) S_q P_n,
      (t^2 - t^-2)(z - z^-1)(Q_n(t^2 z) - Q_n(t^-2 z))  = 2^(n+3) U_2 D_q P_n.

  The second holds because U_2's z-form carries the D_q denominator
  (t^2 - t^-2)(z - z^-1)/2, so the multiplier of D_q is fixed to U_2.
  Q_k is monic in z, so eliminating against it gives integer Laurent
  polynomials E_k in t.  Only the few nonzero E_k become Scalars,
  scaled by 2^(k-n-1) and 2^(k-n-3) respectively.
- Other families fall back to Q(t, u), through the exact operator
  pipeline of `awcore` on the family's cached z-forms Z_k.  Z_k has top
  coefficient 2^-k, so each elimination step is one scaled subtraction.
  `expand_in_basis` runs that elimination on x_to_z(f).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .awcore import OperatorContext, context, u2
from .families import (
    C_SYM,
    OPSFamily,
    coeff_suite,
    counterexample_family,
)
from .scalar import (
    HALF,
    ONE,
    Rat,
    Scalar,
    T,
    U,
    ZERO,
    _padd,
    _pmul,
    _pshift,
    _psub,
    tpow,
)
from .zsym import SymPoly, XPoly, x_to_z


@dataclass
class StructureReport:
    """Expansion of one relation at one n, with pass/fail bookkeeping.

    `coefficients` maps offsets k to the computed coefficient of
    p_{n+k}, nonzero entries only; `residuals` lists the nonzero
    differences computed - expected, empty when passing.
    """

    check: str
    n: int
    coefficients: dict[int, Scalar]
    bandwidth: tuple[int, int]
    status: str
    residuals: list[tuple[str, Scalar]] = field(default_factory=list)

    def record(self) -> dict:
        rec = {
            "check": self.check,
            "n": self.n,
            "status": self.status,
            "bandwidth_r": self.bandwidth[0],
            "bandwidth_s": self.bandwidth[1],
            "residual_count": len(self.residuals),
        }
        if self.residuals:
            rec["residuals"] = [
                "%s: %s" % (label, r.render()) for label, r in self.residuals
            ]
        return rec


def expand_in_basis(f: XPoly, fam: OPSFamily) -> list[Scalar]:
    """Coefficients e_0 .. e_deg(f) with f = sum e_k p_k, exact."""
    if not f:
        return []
    ex = _expand_sym(x_to_z(f), fam)
    return [ex.get(k, ZERO) for k in range(f.degree + 1)]


def _expand_sym(g: SymPoly, fam: OPSFamily) -> dict[int, Scalar]:
    """{k: e_k} with g = sum e_k zpoly(k), nonzero only.

    g and every Z_k are symmetric under z -> z^-1, so, as in
    `_expand_int`, only the z^m, m >= 0, half is eliminated.
    """
    work = {m: c for m, c in g._t.items() if m >= 0}
    out: dict[int, Scalar] = {}
    while work:
        k = max(work)
        # Z_k is monic over x, so its z^k coefficient is 2^-k
        e = out[k] = work.pop(k).scale(1 << k)
        for m, v in fam.zpoly(k)._t.items():
            if 0 <= m < k:
                s = work.get(m)
                w = e * v
                s = -w if s is None else s - w
                if s:
                    work[m] = s
                else:
                    work.pop(m, None)
    return out


def _offsets_report(
    check: str,
    n: int,
    expansion: dict[int, Scalar],
    expected: dict[int, Scalar] | None,
) -> StructureReport:
    offs = {k - n: v for k, v in expansion.items()}
    if offs:
        r = max(0, -min(offs))
        s = max(0, max(offs))
    else:
        r = s = 0
    residuals: list[tuple[str, Scalar]] = []
    if expected is not None:
        for o in sorted(set(offs) | set(expected), reverse=True):
            diff = offs.get(o, ZERO) - expected.get(o, ZERO)
            if diff:
                residuals.append(("offset%+d" % o, diff))
    status = "pass" if not residuals else "fail"
    return StructureReport(check, n, offs, (r, s), status, residuals)


def structure_relation(
    fam: OPSFamily,
    pi: XPoly,
    n: int,
    expected: dict[int, Scalar] | None = None,
    ctx: OperatorContext | None = None,
) -> StructureReport:
    """Expand pi * (D_q p_n) in the family basis; pi must be U_2."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if pi != u2():
        raise ValueError("the relation is implemented for pi = U_2 only")
    for _, _, dq in _expansions(n, fam, ctx):  # the last is U_2 D_q P_n
        pass
    return _offsets_report("structure", n, dq, expected)


def _expected_sq(n: int) -> dict[int, Scalar]:
    s = coeff_suite()
    out = {0: s.alpha_n.instantiate_n(n)}
    if n >= 1:
        out[-1] = s.c_n.instantiate_n(n)
    return out


def _expected_dq(n: int) -> dict[int, Scalar]:
    s = coeff_suite()
    out = {1: s.c_n1.instantiate_n(n), 0: s.c_n2.instantiate_n(n)}
    if n >= 1:
        out[-1] = s.c_n3.instantiate_n(n)
    if n >= 2:
        out[-2] = s.c_n4.instantiate_n(n)
    return out


# t^2 - t^-2 as {t-exp: int}
_T2_DIFF = {2: 1, -2: -1}


def _int_laurent(s: Scalar, scale: int) -> dict[int, int] | None:
    """scale * s as {t-exp: int}, or None unless integral, Laurent and u-free."""
    if not s.is_laurent:
        return None
    out = {}
    for i, j, c in s.laurent_terms():
        c = c * scale
        if j or c.denominator != 1:
            return None
        out[i] = int(c)
    return out


def _int_recurrence(fam: OPSFamily, nmax: int) -> list[tuple[dict, dict]] | None:
    """(2 a_m, 4 b_m) for m <= nmax as integer t-polynomials, or None.

    b_0 multiplies the zero polynomial Q_-1 and is never read.
    """
    out = []
    for m in range(nmax + 1):
        a2 = _int_laurent(fam.rec_a(m), 2)
        b4 = _int_laurent(fam.rec_b(m), 4) if m else {}
        if a2 is None or b4 is None:
            return None
        out.append((a2, b4))
    return out


def _zmonic_next(qs: list[dict], a2: dict, b4: dict) -> dict:
    """Q_{m+1} = (z + z^-1 - 2 a_m) Q_m - 4 b_m Q_{m-1}, m = len(qs) - 1."""
    cur = qs[-1]
    prev = qs[-2] if len(qs) > 1 else {}
    out = {}
    for m in range(-len(qs), len(qs) + 1):
        v = _padd(cur.get(m - 1, {}), cur.get(m + 1, {}))
        v = _psub(v, _pmul(a2, cur.get(m, {})))
        v = _psub(v, _pmul(b4, prev.get(m, {})))
        if v:
            out[m] = v
    return out


def _expand_int(g: dict[int, dict], qs: list[dict]) -> dict[int, dict]:
    """{k: E_k} with g = sum E_k Q_k, nonzero only.

    g and every Q_k are symmetric under z -> z^-1, hence so is every
    remainder: g is passed, and the remainder kept, as its z^m, m >= 0,
    half alone.  Q_k is monic in z, so E_k is the top coefficient and
    cancels it exactly.
    """
    work = dict(g)
    out: dict[int, dict] = {}
    while work:
        k = max(work)
        e = out[k] = work.pop(k)
        for m, v in qs[k].items():
            if 0 <= m < k:
                s = _psub(work.get(m, {}), _pmul(e, v))
                if s:
                    work[m] = s
                else:
                    work.pop(m, None)
    return out


def _scaled_scalars(ex: dict[int, dict], top: int) -> dict[int, Scalar]:
    """{k: E_k * 2^(k - top)} as Scalars."""
    return {
        k: Scalar.from_terms({(i, 0): c for i, c in e.items()}).scale(
            Rat(1, 1 << (top - k))
        )
        for k, e in ex.items()
    }


def _expansions(
    nmax: int, fam: OPSFamily, ctx: OperatorContext | None
) -> Iterator[tuple[str, int, dict[int, Scalar]]]:
    """(check, n, expansion) for S_q P_n, then U_2 D_q P_n, for n <= nmax.

    Lazy per relation, so a consumer timing each step sees them apart.
    """
    rec = _int_recurrence(fam, nmax)
    if rec is None:
        ctx = ctx or context()
        u2z = x_to_z(ctx.u2())
        for n in range(nmax + 1):
            zn = fam.zpoly(n)
            yield "sq-relation", n, _expand_sym(ctx.sq_sym(zn), fam)
            yield "dq-relation", n, _expand_sym(u2z * ctx.dq_sym(zn), fam)
        return
    qs: list[dict] = [{0: {0: 1}}]
    for n in range(nmax + 1):
        # G below has degree n + 1, so eliminating it needs Q_{n+1}
        qs.append(_zmonic_next(qs, *rec[n]))
        # H and G are symmetric in z; _expand_int wants their m >= 0 halves
        h, d = {}, {}
        for m, c in qs[n].items():
            plus, minus = _pshift(c, 2 * m), _pshift(c, -2 * m)
            d[m] = _psub(plus, minus)
            if m >= 0:
                h[m] = _padd(plus, minus)
        g = {}
        for m in range(n + 2):
            v = _pmul(_T2_DIFF, _psub(d.get(m - 1, {}), d.get(m + 1, {})))
            if v:
                g[m] = v
        yield "sq-relation", n, _scaled_scalars(_expand_int(h, qs), n + 1)
        yield "dq-relation", n, _scaled_scalars(_expand_int(g, qs), n + 3)


def iter_proposition_reports(
    nmax: int,
    fam: OPSFamily | None = None,
    ctx: OperatorContext | None = None,
) -> Iterator[StructureReport]:
    """Per-n reports for both relations, in order (sq then dq per n).

    Coefficients against the zero polynomials p_{-1}, p_{-2} are absent
    on both sides at small n, so nothing special happens there.  Both
    routes of the module docstring give equal reports.
    """
    expected = {"sq-relation": _expected_sq, "dq-relation": _expected_dq}
    for check, n, ex in _expansions(nmax, fam or counterexample_family(), ctx):
        yield _offsets_report(check, n, ex, expected[check](n))


def verify_proposition(
    nmax: int,
    fam: OPSFamily | None = None,
    ctx: OperatorContext | None = None,
) -> list[StructureReport]:
    """Both relations for every n <= nmax; failures are data, not errors."""
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    return list(iter_proposition_reports(nmax, fam, ctx))


@dataclass
class BandwidthSummary:
    """Aggregate of the D_q relation's shape over 2 <= n <= nmax."""

    nmax: int
    rows: list[tuple[int, int, int]]  # (n, r, s)
    max_r: int
    max_s: int
    offset_m2_all_nonzero: bool
    status: str

    def record(self) -> dict:
        return {
            "check": "bandwidth",
            "nmax": self.nmax,
            "status": self.status,
            "max_r": self.max_r,
            "max_s": self.max_s,
            "offset_m2_all_nonzero": self.offset_m2_all_nonzero,
        }


def bandwidth_scan(
    fam: OPSFamily,
    pi: XPoly,
    nmax: int,
    reports: list[StructureReport] | None = None,
) -> BandwidthSummary:
    """Shape of the pi*D_q relation for n in [2, nmax]; pi must be U_2.

    `reports`, by default one `iter_proposition_reports` sweep of `fam`,
    must hold a D_q relation for every n in [2, nmax], or ValueError.
    """
    if pi != u2():
        raise ValueError("the relation is implemented for pi = U_2 only")
    if nmax < 2:
        raise ValueError("bandwidth scan wants nmax >= 2")
    if reports is None:
        reports = iter_proposition_reports(nmax, fam)
    by_n = {r.n: r for r in reports if r.check in ("dq-relation", "structure")}
    rows = []
    max_r = max_s = 0
    all_nonzero = True
    for n in range(2, nmax + 1):
        rep = by_n.get(n)
        if rep is None:
            raise ValueError("the reports lack the D_q relation at n = %d" % n)
        r, s = rep.bandwidth
        rows.append((n, r, s))
        max_r = max(max_r, r)
        max_s = max(max_s, s)
        if not rep.coefficients.get(-2, ZERO):
            all_nonzero = False
    ok = max_r == 2 and max_s == 1 and all_nonzero
    return BandwidthSummary(
        nmax, rows, max_r, max_s, all_nonzero, "pass" if ok else "fail"
    )


def offset_m2_witness() -> tuple[Scalar, Scalar]:
    """The offset -2 coefficient and its symbolic factorization.

    c_{n,4} factors as C_{n-1} C_n u^-1 t (t^2 - t^-2)/2, a product of
    elements that are nonzero in the ring; its nonvanishing for every
    n >= 2 is what pins the bandwidth at r = 2.
    """
    factored = (
        C_SYM.shift_n(-1) * C_SYM * (ONE / U) * T * (tpow(2) - tpow(-2)) * HALF
    )
    return coeff_suite().c_n4, factored
