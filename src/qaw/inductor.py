"""Symbolic-in-n certificates for the inductive proof of the relations.

The induction from index k to k+1 rests on ten scalar identities among
the suite coefficients: four behind the S_q advance,

    c_{k,3} + (alpha alpha_k - alpha_{k-1}) C_k + (alpha B_{k-1} - B_k) c_k = 0
    c_{k,4} + alpha c_k C_{k-1} - c_{k-1} C_k = 0
    alpha_{k+1} = c_{k,1} + alpha alpha_k
    c_{k+1}   = c_{k,2} + alpha c_k + (alpha - 1) alpha_k B_k

and six behind the D_q advance: d_{k,i} = c_{k+1,i} for i = 1..4 plus
d_{k,5} = 0 and d_{k,6} = 0.  Each is verified here as an exact zero in
Q[t^+-1, u^+-1], which covers every k at once; the per-index sweep in
`structure` is the independent finite witness.

The d_{k,3} display is ambiguous in one spot: its (alpha-1) c_{k,2} B
term carries an index that does not match the surrounding k-indexed
expression.  Both candidate readings, B at index k and at k+1, are
evaluated; exactly one cancels and the certificate records which.
"""

from __future__ import annotations

from typing import NamedTuple

from .awcore import ALPHA, context
from .families import CoeffSuite, coeff_suite, counterexample_family
from .scalar import ONE, Scalar, ZERO
from .zsym import XPoly

class IdentityCertificate(NamedTuple):
    """One identity, its residual, and the zero/nonzero verdict."""

    name: str
    residual: Scalar
    verdict: str
    rendering: str
    note: str = ""

    def record(self) -> dict:
        rec = {
            "name": self.name,
            "verdict": self.verdict,
            "residual_text": self.rendering,
        }
        if self.note:
            rec["note"] = self.note
        return rec


def _cert(name: str, residual: Scalar, note: str = "") -> IdentityCertificate:
    zero = residual.is_zero
    return IdentityCertificate(
        name,
        residual,
        "zero" if zero else "nonzero",
        "" if zero else residual.render(),
        note,
    )


def _shift_suite(s: CoeffSuite, j: int) -> CoeffSuite:
    return CoeffSuite._make(m.shift_n(j) for m in s)


class _Neighborhood:
    """Suites at indices k-1, k, k+1, symbolic or instantiated at k."""

    def __init__(self, k: int | None = None):
        if k is None:
            base = coeff_suite()
            self.at = {j: _shift_suite(base, j) for j in (-1, 0, 1)}
        else:
            self.at = {j: coeff_suite(k + j) for j in (-1, 0, 1)}


def _sq_residuals(nb: _Neighborhood) -> list[tuple[str, Scalar, str]]:
    s, sm, sp = nb.at[0], nb.at[-1], nb.at[1]
    a = ALPHA
    return [
        (
            "sq-offset-m1-cancels",
            s.c_n3 + (a * s.alpha_n - sm.alpha_n) * s.C_n
            + (a * sm.B_n - s.B_n) * s.c_n,
            "",
        ),
        (
            "sq-offset-m2-cancels",
            s.c_n4 + a * s.c_n * sm.C_n - sm.c_n * s.C_n,
            "",
        ),
        (
            "sq-alpha-advance",
            sp.alpha_n - s.c_n1 - a * s.alpha_n,
            "",
        ),
        (
            "sq-c-advance",
            sp.c_n - s.c_n2 - a * s.c_n - (a - ONE) * s.alpha_n * s.B_n,
            "",
        ),
    ]


# every suite member is a Laurent polynomial
_NOTE = "sides clear denominators"


def _dq_residuals(nb: _Neighborhood) -> list[tuple[str, Scalar, str]]:
    s, sp = nb.at[0], nb.at[1]
    a = ALPHA
    out = [
        ("dq-offset-p2", s.d_k1 - sp.c_n1, _NOTE),
        ("dq-offset-p1", s.d_k2 - sp.c_n2, _NOTE),
    ]
    # the ambiguous B factor of d_k3: suite adopts index k, the
    # alternative shifts that one factor to k+1
    alt = s.d_k3 + (a - ONE) * s.c_n2 * (sp.B_n - s.B_n)
    res_k = s.d_k3 - sp.c_n3
    res_k1 = alt - sp.c_n3
    reading = []
    if res_k.is_zero:
        reading.append("index-k reading cancels")
    else:
        reading.append("index-k reading leaves a residual")
    if res_k1.is_zero:
        reading.append("index-(k+1) reading cancels")
    else:
        reading.append("index-(k+1) reading leaves a residual")
    out.append(
        (
            "dq-offset-0",
            res_k,
            "; ".join(reading) + "; " + _NOTE,
        )
    )
    out.extend(
        [
            ("dq-offset-m1", s.d_k4 - sp.c_n4, _NOTE),
            ("dq-offset-m2-cancels", s.d_k5, _NOTE),
            ("dq-offset-m3-cancels", s.d_k6, _NOTE),
        ]
    )
    return out


def certify_sq_step() -> list[IdentityCertificate]:
    """The four scalar identities behind the S_q advance, symbolic in u."""
    return [_cert(*item) for item in _sq_residuals(_Neighborhood())]


def certify_dq_step() -> list[IdentityCertificate]:
    """The six scalar identities behind the D_q advance, symbolic in u."""
    return [_cert(*item) for item in _dq_residuals(_Neighborhood())]


def _poly_residual_cert(name: str, diff: XPoly, note: str = "") -> IdentityCertificate:
    if not diff:
        return IdentityCertificate(name, ZERO, "zero", "", note)
    # a failing polynomial check surfaces its top coefficient as the
    # residual scalar and the whole polynomial in the rendering
    return IdentityCertificate(name, diff.leading, "nonzero", diff.render(), note)


def certify_base_case() -> list[IdentityCertificate]:
    """The n = 0 statements, instantiated and operator-checked."""
    s0 = coeff_suite(0)
    c1 = coeff_suite(1).c_n
    fam = counterexample_family()
    ctx = context()
    p0 = fam.poly(0)
    out = [
        _cert("base-alpha0", s0.alpha_n - ONE),
        _cert("base-c0", s0.c_n),
        _cert(
            "base-c1-cancel",
            c1 - ALPHA * s0.c_n + (ONE - ALPHA) * s0.alpha_n * s0.B_n,
        ),
        _poly_residual_cert(
            "base-sq-constant", ctx.sq(p0) - p0.scale(s0.alpha_n)
        ),
        _poly_residual_cert("base-dq-constant", ctx.u2() * ctx.dq(p0)),
    ]
    return out


def instantiation_coherence(ks=(2, 3, 5, 8)) -> list[dict]:
    """Check substitution commutes with the certificate arithmetic.

    For each k: the symbolic residual instantiated at k must equal the
    residual rebuilt from fully instantiated suites.
    """
    sym = _Neighborhood()
    sym_items = _sq_residuals(sym) + _dq_residuals(sym)
    out = []
    for k in ks:
        inst = _Neighborhood(k)
        inst_items = _sq_residuals(inst) + _dq_residuals(inst)
        for (name, res_sym, _), (_, res_inst, _) in zip(sym_items, inst_items):
            ok = res_sym.instantiate_n(k) == res_inst
            out.append(
                {
                    "check": "instantiation-coherence",
                    "name": name,
                    "k": k,
                    "status": "pass" if ok else "fail",
                }
            )
    return out
