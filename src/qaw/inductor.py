"""Symbolic-in-n certificates for the inductive proof of the relations.

The claims at index n are

    S_q P_n     = alpha_n P_n + c_n P_{n-1},
    U_2 D_q P_n = c_{n,1} P_{n+1} + c_{n,2} P_n + c_{n,3} P_{n-1} + c_{n,4} P_{n-2}.

The step to n+1 is derived, not transcribed.  Write P_{n+1} =
(x - B_n) P_n - C_n P_{n-1} and apply the Askey-Wilson product rules

    D_q(fg) = D_q f S_q g + S_q f D_q g,    S_q(fg) = S_q f S_q g + U_2 D_q f D_q g,
    D_q x = 1,    S_q x = alpha x,

with U_2 = (alpha^2 - 1)(x^2 - 1):

    S_q P_{n+1}     = alpha x S_q P_n + U_2 D_q P_n
                      - B_n S_q P_n - C_n S_q P_{n-1},
    U_2 D_q P_{n+1} = U_2 S_q P_n + alpha x U_2 D_q P_n
                      - B_n U_2 D_q P_n - C_n U_2 D_q P_{n-1}.

Substituting the claims at n and n-1 and reducing with x P_m = P_{m+1} +
B_m P_m + C_m P_{m-1} leaves formal sums sum_j v_j P_{n+j} over
Q[t^+-1, u^+-1]; no step divides.  Each certificate is one offset of
"derived minus claimed", where the claim is the relation at n+1: offsets
-1, -2, +1, 0 for S_q and +2 .. -3 for U_2 D_q.  A zero in the ring
covers every n at once; the per-index sweep in `structure` is the
independent finite witness.
"""

from __future__ import annotations

from typing import NamedTuple

from .awcore import ALPHA, ALPHA2M1, context
from .families import CoeffSuite, coeff_suite, counterexample_family
from .scalar import ONE, Scalar, ZERO
from .zsym import XPoly

# sum_j v_j P_{n+j} as {j: v_j}
Sum = dict[int, Scalar]

_SQ_OFFSETS = (
    ("sq-offset-m1-cancels", -1),
    ("sq-offset-m2-cancels", -2),
    ("sq-alpha-advance", 1),
    ("sq-c-advance", 0),
)
_DQ_OFFSETS = (
    ("dq-offset-p2", 2),
    ("dq-offset-p1", 1),
    ("dq-offset-0", 0),
    ("dq-offset-m1", -1),
    ("dq-offset-m2-cancels", -2),
    ("dq-offset-m3-cancels", -3),
)


class IdentityCertificate(NamedTuple):
    """One identity and its residual, a Scalar, or an XPoly for the
    operator checks; the identity holds when the residual is zero."""

    name: str
    residual: Scalar | XPoly

    @property
    def verdict(self) -> str:
        return "nonzero" if self.residual else "zero"

    def record(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "residual_text": self.residual.render() if self.residual else "",
        }


def _suites(k: int | None) -> dict[int, CoeffSuite]:
    """The suites at n-2 .. n+1: symbolic in u, or instantiated at n = k.

    x acts on P_{n+1} .. P_{n-2}, and the claims read n-1, n and n+1.
    """
    if k is None:
        base = coeff_suite()
        return {j: CoeffSuite._make(m.shift_n(j) for m in base) for j in range(-2, 2)}
    return {j: coeff_suite(k + j) for j in range(-2, 2)}


def _comb(*terms: tuple[Scalar, Sum]) -> Sum:
    """sum_i w_i v_i for (w_i, v_i) in terms."""
    out: Sum = {}
    for w, v in terms:
        for j, c in v.items():
            out[j] = out.get(j, ZERO) + w * c
    return out


def _x(v: Sum, at: dict[int, CoeffSuite]) -> Sum:
    """x v, by x P_m = P_{m+1} + B_m P_m + C_m P_{m-1}."""
    return _comb(
        *((c, {j + 1: ONE, j: at[j].B_n, j - 1: at[j].C_n}) for j, c in v.items())
    )


def _u2(v: Sum, at: dict[int, CoeffSuite]) -> Sum:
    """U_2 v = (alpha^2 - 1)(x x v - v)."""
    return _comb((ALPHA2M1, _x(_x(v, at), at)), (-ALPHA2M1, v))


def _sq_claim(s: CoeffSuite, j: int) -> Sum:
    """S_q P_{n+j}, with s the suite at n+j."""
    return {j: s.alpha_n, j - 1: s.c_n}


def _dq_claim(s: CoeffSuite, j: int) -> Sum:
    """U_2 D_q P_{n+j}, with s the suite at n+j."""
    return {j + 1: s.c_n1, j: s.c_n2, j - 1: s.c_n3, j - 2: s.c_n4}


def _step(at: dict[int, CoeffSuite]) -> tuple[Sum, Sum]:
    s, sm = at[0], at[-1]
    sq, dq = _sq_claim(s, 0), _dq_claim(s, 0)
    sq_next = _comb(
        (ALPHA, _x(sq, at)), (ONE, dq), (-s.B_n, sq), (-s.C_n, _sq_claim(sm, -1))
    )
    dq_next = _comb(
        (ONE, _u2(sq, at)),
        (ALPHA, _x(dq, at)),
        (-s.B_n, dq),
        (-s.C_n, _dq_claim(sm, -1)),
    )
    return sq_next, dq_next


def derive_step(k: int | None = None) -> tuple[Sum, Sum]:
    """S_q P_{n+1} and U_2 D_q P_{n+1} from the product rules and the
    claims at n and n-1, as {offset from n: coefficient}.

    Symbolic in n (u) by default, or with every suite instantiated at
    n = k.
    """
    return _step(_suites(k))


def _residuals(k: int | None = None) -> list[IdentityCertificate]:
    """Derived minus claimed at n+1, offset by offset: the ten step identities."""
    at = _suites(k)
    sq_next, dq_next = _step(at)
    out = []
    for offsets, derived, claimed in (
        (_SQ_OFFSETS, sq_next, _sq_claim(at[1], 1)),
        (_DQ_OFFSETS, dq_next, _dq_claim(at[1], 1)),
    ):
        out += [
            IdentityCertificate(name, derived.get(j, ZERO) - claimed.get(j, ZERO))
            for name, j in offsets
        ]
    return out


def certify_sq_step() -> list[IdentityCertificate]:
    """The four offsets of the derived S_q P_{n+1}, symbolic in u."""
    return _residuals()[: len(_SQ_OFFSETS)]


def certify_dq_step() -> list[IdentityCertificate]:
    """The six offsets of the derived U_2 D_q P_{n+1}, symbolic in u."""
    return _residuals()[len(_SQ_OFFSETS) :]


def certify_base_case() -> list[IdentityCertificate]:
    """The n = 0 statements, instantiated and operator-checked."""
    s0 = coeff_suite(0)
    c1 = coeff_suite(1).c_n
    fam = counterexample_family()
    ctx = context()
    p0 = fam.poly(0)
    return [
        IdentityCertificate("base-alpha0", s0.alpha_n - ONE),
        IdentityCertificate("base-c0", s0.c_n),
        IdentityCertificate(
            "base-c1-cancel",
            c1 - ALPHA * s0.c_n + (ONE - ALPHA) * s0.alpha_n * s0.B_n,
        ),
        IdentityCertificate("base-sq-constant", ctx.sq(p0) - p0.scale(s0.alpha_n)),
        IdentityCertificate("base-dq-constant", ctx.u2() * ctx.dq(p0)),
    ]


# the indices at which `qaw verify proof` spot-checks the instantiation
_K_SAMPLES = (2, 3, 5, 8)


def instantiation_coherence(ks=_K_SAMPLES) -> list[dict]:
    """Check substitution commutes with the certificate arithmetic.

    For each k: the symbolic residual instantiated at k must equal the
    residual of the same derivation run on suites instantiated at k.
    """
    return _coherence(_residuals(), ks)


def _coherence(sym: list[IdentityCertificate], ks) -> list[dict]:
    """`instantiation_coherence` against the symbolic residuals sym."""
    out = []
    for k in ks:
        for (name, res_sym), (_, res_inst) in zip(sym, _residuals(k)):
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


def certify_proof() -> tuple[list[IdentityCertificate], list[dict]]:
    """Everything `qaw verify proof` checks, from one symbolic derivation.

    The certificates of `certify_sq_step`, `certify_dq_step` and
    `certify_base_case`, in that order, and the records of
    `instantiation_coherence()`.
    """
    sym = _residuals()
    return sym + certify_base_case(), _coherence(sym, _K_SAMPLES)
