"""Monic orthogonal-polynomial families and their recurrence data.

Everything here revolves around the three-term recurrence

    p_{n+1} = (x - rec_a(n)) p_n - rec_b(n) p_{n-1},    p_0 = 1, p_{-1} = 0,

run once, on the z side (x = (z + z^-1)/2), where the operators of
`awcore` act; the x-form of p_n is a conversion of the cached z-form.
There are two concrete instances: the continuous dual q-Hahn family with
parameters (a, b, c | q), and the specialisation at (1, -1, t | t^2)
whose recurrence coefficients also have the closed forms

    B_n = ((1 + t^-2) u + 1 - t^-2) u t / 2,
    C_n = (1 + u t^-2)(1 - u)(1 - u^2 t^-2) / 4,        u = t^(2n),

written directly in the Laurent ring Q[t^+-1, u^+-1].  The closed forms
are the constructors; the dual q-Hahn substitution is kept separate so
the two derivations can be checked against each other.  Its parameter
a and its base are nonzero monomials, which keeps every a_n and b_n in
the ring: the display divides by both.

`coeff_suite` collects the full set of named scalars that the structure
relations and their inductive certification are phrased with, either
symbolic in u or instantiated at a concrete index; every one of them is
a Laurent polynomial.  Negative indices (B_{-1} and friends) are
meaningful ring elements by the same formulas; only products against
the zero polynomials p_{-1}, p_{-2} are dropped, and that happens at the
verification layer, not here.

`aw_hyp_poly` is the independent construction of the same polynomials
from their terminating 4phi3 sum, which ends with one exact division.
"""

from __future__ import annotations

import threading
from typing import Callable, NamedTuple

from .awcore import ALPHA
from .scalar import Rat, Scalar, tpow, upow, rational, HALF, ONE, T, U, ZERO
from .zsym import XPoly, ZLaurent, z_to_x

_QUARTER = rational(1, 4)
_HALF = Rat(1, 2)


class OPSFamily:
    """A monic family generated by its recurrence coefficients.

    The family is held once, on the z side, where the operators act:
    `zpoly` caches the symmetric Laurent form of each p_n, and `poly`
    converts it to x on request.  Cache growth is guarded by a lock so
    concurrent readers never see a partially built entry.
    """

    def __init__(
        self,
        rec_a: Callable[[int], Scalar],
        rec_b: Callable[[int], Scalar],
    ):
        self.rec_a = rec_a
        self.rec_b = rec_b
        self._lock = threading.Lock()
        self._zs: list[ZLaurent] = [ZLaurent({0: ONE})]

    def poly(self, n: int) -> XPoly:
        """The monic p_n; p_n = 0 for negative n."""
        return z_to_x(self.zpoly(n))

    def zpoly(self, n: int) -> ZLaurent:
        """p_n((z + z^-1)/2) as a symmetric Laurent polynomial.

        The recurrence runs on the z^k, k >= 0, half and the result is
        mirrored, so it is symmetric by construction.  Multiplying by x
        averages neighbouring coefficients: the z^k coefficient of x f
        is (f_(k-1) + f_(k+1))/2, and f_-1 = f_1 at k = 0.
        """
        if n < 0:
            return ZLaurent()
        with self._lock:
            zs = self._zs
            while len(zs) <= n:
                m = len(zs) - 1
                cur = zs[m]._t
                prev = zs[m - 1]._t if m else {}
                a = self.rec_a(m)
                b = self.rec_b(m) if m else ZERO
                out: dict[int, Scalar] = {}
                for k in range(m + 2):
                    v = (cur.get(k - 1, ZERO) + cur.get(k + 1, ZERO)).scale(_HALF)
                    v = v - a * cur.get(k, ZERO) - b * prev.get(k, ZERO)
                    if v:
                        out[k] = out[-k] = v
                zs.append(ZLaurent._raw(out))
            return zs[n]


class _FamilyFields(NamedTuple):
    a: Scalar
    b: Scalar
    c: Scalar
    base: Scalar


def _check_monomial(name: str, v: Scalar) -> None:
    if not v.is_monomial:
        raise ValueError("%s must be a nonzero monomial c t^i u^j" % name)


class FamilyParams(_FamilyFields):
    """Parameters (a, b, c | base) of a continuous dual q-Hahn family.

    The base is a Scalar so that the counterexample's base t^2 and any
    generic base go through the same code path.  a and base must be
    nonzero monomials, or ValueError: the recurrence divides by both.
    """

    __slots__ = ()

    def __new__(cls, a: Scalar, b: Scalar, c: Scalar, base: Scalar):
        _check_monomial("parameter a", a)
        _check_monomial("family base", base)
        if base.is_one:
            raise ValueError("family base must differ from 1")
        return super().__new__(cls, a, b, c, base)


COUNTEREXAMPLE_PARAMS = FamilyParams(ONE, rational(-1), T, tpow(2))


def dual_qhahn_rec_coeffs(p: FamilyParams, qn: Scalar) -> tuple[Scalar, Scalar]:
    """The recurrence pair (a_n, b_n) with base^n supplied as a Scalar.

    Passing qn = u yields the coefficients symbolic in the index, which
    is how the closed forms above are certified against this display.
    """
    a, b, c, q = p.a, p.b, p.c, p.base
    qn1 = qn / q
    ainv = ONE / a
    an = (
        a
        + ainv
        - a * (ONE - qn) * (ONE - b * c * qn1)
        - ainv * (ONE - a * b * qn) * (ONE - a * c * qn)
    ) * HALF
    bn = (
        (ONE - a * b * qn1)
        * (ONE - a * c * qn1)
        * (ONE - b * c * qn1)
        * (ONE - qn)
        * _QUARTER
    )
    return an, bn


def dual_qhahn_family(p: FamilyParams) -> OPSFamily:
    def ra(n: int) -> Scalar:
        return dual_qhahn_rec_coeffs(p, p.base ** n)[0]

    def rb(n: int) -> Scalar:
        return dual_qhahn_rec_coeffs(p, p.base ** n)[1]

    return OPSFamily(ra, rb)


# closed-form recurrence coefficients of the counterexample family,
# symbolic in u
B_SYM = ((ONE + tpow(-2)) * U + ONE - tpow(-2)) * U * T * HALF
C_SYM = (ONE + U * tpow(-2)) * (ONE - U) * (ONE - U * U * tpow(-2)) * _QUARTER
c_SYM = C_SYM / U * T

ALPHA_SYM = (U + upow(-1)) * HALF


def counterexample_family() -> OPSFamily:
    """The family P_n with rec_a = B_n, rec_b = C_n from the closed forms."""
    return OPSFamily(
        lambda n: B_SYM.instantiate_n(n),
        lambda n: C_SYM.instantiate_n(n),
    )


class CoeffSuite(NamedTuple):
    """Every named scalar of the structure relations at one index.

    Each member is a Laurent polynomial in t and u.  In symbolic mode
    the index is u itself and neighbours are reached by shift_n;
    instantiated mode substitutes u = t^(2n) throughout.
    """

    alpha_n: Scalar
    B_n: Scalar
    C_n: Scalar
    c_n: Scalar
    c_n1: Scalar
    c_n2: Scalar
    c_n3: Scalar
    c_n4: Scalar


# c_{n,1} = (alpha^2 - 1)(u - u^-1)/(t^2 - t^-2) in Laurent form: alpha^2 - 1
# is (t^2 - t^-2)^2 / 4, so c_{n,1} = (t^2 - t^-2)(u - u^-1) / 4
_C_N1 = (tpow(2) - tpow(-2)) * (U - upow(-1)) * _QUARTER


def _build_symbolic_suite() -> CoeffSuite:
    """The suite's formulas, evaluated once in Q[t^+-1, u^+-1].

    c_{n,1} is `_C_N1`, and the paper's term (1 - alpha^2) gamma_n C_n of
    c_{n,3}, with gamma_n = (u - u^-1)/(t^2 - t^-2), is -c_{n,1} C_n.
    """
    al, B, C, c, a, c1 = ALPHA_SYM, B_SYM, C_SYM, c_SYM, ALPHA, _C_N1
    c2 = c.shift_n(1) - a * c + (ONE - a) * al * B
    c3 = (B - a * B.shift_n(-1)) * c - c1 * C
    c4 = c.shift_n(-1) * C - a * c * C.shift_n(-1)
    return CoeffSuite(al, B, C, c, c1, c2, c3, c4)


_SYMBOLIC_SUITE: CoeffSuite | None = None
_SUITE_LOCK = threading.Lock()


def coeff_suite(n: int | None = None) -> CoeffSuite:
    """The coefficient suite, symbolic in u, or instantiated at n if given."""
    global _SYMBOLIC_SUITE
    with _SUITE_LOCK:
        if _SYMBOLIC_SUITE is None:
            _SYMBOLIC_SUITE = _build_symbolic_suite()
        suite = _SYMBOLIC_SUITE
    if n is None:
        return suite
    return CoeffSuite._make(m.instantiate_n(n) for m in suite)


def aw_hyp_poly(
    n: int, a: Scalar, b: Scalar, c: Scalar, d: Scalar, base: Scalar
) -> XPoly:
    """Monic Askey-Wilson polynomial from its terminating 4phi3 sum.

    The z-dependent upper parameters contribute the symmetric product
    prod_{j<k} (1 - g_j z)(1 - g_j z^-1), g_j = a base^j.  At
    x = (z + z^-1)/2 each factor is the linear (1 + g_j^2) - 2 g_j x, so
    term k's product is an XPoly of degree k, one linear factor more per
    term, and the sum never leaves x: it shares no z_to_x with the
    recurrence side that it checks.  Everything else is scalar.  No
    division happens inside the sum: term k carries its numerator
    product times the suffix product of the later terms' denominators,
    which only perturbs the overall scale, and the one true division is
    the final monic normalisation.  That divides each coefficient by the
    leading one, and by Gauss's lemma it is exact wherever the monic p_n
    has Laurent coefficients: for monomial a, b, c, the continuous dual
    q-Hahn case that every caller builds.
    d must be zero and base a nonzero monomial, or ValueError.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if a.is_zero:
        raise ValueError("parameter a must be nonzero")
    if not d.is_zero:
        raise ValueError("parameter d must be zero, the continuous dual q-Hahn case")
    _check_monomial("base", base)
    q = base
    qmn = q ** (-n)

    dens = []
    qk = ONE
    for _ in range(n):
        dens.append((ONE - qk * q) * (ONE - a * b * qk) * (ONE - a * c * qk))
        qk = qk * q
    if any(dk.is_zero for dk in dens):
        raise ValueError("degenerate parameters: vanishing denominator factor")
    suffix = [ONE] * (n + 1)
    for j in range(n - 1, -1, -1):
        suffix[j] = dens[j] * suffix[j + 1]

    f = XPoly.zero()
    xprod = XPoly.one()
    numk = ONE
    qk = ONE
    for k in range(n + 1):
        f = f + xprod.scale(numk * suffix[k])
        if k == n:
            break
        numk = numk * (ONE - qmn * qk) * q
        g = a * qk
        xprod = xprod * XPoly([ONE + g * g, g.scale(-2)])
        qk = qk * q

    if f.degree != n or f.leading.is_zero:
        raise ValueError("degenerate parameters: leading coefficient vanished")
    lead = f.leading
    return XPoly(c / lead for c in f.coeffs())
