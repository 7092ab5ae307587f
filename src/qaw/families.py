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

from .scalar import Rat, Scalar, _pack, _padd, _pmul, _psub, _unpack
from .scalar import tpow, upow, rational, HALF, ONE, T, U, ZERO
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
        name: str = "",
    ):
        self.rec_a = rec_a
        self.rec_b = rec_b
        self.name = name
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


def ttrr_polys(fam: OPSFamily, nmax: int) -> list[XPoly]:
    """p_0 ... p_nmax of the family, monic."""
    return [fam.poly(n) for n in range(nmax + 1)]


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

    return OPSFamily(ra, rb, name="dual-q-hahn")


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
        name="counterexample",
    )


class CoeffSuite(NamedTuple):
    """Every named scalar of the structure relations at one index.

    Each member is a Laurent polynomial in t and u.  In symbolic mode
    the index is u itself and neighbours are reached by shift_n;
    instantiated mode substitutes u = t^(2n) throughout.  The d_k3
    member uses the index-k reading of its B factor; the certification
    layer also examines the alternative.
    """

    alpha_n: Scalar
    B_n: Scalar
    C_n: Scalar
    c_n: Scalar
    c_n1: Scalar
    c_n2: Scalar
    c_n3: Scalar
    c_n4: Scalar
    d_k1: Scalar
    d_k2: Scalar
    d_k3: Scalar
    d_k4: Scalar
    d_k5: Scalar
    d_k6: Scalar


def _shl(d: dict, s: int) -> dict:
    return {k: c << s for k, c in d.items()} if s else d


class _Dyadic:
    """d / 2^e, with d an int dict over Scalar's packed (t, u) keys.

    The suite's Laurent members are evaluated in this form: `_pmul` on
    int coefficients costs a small fraction of the same product on
    Fractions, and the formulas read as they do on Scalars.
    """

    __slots__ = ("d", "e")

    def __init__(self, d: dict, e: int = 0):
        self.d = d
        self.e = e

    @classmethod
    def of(cls, s: Scalar) -> "_Dyadic":
        """A Laurent scalar whose coefficients have power-of-two denominators."""
        terms = list(s.laurent_terms())
        e = max(c.denominator.bit_length() - 1 for _, _, c in terms)
        return cls({_pack(i, j): int(c * (1 << e)) for i, j, c in terms}, e)

    def _aligned(self, o: "_Dyadic") -> tuple[dict, dict, int]:
        e = max(self.e, o.e)
        return _shl(self.d, e - self.e), _shl(o.d, e - o.e), e

    def __add__(self, o: "_Dyadic") -> "_Dyadic":
        a, b, e = self._aligned(o)
        return _Dyadic(_padd(a, b), e)

    def __sub__(self, o: "_Dyadic") -> "_Dyadic":
        a, b, e = self._aligned(o)
        return _Dyadic(_psub(a, b), e)

    def __mul__(self, o: "_Dyadic") -> "_Dyadic":
        return _Dyadic(_pmul(self.d, o.d), self.e + o.e)

    def shift_n(self, k: int) -> "_Dyadic":
        """n -> n + k, i.e. u -> u t^(2k), as `Scalar.shift_n`."""
        dk = _pack(2 * k, 0)
        d = {key + dk * _unpack(key)[1]: c for key, c in self.d.items()}
        return _Dyadic(d, self.e)

    def scalar(self) -> Scalar:
        den = 1 << self.e
        return Scalar({k: Rat(c, den) for k, c in self.d.items()})


# c_{n,1} = (alpha^2 - 1)(u - u^-1)/(t^2 - t^-2) in Laurent form: alpha^2 - 1
# is (t^2 - t^-2)^2 / 4, so c_{n,1} = (t^2 - t^-2)(u - u^-1) / 4, stored
# here times 4
_C_N1 = {_pack(2, 1): 1, _pack(2, -1): -1, _pack(-2, 1): -1, _pack(-2, -1): 1}


def _build_symbolic_suite() -> CoeffSuite:
    """The suite's formulas, evaluated once over Z[1/2][t^+-1, u^+-1].

    c_{n,1} is `_C_N1`, and the paper's term (1 - alpha^2) gamma_n C_n of
    c_{n,3}, with gamma_n = (u - u^-1)/(t^2 - t^-2), is -c_{n,1} C_n.
    """
    al, B, C, c = map(_Dyadic.of, (ALPHA_SYM, B_SYM, C_SYM, c_SYM))
    a = _Dyadic({_pack(2, 0): 1, _pack(-2, 0): 1}, 1)  # alpha = (t^2 + t^-2)/2
    one = _Dyadic({0: 1})
    a2m1 = a * a - one

    Bm1 = B.shift_n(-1)
    Bp1 = B.shift_n(1)
    Bm2 = B.shift_n(-2)
    Cm1 = C.shift_n(-1)
    Cp1 = C.shift_n(1)
    Cm2 = C.shift_n(-2)
    cm1 = c.shift_n(-1)
    cp1 = c.shift_n(1)

    c1 = _Dyadic(_C_N1, 2)
    c2 = cp1 - a * c + (one - a) * al * B
    c3 = (B - a * Bm1) * c - c1 * C
    c4 = cm1 * C - a * c * Cm1

    d1 = a2m1 * al + a * c1
    d2 = a2m1 * (c + al * (B + Bp1)) + a * c2 - (B - a * Bp1) * c1
    d3 = (
        a2m1 * ((B + Bm1) * c + al * (B * B + C + Cp1 - one))
        + a * c1 * Cp1
        - c1.shift_n(-1) * C
        + (a - one) * c2 * B
        + a * c3
    )
    d4 = (
        a2m1 * ((B + Bm1) * al * C + (C + Bm1 * Bm1 + Cm1 - one) * c)
        - (c2.shift_n(-1) - a * c2) * C
        - (B - a * Bm1) * c3
        + a * c4
    )
    d5 = (
        a2m1 * Cm1 * (al * C + c * (Bm1 + Bm2))
        + a * c3 * Cm1
        - c3.shift_n(-1) * C
        - (B - a * Bm2) * c4
    )
    d6 = a2m1 * c * Cm1 * Cm2 + a * c4 * Cm2 - c4.shift_n(-1) * C

    laurent = (c1, c2, c3, c4, d1, d2, d3, d4, d5, d6)
    return CoeffSuite(ALPHA_SYM, B_SYM, C_SYM, c_SYM, *(m.scalar() for m in laurent))


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


def qpochhammer(a: Scalar, base: Scalar, k: int) -> Scalar:
    """(a; base)_k = (1 - a)(1 - a base) ... (1 - a base^(k-1))."""
    if k < 0:
        raise ValueError("q-Pochhammer wants k >= 0")
    out = ONE
    factor = a
    for _ in range(k):
        out = out * (ONE - factor)
        factor = factor * base
    return out


def aw_hyp_poly(
    n: int, a: Scalar, b: Scalar, c: Scalar, d: Scalar, base: Scalar
) -> XPoly:
    """Monic Askey-Wilson polynomial from its terminating 4phi3 sum.

    The z-dependent upper parameters contribute the symmetric product
    prod_{j<k} (1 - a base^j z)(1 - a base^j z^-1); everything else is
    scalar.  No division happens inside the sum: term k carries its
    numerator product times the suffix product of the later terms'
    denominators, which only perturbs the overall scale, and the one
    true division is the final monic normalisation.  That divides each
    coefficient by the leading one, and by Gauss's lemma it is exact
    wherever the monic p_n has Laurent coefficients: for d = 0 and
    monomial a, b, c, the continuous dual q-Hahn case that every caller
    builds.  Otherwise, as for most d != 0, it raises ExactDivisionError.
    base must be a nonzero monomial, or ValueError.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if a.is_zero:
        raise ValueError("parameter a must be nonzero")
    _check_monomial("base", base)
    q = base
    qmn = q ** (-n)
    big = a * b * c * d * q ** (n - 1)

    dens = []
    qk = ONE
    for _ in range(n):
        dens.append(
            (ONE - qk * q)
            * (ONE - a * b * qk)
            * (ONE - a * c * qk)
            * (ONE - a * d * qk)
        )
        qk = qk * q
    if any(dk.is_zero for dk in dens):
        raise ValueError("degenerate parameters: vanishing denominator factor")
    suffix = [ONE] * (n + 1)
    for j in range(n - 1, -1, -1):
        suffix[j] = dens[j] * suffix[j + 1]

    total = ZLaurent()
    zprod = ZLaurent({0: ONE})
    numk = ONE
    qk = ONE
    for k in range(n + 1):
        total = total + zprod.scale(numk * suffix[k])
        if k == n:
            break
        numk = numk * (ONE - qmn * qk) * (ONE - big * qk) * q
        g = a * qk
        zprod = zprod * ZLaurent({1: -g, -1: -g, 0: ONE + g * g})
        qk = qk * q

    f = z_to_x(total)
    if f.degree != n or f.leading.is_zero:
        raise ValueError("degenerate parameters: leading coefficient vanished")
    lead = f.leading
    return XPoly(c / lead for c in f.coeffs())
