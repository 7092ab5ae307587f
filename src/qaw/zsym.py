"""Polynomials in x and their z-side Laurent representation.

The substitution x = (z + z^-1)/2 identifies polynomials in x with
symmetric Laurent polynomials in z.  The divided-difference operators of
`awcore` act on the z-side, where the half-step shift in the underlying
lattice variable becomes the clean rescaling z -> t^(+-2) z; this module
supplies the two types that pipeline needs:

    XPoly     polynomial in x
    ZLaurent  Laurent polynomial in z

plus the two exact conversions between XPoly and the ZLaurents that are
symmetric under z -> z^-1.  Both types store one dict {exponent: nonzero
Scalar}, keyed by degree in x or exponent of z.  Their operators are
those of Scalar, from the one ring shell `scalar._Ring`; `_Poly` adds
only what exponent keys and Scalar coefficients allow.  A key z^m is
what `_pdiv` reads as t^0 u^m.
"""

from __future__ import annotations

from math import comb
from math import inf as _INF
from typing import Iterable, Iterator

from .scalar import Rat, Scalar, as_scalar, ZERO, ONE
from .scalar import _Ring, _collect, _padd, _pdiv, _power

NEG_INF = -_INF


class _Poly(_Ring):
    """The ring shell of `scalar` over Scalar coefficients, keyed by an
    integer exponent, with the queries that such keys allow."""

    __slots__ = ()

    def coeff(self, k: int) -> Scalar:
        return self._t.get(k, ZERO)

    @property
    def degree(self):
        return max(self._t) if self._t else NEG_INF

    def terms(self) -> Iterator[tuple[int, Scalar]]:
        """Yield (exponent, coefficient), highest exponent first."""
        for m in sorted(self._t, reverse=True):
            yield m, self._t[m]

    def scale(self, c):
        s = as_scalar(c)
        if s.is_zero:
            return self._raw({})
        return self._raw({k: v * s for k, v in self._t.items()})


class XPoly(_Poly):
    """A polynomial in x with Scalar coefficients.

    Stored as {degree: nonzero Scalar}; `coeffs()` is the dense view from
    degree 0 up.  The zero polynomial is the empty dict and reports
    degree -inf so that degree laws like deg(fg) = deg f + deg g stay
    literal.  Arithmetic takes Scalars, ints and rationals as constants.
    """

    __slots__ = ()

    def __init__(self, coeffs: Iterable = ()):  # accepts Scalars, ints, rationals
        self._t = {k: s for k, s in enumerate(map(as_scalar, coeffs)) if s}

    @staticmethod
    def _coerce(v):
        if isinstance(v, XPoly):
            return v
        try:
            s = as_scalar(v)
        except TypeError:
            return NotImplemented
        return XPoly._raw({0: s} if s else {})

    @classmethod
    def zero(cls) -> "XPoly":
        return cls._raw({})

    @classmethod
    def one(cls) -> "XPoly":
        return cls._raw({0: ONE})

    @classmethod
    def x(cls) -> "XPoly":
        return cls._raw({1: ONE})

    @classmethod
    def parse(cls, text: str) -> "XPoly":
        from . import textio

        return textio.parse_xpoly(text)

    # -- queries -----------------------------------------------------------

    @property
    def leading(self) -> Scalar:
        return self.coeff(self.degree)

    def coeffs(self) -> tuple:
        return tuple(self.coeff(k) for k in range(max(self._t, default=-1) + 1))

    def __pow__(self, e: int) -> "XPoly":
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        return _power(self, e, XPoly.one())

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        from . import textio

        return textio.render_xpoly(self)

    def to_latex(self) -> str:
        from . import textio

        return textio.latex_xpoly(self)


class ZLaurent(_Poly):
    """A Laurent polynomial in z with Scalar coefficients.

    Arithmetic takes only ZLaurents.  Every z-form that the operators
    and families build is symmetric under z -> z^-1; `z_to_x` checks
    that and refuses any other.
    """

    __slots__ = ()
    __hash__ = None

    def __init__(self, terms=()):
        items = terms.items() if hasattr(terms, "items") else terms
        self._t = _collect((m, as_scalar(c)) for m, c in items)

    @staticmethod
    def _coerce(v):
        return v if isinstance(v, ZLaurent) else NotImplemented

    # -- queries -----------------------------------------------------------

    def is_symmetric(self) -> bool:
        t = self._t
        for m, c in t.items():
            if m > 0 and t.get(-m, ZERO) != c:
                return False
            if m < 0 and -m not in t:
                return False
        return True

    def divide_exact(self, den: "ZLaurent") -> "ZLaurent":
        """Exact Laurent division; raises ExactDivisionError on remainder."""
        return ZLaurent._raw(_pdiv(self._t, den._t))

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        from . import textio

        return textio.render_zlaurent(self)


def x_to_z(f: XPoly) -> ZLaurent:
    """Expand f((z + z^-1)/2) as a symmetric Laurent polynomial."""
    out: dict[int, Scalar] = {}
    for k, a in f._t.items():
        inv = Rat(1) / (1 << k)
        out = _padd(out, {k - 2 * i: a.scale(comb(k, i) * inv) for i in range(k + 1)})
    return ZLaurent._raw(out)


def _e_table(deg: int) -> list[list[int]]:
    """x-coefficients of E_0 .. E_deg, lowest first, where z^m + z^-m = E_m(x).

    E_0 = 2, E_1 = 2x and E_{m+1} = 2x E_m - E_{m-1}.
    """
    es = [[2], [0, 2]]
    while len(es) <= deg:
        nxt = [0] + [2 * v for v in es[-1]]
        for k, v in enumerate(es[-2]):
            nxt[k] -= v
        es.append(nxt)
    return es[: deg + 1]


def z_to_x(g: ZLaurent) -> XPoly:
    """Rewrite a symmetric Laurent polynomial as a polynomial in x.

    Uses z^m + z^-m = E_m(x) from `_e_table`; asymmetric input signals a
    bug in the caller and raises ValueError.
    """
    if not g.is_symmetric():
        raise ValueError("cannot express an asymmetric polynomial in x")
    t = g._t
    es = _e_table(max(t, default=0))
    es[0] = [1]  # z^0 appears once, not as z^0 + z^-0
    terms = ((k, t[m].scale(r)) for m, e in enumerate(es) if m in t for k, r in enumerate(e) if r)
    return XPoly._raw(_collect(terms))
