"""Polynomials in x and their z-side Laurent representation.

The substitution x = (z + z^-1)/2 identifies polynomials in x with
symmetric Laurent polynomials in z.  The divided-difference operators of
`awcore` act on the z-side, where the half-step shift in the underlying
lattice variable becomes the clean rescaling z -> t^(+-2) z; this module
supplies the two types that pipeline needs:

    XPoly     polynomial in x, dense coefficient tuple
    ZLaurent  Laurent polynomial in z, sparse

plus the two exact conversions between XPoly and the ZLaurents that are
symmetric under z -> z^-1.  Both types compute with the dict kernels of
`scalar`: XPoly on its sparse form {degree: Scalar}, ZLaurent on its
{exponent: Scalar}, whose key z^m `_pdiv` reads as t^0 u^m.
"""

from __future__ import annotations

from math import comb
from math import inf as _INF
from typing import Iterable, Iterator

from .scalar import Rat, Scalar, as_scalar, ZERO, ONE
from .scalar import _collect, _padd, _pdiv, _pmul, _power, _psub

NEG_INF = -_INF


def _as_xpoly(v):
    if isinstance(v, XPoly):
        return v
    try:
        s = as_scalar(v)
    except TypeError:
        return NotImplemented
    return XPoly._raw((s,) if s else ())


class XPoly:
    """A polynomial in x with Scalar coefficients.

    Coefficients are held densely from degree 0 upward with a nonzero
    top entry; the zero polynomial is the empty tuple and reports degree
    -inf so that degree laws like deg(fg) = deg f + deg g stay literal.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Iterable = ()):  # accepts Scalars, ints, rationals
        c = [as_scalar(v) for v in coeffs]
        while c and c[-1].is_zero:
            c.pop()
        self._c = tuple(c)

    @staticmethod
    def _raw(coeffs: tuple) -> "XPoly":
        p = XPoly.__new__(XPoly)
        p._c = coeffs
        return p

    # the sparse form {degree: nonzero coefficient} that the dict kernels take
    def _sparse(self) -> dict:
        return {k: c for k, c in enumerate(self._c) if c}

    @staticmethod
    def _dense(terms: dict) -> "XPoly":
        return XPoly._raw(tuple(terms.get(k, ZERO) for k in range(max(terms, default=-1) + 1)))

    @classmethod
    def zero(cls) -> "XPoly":
        return cls._raw(())

    @classmethod
    def one(cls) -> "XPoly":
        return cls._raw((ONE,))

    @classmethod
    def x(cls) -> "XPoly":
        return cls._raw((ZERO, ONE))

    @classmethod
    def parse(cls, text: str) -> "XPoly":
        from . import textio

        return textio.parse_xpoly(text)

    # -- queries -----------------------------------------------------------

    @property
    def degree(self):
        return len(self._c) - 1 if self._c else NEG_INF

    @property
    def leading(self) -> Scalar:
        return self._c[-1] if self._c else ZERO

    def coeff(self, k: int) -> Scalar:
        if 0 <= k < len(self._c):
            return self._c[k]
        return ZERO

    def coeffs(self) -> tuple:
        return self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other) -> bool:
        other = _as_xpoly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        # a constant hashes as the Scalar it equals, as `==` makes it
        # equal to one, and the zero polynomial as ZERO
        if len(self._c) < 2:
            return hash(self._c[0] if self._c else ZERO)
        return hash(self._c)

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "XPoly":
        return XPoly._raw(tuple(-a for a in self._c))

    def __add__(self, other) -> "XPoly":
        other = _as_xpoly(other)
        if other is NotImplemented:
            return NotImplemented
        return XPoly._dense(_padd(self._sparse(), other._sparse()))

    __radd__ = __add__

    def __sub__(self, other) -> "XPoly":
        other = _as_xpoly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other) -> "XPoly":
        other = _as_xpoly(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__sub__(self)

    def __mul__(self, other) -> "XPoly":
        other = _as_xpoly(other)
        if other is NotImplemented:
            return NotImplemented
        return XPoly._dense(_pmul(self._sparse(), other._sparse()))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "XPoly":
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        return _power(self, e, XPoly.one())

    def scale(self, c) -> "XPoly":
        s = as_scalar(c)
        if s.is_zero:
            return XPoly.zero()
        return XPoly._raw(tuple(a * s for a in self._c))

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        from . import textio

        return textio.render_xpoly(self)

    def to_latex(self) -> str:
        from . import textio

        return textio.latex_xpoly(self)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return "XPoly(%s)" % self.render()


class ZLaurent:
    """A Laurent polynomial in z with Scalar coefficients, kept sparse.

    Every z-form that the operators and families build is symmetric
    under z -> z^-1; `z_to_x` checks that and refuses any other.
    """

    __slots__ = ("_t",)

    def __init__(self, terms=()):
        items = terms.items() if hasattr(terms, "items") else terms
        self._t = _collect((m, as_scalar(c)) for m, c in items)

    @staticmethod
    def _raw(t: dict) -> "ZLaurent":
        p = ZLaurent.__new__(ZLaurent)
        p._t = t
        return p

    # -- queries -----------------------------------------------------------

    def coeff(self, m: int) -> Scalar:
        return self._t.get(m, ZERO)

    def terms(self) -> Iterator[tuple[int, Scalar]]:
        for m in sorted(self._t, reverse=True):
            yield m, self._t[m]

    @property
    def max_exp(self):
        return max(self._t) if self._t else NEG_INF

    def __bool__(self) -> bool:
        return bool(self._t)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZLaurent):
            return NotImplemented
        return self._t == other._t

    def is_symmetric(self) -> bool:
        t = self._t
        for m, c in t.items():
            if m > 0 and t.get(-m, ZERO) != c:
                return False
            if m < 0 and -m not in t:
                return False
        return True

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "ZLaurent":
        return ZLaurent._raw({m: -c for m, c in self._t.items()})

    def __add__(self, other) -> "ZLaurent":
        if not isinstance(other, ZLaurent):
            return NotImplemented
        return ZLaurent._raw(_padd(self._t, other._t))

    def __sub__(self, other) -> "ZLaurent":
        if not isinstance(other, ZLaurent):
            return NotImplemented
        return ZLaurent._raw(_psub(self._t, other._t))

    def __mul__(self, other) -> "ZLaurent":
        if not isinstance(other, ZLaurent):
            return NotImplemented
        return ZLaurent._raw(_pmul(self._t, other._t))

    def scale(self, c) -> "ZLaurent":
        s = as_scalar(c)
        if s.is_zero:
            return ZLaurent._raw({})
        return ZLaurent._raw({m: v * s for m, v in self._t.items()})

    def divide_exact(self, den: "ZLaurent") -> "ZLaurent":
        """Exact Laurent division; raises ExactDivisionError on remainder."""
        return ZLaurent._raw(_pdiv(self._t, den._t))

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        from . import textio

        return textio.render_zlaurent(self)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return "ZLaurent(%s)" % self.render()


def x_to_z(f: XPoly) -> ZLaurent:
    """Expand f((z + z^-1)/2) as a symmetric Laurent polynomial."""
    out: dict[int, Scalar] = {}
    for k, a in enumerate(f.coeffs()):
        if a.is_zero:
            continue
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
    return XPoly._dense(_collect(terms))
