"""Exact arithmetic in the field Q(t, u).

Every coefficient that appears anywhere in this package lives in the
fraction field of Laurent polynomials in two commuting indeterminates,

    t  (a fixed fourth root of the deformation parameter, q = t^4),
    u  (a placeholder for the n-dependent monomial, u = t^(2n)),

with rational coefficients.  A value is stored as a fraction num/den of
true polynomials; the pair carries no common monomial factor and the
denominator is monic in its lexicographically leading term.

Normalisation reduces by one exact division and never by a gcd.  Every
value that is a Laurent polynomial, as almost every coefficient formed
in this package is, ends up with a monomial denominator, so equal
Laurent values have equal representations and the zero test is a dict
lookup.  Any other fraction is kept as formed: num and den may share a
factor that is not a monomial, so (t^2 - 1)/(t^2 + t - 2) is stored and
rendered unreduced, and equality of two such fractions is decided by
cross-multiplication.

Exponent pairs (i, j) are packed into a single integer key
(i << 32) + j, which turns monomial multiplication into integer
addition.  The packing is unambiguous for |j| < 2^31, far beyond
anything the rest of the package produces.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Union

try:
    from gmpy2 import mpq as Rat
except ImportError:
    # a supported backend, only slower: the whole test suite runs on it
    # wherever gmpy2 is not installed
    from fractions import Fraction as Rat  # type: ignore[assignment]

RatLike = Union[int, Rat]

# Packed exponent keys: key = (i << 32) + j with j in (-2^31, 2^31).
_SHIFT = 32
_HALF = 1 << 31
_MASK = (1 << 32) - 1

# Sanity bound on exponents accepted from external input: `from_terms`,
# `tpow`, `upow`, `**` and the text parser refuse anything beyond it.
# Internal arithmetic only ever adds exponents of modest size, so the
# packing cannot silently wrap.
MAX_EXPONENT = 1 << 24

_R0 = Rat(0)
_R1 = Rat(1)


def _pack(i: int, j: int) -> int:
    return (i << _SHIFT) + j


def _unpack(key: int) -> tuple[int, int]:
    j = ((key + _HALF) & _MASK) - _HALF
    return (key - j) >> _SHIFT, j


def _check_exponents(i: int, j: int) -> None:
    if abs(i) > MAX_EXPONENT or abs(j) > MAX_EXPONENT:
        raise OverflowError("exponent (%d, %d) out of supported range" % (i, j))


def _max_exponent(s: "Scalar") -> int:
    """The largest |exponent| of t or u in the stored numerator and denominator."""
    out = 0
    for k in (*s._num, *s._den):
        i, j = _unpack(k)
        out = max(out, abs(i), abs(j))
    return out


# ---------------------------------------------------------------------------
# raw dict arithmetic: {packed exponent: nonzero Rat}
# ---------------------------------------------------------------------------


def _padd(a: dict, b: dict) -> dict:
    if len(a) < len(b):
        a, b = b, a
    out = dict(a)
    for k, c in b.items():
        s = out.get(k)
        if s is None:
            out[k] = c
        else:
            s = s + c
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _psub(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        s = out.get(k)
        if s is None:
            out[k] = -c
        else:
            s = s - c
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _pneg(a: dict) -> dict:
    return {k: -c for k, c in a.items()}


def _pmul(a: dict, b: dict) -> dict:
    if not a or not b:
        return {}
    if len(a) < len(b):
        a, b = b, a
    out: dict = {}
    get = out.get
    for kb, cb in b.items():
        for ka, ca in a.items():
            k = ka + kb
            s = get(k)
            if s is None:
                out[k] = ca * cb
            else:
                s = s + ca * cb
                if s:
                    out[k] = s
                else:
                    del out[k]
    return out


def _pscale(a: dict, c: Rat) -> dict:
    if not c:
        return {}
    return {k: v * c for k, v in a.items()}


def _pshift(a: dict, dkey: int) -> dict:
    if not dkey:
        return dict(a)
    return {k + dkey: v for k, v in a.items()}


def _pmins(a: dict) -> tuple[int, int]:
    mi = mj = None
    for k in a:
        i, j = _unpack(k)
        mi = i if mi is None or i < mi else mi
        mj = j if mj is None or j < mj else mj
    return mi, mj  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# exact division over Q[t, u]
#
# Inputs here are true polynomials (all exponents nonnegative); callers
# guarantee that via the shift step of Scalar normalisation.  Division
# walks lexicographically leading terms; the quotient of an exact
# division is produced in strictly decreasing key order, so the loop
# terminates, and it raises exactly when b does not divide a.
#
# This division is the only reduction Scalar performs.  Let den = m*d
# with m a monomial and d free of monomial factors.  The value num/den
# is Laurent exactly when num = L*d for a Laurent polynomial L, and then
# L is a true polynomial (t and u are primes that do not divide d), so
# the division of num by d succeeds.  Laurent values are therefore
# always brought to a monomial denominator; any other fraction is kept
# as it stands, with no search for a common factor.
# ---------------------------------------------------------------------------


class ExactDivisionError(ArithmeticError):
    """Raised when a division that must be exact leaves a remainder."""


def _pdiv_exact(a: dict, b: dict) -> dict:
    """a / b for nonzero a and b; raises ExactDivisionError on a remainder."""
    rem = dict(a)
    kb = max(b)
    cb = b[kb]
    quo: dict = {}
    while rem:
        ka = max(rem)
        kq = ka - kb
        i, j = _unpack(kq)
        if i < 0 or j < 0:
            raise ExactDivisionError("leading term not divisible")
        cq = rem[ka] / cb
        quo[kq] = cq
        for k, c in b.items():
            kk = k + kq
            s = rem.get(kk)
            if s is None:
                rem[kk] = -c * cq
            else:
                s = s - c * cq
                if s:
                    rem[kk] = s
                else:
                    del rem[kk]
    return quo


# ---------------------------------------------------------------------------
# Scalar
# ---------------------------------------------------------------------------

_ONE_DICT = {0: _R1}


def _normalize(num: dict, den: dict, skip_division: bool) -> tuple[dict, dict]:
    if not den:
        raise ZeroDivisionError("scalar with zero denominator")
    if not num:
        return {}, dict(_ONE_DICT)
    ni, nj = _pmins(num)
    di, dj = _pmins(den)
    mi, mj = min(ni, di), min(nj, dj)
    if mi or mj:
        dk = _pack(mi, mj)
        num = {k - dk: c for k, c in num.items()}
        den = {k - dk: c for k, c in den.items()}
    if len(den) > 1 and not skip_division:
        # divide by den with its own monomial factor taken out; this
        # succeeds exactly when the value is Laurent, and a miss fails
        # fast on a non-divisible lead and keeps the fraction as it is
        di, dj = di - mi, dj - mj
        dk = _pack(di, dj)
        try:
            quo = _pdiv_exact(num, _pshift(den, -dk))
        except ExactDivisionError:
            pass
        else:
            qi, qj = _pmins(quo)
            mk = _pack(min(qi, di), min(qj, dj))
            num, den = _pshift(quo, -mk), {dk - mk: _R1}
    lead = den[max(den)]
    if lead != _R1:
        num = {k: c / lead for k, c in num.items()}
        den = {k: c / lead for k, c in den.items()}
    return num, den


def _terms_dict(terms) -> dict:
    items = terms.items() if isinstance(terms, Mapping) else terms
    out: dict = {}
    for (i, j), c in items:
        _check_exponents(i, j)
        c = Rat(c)
        if c:
            k = _pack(i, j)
            s = out.get(k)
            out[k] = c if s is None else s + c
            if not out[k]:
                del out[k]
    return out


class Scalar:
    """An element of Q(t, u) in normal form.

    A Laurent value has exactly one representation, with a monomial
    denominator; `is_laurent` is exact.  A fraction that is not Laurent
    is not reduced beyond its common monomial, so `==` cross-multiplies
    and the representation, the rendering and `has_u` may show a factor
    that cancels.

    Construct via the module helpers (`tpow`, `upow`, `rational`,
    `from_terms`, `parse`) or by arithmetic on existing values; the two
    generators are exported as `T` and `U`.

    >>> s = (T ** 2 + 1) / 2
    >>> str(s)
    '(1/2)*t^2 + (1/2)'
    >>> s - s == ZERO
    True
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num: dict, den: dict, _canonical: bool = False):
        if not _canonical:
            num, den = _normalize(num, den, skip_division=False)
        self._num = num
        self._den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _make(num: dict, den: dict, skip_division: bool = False) -> "Scalar":
        num, den = _normalize(num, den, skip_division)
        return Scalar(num, den, _canonical=True)

    @classmethod
    def from_terms(
        cls,
        terms: Mapping[tuple[int, int], RatLike] | Iterable[tuple[tuple[int, int], RatLike]],
        den_terms=None,
    ) -> "Scalar":
        """Build a scalar from {(t-exp, u-exp): coefficient} data."""
        den = dict(_ONE_DICT) if den_terms is None else _terms_dict(den_terms)
        return cls._make(_terms_dict(terms), den)

    @classmethod
    def parse(cls, text: str) -> "Scalar":
        """Parse the textual scalar grammar, e.g. ``(1/2)*t^2*u^-1 + 1``."""
        from . import textio

        return textio.parse_scalar(text)

    # -- structure queries -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def is_one(self) -> bool:
        return self._num == _ONE_DICT and self._den == _ONE_DICT

    @property
    def is_laurent(self) -> bool:
        """True when the value is a Laurent polynomial (monomial denominator)."""
        return len(self._den) == 1

    @property
    def is_rational(self) -> bool:
        return len(self._den) == 1 and max(self._den) == 0 and (
            not self._num or (len(self._num) == 1 and max(self._num) == 0)
        )

    @property
    def has_u(self) -> bool:
        """True when the stored fraction mentions u.

        Exact for a Laurent value; a fraction that is not Laurent can
        carry u in a factor that cancels.
        """
        m = _HALF
        return any(((k + m) & _MASK) != m for k in self._num) or any(
            ((k + m) & _MASK) != m for k in self._den
        )

    def as_rational(self) -> Rat:
        if not self.is_rational:
            raise ValueError("scalar is not a rational constant")
        if not self._num:
            return _R0
        return self._num[0] / self._den[0]

    def laurent_terms(self) -> Iterator[tuple[int, int, Rat]]:
        """Yield (t-exp, u-exp, coeff) of a Laurent-polynomial scalar."""
        if len(self._den) != 1:
            raise ValueError("scalar has a nontrivial denominator")
        (dk,) = self._den
        for k in sorted(self._num, reverse=True):
            i, j = _unpack(k - dk)
            yield i, j, self._num[k]

    def numerator_terms(self) -> Iterator[tuple[int, int, Rat]]:
        for k in sorted(self._num, reverse=True):
            i, j = _unpack(k)
            yield i, j, self._num[k]

    def denominator_terms(self) -> Iterator[tuple[int, int, Rat]]:
        for k in sorted(self._den, reverse=True):
            i, j = _unpack(k)
            yield i, j, self._den[k]

    # -- ring / field operations ------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._den == other._den:
            return self._num == other._num
        if len(self._den) == 1 or len(other._den) == 1:
            # a Laurent value has one representation, and a non-monomial
            # denominator marks a value that is not Laurent
            return False
        return _pmul(self._num, other._den) == _pmul(other._num, self._den)

    def __hash__(self) -> int:
        if len(self._den) > 1:
            # equal fractions that are not Laurent can differ in their
            # representation, so they all share one bucket; nothing in
            # the package keys a dict or a set on a Scalar
            return 0
        return hash(
            (frozenset(self._num.items()), frozenset(self._den.items()))
        )

    def __neg__(self) -> "Scalar":
        return Scalar(_pneg(self._num), self._den, _canonical=True)

    def __add__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._den == other._den:
            return Scalar._make(_padd(self._num, other._num), self._den)
        return Scalar._make(
            _padd(_pmul(self._num, other._den), _pmul(other._num, self._den)),
            _pmul(self._den, other._den),
        )

    __radd__ = __add__

    def __sub__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._den == other._den:
            return Scalar._make(_psub(self._num, other._num), self._den)
        return Scalar._make(
            _psub(_pmul(self._num, other._den), _pmul(other._num, self._den)),
            _pmul(self._den, other._den),
        )

    def __rsub__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__sub__(self)

    def __mul__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar._make(
            _pmul(self._num, other._num), _pmul(self._den, other._den)
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._num:
            raise ZeroDivisionError("scalar division by zero")
        return Scalar._make(
            _pmul(self._num, other._den), _pmul(self._den, other._num)
        )

    def __rtruediv__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__truediv__(self)

    def __pow__(self, e: int) -> "Scalar":
        if not isinstance(e, int):
            return NotImplemented
        # the normal form of the power stores every exponent of self times |e|, so
        # this refuses exactly the powers the packing could not hold
        if abs(e) * _max_exponent(self) > MAX_EXPONENT:
            raise OverflowError("power %d leaves the supported exponent range" % e)
        if e < 0:
            return (ONE / self) ** (-e)
        out = ONE
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def inverse(self) -> "Scalar":
        return ONE / self

    def scale(self, c: RatLike) -> "Scalar":
        """Multiply by a plain rational, staying in normal form."""
        c = Rat(c)
        if not c or not self._num:
            return ZERO
        return Scalar(_pscale(self._num, c), self._den, _canonical=True)

    # -- the two substitutions ---------------------------------------------

    def shift_n(self, k: int) -> "Scalar":
        """Apply the index shift n -> n + k, i.e. u -> u * t^(2k).

        A ring automorphism, so Laurent values stay in normal form and
        other fractions stay non-Laurent: no division is attempted.
        """
        if not k or not self.has_u:
            return self
        d = 2 * k << _SHIFT

        def remap(p: dict) -> dict:
            out = {}
            for key, c in p.items():
                j = ((key + _HALF) & _MASK) - _HALF
                out[key + d * j] = c
            return out

        return Scalar._make(remap(self._num), remap(self._den), skip_division=True)

    def instantiate_n(self, n: int) -> "Scalar":
        """Substitute u := t^(2n), collapsing to a u-free scalar.

        Valid for any integer n; the family layer uses n = -1 for its
        out-of-range convention.  Raises ZeroDivisionError when the
        stored denominator vanishes under the substitution, which for a
        fraction that is not Laurent includes a removable singularity.
        """
        if not self.has_u:
            return self

        def remap(p: dict) -> dict:
            out: dict = {}
            for key, c in p.items():
                j = ((key + _HALF) & _MASK) - _HALF
                k = key + ((2 * n * j) << _SHIFT) - j
                s = out.get(k)
                if s is None:
                    out[k] = c
                else:
                    s = s + c
                    if s:
                        out[k] = s
                    else:
                        del out[k]
            return out

        den = remap(self._den)
        if not den:
            raise ZeroDivisionError(
                "denominator vanishes under u := t^(2n) at n=%d" % n
            )
        return Scalar._make(remap(self._num), den)

    def evaluate(self, q0: float, n: int | None = None) -> float:
        """Evaluate at a numeric q0 in (0, 1), with t = q0^(1/4).

        A scalar that mentions u needs the integer n supplying
        u = q0^(n/2).  The stored fraction is evaluated as it stands, so
        a fraction that is not Laurent can raise ZeroDivisionError at a
        removable singularity.
        """
        if not 0.0 < q0 < 1.0:
            raise ValueError("q0 must lie strictly between 0 and 1")
        if n is None and self.has_u:
            raise ValueError("scalar depends on u; supply n")

        def val(p: dict) -> float:
            s = 0.0
            for k, c in p.items():
                i, j = _unpack(k)
                e = 0.25 * i + (0.5 * n * j if j else 0.0)
                s += float(c) * q0 ** e
            return s

        d = val(self._den)
        if d == 0.0:
            raise ZeroDivisionError("denominator evaluates to zero")
        return val(self._num) / d

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        from . import textio

        return textio.render_scalar(self)

    def to_latex(self) -> str:
        from . import textio

        return textio.latex_scalar(self)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return "Scalar(%s)" % self.render()


def _coerce(v) -> "Scalar":
    if isinstance(v, Scalar):
        return v
    if isinstance(v, int):
        return Scalar({0: Rat(v)} if v else {}, dict(_ONE_DICT), _canonical=True)
    if isinstance(v, Rat):
        return Scalar({0: v} if v else {}, dict(_ONE_DICT), _canonical=True)
    return NotImplemented


def as_scalar(v) -> Scalar:
    """Coerce an int, rational or Scalar to a Scalar."""
    s = _coerce(v)
    if s is NotImplemented:
        raise TypeError("cannot interpret %r as a scalar" % (v,))
    return s


def rational(p: RatLike, q: RatLike = 1) -> Scalar:
    """The constant scalar p/q."""
    c = Rat(p) / Rat(q)
    return Scalar({0: c} if c else {}, dict(_ONE_DICT), _canonical=True)


def tpow(i: int) -> Scalar:
    _check_exponents(i, 0)
    return Scalar({_pack(i, 0): _R1}, dict(_ONE_DICT))


def upow(j: int) -> Scalar:
    _check_exponents(0, j)
    return Scalar({_pack(0, j): _R1}, dict(_ONE_DICT))


ZERO = rational(0)
ONE = rational(1)
HALF = rational(1, 2)
T = tpow(1)
U = upow(1)
Q = tpow(4)
