"""Exact arithmetic in the Laurent ring Q[t^+-1, u^+-1].

Every coefficient that appears anywhere in this package is a Laurent
polynomial in two commuting indeterminates,

    t  (a fixed fourth root of the deformation parameter, q = t^4),
    u  (a placeholder for the n-dependent monomial, u = t^(2n)),

with rational coefficients: the recurrence data B_n and C_n, the
structure-relation coefficients c_{n,1..4} and d_{k,1..6}, and every
coefficient of every p_n.  A value is stored as one dict of its terms,
so equal values have equal representations and the zero test is a dict
lookup.

Division is exact or refused.  A quotient that is a Laurent polynomial
is returned; any other raises ExactDivisionError, because the value it
would stand for lies outside the ring.  Division by a monomial is a
shift; any other divisor goes through one exact long division of true
polynomials, and never through a gcd.

The dict kernels here (`_padd`, `_psub`, `_pmul`, `_collect`, `_pdiv`,
`_power`) are the only arithmetic loops of the package, and `_Ring` is
the one operator shell over them: `==`, `hash`, negation, `+`, `-` and
`*` of Scalar, and of zsym's `XPoly` and `ZLaurent`, whose dicts hold
Scalar coefficients keyed by degree in x or exponent of z.

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


def _checked_key(i: int, j: int) -> int:
    """The packed key of t^i u^j; OverflowError beyond MAX_EXPONENT."""
    if abs(i) > MAX_EXPONENT or abs(j) > MAX_EXPONENT:
        raise OverflowError("exponent (%d, %d) out of supported range" % (i, j))
    return _pack(i, j)


def _max_exponent(s: "Scalar") -> int:
    """The largest |exponent| of t or u in s."""
    out = 0
    for k in s._t:
        i, j = _unpack(k)
        out = max(out, abs(i), abs(j))
    return out


# ---------------------------------------------------------------------------
# raw dict arithmetic: {key: nonzero coefficient}
# ---------------------------------------------------------------------------


def _collect(items) -> dict:
    """Sum (key, value) pairs by key, in first-seen order.

    A zero value is not stored, and a key whose sum cancels is removed,
    so it goes to the end if it comes back.
    """
    out: dict = {}
    get = out.get
    for k, c in items:
        s = get(k)
        if s is not None:
            c = s + c
        if c:
            out[k] = c
        elif s is not None:
            del out[k]
    return out


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


def _pshift(a: dict, dkey: int) -> dict:
    return {k + dkey: v for k, v in a.items()}


def _pmins(a: dict) -> tuple[int, int]:
    """(min t-exponent, min u-exponent) of a nonzero a."""
    pairs = [_unpack(k) for k in a]
    return min(i for i, _ in pairs), min(j for _, j in pairs)


def _power(base, e: int, one):
    """base ** e for e >= 0, by repeated squaring."""
    out = one
    while e:
        if e & 1:
            out = out * base
        base = base * base if e > 1 else base
        e >>= 1
    return out


# ---------------------------------------------------------------------------
# exact division over Q[t, u]
#
# `_pdiv_exact` takes true polynomials (all exponents nonnegative) and a
# divisor with no monomial factor; `_pdiv` shifts both sides there.  A
# Laurent quotient is then a true polynomial (t and u are primes that do
# not divide the divisor), so the division succeeds exactly when the
# quotient is Laurent.  It walks lexicographically leading terms; the
# quotient of an exact division is produced in strictly decreasing key
# order, so the loop terminates, and it raises exactly when b does not
# divide a.
#
# Coefficients only need `/` to be exact or raise, so ZLaurent divides
# here too: its z^m key is the packed key of t^0 u^m, for |m| < 2^31,
# and a Scalar coefficient that leaves the ring raises in its own `/`.
# ---------------------------------------------------------------------------


class ExactDivisionError(ArithmeticError):
    """Raised when a quotient is not a Laurent polynomial."""


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
            raise ExactDivisionError("quotient is not a Laurent polynomial")
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


def _pdiv(a: dict, b: dict) -> dict:
    """The exact Laurent quotient a / b; raises ExactDivisionError if none."""
    if not b:
        raise ZeroDivisionError("division by zero")
    if not a:
        return {}
    if len(b) == 1:
        ((kb, cb),) = b.items()
        return {k - kb: c / cb for k, c in a.items()}
    ka, kb = _pack(*_pmins(a)), _pack(*_pmins(b))
    return _pshift(_pdiv_exact(_pshift(a, -ka), _pshift(b, -kb)), ka - kb)


# ---------------------------------------------------------------------------
# the ring shell, shared with zsym's XPoly and ZLaurent
# ---------------------------------------------------------------------------


class _Ring:
    """A dict {key: nonzero coefficient} with its ring operations on the
    kernels above; each subclass's `_coerce` returns NotImplemented for a
    foreign operand."""

    __slots__ = ("_t",)

    @classmethod
    def _raw(cls, t: dict):
        p = cls.__new__(cls)
        p._t = t
        return p

    def __bool__(self) -> bool:
        return bool(self._t)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._t == other._t

    def __hash__(self) -> int:
        # a constant, zero included, hashes as the coefficient it equals,
        # as `==` makes it equal to one
        t = self._t
        if t.keys() <= {0}:
            return hash(t.get(0, 0))
        return hash(frozenset(t.items()))

    def __neg__(self):
        return self._raw({k: -c for k, c in self._t.items()})

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._raw(_padd(self._t, other._t))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._raw(_psub(self._t, other._t))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # through the forward operator, so that a traced __sub__ counts it
        return other.__sub__(self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._raw(_pmul(self._t, other._t))

    __rmul__ = __mul__

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, self.render())


# ---------------------------------------------------------------------------
# Scalar
# ---------------------------------------------------------------------------

_ONE_DICT = {0: _R1}


def _terms_dict(terms) -> dict:
    items = terms.items() if isinstance(terms, Mapping) else terms
    return _collect((_checked_key(i, j), Rat(c)) for (i, j), c in items)


def _coerce(v) -> "Scalar":
    if isinstance(v, Scalar):
        return v
    if isinstance(v, int):
        v = Rat(v)
    if isinstance(v, Rat):
        return Scalar({0: v} if v else {})
    return NotImplemented


class Scalar(_Ring):
    """An element of Q[t^+-1, u^+-1]: one dict {packed (t, u) key: nonzero Rat}.

    The representation is unique, so `==` and `hash` are those of the
    dict, except that a constant hashes as the rational it equals.  `/`
    returns the exact Laurent quotient or raises
    ExactDivisionError.

    Construct via the module helpers (`tpow`, `upow`, `rational`,
    `from_terms`, `parse`) or by arithmetic on existing values; the two
    generators are exported as `T` and `U`.

    >>> s = (T ** 2 + 1) / 2
    >>> str(s)
    '(1/2)*t^2 + (1/2)'
    >>> s - s == ZERO
    True
    """

    __slots__ = ()

    _coerce = staticmethod(_coerce)

    # bound here, not only inherited, so that the benchmark's tracer finds
    # them in Scalar's own __dict__ and counts Scalar arithmetic alone
    __add__ = __radd__ = _Ring.__add__
    __sub__ = _Ring.__sub__
    __mul__ = __rmul__ = _Ring.__mul__

    def __init__(self, terms: dict):
        self._t = terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_terms(
        cls,
        terms: Mapping[tuple[int, int], RatLike] | Iterable[tuple[tuple[int, int], RatLike]],
    ) -> "Scalar":
        """Build a scalar from {(t-exp, u-exp): coefficient} data."""
        return cls(_terms_dict(terms))

    @classmethod
    def parse(cls, text: str) -> "Scalar":
        """Parse the textual scalar grammar, e.g. ``(1/2)*t^2*u^-1 + 1``."""
        from . import textio

        return textio.parse_scalar(text)

    # -- structure queries -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._t

    @property
    def is_one(self) -> bool:
        return self._t == _ONE_DICT

    @property
    def is_monomial(self) -> bool:
        """True for c t^i u^j with c nonzero: the units of the ring."""
        return len(self._t) == 1

    @property
    def is_rational(self) -> bool:
        return not self._t or (len(self._t) == 1 and 0 in self._t)

    @property
    def has_u(self) -> bool:
        m = _HALF
        return any(((k + m) & _MASK) != m for k in self._t)

    def as_rational(self) -> Rat:
        if not self.is_rational:
            raise ValueError("scalar is not a rational constant")
        return self._t.get(0, _R0)

    def laurent_terms(self) -> Iterator[tuple[int, int, Rat]]:
        """Yield (t-exp, u-exp, coeff), highest key first."""
        for k in sorted(self._t, reverse=True):
            i, j = _unpack(k)
            yield i, j, self._t[k]

    # a value read as numerator over denominator, as the benchmark's
    # checks read it: the terms over the constant 1
    numerator_terms = laurent_terms

    def denominator_terms(self) -> Iterator[tuple[int, int, Rat]]:
        yield 0, 0, _R1

    # -- what the shell does not cover: /, ** and scaling by a rational ----

    def __truediv__(self, other) -> "Scalar":
        """The exact quotient; ExactDivisionError when it is not Laurent."""
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(_pdiv(self._t, other._t))

    def __rtruediv__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__truediv__(self)

    def __pow__(self, e: int) -> "Scalar":
        if not isinstance(e, int):
            return NotImplemented
        # the power's largest |exponent| is |e| times that of self, so this
        # refuses exactly the powers the packing could not hold
        if abs(e) * _max_exponent(self) > MAX_EXPONENT:
            raise OverflowError("power %d leaves the supported exponent range" % e)
        if e < 0:
            return (ONE / self) ** (-e)
        return _power(self, e, ONE)

    def scale(self, c: RatLike) -> "Scalar":
        """Multiply by a plain rational."""
        c = Rat(c)
        if not c:
            return ZERO
        return Scalar({k: v * c for k, v in self._t.items()})

    # -- the two substitutions ---------------------------------------------

    def shift_n(self, k: int) -> "Scalar":
        """Apply the index shift n -> n + k, i.e. u -> u * t^(2k)."""
        if not k or not self.has_u:
            return self
        d = 2 * k << _SHIFT
        return Scalar(
            {key + d * (((key + _HALF) & _MASK) - _HALF): c for key, c in self._t.items()}
        )

    def instantiate_n(self, n: int) -> "Scalar":
        """Substitute u := t^(2n), collapsing to a u-free scalar.

        Valid for any integer n; the family layer uses n = -1 for its
        out-of-range convention.
        """
        if not self.has_u:
            return self
        # t^i u^j -> t^(i + 2nj): the key moves by j (2n << _SHIFT) - j
        d = (2 * n << _SHIFT) - 1
        m = _HALF
        return Scalar(_collect((k + d * (((k + m) & _MASK) - m), c) for k, c in self._t.items()))

    def evaluate(self, q0: float) -> float:
        """Evaluate a u-free scalar at a numeric q0 in (0, 1), with t = q0^(1/4).

        The value is summed as the true polynomial t^d s, in term order,
        and then divided by t^d, where d clears the negative exponents.
        A scalar that mentions u raises ValueError; `instantiate_n` first.
        """
        if not 0.0 < q0 < 1.0:
            raise ValueError("q0 must lie strictly between 0 and 1")
        if self.has_u:
            raise ValueError("scalar depends on u; instantiate n first")
        d = max(0, -_pmins(self._t)[0]) if self._t else 0
        s = 0.0
        for k, c in self._t.items():
            s += float(c) * q0 ** (0.25 * (_unpack(k)[0] + d))
        return s / q0 ** (0.25 * d)

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        from . import textio

        return textio.render_scalar(self)


def as_scalar(v) -> Scalar:
    """Coerce an int, rational or Scalar to a Scalar."""
    s = _coerce(v)
    if s is NotImplemented:
        raise TypeError("cannot interpret %r as a scalar" % (v,))
    return s


def rational(p: RatLike, q: RatLike = 1) -> Scalar:
    """The constant scalar p/q."""
    c = Rat(p) / Rat(q)
    return Scalar({0: c} if c else {})


def tpow(i: int) -> Scalar:
    return Scalar({_checked_key(i, 0): _R1})


def upow(j: int) -> Scalar:
    return Scalar({_checked_key(0, j): _R1})


ZERO = rational(0)
ONE = rational(1)
HALF = rational(1, 2)
T = tpow(1)
U = upow(1)
