"""Parsing, rendering and record serialisation.

One tokenizer and one recursive-descent parser cover both the scalar
grammar and polynomials in x; every error carries the character
position it was raised at.  The renderers are the inverse maps: parsing
a rendered value reproduces it exactly.

Grammar (whitespace free):

    expr     :=  term (("+" | "-") term)*
    term     :=  factor (("*" | "/") factor)*
    factor   :=  ["-"] atom ["^" ["-"] INTEGER]
    atom     :=  INTEGER | "t" | "u" | "x" | "(" expr ")"

Every value stays in Q[t^+-1, u^+-1][x]: a "/" or a negative power is
accepted only where the quotient is a Laurent polynomial, such as
(t^2 - 1)/(t - 1) or t^-3, and any other is refused at its operator.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

from .scalar import MAX_EXPONENT, ExactDivisionError, Rat, Scalar, tpow, upow, rational
from .scalar import _max_exponent
from .zsym import XPoly, ZLaurent


class ParseError(ValueError):
    """A syntax error, annotated with its character position."""

    def __init__(self, message: str, pos: int):
        super().__init__("position %d: %s" % (pos, message))
        self.pos = pos


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

_OPS = set("+-*/^()")
# ASCII only: str.isdigit also accepts digits such as '²' and '٣'
_DIGITS = set("0123456789")
_RANGE_MSG = "exponent beyond the supported range |e| <= %d" % MAX_EXPONENT
_RING_MSG = "result is not a Laurent polynomial in t and u"

# The most terms that a power v^e or a product v * w in the parser may
# hold, predicted by its `_Shape` before it is formed: one Scalar per
# power of x up to the degree d, holding at most N monomials x^i t^j u^k
# together, so max(d + 1, N) + d + 1 terms.  A value beyond it is
# refused at its "^" or "*".
MAX_POWER_TERMS = 1 << 10
_SIZE_MSG = "%%s beyond the supported range of %d terms" % MAX_POWER_TERMS

# The most bits that the numerator or the denominator of a coefficient in
# parsed text may hold.  2^14284 < 10^4300, the most digits that int()
# and str() convert by default, so every accepted value renders.
MAX_COEFF_BITS = 14284
_BITS_MSG = "coefficient beyond the supported range of %d bits" % MAX_COEFF_BITS


class _Shape(NamedTuple):
    """A power or product predicted before it is formed: at most `count`
    monomials x^i t^j u^k, with exponents between `lo` and `hi` axis by
    axis (hi[0] is the degree in x), and each numerator and denominator
    of its coefficients at most 2^bits."""

    count: int
    lo: tuple[int, ...]
    hi: tuple[int, ...]
    bits: float

    @classmethod
    def of(cls, count: int, lo: tuple[int, ...], hi: tuple[int, ...], bits: float):
        # no more monomials than the box of their exponents holds
        box = math.prod(h - l + 1 for l, h in zip(lo, hi))
        return cls(min(count, box), lo, hi, bits)

    @property
    def terms(self) -> int:
        return max(self.hi[0] + 1, self.count) + self.hi[0] + 1


def _shape(v: XPoly, e: int) -> _Shape:
    """The shape of v^e, v nonzero and e >= 0 unless v is free of x.

    Its monomials are the |e|-element multisets of those of v.  With D
    the lcm of v's denominators and L the l1 norm of D v, v^e is
    (D v)^e / D^e, whose numerators are at most L^e and whose
    denominators divide D^e.  A negative e inverts a monomial, the only
    base with an inverse in the ring, and swaps its L and D.
    """
    *axes, rats = zip(*((i, j, k, r) for i, c in v.terms() for j, k, r in c.laurent_terms()))
    d = math.lcm(*(int(r.denominator) for r in rats))
    l1 = sum(abs(int(r.numerator)) * (d // int(r.denominator)) for r in rats)
    lo, hi = zip(*(sorted((e * min(a), e * max(a))) for a in axes))
    n = abs(e)
    return _Shape.of(math.comb(len(rats) + n - 1, n), lo, hi, n * math.log2(max(l1, d)))


def _times(a: _Shape, b: _Shape) -> _Shape:
    """The shape of a product of values of shapes a and b."""
    return _Shape.of(
        a.count * b.count,
        tuple(map(sum, zip(a.lo, b.lo))),
        tuple(map(sum, zip(a.hi, b.hi))),
        a.bits + b.bits,
    )


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            toks.append(("num", text[i:j], i))
            i = j
        elif ch in "tux":
            toks.append(("name", ch, i))
            i += 1
        elif ch in _OPS:
            toks.append(("op", ch, i))
            i += 1
        else:
            raise ParseError("unexpected character %r" % ch, i)
    toks.append(("end", "", n))
    return toks


class _Factor(NamedTuple):
    """base^e, negated if neg: a power is formed only once a product with
    it has been predicted."""

    base: XPoly
    e: int = 1
    pos: int = 0  # the "^"
    neg: bool = False


class _Parser:
    def __init__(self, text: str, allow_x: bool):
        self.toks = _tokenize(text)
        self.k = 0
        self.allow_x = allow_x

    def peek(self):
        return self.toks[self.k]

    def take(self):
        t = self.toks[self.k]
        self.k += 1
        return t

    def expect_op(self, op: str):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ParseError("expected %r" % op, pos)

    def parse(self) -> XPoly:
        v = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError("unexpected %r" % val, pos)
        return v

    @staticmethod
    def _predicted(s: _Shape, pos: int, what: str) -> None:
        # a power or product is refused before it is formed: its terms,
        # then its bits, then its t/u range, so that no packed u-exponent
        # gets near the 2^31 at which it would wrap into t
        if s.terms > MAX_POWER_TERMS:
            raise ParseError(_SIZE_MSG % what, pos)
        if s.bits >= MAX_COEFF_BITS:
            raise ParseError(_BITS_MSG, pos)
        if max(map(abs, s.lo[1:] + s.hi[1:])) > MAX_EXPONENT:
            raise ParseError(_RANGE_MSG, pos)

    @staticmethod
    def _checked(v: XPoly, pos: int) -> XPoly:
        # every value is checked once formed: nothing predicts a sum, which
        # may gain a bit, or a quotient, which may pass the exponents of
        # its operands, and a predicted bits bound is a float
        for c in v.coeffs():
            if _max_exponent(c) > MAX_EXPONENT:
                raise ParseError(_RANGE_MSG, pos)
            for _, _, r in c.laurent_terms():
                bits = max(r.numerator.bit_length(), r.denominator.bit_length())
                if bits > MAX_COEFF_BITS:
                    raise ParseError(_BITS_MSG, pos)
        return v

    def expr(self) -> XPoly:
        v = self.term()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                w = self.term()
                v = self._checked(v + w if val == "+" else v - w, pos)
            else:
                return v

    def term(self) -> XPoly:
        v = self.factor()
        while True:
            kind, val, pos = self.peek()
            if not (kind == "op" and val in "*/"):
                return self._form(v)
            self.take()
            w = self.factor()
            if val == "*":
                # predicted before either factor's power is formed
                if v.base and w.base:
                    shape = _times(_shape(v.base, v.e), _shape(w.base, w.e))
                    self._predicted(shape, pos, "product")
                p = self._form(v) * self._form(w)
            else:
                p, d = self._form(v), self._form(w)
                if d.degree > 0:
                    raise ParseError("cannot divide by a polynomial in x", pos)
                if not d:
                    raise ParseError("division by zero", pos)
                try:
                    p = XPoly(c / d.coeff(0) for c in p.coeffs())
                except ExactDivisionError:
                    raise ParseError(_RING_MSG, pos) from None
            v = _Factor(self._checked(p, pos))

    def factor(self) -> _Factor:
        kind, val, pos = self.peek()
        neg = False
        if kind == "op" and val == "-":
            self.take()
            neg = True
        v = self.atom()
        kind, val, pos = self.peek()
        if not (kind == "op" and val == "^"):
            return _Factor(v, neg=neg)
        self.take()
        e = self.exponent(pos)
        if v.degree > 0 and e < 0:
            raise ParseError("negative power of x", pos)
        if not v:
            if e <= 0:
                raise ParseError("zero raised to a nonpositive power", pos)
            return _Factor(v, neg=neg)
        self._predicted(_shape(v, e), pos, "power")
        return _Factor(v, e, pos, neg)

    def _form(self, f: _Factor) -> XPoly:
        v = f.base
        if f.e != 1:
            try:
                v = v ** f.e if v.degree > 0 else XPoly((v.coeff(0) ** f.e,))
            except ExactDivisionError:
                raise ParseError(_RING_MSG, f.pos) from None
            v = self._checked(v, f.pos)
        return -v if f.neg else v

    def exponent(self, caret: int) -> int:
        """The exponent after the "^" at caret, |e| <= MAX_EXPONENT."""
        kind, val, pos = self.take()
        sign = 1
        if kind == "op" and val == "-":
            sign = -1
            kind, val, pos = self.take()
        if kind != "num":
            raise ParseError("expected an integer exponent", pos)
        # the digits are counted first: int() refuses more than 4300
        if len(val.lstrip("0")) > len(str(MAX_EXPONENT)) or int(val) > MAX_EXPONENT:
            raise ParseError(_RANGE_MSG, caret)
        return sign * int(val)

    def atom(self) -> XPoly:
        kind, val, pos = self.take()
        if kind == "num":
            # val < 10^len(val); int() would refuse more than 4300 digits
            if len(val) * math.log2(10) >= MAX_COEFF_BITS:
                raise ParseError(_BITS_MSG, pos)
            return XPoly((rational(int(val)),))
        if kind == "name":
            if val == "t":
                return XPoly((tpow(1),))
            if val == "u":
                return XPoly((upow(1),))
            if not self.allow_x:
                raise ParseError("'x' not allowed in a scalar", pos)
            return XPoly.x()
        if kind == "op" and val == "(":
            v = self.expr()
            self.expect_op(")")
            return v
        raise ParseError("expected a value", pos)


def parse_xpoly(text: str) -> XPoly:
    return _Parser(text, allow_x=True).parse()


def parse_scalar(text: str) -> Scalar:
    p = _Parser(text, allow_x=False).parse()
    return p.coeff(0)


# ---------------------------------------------------------------------------
# renderers
# ---------------------------------------------------------------------------


class _Style(NamedTuple):
    """How one output format writes the pieces of a rendered value."""

    frac: str  # a positive non-integer rational, from (numerator, denominator)
    power: str  # a variable to an exponent other than 0 and 1
    product: str  # the separator between factors
    paren: str  # a coefficient of more than one term


_TEXT = _Style("(%d/%d)", "%s^%d", "*", "(%s)")
_LATEX = _Style(r"\tfrac{%d}{%d}", "%s^{%d}", "", r"\left(%s\right)")


def _power(var: str, e: int, st: _Style) -> str:
    return "" if not e else var if e == 1 else st.power % (var, e)


def _signed_term(c: Rat, factors: list[str], st: _Style) -> tuple[bool, str]:
    """(c < 0, |c| times the nonempty factors); a unit |c| is left out
    unless no factor is left."""
    p, q = c.numerator, c.denominator
    neg = p < 0
    if neg:
        p = -p
    out = [f for f in factors if f]
    if p != 1 or q != 1 or not out:
        out.insert(0, str(p) if q == 1 else st.frac % (p, q))
    return neg, st.product.join(out)


def _join_signed(parts: list[tuple[bool, str]]) -> str:
    if not parts:
        return "0"
    out = ["-" if parts[0][0] else "", parts[0][1]]
    for neg, body in parts[1:]:
        out += (" - " if neg else " + ", body)
    return "".join(out)


def _render_terms(terms, st: _Style) -> str:
    return _join_signed(
        [
            _signed_term(c, [_power("t", i, st), _power("u", j, st)], st)
            for i, j, c in terms
        ]
    )


def _var_poly(pairs, var: str, st: _Style) -> str:
    """The sum of c var^e over the (e, c) pairs, in their order.

    A one-term c is written as a signed product with the power of var,
    any other c in parentheses in front of it.
    """
    parts = []
    for e, c in pairs:
        vp = _power(var, e, st)
        terms = list(c.laurent_terms())
        if len(terms) == 1:
            ((i, j, r),) = terms
            parts.append(
                _signed_term(r, [_power("t", i, st), _power("u", j, st), vp], st)
            )
        else:
            body = st.paren % _render_terms(terms, st)
            parts.append((False, st.product.join((body, vp)) if vp else body))
    return _join_signed(parts)


def render_scalar(s: Scalar) -> str:
    return _render_terms(s.laurent_terms(), _TEXT)


def render_xpoly(f: XPoly) -> str:
    return _var_poly(f.terms(), "x", _TEXT)


def latex_xpoly(f: XPoly) -> str:
    return _var_poly(f.terms(), "x", _LATEX)


def render_zlaurent(g: ZLaurent) -> str:
    return _var_poly(g.terms(), "z", _TEXT)


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


def format_record(rec: dict, fmt: str = "text") -> str:
    """Serialise one report record as a single line."""
    if fmt == "json":
        return json.dumps(rec)
    if fmt != "text":
        raise ValueError("unknown record format %r" % (fmt,))
    parts = []
    for k, v in rec.items():
        if isinstance(v, str):
            s = '"%s"' % v.replace('"', '\\"') if (" " in v or v == "") else v
        elif isinstance(v, bool):
            s = "true" if v else "false"
        elif isinstance(v, (int, float)):
            s = repr(v)
        else:
            s = json.dumps(v)
        parts.append("%s=%s" % (k, s))
    return " ".join(parts)
