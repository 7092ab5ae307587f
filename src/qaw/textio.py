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
# hold, predicted before it is computed.  v^e is stored as
# S = deg v * |e| + 1 slots, one Scalar per power of x; N bounds the
# monomials x^i t^j u^k of all slots together, from `_monomial_count`,
# and the prediction is max(S, N) + S, the terms and one entry per slot.
# v * w is predicted the same way, with S = deg v + deg w + 1 and N the
# least of |v| |w| and the box of its exponents.  A value beyond it is
# refused at its "^" or "*".  Powers of t-u monomials and of rational
# constants predict 2 and are bounded by MAX_EXPONENT instead.
MAX_POWER_TERMS = 1 << 10
_SIZE_MSG = "power beyond the supported range of %d terms" % MAX_POWER_TERMS
_PRODUCT_MSG = "product beyond the supported range of %d terms" % MAX_POWER_TERMS

# The most bits that the numerator or the denominator of a coefficient in
# parsed text may hold.  2^14284 < 10^4300, the most digits that int()
# and str() convert by default, so every accepted value renders.
MAX_COEFF_BITS = 14284
_BITS_MSG = "coefficient beyond the supported range of %d bits" % MAX_COEFF_BITS


def _exps(v: XPoly) -> set[tuple[int, int, int]]:
    """The exponents (i, j, k) of the monomials x^i t^j u^k of v."""
    return {(i, j, k) for i, c in enumerate(v.coeffs()) for j, k, _ in c.laurent_terms()}


def _spans(exps: set[tuple[int, ...]]) -> list[int]:
    """max - min of each exponent over exps, axis by axis."""
    return [max(axis) - min(axis) for axis in zip(*exps)]


def _monomial_count(exps: set[tuple[int, ...]], e: int) -> int:
    """A bound on the monomials of the e-th power of a sum over exps: the
    e-element multisets of exps, and at most the box of e times its span."""
    box = math.prod(s * e + 1 for s in _spans(exps))
    return min(math.comb(len(exps) + e - 1, e), box)


def _shape(v: XPoly, e: int) -> tuple[int, int, list[int]]:
    """(degree, a bound on the monomials, exponent spans) of v^e, v nonzero."""
    exps, e = _exps(v), abs(e)
    return v.degree * e, _monomial_count(exps, e), [s * e for s in _spans(exps)]


def _power_size(v: XPoly, e: int) -> int:
    """The predicted number of terms of v^e, v nonzero; see MAX_POWER_TERMS."""
    degree, count, _ = _shape(v, e)
    return max(degree + 1, count) + degree + 1


def _product_size(a: tuple[int, int, list[int]], b: tuple[int, int, list[int]]) -> int:
    """The predicted number of terms of the product of two `_shape`s; see
    MAX_POWER_TERMS."""
    box = math.prod(s + r + 1 for s, r in zip(a[2], b[2]))
    slots = a[0] + b[0] + 1
    return max(slots, min(a[1] * b[1], box)) + slots


def _power_bits(v: XPoly, e: int) -> float:
    """A bound on the bits of each numerator and denominator of v^e, v nonzero.

    With m terms, N the largest numerator and D the lcm of the
    denominators, v = w/D with each coefficient of w at most N D, so a
    coefficient of v^e is a sum of at most m^e products over D^e: its
    numerator is at most (m N D)^e and its denominator divides D^e.  A
    negative e inverts a monomial, where m = 1, and swaps the two.
    """
    rats = [r for c in v.coeffs() for _, _, r in c.laurent_terms()]
    n = max(abs(int(r.numerator)) for r in rats)
    d = math.lcm(*(int(r.denominator) for r in rats))
    return abs(e) * (math.log2(len(rats)) + math.log2(n) + math.log2(d))


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
    def _checked(v: XPoly, pos: int) -> XPoly:
        # every intermediate stays in range, so none can reach the 2^31
        # at which the packed u-exponent would wrap, and each coefficient
        # renders
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
                if v.base and w.base and _product_size(
                    _shape(v.base, v.e), _shape(w.base, w.e)
                ) > MAX_POWER_TERMS:
                    raise ParseError(_PRODUCT_MSG, pos)
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
        e = self.exponent()
        if v and _power_size(v, e) > MAX_POWER_TERMS:
            raise ParseError(_SIZE_MSG, pos)
        if v and _power_bits(v, e) >= MAX_COEFF_BITS:
            raise ParseError(_BITS_MSG, pos)
        if v.degree > 0 and e < 0:
            raise ParseError("negative power of x", pos)
        if not v:
            return _Factor(self._zero_pow(e, pos), neg=neg)
        return _Factor(v, e, pos, neg)

    def _form(self, f: _Factor) -> XPoly:
        v = f.base
        if f.e != 1:
            if v.degree > 0:
                v = v ** f.e
            else:
                v = XPoly((self._scalar_pow(v.coeff(0), f.e, f.pos),))
            v = self._checked(v, f.pos)
        return -v if f.neg else v

    @staticmethod
    def _scalar_pow(c: Scalar, e: int, pos: int) -> Scalar:
        try:
            return c ** e
        except OverflowError:
            raise ParseError(_RANGE_MSG, pos) from None
        except ExactDivisionError:
            raise ParseError(_RING_MSG, pos) from None

    @staticmethod
    def _zero_pow(e: int, pos: int) -> XPoly:
        if e <= 0:
            raise ParseError("zero raised to a nonpositive power", pos)
        return XPoly.zero()

    def exponent(self) -> int:
        kind, val, pos = self.take()
        sign = 1
        if kind == "op" and val == "-":
            sign = -1
            kind, val, pos = self.take()
        if kind != "num":
            raise ParseError("expected an integer exponent", pos)
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
