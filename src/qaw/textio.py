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

# The most terms that a power v^e in the parser may hold, predicted
# before it is computed.  v^e is stored as S = deg v * |e| + 1 slots, one
# Scalar per power of x; N bounds the monomials x^i t^j u^k of all slots
# together, from `_monomial_count`, and the prediction is max(S, N) + S,
# the terms and one entry per slot.  A power beyond it is refused at the
# "^".  Powers of t-u monomials and of rational constants predict 2 and
# are bounded by MAX_EXPONENT instead.
MAX_POWER_TERMS = 1 << 10
_SIZE_MSG = "power beyond the supported range of %d terms" % MAX_POWER_TERMS


def _monomial_count(exps: set[tuple[int, ...]], e: int) -> int:
    """A bound on the monomials of the e-th power of a sum over exps: the
    e-element multisets of exps, and at most the box of e times its span."""
    box = 1
    for axis in zip(*exps):
        box *= (max(axis) - min(axis)) * e + 1
    return min(math.comb(len(exps) + e - 1, e), box)


def _power_size(v: XPoly, e: int) -> int:
    """The predicted number of terms of v^e, v nonzero; see MAX_POWER_TERMS."""
    terms = {(i, j, k) for i, c in enumerate(v.coeffs()) for j, k, _ in c.laurent_terms()}
    e = abs(e)
    slots = v.degree * e + 1
    return max(slots, _monomial_count(terms, e)) + slots


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
        # at which the packed u-exponent would wrap
        if any(_max_exponent(c) > MAX_EXPONENT for c in v.coeffs()):
            raise ParseError(_RANGE_MSG, pos)
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
            if kind == "op" and val in "*/":
                self.take()
                w = self.factor()
                if val == "*":
                    v = v * w
                else:
                    if w.degree > 0:
                        raise ParseError("cannot divide by a polynomial in x", pos)
                    if not w:
                        raise ParseError("division by zero", pos)
                    try:
                        v = XPoly(c / w.coeff(0) for c in v.coeffs())
                    except ExactDivisionError:
                        raise ParseError(_RING_MSG, pos) from None
                v = self._checked(v, pos)
            else:
                return v

    def factor(self) -> XPoly:
        kind, val, pos = self.peek()
        neg = False
        if kind == "op" and val == "-":
            self.take()
            neg = True
        v = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.take()
            e = self.exponent()
            if v and _power_size(v, e) > MAX_POWER_TERMS:
                raise ParseError(_SIZE_MSG, pos)
            if v.degree > 0:
                if e < 0:
                    raise ParseError("negative power of x", pos)
                v = v ** e
            elif not v:
                v = self._zero_pow(e, pos)
            else:
                v = XPoly((self._scalar_pow(v.coeff(0), e, pos),))
            v = self._checked(v, pos)
        return -v if neg else v

    @staticmethod
    def _scalar_pow(c: Scalar, e: int, pos: int) -> Scalar:
        if c.is_rational:
            r = c.as_rational()
            k = int(max(abs(r.numerator), r.denominator))
            # k^|e| needs floor(|e| log2 k) + 1 bits; refuse it before it
            # is computed if that is more than MAX_EXPONENT
            if abs(e) * math.log2(k) >= MAX_EXPONENT:
                raise ParseError(_RANGE_MSG, pos)
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
