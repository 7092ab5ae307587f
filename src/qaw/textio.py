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
"""

from __future__ import annotations

import json
import math

from .scalar import MAX_EXPONENT, Rat, Scalar, tpow, upow, rational, ZERO, ONE
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
_RANGE_MSG = "exponent beyond the supported range |e| <= %d" % MAX_EXPONENT

# The most terms that a power v^e in the parser may hold, predicted
# before it is computed.  v^e is stored as S = deg v * |e| + 1 slots, one
# fraction per power of x; N bounds the numerator monomials x^i t^j u^k
# of all slots together and D the denominator monomials of one slot, both
# from `_monomial_count`, and the prediction is max(S, N) + S * D.  A
# power beyond it is refused at the "^".  Powers of t-u monomials and of
# rational constants predict 2 and are bounded by MAX_EXPONENT instead.
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
    coeffs = list(enumerate(v.coeffs()))
    num = {(i, j, k) for i, c in coeffs for j, k, _ in c.numerator_terms()}
    den = {(j, k) for _, c in coeffs for j, k, _ in c.denominator_terms()}
    e = abs(e)
    slots = v.degree * e + 1
    return max(slots, _monomial_count(num, e)) + slots * _monomial_count(den, e)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
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
                    v = v.scale(ONE / w.coeff(0))
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


def _rat_body(c: Rat) -> str:
    # c positive
    if c.denominator == 1:
        return str(c.numerator)
    return "(%d/%d)" % (c.numerator, c.denominator)


def _term_body(c: Rat, i: int, j: int) -> str:
    mono = []
    if i:
        mono.append("t" if i == 1 else "t^%d" % i)
    if j:
        mono.append("u" if j == 1 else "u^%d" % j)
    if not mono:
        return _rat_body(c)
    if c != 1:
        mono.insert(0, _rat_body(c))
    return "*".join(mono)


def _join_signed(parts: list[tuple[bool, str]]) -> str:
    neg, body = parts[0]
    out = ("-" if neg else "") + body
    for neg, body in parts[1:]:
        out += " - " + body if neg else " + " + body
    return out


def _render_terms(terms) -> str:
    parts = []
    for i, j, c in terms:
        parts.append((c < 0, _term_body(abs(c), i, j)))
    if not parts:
        return "0"
    return _join_signed(parts)


def render_scalar(s: Scalar) -> str:
    if s.is_zero:
        return "0"
    if s.is_laurent:
        return _render_terms(s.laurent_terms())
    return "(%s)/(%s)" % (
        _render_terms(s.numerator_terms()),
        _render_terms(s.denominator_terms()),
    )


def _scalar_piece(c: Scalar) -> tuple[bool, str]:
    """Render a coefficient for use inside a larger polynomial term.

    Returns (negated, body); the body omits a unit coefficient and is
    parenthesised when it is not a single product.
    """
    if c.is_laurent:
        terms = list(c.laurent_terms())
        if len(terms) == 1:
            i, j, r = terms[0]
            neg = r < 0
            if neg:
                r = -r
            if r == 1 and (i or j):
                return neg, _term_body(Rat(1), i, j)
            return neg, _term_body(r, i, j)
    return False, "(%s)" % render_scalar(c)


def _render_var_poly(pairs, var: str) -> str:
    # pairs: iterable of (exponent, Scalar), descending
    parts = []
    for e, c in pairs:
        neg, body = _scalar_piece(c)
        if e == 0:
            vp = ""
        elif e == 1:
            vp = var
        else:
            vp = "%s^%d" % (var, e)
        if not vp:
            parts.append((neg, body))
        elif body == "1":
            parts.append((neg, vp))
        else:
            parts.append((neg, "%s*%s" % (body, vp)))
    if not parts:
        return "0"
    return _join_signed(parts)


def render_xpoly(f: XPoly) -> str:
    pairs = [(k, f.coeff(k)) for k in range(len(f.coeffs()) - 1, -1, -1) if f.coeff(k)]
    return _render_var_poly(pairs, "x")


def render_zlaurent(g: ZLaurent) -> str:
    return _render_var_poly(list(g.terms()), "z")


# ---------------------------------------------------------------------------
# LaTeX
# ---------------------------------------------------------------------------


def _latex_rat(c: Rat) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return r"\tfrac{%d}{%d}" % (c.numerator, c.denominator)


def _latex_term(c: Rat, i: int, j: int) -> str:
    mono = ""
    if i:
        mono += "t" if i == 1 else "t^{%d}" % i
    if j:
        mono += "u" if j == 1 else "u^{%d}" % j
    if not mono:
        return _latex_rat(c)
    if c == 1:
        return mono
    return _latex_rat(c) + mono


def _latex_terms(terms) -> str:
    parts = [(c < 0, _latex_term(abs(c), i, j)) for i, j, c in terms]
    if not parts:
        return "0"
    return _join_signed(parts)


def latex_scalar(s: Scalar) -> str:
    if s.is_zero:
        return "0"
    if s.is_laurent:
        return _latex_terms(s.laurent_terms())
    return r"\frac{%s}{%s}" % (
        _latex_terms(s.numerator_terms()),
        _latex_terms(s.denominator_terms()),
    )


def latex_xpoly(f: XPoly) -> str:
    parts = []
    for k in range(len(f.coeffs()) - 1, -1, -1):
        c = f.coeff(k)
        if not c:
            continue
        if k == 0:
            xp = ""
        elif k == 1:
            xp = "x"
        else:
            xp = "x^{%d}" % k
        if c.is_laurent and len(list(c.laurent_terms())) == 1:
            ((i, j, r),) = c.laurent_terms()
            neg = r < 0
            body = _latex_term(abs(r), i, j)
            if body == "1" and xp:
                body = ""
            parts.append((neg, (body + xp) or "1"))
        else:
            body = r"\left(%s\right)" % latex_scalar(c)
            parts.append((False, body + xp))
    if not parts:
        return "0"
    return _join_signed(parts)


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
