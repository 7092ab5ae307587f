"""Parsing, rendering and record serialisation.

The parser reads the normal form that the renderers write, so parsing a
rendered value reproduces it exactly; every error carries its position.

Grammar (whitespace free):

    sum     :=  ["-"] term (("+" | "-") term)*
    term    :=  factor ("*" factor | "/" INTEGER)*
    factor  :=  INTEGER | "(" INTEGER "/" INTEGER ")"
             |  ("t" | "u" | "x") ["^" ["-"] INTEGER]
             |  "(" sum ")"

A term holds at most one parenthesised sum, and that sum holds none:
"(p/q)" is a rational, not a sum.  So a value holds no more monomials
than its text has characters, and no coefficient has more digits than
its term.  A power of a sum or of a number, a product of two sums and
a "/" by anything but an integer are refused at their operator: write
the expanded text, as `qaw show` prints it.
"""

from __future__ import annotations

import json
import math
import re
from operator import add
from typing import NamedTuple

from .scalar import MAX_EXPONENT, Rat, Scalar, _collect, _pack
from .zsym import XPoly, ZLaurent


class ParseError(ValueError):
    """A syntax error, annotated with its character position."""

    def __init__(self, message: str, pos: int):
        super().__init__("position %d: %s" % (pos, message))
        self.pos = pos


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

# ASCII digits only: str.isdigit and \d also accept '²' and '٣'
_TOKEN = re.compile(r"\s*([0-9]+|[tux]|[-+*/^()])?")
_AXIS = {"t": 0, "u": 1, "x": 2}  # a monomial's exponents, in this order
_RANGE_MSG = "exponent beyond the supported range |e| <= %d" % MAX_EXPONENT
_EXPANDED = "%s; write the expanded text"

# The most bits that the numerator or the denominator of a coefficient in
# parsed text may hold.  2^14284 < 10^4300, the most digits that int()
# and str() convert by default, so every accepted value renders.
MAX_COEFF_BITS = 14284
_BITS_MSG = "coefficient beyond the supported range of %d bits" % MAX_COEFF_BITS


def _tokenize(text: str) -> list[tuple[str, int]]:
    """(token, position) pairs, ending with ("", len(text))."""
    toks, i = [], 0
    while (m := _TOKEN.match(text, i)).lastindex:
        toks.append((m[1], m.start(1)))
        i = m.end()
    i = m.end()  # past the whitespace before the end or a stray character
    if i < len(text):
        raise ParseError("unexpected character %r" % text[i], i)
    return toks + [("", i)]


class _Parser:
    """Reads a sum into monomials (c, (i, j, k)), c t^i u^j x^k."""

    def __init__(self, text: str, allow_x: bool):
        self.toks = _tokenize(text)
        self.k = 0
        self.allow_x = allow_x

    def take(self) -> tuple[str, int]:
        self.k += 1
        return self.toks[self.k - 1]

    def accept(self, op: str) -> int | None:
        """The position of the next token, taken, if it is op."""
        tok, pos = self.toks[self.k]
        if tok == op:
            self.k += 1
            return pos
        return None

    def parse(self) -> XPoly:
        monomials = self.sum((0, 0, 0), nested=False)
        tok, pos = self.toks[self.k]
        if tok:
            raise ParseError("unexpected %r" % tok, pos)
        terms = _collect(((k, _pack(i, j)), c) for c, (i, j, k) in monomials)
        slots: dict[int, dict] = {}
        for (k, key), r in terms.items():
            # the one check of bits, on the finished value
            if max(r.numerator.bit_length(), r.denominator.bit_length()) > MAX_COEFF_BITS:
                raise ParseError(_BITS_MSG, 0)
            slots.setdefault(k, {})[key] = r
        return XPoly._raw({k: Scalar(t) for k, t in slots.items()})

    def sum(self, off: tuple, nested: bool) -> list:
        neg = self.accept("-") is not None
        out = []
        while True:
            out += self.term(off, nested, neg)
            tok = self.toks[self.k][0]
            if tok not in ("+", "-"):
                return out
            self.k += 1
            neg = tok == "-"

    def term(self, off: tuple, nested: bool, neg: bool) -> list:
        """The monomials of -c or c t^i u^j x^k times the term's
        parenthesised sum, if it holds one.  Each exponent keeps to the
        range together with off, those of the term that encloses this one."""
        num, den, e = 1, 1, [0, 0, 0]
        inner = None  # the parenthesised sum's monomials
        lo = hi = (0, 0, 0)  # their least and greatest exponents
        while True:
            tok, pos = self.take()
            if tok.isdigit():
                num *= self.literal(tok, pos)
                self.no_power("power of a number")
            elif tok in _AXIS:
                if tok == "x" and not self.allow_x:
                    raise ParseError("'x' not allowed in a scalar", pos)
                caret = self.accept("^")
                n = 1 if caret is None else self.exponent(caret)
                if tok == "x" and n < 0:
                    raise ParseError("negative power of x", caret)
                v = _AXIS[tok]
                e[v] += n
                if max(abs(off[v] + e[v] + lo[v]), abs(off[v] + e[v] + hi[v])) > MAX_EXPONENT:
                    raise ParseError(_RANGE_MSG, pos if caret is None else caret)
            elif tok == "(" and self.rational_follows():
                num *= self.literal(*self.take())
                den *= self.divisor(self.take()[1])
                self.k += 1
                self.no_power("power of a number")
            elif tok == "(":
                if nested:
                    raise ParseError("nested parentheses", pos)
                if inner is not None:
                    raise ParseError(_EXPANDED % "product of two sums", star)
                inner = self.sum(tuple(map(add, off, e)), nested=True)
                if self.accept(")") is None:
                    raise ParseError("expected ')'", self.toks[self.k][1])
                self.no_power("power of a sum")
                axes = list(zip(*(m for _, m in inner)))
                lo, hi = (tuple(map(f, axes)) for f in (min, max))
            else:
                raise ParseError("expected a value", pos)
            while (slash := self.accept("/")) is not None:
                den *= self.divisor(slash)
            star = self.accept("*")  # before the next factor
            if star is None:
                break
        c = Rat(-num if neg else num, den)
        if inner is None:
            return [(c, tuple(e))]
        return [(c * ci, tuple(map(add, e, m))) for ci, m in inner]

    def rational_follows(self) -> bool:
        """Whether INTEGER "/" INTEGER ")" follows: a "(p/q)", not a sum."""
        toks = ["1" if t.isdigit() else t for t, _ in self.toks[self.k : self.k + 4]]
        return toks == ["1", "/", "1", ")"]

    def literal(self, tok: str, pos: int) -> int:
        # tok < 10^len(tok); int() would refuse more than 4300 digits
        if len(tok) * math.log2(10) >= MAX_COEFF_BITS:
            raise ParseError(_BITS_MSG, pos)
        return int(tok)

    def divisor(self, slash: int) -> int:
        """The integer literal after the "/" at slash, nonzero."""
        tok, pos = self.take()
        if not tok.isdigit():
            raise ParseError(_EXPANDED % "division by more than an integer", slash)
        d = self.literal(tok, pos)
        if not d:
            raise ParseError("division by zero", slash)
        self.no_power("power of a number")
        return d

    def no_power(self, what: str):
        caret = self.accept("^")
        if caret is not None:
            raise ParseError(_EXPANDED % what, caret)

    def exponent(self, caret: int) -> int:
        """The exponent after the "^" at caret, |e| <= MAX_EXPONENT."""
        sign = -1 if self.accept("-") is not None else 1
        tok, pos = self.take()
        if not tok.isdigit():
            raise ParseError("expected an integer exponent", pos)
        # the digits are counted first: int() refuses more than 4300
        if len(tok.lstrip("0")) > len(str(MAX_EXPONENT)) or int(tok) > MAX_EXPONENT:
            raise ParseError(_RANGE_MSG, caret)
        return sign * int(tok)


def parse_xpoly(text: str) -> XPoly:
    return _Parser(text, allow_x=True).parse()


def parse_scalar(text: str) -> Scalar:
    return _Parser(text, allow_x=False).parse().coeff(0)


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
