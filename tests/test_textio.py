"""Parsing, rendering, and the one-record-per-line output format."""

import json
import math
import random

import pytest

from qaw import scalar
from qaw.families import counterexample_family
from qaw.scalar import HALF, MAX_EXPONENT, ONE, Scalar, T, U, rational, tpow, upow
from qaw.textio import (
    MAX_POWER_TERMS,
    ParseError,
    _shape,
    _times,
    format_record,
    latex_xpoly,
    parse_scalar,
    parse_xpoly,
    render_scalar,
    render_xpoly,
    render_zlaurent,
)
from qaw.zsym import XPoly, ZLaurent

# Rendered strings pinned literally, text and LaTeX: p_3 (what `qaw show
# --n 3` prints), an XPoly with unit-monomial and multi-term
# coefficients, a multi-term Scalar, and a ZLaurent.
P3_TEXT = (
    "x^3 + (-(1/2)*t^9 - (1/2)*t^7 - t^5 - (1/2)*t^3 - (1/2)*t)*x^2"
    " + ((1/4)*t^14 + (1/2)*t^12 + (3/4)*t^10 + (3/4)*t^8 + (3/4)*t^6"
    " + (1/2)*t^4 + (1/4)*t^2 - (3/4))*x"
    " + (-(1/4)*t^15 - (1/4)*t^13 - (1/2)*t^11 - (1/4)*t^9 - (1/4)*t^7"
    " + (1/4)*t^5 + (1/4)*t)"
)
P3_LATEX = (
    r"x^{3} + \left(-\tfrac{1}{2}t^{9} - \tfrac{1}{2}t^{7} - t^{5}"
    r" - \tfrac{1}{2}t^{3} - \tfrac{1}{2}t\right)x^{2}"
    r" + \left(\tfrac{1}{4}t^{14} + \tfrac{1}{2}t^{12} + \tfrac{3}{4}t^{10}"
    r" + \tfrac{3}{4}t^{8} + \tfrac{3}{4}t^{6} + \tfrac{1}{2}t^{4}"
    r" + \tfrac{1}{4}t^{2} - \tfrac{3}{4}\right)x"
    r" + \left(-\tfrac{1}{4}t^{15} - \tfrac{1}{4}t^{13} - \tfrac{1}{2}t^{11}"
    r" - \tfrac{1}{4}t^{9} - \tfrac{1}{4}t^{7} + \tfrac{1}{4}t^{5}"
    r" + \tfrac{1}{4}t\right)"
)
MIXED = XPoly(
    [rational(-3, 2), tpow(-2) * U, ONE - U, -ONE, (HALF * T - U) / U, -T]
)
MIXED_TEXT = (
    "-t*x^5 + ((1/2)*t*u^-1 - 1)*x^4 - x^3 + (-u + 1)*x^2"
    " + t^-2*u*x - (3/2)"
)
MIXED_LATEX = (
    r"-tx^{5} + \left(\tfrac{1}{2}tu^{-1} - 1\right)x^{4} - x^{3}"
    r" + \left(-u + 1\right)x^{2} + t^{-2}ux - \tfrac{3}{2}"
)
MULTI = (HALF * T - U) * (rational(3) * tpow(2) + U) / 6
MULTI_TEXT = "(1/4)*t^3 - (1/2)*t^2*u + (1/12)*t*u - (1/6)*u^2"
MULTI_LATEX = (
    r"\tfrac{1}{4}t^{3} - \tfrac{1}{2}t^{2}u + \tfrac{1}{12}tu - \tfrac{1}{6}u^{2}"
)
ZFORM = ZLaurent(
    {2: -HALF * T, 1: ONE, 0: ONE + T, -1: ONE, -2: -HALF * T, -3: U / T}
)
ZFORM_TEXT = (
    "-(1/2)*t*z^2 + z + (t + 1) + z^-1 - (1/2)*t*z^-2 + t^-1*u*z^-3"
)


@pytest.fixture
def products(monkeypatch):
    """The Laurent products formed from here on, one entry each."""
    out = []
    pmul = scalar._pmul
    monkeypatch.setattr(scalar, "_pmul", lambda a, b: out.append(1) or pmul(a, b))
    return out


def assert_bases_only(text, bases, products):
    """The refused text formed only the products of its bases, each
    parsed alone: the power or product it was refused at was not formed."""
    refused = len(products)
    products.clear()
    for base in bases:
        parse_xpoly(base)
    assert refused == len(products), text


def test_parse_xpoly():
    f = parse_xpoly("x^2 - t*x + 1")
    assert f == XPoly([ONE, -T, ONE])
    assert parse_xpoly("-x") == XPoly([0, -1])
    assert parse_xpoly("(x + 1)*(x - 1)") == XPoly([-1, 0, 1])
    assert parse_xpoly("x^2*t^-2") == XPoly([0, 0, tpow(-2)])
    assert parse_xpoly("3/4") == XPoly([rational(3, 4)])
    # exact quotients stay in the ring
    assert parse_xpoly("(t^2-1)/(t-1)") == XPoly([T + ONE])
    assert parse_xpoly("(x*t + x)*(t - 1)/(t^2 - 1)") == XPoly.x()
    assert parse_xpoly("(2*t)^-2*u") == XPoly([rational(1, 4) * tpow(-2) * U])


def test_parse_scalar():
    assert parse_scalar("(1/2)*t^2*u^-1 + 1") == HALF * tpow(2) * upow(-1) + ONE
    assert parse_scalar("t^4 - t^-4") == tpow(4) - tpow(-4)
    assert parse_scalar("-u") == -U
    assert parse_scalar("2^3") == rational(8)


@pytest.mark.parametrize(
    "text,pos",
    [
        ("x^2 + * 3", 6),
        ("t^", 2),
        ("(1 + t", 6),
        ("x + y", 4),
        ("", 0),
        ("x 3", 2),
    ],
)
def test_parse_error_positions(text, pos):
    with pytest.raises(ParseError) as info:
        parse_xpoly(text)
    assert info.value.pos == pos
    assert ("position %d:" % pos) in str(info.value)


@pytest.mark.parametrize("text", ["x^\u00b2", "x^\u0663"])
def test_non_ascii_digits_are_refused(text):
    # str.isdigit accepts both: "x^\u00b2" (superscript two) failed in int()
    # without a position, and "x^\u0663" (Arabic-Indic three) parsed as x^3
    with pytest.raises(ParseError) as info:
        parse_xpoly(text)
    assert str(info.value).startswith("position 2: unexpected character")


@pytest.mark.parametrize(
    "text,pos",
    [
        ("u^4294967296", 1),
        ("u^2147483648", 1),
        ("u^2147483647*u", 1),
        ("u^16777216*u", 10),
        ("t^-16777216/t", 11),
        ("x*u^16777216*u^-1*u^16777216", 17),
        ("2^99999999999", 1),
        # u^(2^32) would wrap into t in the packed key: x^256 u^(2^32) read
        # as t x^256
        ("(x*u^16777216)^256", 14),
    ],
)
def test_exponent_range_is_checked(text, pos, products):
    # the packed u-exponent wraps at 2^31: a power or product is refused
    # before it is formed, and any other value once it passes 2^24
    with pytest.raises(ParseError) as info:
        parse_xpoly(text)
    assert info.value.pos == pos
    assert "supported range" in str(info.value)
    if text[pos] == "^":
        assert_bases_only(text, [text[:pos]], products)
    assert parse_scalar("u^16777216") == upow(MAX_EXPONENT)


@pytest.mark.parametrize("base", ["x", "1", "t", "(-1)"])
@pytest.mark.parametrize("sign", ["", "-"])
def test_long_exponent_is_refused_before_int(base, sign, products):
    # int() refuses more than 4300 digits, with no position; 1^e and
    # (-1)^e mean something at any e, but every exponent keeps to
    # |e| <= 2^24, counted on its digits
    text = "%s^%s%s" % (base, sign, "9" * 5000)
    with pytest.raises(ParseError) as info:
        parse_xpoly(text)
    assert info.value.pos == len(base)
    assert str(info.value).endswith("exponent beyond the supported range |e| <= 16777216")
    assert_bases_only(text, [base], products)


def test_exponent_of_one_keeps_to_the_range():
    for e in ("16777216", "-16777216", "000000000016777216"):
        assert parse_scalar("1^" + e) == ONE
    assert parse_scalar("(-1)^-16777215") == -ONE
    for e in ("16777217", "-16777217", "000000000016777217"):
        with pytest.raises(ParseError) as info:
            parse_scalar("1^" + e)
        assert info.value.pos == 1 and "supported range |e|" in str(info.value)


@pytest.mark.parametrize(
    "text,pos",
    [
        ("x/(1+t)", 1),
        ("(1+t)^-1", 5),
        ("x^2 + t/(t^2-1)", 7),
        ("x*(u-u^-1)/(t^2-t^-2)", 10),
        ("1/(u^16777216+1)+1/(u^16777216+2)", 1),
    ],
)
def test_quotient_outside_the_ring_is_refused(text, pos):
    # the value would not be a Laurent polynomial in t and u
    with pytest.raises(ParseError) as info:
        parse_xpoly(text)
    assert info.value.pos == pos
    assert "not a Laurent polynomial" in str(info.value)


@pytest.mark.parametrize("text,pos", [("x^99999999", 1), ("(1+t)^100000", 5)])
def test_power_size_is_checked(text, pos):
    # refused at the "^" from the predicted size, before any product is formed
    with pytest.raises(ParseError) as info:
        parse_xpoly(text)
    assert info.value.pos == pos
    assert "supported range" in str(info.value)


# (text, e, the predicted size of text^e)
POWER_CASES = [
    ("x+t+u", 6, 28 + 7),
    ("(1+t)*u^-1", 16, 17 + 1),
    ("t^-1-u", 16, 17 + 1),
    ("x", 256, 257 + 257),
    ("1+t", 256, 257 + 1),
    ("x+t^-1", 4, 5 + 5),
    ("t^3/7", 99, 2),
    ("t^3/7", -99, 2),
]


def power(v, e):
    return v ** e if e > 0 else XPoly((v.coeff(0) ** e,))


def test_power_size_prediction():
    # the multisets of a few monomials, and one entry per dense x slot
    for text, e, size in POWER_CASES:
        assert _shape(parse_xpoly(text), e).terms == size, text
    # the prediction bounds the terms the power holds
    for text, e, _ in POWER_CASES:
        v = parse_xpoly(text)
        held = sum(len(list(c.laurent_terms())) + 1 for c in power(v, e).coeffs())
        assert held <= _shape(v, e).terms, text


def test_power_bits_prediction():
    # every numerator and denominator of v^e is at most 2^_shape(v, e).bits
    cases = [(text, e) for text, e, _ in POWER_CASES]
    cases += [("t/3 + 1/5", 40), ("(2^40*t - 3)/7", 12), ("(2^40*t - 3)/7", 1)]
    for text, e in cases:
        v = parse_xpoly(text)
        bound = _shape(v, e).bits
        for c in power(v, e).coeffs():
            for _, _, r in c.laurent_terms():
                for k in (abs(r.numerator), r.denominator):
                    assert math.log2(k) <= bound * (1 + 1e-12), (text, e)
    # the logarithms of the values, not their bit lengths: 2^14000 needs
    # 14000 bits, and 3 * log2(2^14000 + 1) would read 42000
    assert _shape(parse_xpoly("2"), 14000).bits == 14000


# (v, e, w, f, the predicted size of v^e * w^f)
PRODUCT_CASES = [
    # the box of the exponents: 1001 t-powers, and one slot
    ("1+t", 500, "1+t", 500, 1001 + 1),
    # |v^e| |w^f| = 10 * 24 terms, below the box 24 * 27 * 4, and 24 slots
    ("1+t+u", 3, "x+t", 23, 240 + 24),
    ("x+t", 1, "x-t", 1, 4 + 3),
    ("1+t", 300, "1+u", 300, 301 * 301 + 1),
]


def test_product_size_prediction():
    # each factor's shape is predicted from its base, before the power
    for v, e, w, f, size in PRODUCT_CASES:
        got = _times(_shape(parse_xpoly(v), e), _shape(parse_xpoly(w), f))
        assert got.terms == size, (v, w)
    # the prediction bounds the terms the product holds
    for v, e, w, f, size in PRODUCT_CASES[1:3]:
        product = parse_xpoly(v) ** e * parse_xpoly(w) ** f
        held = sum(len(list(c.laurent_terms())) + 1 for c in product.coeffs())
        assert held <= size, (v, w)


@pytest.mark.parametrize(
    "text,pos",
    [("(1+t)^1000*(1+u)^1000", 10), ("(1+t)^300*(1+u)^300", 9), ("x^300*(1+t)^2*x^300", 13)],
)
def test_product_size_is_checked(text, pos, products):
    # refused at the "*" from the factors' predicted shapes, before either
    # power or the product is formed
    with pytest.raises(ParseError) as info:
        parse_xpoly(text)
    assert info.value.pos == pos
    assert "product beyond the supported range" in str(info.value)
    assert text[:pos].count("*") or not products


def test_products_at_the_limit_parse():
    # 1001 terms in one slot, at the limit's edge; the product that CI
    # expands; and 2^14283, whose 14284 bits are the most allowed
    v = parse_xpoly("(1+t)^500*(1+t)^500")
    terms = {i: c for i, _, c in v.coeff(0).laurent_terms()}
    assert len(terms) == 1001 and terms[500] == math.comb(1000, 500)
    assert parse_xpoly("(1+t+u)^3*(x+t)^23").degree == 23
    assert parse_xpoly("2^7141*2^7142") == XPoly([rational(2) ** 14283])


@pytest.mark.parametrize(
    "text,pos",
    [
        ("2^15000", 1),
        ("(2^5000*t+1)^3", 12),
        ("(2^5000*t+1)^1000", 12),
        ("2^10000*2^10000", 7),
        ("9" * 4300, 0),
        # each power holds 7154 bits, and their product up to 14308
        ("(2^14*t+1)^511*(2^14*t+1)^511", 14),
        # 2^14284 needs 14285 bits
        ("2^7142*2^7142", 6),
    ],
)
def test_coefficient_bits_are_checked(text, pos, products):
    # a power is refused at its "^", and a product at its "*", before it
    # is formed, from the bits predicted from the bases
    with pytest.raises(ParseError) as info:
        parse_xpoly(text)
    assert info.value.pos == pos
    assert "supported range" in str(info.value)
    if text[pos] == "^":
        assert_bases_only(text, [text[:pos]], products)
    elif text[pos] == "*":
        # each side of the "*" is one power
        sides = (text[:pos], text[pos + 1:])
        assert_bases_only(text, [side.rsplit("^", 1)[0] for side in sides], products)


@pytest.mark.parametrize(
    "text",
    ["x^511", "(x+1)^511", "(1+t)^1022", "(x+t+u)^42", "2^14000", "1/3^9000", "9" * 4299],
)
def test_coefficients_in_range_render(text):
    # 2^14000 and 3^9000 hold 4215 and 4295 digits, inside the 4300 that
    # str() converts by default
    assert parse_xpoly(text).render()


def test_power_size_limit():
    # x^511, (x+1)^511 and (1+t)^1022 predict 1024 terms, the most allowed
    assert MAX_POWER_TERMS == 1024
    assert parse_xpoly("x^511").degree == 511
    assert _shape(parse_xpoly("1+t"), 1022).terms == 1024
    for text in ("x^512", "(x+1)^512", "(1+t)^1023", "(1+u)^-1023", "(x+t+u)^43"):
        with pytest.raises(ParseError):
            parse_xpoly(text)


def test_scalar_grammar_rejects_x():
    with pytest.raises(ParseError) as info:
        parse_scalar("x + 1")
    assert "not allowed" in str(info.value)


def test_division_only_by_constants():
    assert parse_xpoly("x/2") == XPoly([0, HALF])
    with pytest.raises(ParseError):
        parse_xpoly("1/x")


def test_render_examples():
    assert render_xpoly(XPoly([-T, ONE])) == "x - t"
    assert render_xpoly(XPoly.zero()) == "0"
    assert render_xpoly(XPoly([ONE, HALF])) == "(1/2)*x + 1"
    assert render_scalar(tpow(2) - tpow(-2)) == "t^2 - t^-2"
    assert render_scalar(HALF * U - ONE) == "(1/2)*u - 1"
    assert render_xpoly(counterexample_family().poly(3)) == P3_TEXT
    assert render_xpoly(MIXED) == MIXED_TEXT
    assert render_scalar(MULTI) == MULTI_TEXT
    assert render_zlaurent(ZFORM) == ZFORM_TEXT


def test_roundtrip_random():
    rng = random.Random(21)
    for _ in range(25):
        coeffs = []
        for _ in range(rng.randint(1, 5)):
            num = Scalar.from_terms(
                {
                    (rng.randint(-4, 4), rng.randint(-2, 2)): rng.randint(-9, 9)
                    for _ in range(rng.randint(1, 3))
                }
            )
            coeffs.append(num)
        f = XPoly(coeffs)
        assert parse_xpoly(render_xpoly(f)) == f


def test_latex_smoke():
    assert latex_xpoly(XPoly([-T, ONE])) == "x - t"
    s = latex_xpoly(XPoly([ONE, HALF]))
    assert "\\tfrac{1}{2}" in s
    assert latex_xpoly(XPoly([0, HALF * U - ONE])) == r"\left(\tfrac{1}{2}u - 1\right)x"
    assert latex_xpoly(counterexample_family().poly(3)) == P3_LATEX
    assert latex_xpoly(MIXED) == MIXED_LATEX
    assert latex_xpoly(XPoly([MULTI])) == r"\left(%s\right)" % MULTI_LATEX


def test_format_record_json():
    rec = {"check": "demo", "n": 3, "ok": True, "dev": 1.5}
    line = format_record(rec, "json")
    assert "\n" not in line
    assert json.loads(line) == rec
    # key order is preserved, so the schema is stable line to line
    assert line.index("check") < line.index("ok")


def test_format_record_text():
    line = format_record({"check": "demo", "msg": "two words", "n": 2}, "text")
    assert line == 'check=demo msg="two words" n=2'
    assert format_record({"ok": True}, "text") == "ok=true"


def test_format_record_bad_format():
    with pytest.raises(ValueError):
        format_record({"a": 1}, "yaml")
