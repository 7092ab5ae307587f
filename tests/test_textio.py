"""Parsing, rendering, and the one-record-per-line output format."""

import json
import math
import random

import pytest

from qaw.families import coeff_suite, counterexample_family
from qaw.scalar import HALF, MAX_EXPONENT, ONE, Rat, Scalar, T, U, rational, tpow, upow
from qaw.structure import _poly_xrows
from qaw.textio import (
    ParseError,
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


EXPANDED = "; write the expanded text"
POWER_OF_A_SUM = "power of a sum" + EXPANDED
POWER_OF_A_NUMBER = "power of a number" + EXPANDED
PRODUCT_OF_SUMS = "product of two sums" + EXPANDED
DIVISION = "division by more than an integer" + EXPANDED
RANGE = "exponent beyond the supported range |e| <= 16777216"
BITS = "coefficient beyond the supported range of 14284 bits"


def refusals(*cases):
    """Parametrize (text, pos, reason), each case named by text and pos."""
    return pytest.mark.parametrize(
        "text,pos,reason", cases, ids=["%s-%d" % case[:2] for case in cases]
    )


def assert_refused(text, pos, reason):
    with pytest.raises(ParseError) as info:
        parse_xpoly(text)
    assert info.value.pos == pos
    assert str(info.value) == "position %d: %s" % (pos, reason)


def test_parse_xpoly():
    f = parse_xpoly("x^2 - t*x + 1")
    assert f == XPoly([ONE, -T, ONE])
    assert parse_xpoly("-x") == XPoly([0, -1])
    assert parse_xpoly("x^2*t^-2") == XPoly([0, 0, tpow(-2)])
    assert parse_xpoly("3/4") == XPoly([rational(3, 4)])
    # one parenthesised sum per term, among any of its factors; "(p/q)"
    # is a rational, inside a sum too
    assert parse_xpoly("(t + 1)*x - (x + 1)") == XPoly([-1, T])
    assert parse_xpoly("2*x^2/3*(t^2 + u)/5 + 1") == XPoly(
        [ONE, 0, rational(2, 15) * (tpow(2) + U)]
    )
    assert parse_xpoly("((1/2)*t*u^-1 - 1)*x") == XPoly([0, HALF * T / U - ONE])
    # a parenthesised sum of one term
    assert parse_xpoly("(t)*x") == XPoly([0, T])
    assert parse_xpoly("(2*t)*x") == XPoly([0, 2 * T])
    assert parse_xpoly("-(x)") == XPoly([0, -1])


def test_parse_scalar():
    assert parse_scalar("(1/2)*t^2*u^-1 + 1") == HALF * tpow(2) * upow(-1) + ONE
    assert parse_scalar("t^4 - t^-4") == tpow(4) - tpow(-4)
    assert parse_scalar("-u") == -U
    assert parse_scalar("2*2*2") == rational(8)
    assert parse_scalar("(1)") == ONE


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


@refusals(
    ("u^4294967296", 1, RANGE),
    ("u^2147483648", 1, RANGE),
    ("u^2147483647*u", 1, RANGE),
    # summed over the term, at the factor that passes the range
    ("u^16777216*u", 11, RANGE),
    ("u^16777216*u^16777216", 12, RANGE),
    ("x*u^16777216*u^-1*u^16777216", 19, RANGE),
    # the parenthesised sum included, on either side of it
    ("t^-3*(1 - u*t^-16777214)", 13, RANGE),
    ("(u^-16777216 + 1)*u^-1", 19, RANGE),
    ("x^16777216*(x + 1)", 12, RANGE),
    # u^(2^32) would wrap into t in the packed key: x^256 u^(2^32) read
    # as t x^256; no power or quotient of a sum reaches the key
    ("(x*u^16777216)^256", 14, POWER_OF_A_SUM),
    ("2^99999999999", 1, POWER_OF_A_NUMBER),
    ("t^-16777216/t", 11, DIVISION),
)
def test_exponent_range_is_checked(text, pos, reason):
    # the packed u-exponent wraps at 2^31: every exponent that a term sums
    # to keeps to 2^24
    assert_refused(text, pos, reason)


@pytest.mark.parametrize("base", ["x", "1", "t", "(-1)"])
@pytest.mark.parametrize("sign", ["", "-"])
def test_long_exponent_is_refused_before_int(base, sign):
    # int() refuses more than 4300 digits, with no position: an exponent
    # of t, u or x is counted on its digits first, and one of a number or
    # a sum is refused at its "^" unread
    text = "%s^%s%s" % (base, sign, "9" * 5000)
    reason = {"1": POWER_OF_A_NUMBER, "(-1)": POWER_OF_A_SUM}.get(base, RANGE)
    assert_refused(text, len(base), reason)


@refusals(
    ("x/(1+t)", 1, DIVISION),
    ("(1+t)^-1", 5, POWER_OF_A_SUM),
    ("x^2 + t/(t^2-1)", 7, DIVISION),
    ("x*(u-u^-1)/(t^2-t^-2)", 10, DIVISION),
    ("1/(u^16777216+1)+1/(u^16777216+2)", 1, DIVISION),
    ("(t^2-1)/(t-1)", 7, DIVISION),
)
def test_quotient_outside_the_ring_is_refused(text, pos, reason):
    # a "/" takes only an integer, and a sum no negative power: even an
    # exact quotient such as (t^2 - 1)/(t - 1) is refused at its "/"
    assert_refused(text, pos, reason)


@refusals(("x^99999999", 1, RANGE), ("(1+t)^100000", 5, POWER_OF_A_SUM))
def test_power_size_is_checked(text, pos, reason):
    # refused at the "^" before any product is formed
    assert_refused(text, pos, reason)


@refusals(
    ("(1+t)*(1+u)", 5, PRODUCT_OF_SUMS),
    ("x^300*(1+t)*x^300*(1-t)", 17, PRODUCT_OF_SUMS),
    ("(1/2)*(t+1)*(1/3)*(t-1)", 17, PRODUCT_OF_SUMS),
    ("((1+t))", 1, "nested parentheses"),
    ("(1+(1/2)*(t+1))", 9, "nested parentheses"),
)
def test_product_size_is_checked(text, pos, reason):
    # a term holds one parenthesised sum, unnested, so that a value holds
    # no more monomials than its text has characters
    assert_refused(text, pos, reason)


def test_products_at_the_limit_parse():
    # a product of literals whose 14284 bits are the most allowed, and
    # every exponent at the range's edge
    v = parse_xpoly("%d*%d" % (2**7141, 2**7142))
    assert v == XPoly([rational(2) ** 14283])
    m = tpow(-MAX_EXPONENT) * upow(MAX_EXPONENT)
    assert parse_xpoly("t^-16777216*u^16777216*x^16777216") == XPoly.x() ** MAX_EXPONENT * m


@refusals(
    ("2^15000", 1, POWER_OF_A_NUMBER),
    ("9" * 4300, 0, BITS),
    ("9" * 2200 + "*" + "9" * 2200, 0, BITS),
    # 2^14284 needs 14285 bits
    ("%d*%d" % (2**7142, 2**7142), 0, BITS),
    ("1/%d/%d" % (2**7142, 2**7142), 0, BITS),
    # a sum gains the bit: each term holds 14284
    ("%d*%d + %d*%d" % (2**7141, 2**7142, 2**7141, 2**7142), 0, BITS),
)
def test_coefficient_bits_are_checked(text, pos, reason):
    # a literal is refused at its first digit, and a value past the bits
    # once it is formed
    assert_refused(text, pos, reason)


# the values of the texts that are not normal form, by the binomial
# theorem or by arithmetic
POWERS = {
    "(x+1)^511": lambda: XPoly([math.comb(511, k) for k in range(512)]),
    "(1+t)^1022": lambda: XPoly(
        [Scalar.from_terms({(k, 0): math.comb(1022, k) for k in range(1023)})]
    ),
    "(x+t+u)^42": lambda: (XPoly.x() + T + U) ** 42,
    "2^14000": lambda: XPoly([rational(2) ** 14000]),
    "1/3^9000": lambda: XPoly([rational(1, 3**9000)]),
}


@pytest.mark.parametrize(
    "text",
    ["x^511", "(x+1)^511", "(1+t)^1022", "(x+t+u)^42", "2^14000", "1/3^9000", "9" * 4299],
)
def test_coefficients_in_range_render(text):
    # each value renders, and its rendered text parses back: 2^14000 and
    # 3^9000 hold 4215 and 4295 digits, inside the 4300 that str()
    # converts by default
    v = POWERS[text]() if text in POWERS else parse_xpoly(text)
    assert parse_xpoly(v.render()) == v


def test_power_size_limit():
    # a power of x is one monomial up to the exponent range; nothing
    # forms a dense list of its coefficients
    v = parse_xpoly("x^16777216")
    assert v.degree == MAX_EXPONENT and len(list(v.terms())) == 1
    assert parse_xpoly("x^511").degree == 511
    for e in ("16777216", "-16777216", "000000000016777216"):
        assert parse_scalar("t^" + e) == tpow(int(e))
    assert parse_scalar("u^16777216") == upow(MAX_EXPONENT)
    # every exponent that a term sums to keeps to the range, not each factor
    assert parse_scalar("u^16777215*u*u^-16777216*u^-16777216") == upow(-MAX_EXPONENT)
    for text in ("x^16777217", "t^-16777217", "u^000000000016777217"):
        assert_refused(text, 1, RANGE)
    assert_refused("x^-1", 1, "negative power of x")


def test_scalar_grammar_rejects_x():
    with pytest.raises(ParseError) as info:
        parse_scalar("x + 1")
    assert "not allowed" in str(info.value)


def test_division_only_by_constants():
    assert parse_xpoly("x/2") == XPoly([0, HALF])
    assert parse_xpoly("(3/4)*x/3") == XPoly([0, rational(1, 4)])
    with pytest.raises(ParseError):
        parse_xpoly("1/x")
    assert_refused("x/0", 1, "division by zero")
    assert_refused("(1/0)*x", 2, "division by zero")


@pytest.mark.parametrize("n", [0, 5, 12, 20, 40])
def test_rendered_polynomial_parses_back(n):
    # p_40 holds 1.4 MB of text; the shape bound that this grammar
    # replaced refused it from p_33 on
    p = _poly_xrows(n, counterexample_family())
    assert parse_xpoly(render_xpoly(p)) == p


def test_rendered_suite_parses_back():
    for suite in (coeff_suite(), coeff_suite(7)):
        for s in suite:
            assert parse_scalar(render_scalar(s)) == s


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
    # integer coefficients, then rational ones
    rng = random.Random(21)
    for den in (1, 12):
        for _ in range(25):
            coeffs = []
            for _ in range(rng.randint(1, 5)):
                num = Scalar.from_terms(
                    {
                        (rng.randint(-4, 4), rng.randint(-2, 2)): Rat(
                            rng.randint(-9, 9), rng.randint(1, den)
                        )
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
