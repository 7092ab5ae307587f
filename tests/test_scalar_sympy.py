"""Scalar and XPoly against sympy: an independent oracle for the Laurent ring.

Every value is built twice, once as a Scalar or XPoly and once as a sympy
expression from the same terms.  Results are read back from the stored
terms and compared with `sympy.cancel`, so neither side of a check goes
through Scalar's own equality.
"""

import pytest

sympy = pytest.importorskip("sympy")
hyp = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from qaw.scalar import ExactDivisionError, Scalar  # noqa: E402
from qaw.zsym import XPoly  # noqa: E402

t, u, x = sympy.symbols("t u x")

SETTINGS = hyp.settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
)

KEYS = st.tuples(st.integers(-3, 3), st.integers(-2, 2))
COEFFS = st.integers(-5, 5).filter(bool)
TERMS = st.dictionaries(KEYS, COEFFS, max_size=4)


def from_terms(terms):
    expr = sum(c * t**i * u**j for (i, j), c in terms.items())
    return Scalar.from_terms(terms), sympy.sympify(expr)


@st.composite
def laurent(draw, nonzero=False):
    terms = draw(TERMS.filter(bool) if nonzero else TERMS)
    return from_terms(terms)


@st.composite
def xpoly(draw):
    """An XPoly whose coefficients are drawn like scalars, zeros included."""
    cs = [from_terms(terms) for terms in draw(st.lists(TERMS, max_size=3))]
    expr = sum(sc * x**k for k, (_, sc) in enumerate(cs))
    return XPoly(c for c, _ in cs), sympy.sympify(expr)


@st.composite
def cancelling_pair(draw):
    """Two differently formed values, a c / c and a."""
    a, sa = draw(laurent())
    c, _ = draw(laurent(nonzero=True))
    return (a * c) / c, a, sa


@st.composite
def quotient(draw):
    """A divisor b, a monomial or not, and a dividend that is b times a
    draw or not, so that exact and inexact quotients both come up."""
    b, sb = from_terms(draw(st.dictionaries(KEYS, COEFFS, min_size=1, max_size=3)))
    a, sa = draw(laurent())
    if draw(st.booleans()):
        a, sa = a * b, sa * sb
    return a, sa, b, sb


def stored(terms):
    return sympy.sympify(sum(
        sympy.Rational(int(c.numerator), int(c.denominator)) * t**i * u**j
        for i, j, c in terms
    ))


def to_sympy(s):
    return stored(s.numerator_terms()) / stored(s.denominator_terms())


def x_to_sympy(f):
    """The stored coefficients of f, read back; the top one is nonzero."""
    assert not f or not f.leading.is_zero
    return sympy.sympify(sum(to_sympy(c) * x**k for k, c in enumerate(f.coeffs())))


def same(expr, want):
    return sympy.cancel(expr - want) == 0


def reduced_den(expr):
    return sympy.fraction(sympy.cancel(expr))[1]


@SETTINGS
@hyp.given(laurent(), laurent())
def test_field_operations(f, g):
    (a, sa), (b, sb) = f, g
    assert same(to_sympy(a + b), sa + sb)
    assert same(to_sympy(a - b), sa - sb)
    assert same(to_sympy(a * b), sa * sb)
    assert same(to_sympy(-a), -sa)
    assert b.is_zero == same(sb, 0)


@SETTINGS
@hyp.given(xpoly(), xpoly(), st.integers(0, 3))
def test_xpoly_operations(f, g, e):
    (a, sa), (b, sb) = f, g
    assert same(x_to_sympy(a + b), sa + sb)
    assert same(x_to_sympy(a - b), sa - sb)
    assert same(x_to_sympy(a * b), sa * sb)
    assert same(x_to_sympy(a ** e), sa**e)


@SETTINGS
@hyp.given(cancelling_pair(), laurent())
def test_equality_matches_cancel(pair, bump):
    formed, plain, want = pair
    assert formed == plain and plain == formed
    assert hash(formed) == hash(plain)
    other = plain + bump[0]
    equal = same(want + bump[1], want)
    assert (other == formed) == equal
    assert (formed == other) == equal
    assert (other != plain) == (not equal)


@SETTINGS
@hyp.given(quotient())
def test_division_is_exact_or_raises(q):
    a, sa, b, sb = q
    want = sympy.cancel(sa / sb)
    laurent_quotient = sympy.Poly(reduced_den(want), t, u).is_monomial
    try:
        got = a / b
    except ExactDivisionError:
        assert not laurent_quotient
        return
    assert laurent_quotient
    assert same(to_sympy(got), want)


@SETTINGS
@hyp.given(laurent(), st.integers(-2, 2), st.integers(-1, 4))
def test_substitutions_match_sympy(f, k, n):
    a, sa = f
    assert same(to_sympy(a.shift_n(k)), sa.subs(u, u * t ** (2 * k)))
    got = a.instantiate_n(n)
    assert not got.has_u
    assert same(to_sympy(got), sa.subs(u, t ** (2 * n)))
