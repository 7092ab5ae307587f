"""Scalar against sympy: an independent oracle for the normal form.

Every value is built twice, once as a Scalar and once as a sympy
expression from the same terms.  Results are read back from the stored
numerator and denominator and compared with `sympy.cancel`, so neither
side of a check goes through Scalar's own equality.
"""

import pytest

sympy = pytest.importorskip("sympy")
hyp = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from qaw.scalar import Scalar  # noqa: E402

t, u = sympy.symbols("t u")

SETTINGS = hyp.settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
)

TERMS = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-2, 2)),
    st.integers(-5, 5).filter(bool),
    max_size=4,
)


def from_terms(terms):
    expr = sum(c * t**i * u**j for (i, j), c in terms.items())
    return Scalar.from_terms(terms), sympy.sympify(expr)


@st.composite
def laurent(draw, nonzero=False):
    terms = draw(TERMS.filter(bool) if nonzero else TERMS)
    return from_terms(terms)


@st.composite
def fraction(draw):
    a, sa = draw(laurent())
    b, sb = draw(laurent(nonzero=True))
    return a / b, sa / sb


@st.composite
def cancelling_pair(draw):
    """Two differently formed fractions, a c / (b c) and a / b."""
    a, sa = draw(laurent())
    b, sb = draw(laurent(nonzero=True))
    c, _ = draw(laurent(nonzero=True))
    return (a * c) / (b * c), a / b, sa / sb


def stored(terms):
    return sympy.sympify(sum(
        sympy.Rational(int(c.numerator), int(c.denominator)) * t**i * u**j
        for i, j, c in terms
    ))


def to_sympy(s):
    return stored(s.numerator_terms()) / stored(s.denominator_terms())


def same(expr, want):
    return sympy.cancel(expr - want) == 0


def reduced_den(expr):
    return sympy.fraction(sympy.cancel(expr))[1]


@SETTINGS
@hyp.given(fraction(), fraction())
def test_field_operations(f, g):
    (a, sa), (b, sb) = f, g
    assert same(to_sympy(a + b), sa + sb)
    assert same(to_sympy(a - b), sa - sb)
    assert same(to_sympy(a * b), sa * sb)
    assert b.is_zero == same(sb, 0)
    if not b.is_zero:
        assert same(to_sympy(a / b), sa / sb)


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
@hyp.given(fraction())
def test_is_laurent_is_exact(f):
    a, sa = f
    assert a.is_laurent == sympy.Poly(reduced_den(sa), t, u).is_monomial


@SETTINGS
@hyp.given(fraction(), st.integers(-2, 2), st.integers(-1, 4))
def test_substitutions_match_sympy(f, k, n):
    a, sa = f
    assert same(to_sympy(a.shift_n(k)), sa.subs(u, u * t ** (2 * k)))
    try:
        got = a.instantiate_n(n)
    except ZeroDivisionError:
        # allowed only where the stored denominator vanishes, which
        # includes a removable singularity of a non-Laurent fraction
        assert stored(a.denominator_terms()).subs(u, t ** (2 * n)) == 0
        return
    assert not got.has_u
    assert same(to_sympy(got), sympy.cancel(sa).subs(u, t ** (2 * n)))
