"""Packed rows of the integer sweep kernel against scalar's dict arithmetic.

Every row operation of `structure` is one `_lincomb`: a sum of small
integer t-polynomials times packed rows.  Hypothesis draws integer
Laurent polynomials with small and large coefficients of both signs,
signed powers of two up to 2^90 among them (`_lincomb`'s shift path),
packs them at a slot width just wide enough or wider, and checks add,
sub, shift, small products and unpacking against `_padd`, `_psub` and
`_pmul`, at both strides.  Where the tracked bound reaches 2^(w - 1) the
operation must ask for a wider slot instead of returning a row.
`_unpack` is checked against the balanced base-2^w digits of P at slot
widths 8 to 128.  A row's digit-read bound (`_digit_bound`) must lie
between its largest |coefficient| and its triangle bound, and a row
repacked to a wider slot (`_repack`) must keep its coefficients, its
offset and its bound.
"""

import pytest

hyp = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from qaw.scalar import _padd, _pmul, _psub  # noqa: E402
from qaw.structure import _Widen, _digit_bound, _lincomb, _repack, _unpack  # noqa: E402

SETTINGS = hyp.settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
)

UNIT = (1, 0, 1)  # the row of the constant polynomial 1
ONE, MINUS = {0: 1}, {0: -1}
# +-2^j takes _lincomb's shift path; j up to 90 reaches past one slot
POW2 = st.builds(lambda j, s: s << j, st.integers(0, 90), st.sampled_from([1, -1]))
COEFFS = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**90), 2**90),
    st.sampled_from([127, -128]),
    POW2,
).filter(bool)


def l1(e):
    return sum(map(abs, e.values()))


def width_for(*fs):
    """The least multiple of 8 whose slots hold every coefficient sum of fs."""
    w = 8
    while any(l1(f) >> (w - 1) for f in fs):
        w += 8
    return w


@st.composite
def poly(draw, g, parity):
    """An integer Laurent polynomial whose exponents are parity mod g."""
    exps = st.integers(-9, 9).map(lambda k: g * k + parity)
    return draw(st.dictionaries(exps, COEFFS, max_size=6))


@st.composite
def case(draw):
    """(g, f1, f2, e, extra bits): f1, f2 congruent mod g, e of one parity."""
    g = draw(st.sampled_from([1, 2]))
    p = draw(st.integers(0, 1))
    f1, f2 = draw(poly(g, p)), draw(poly(g, p))
    e = draw(poly(g, draw(st.integers(0, 1))).filter(bool))
    return g, f1, f2, e, draw(st.sampled_from([0, 8, 64]))


def check(terms, want, w, g):
    """_lincomb(terms) is want, or _Widen exactly when the bound needs it."""
    bound = sum(l1(e) * b for e, (p, _, b) in terms if e and p)
    if bound >> (w - 1):
        with pytest.raises(_Widen) as info:
            _lincomb(terms, w, g)
        # the kernel widens to what this bound needs
        assert info.value.args == (bound,)
        return
    row = _lincomb(terms, w, g)
    assert _unpack(row, w, g) == want
    assert (row[0] == 0) == (not want)
    assert not want or row[2] >= max(map(abs, want.values()))


@SETTINGS
@hyp.given(case())
def test_pack_unpack(c):
    g, f, _, _, extra = c
    w = width_for(f) + extra
    row = _lincomb([(f, UNIT)], w, g)
    assert _unpack(row, w, g) == f
    assert (row[0] == 0) == (not f)
    # P is f at t = 2^w, read at the stride
    assert row[0] == sum(c << (w * ((x - row[1]) // g)) for x, c in f.items())


@SETTINGS
@hyp.given(case())
def test_add_sub_shift_product(c):
    g, f1, f2, e, extra = c
    w = width_for(f1, f2) + extra
    a, b = _lincomb([(f1, UNIT)], w, g), _lincomb([(f2, UNIT)], w, g)
    check([(ONE, a), (ONE, b)], _padd(f1, f2), w, g)
    check([(ONE, a), (MINUS, b)], _psub(f1, f2), w, g)
    check([(ONE, a), (MINUS, a)], {}, w, g)
    shift = {g * 3: 1}
    check([(shift, a)], _pmul(shift, f1), w, g)
    check([(e, a)], _pmul(e, f1), w, g)
    check([(e, a), (e, b)], _padd(_pmul(e, f1), _pmul(e, f2)), w, g)


def test_widen_is_asked_at_the_bound():
    # |c| < 2^(w-1) fits; a sum that reaches 2^(w-1) does not
    row = _lincomb([({0: 127}, UNIT)], 8, 1)
    assert _unpack(row, 8, 1) == {0: 127}
    with pytest.raises(_Widen) as info:
        _lincomb([(ONE, row), (ONE, UNIT)], 8, 1)
    assert info.value.args == (128,)
    with pytest.raises(_Widen):
        _lincomb([({0: -128}, UNIT)], 8, 1)


def test_zero_coefficient_adds_nothing():
    row = _lincomb([({0: 3, 2: -8}, UNIT)], 16, 2)
    for e in ({0: 0}, {0: 0, 2: 1}, {-2: 0, 2: -4}):
        want = _pmul({x: c for x, c in e.items() if c}, {0: 3, 2: -8})
        assert _unpack(_lincomb([(e, row)], 16, 2), 16, 2) == want


def balanced_digits(p, lo, w, g):
    """{t-exp: c} of P read slot by slot as balanced base-2^w digits."""
    out, s = {}, 0
    while p:
        c = p & ((1 << w) - 1)
        if c >> (w - 1):
            c -= 1 << w
        p = (p - c) >> w
        if c:
            out[lo + g * s] = c
        s += 1
    return out


def packed(digits, lo, w):
    """The row (P, lo, B) of a digit list, lowest slot first."""
    p = sum(c << (w * s) for s, c in enumerate(digits))
    return p, lo, max(map(abs, digits), default=0)


def unpack_cases(w):
    top = (1 << (w - 1)) - 1
    return [
        [],
        [1],
        [-1],
        [top],
        [-top],
        [0, 0, 5],  # zero slots below the first digit
        [top, 0, -top, 0, 0, 1],  # zero slots inside the row
        [-top, -top, -top],
        [3, -2, 0, top, -1],
        [5, 0, 0, -top],  # a negative top slot
        [-1, 0, 0, 0],  # zero slots at the top
        [top, -top] * 9,
    ]


@pytest.mark.parametrize("w", [8, 16, 32, 64, 128])
@pytest.mark.parametrize("g", [1, 2])
def test_unpack_is_the_slot_by_slot_definition(w, g):
    rows = [packed(digits, -3, w) for digits in unpack_cases(w)]
    want = [balanced_digits(row[0], -3, w, g) for row in rows]
    assert want == [
        {-3 + g * s: c for s, c in enumerate(digits) if c}
        for digits in unpack_cases(w)
    ]
    assert [_unpack(row, w, g) for row in rows] == want


@st.composite
def cancelling_row(draw):
    """(row, w, g): f1 - f2 packed at width w, whose triangle bound
    ||f1||_1 + ||f2||_1 stays below 2^(w - 1) however much cancels."""
    w = draw(st.sampled_from([8, 16, 24, 32, 64, 80, 128]))
    g = draw(st.sampled_from([1, 2]))
    cap = (1 << (w - 1)) // 16
    coeffs = st.one_of(
        st.integers(-3, 3),
        st.integers(-cap, cap),
        st.builds(lambda j, s: s << j, st.integers(0, w - 5), st.sampled_from([1, -1])),
    ).filter(lambda c: 0 < abs(c) <= cap)
    p = draw(st.integers(0, 1))
    exps = st.integers(-9, 9).map(lambda k: g * k + p)
    f1, f2 = (draw(st.dictionaries(exps, coeffs, max_size=6)) for _ in range(2))
    a, b = _lincomb([(f1, UNIT)], w, g), _lincomb([(f2, UNIT)], w, g)
    return _lincomb([(ONE, a), (MINUS, b)], w, g), w, g


@SETTINGS
@hyp.given(cancelling_row())
def test_digit_bound_lies_between_the_coefficients_and_the_triangle(c):
    row, w, g = c
    top = max(map(abs, _unpack(row, w, g).values()), default=0)
    bound = _digit_bound(row, w)
    assert top <= bound <= row[2]
    # the top byte of a slot pins its digit to within two steps of 2^(w-8)
    assert bound < top + (2 << (w - 8))


@pytest.mark.parametrize("w", [8, 16, 24, 64, 128])
@pytest.mark.parametrize("g", [1, 2])
def test_repack_keeps_coefficients_offset_and_bound(w, g):
    for digits in unpack_cases(w):
        row = packed(digits, -3, w)
        for w2 in range(w + 8, w + 121, 8):
            wide = _repack(row, w, w2)
            assert _unpack(wide, w2, g) == _unpack(row, w, g)
            assert wide[1:] == row[1:]
            # P is f at t = 2^w2
            assert wide[0] == sum(c << (w2 * s) for s, c in enumerate(digits))
