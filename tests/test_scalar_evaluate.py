"""`Scalar.evaluate` and the float witness against their former term loop, bit for bit.

Both sum a scalar's `float_terms`, taken once, through `float_value`;
the witness reads every power of q through one cache per q sample.
`reference_evaluate` below is the loop that `evaluate` ran before, which
unpacked the keys three times and took every power afresh.  All must
return the same IEEE-754 double, or raise the same error, for any Scalar
and any q0: the float witness's golden streams rest on it.
"""

import math
import struct

import pytest

hyp = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from qaw.numeric import _powers  # noqa: E402
from qaw.scalar import Rat, Scalar, _pmins, _unpack, float_value  # noqa: E402

SETTINGS = hyp.settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
)


def reference_evaluate(s: Scalar, q0: float) -> float:
    """The loop of `Scalar.evaluate` before its keys were unpacked once."""
    if not 0.0 < q0 < 1.0:
        raise ValueError("q0 must lie strictly between 0 and 1")
    if s.has_u:
        raise ValueError("scalar depends on u; instantiate n first")
    d = max(0, -_pmins(s._t)[0]) if s._t else 0
    total = 0.0
    for k, c in s._t.items():
        total += float(c) * q0 ** (0.25 * (_unpack(k)[0] + d))
    return total / q0 ** (0.25 * d)


def outcome(f, *args):
    """The bytes of f's float, or the type and message of what it raised."""
    try:
        v = f(*args)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        return type(exc), str(exc)
    return struct.pack("<d", v)


COEFFS = st.builds(
    Rat,
    st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70)),
    st.one_of(st.integers(1, 9), st.integers(1, 2**70)),
).filter(bool)
# t-exponents of both signs, a wide one now and then
T_EXPS = st.one_of(st.integers(-12, 12), st.integers(-3000, 3000))


# u-free Scalars with up to eight terms, the empty and the constant among them
SCALARS = st.dictionaries(st.tuples(T_EXPS, st.just(0)), COEFFS, max_size=8).map(
    Scalar.from_terms
)
# the same plus one term t^i u^j, j != 0
U_SCALARS = st.builds(
    lambda s, i, j, c: s + Scalar.from_terms({(i, j): c}),
    SCALARS,
    T_EXPS,
    st.integers(-3, 3).filter(bool),
    COEFFS,
)
Q0 = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.sampled_from([0.3, 0.7, 0.05, 0.95, 1e-300, 5e-324, 1 - 2**-53]),
)


@SETTINGS
@hyp.given(SCALARS, Q0)
def test_evaluate_matches_reference_bit_for_bit(s, q0):
    assert outcome(s.evaluate, q0) == outcome(reference_evaluate, s, q0)


@SETTINGS
@hyp.given(st.lists(SCALARS, min_size=1, max_size=6), Q0)
def test_witness_terms_and_shared_powers_match_reference(scalars, q0):
    # the witness takes each form's float terms once per run and every
    # power of a q sample from one cache, whichever form filled it first
    terms = [s.float_terms() for s in scalars]
    pw = _powers(q0)
    for s, t in zip(scalars, terms):
        assert outcome(float_value, t, pw) == outcome(reference_evaluate, s, q0)


@hyp.settings(SETTINGS, max_examples=100)
@hyp.given(
    U_SCALARS,
    st.one_of(Q0, st.sampled_from([0.0, 1.0, 1.5, -0.5, math.nan])),
)
def test_evaluate_refuses_u_as_before(s, q0):
    got = outcome(s.evaluate, q0)
    assert got == outcome(reference_evaluate, s, q0)
    assert got[0] is ValueError


def test_examples_cover_each_kind():
    # the empty scalar, a constant, and both signs of t-exponent
    for terms, q0 in (
        ({}, 0.5),
        ({(0, 0): Rat(-3, 7)}, 0.5),
        ({(5, 0): 2, (-7, 0): Rat(-1, 3)}, 0.3),
        ({(-2000, 0): 1}, 1e-300),
    ):
        s = Scalar.from_terms(terms)
        assert outcome(s.evaluate, q0) == outcome(reference_evaluate, s, q0)
    assert outcome(Scalar.from_terms({}).evaluate, 0.5) == struct.pack("<d", 0.0)
    assert outcome(Scalar.from_terms({(-2000, 0): 1}).evaluate, 1e-300)[0] is ZeroDivisionError
