"""The `verify` and `expand` record streams against committed copies, byte for byte.

Each verify_*.jsonl file under tests/data is the output of `qaw verify
<target> ... --format json` with the arguments listed below, and
expand.jsonl the outputs of `qaw expand ... --format json` for
`EXPAND_CASES`, one after the other; eval.txt likewise holds the
outputs of `qaw eval` for `EVAL_CASES`.  Any change that moves a
verdict, a bandwidth, a residual or a float of `numeric` or `eval` shows
up here as a diff; rewrite a file only for an intended change of output.
The `numeric` and `eval` files pin IEEE-754 doubles as CPython computes
them with the platform's `pow`.
"""

import itertools
import os

import pytest

from qaw.cli import main

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

STREAMS = {
    "verify_proposition_n40.jsonl": ("proposition", "--n-max", "40"),
    "verify_proof.jsonl": ("proof",),
    "verify_oracle.jsonl": ("oracle",),
    "verify_numeric.jsonl": ("numeric",),
    "verify_numeric_n100.jsonl": ("numeric", "--n-max", "100"),
    # the grid of CI's "verify numeric off the default grid" step
    "verify_numeric_offgrid.jsonl": (
        "numeric", "--q", "0.05,0.95", "--x=-3,-1.5,1.01", "--n-max", "30"
    ),
}

# (x + t + u)^8 as `qaw show` would print it: the parser reads only
# that normal form, and no power of a sum
X_T_U_8 = (
    "x^8 + (8*t + 8*u)*x^7 + (28*t^2 + 56*t*u + 28*u^2)*x^6"
    " + (56*t^3 + 168*t^2*u + 168*t*u^2 + 56*u^3)*x^5"
    " + (70*t^4 + 280*t^3*u + 420*t^2*u^2 + 280*t*u^3 + 70*u^4)*x^4"
    " + (56*t^5 + 280*t^4*u + 560*t^3*u^2 + 560*t^2*u^3 + 280*t*u^4 + 56*u^5)*x^3"
    " + (28*t^6 + 168*t^5*u + 420*t^4*u^2 + 560*t^3*u^3 + 420*t^2*u^4"
    " + 168*t*u^5 + 28*u^6)*x^2"
    " + (8*t^7 + 56*t^6*u + 168*t^5*u^2 + 280*t^4*u^3 + 280*t^3*u^4"
    " + 168*t^2*u^5 + 56*t*u^6 + 8*u^7)*x"
    " + (t^8 + 8*t^7*u + 28*t^6*u^2 + 56*t^5*u^3 + 70*t^4*u^4 + 56*t^3*u^5"
    " + 28*t^2*u^6 + 8*t*u^7 + u^8)"
)

# (--degree-poly, extra arguments), in the order of expand.jsonl
EXPAND_CASES = (
    ("x^2 - t*x + 1", ("--n", "3")),
    ("x^10", ()),
    (X_T_U_8, ()),
    ("3*x^7-t*x^2+u/2", ()),
    # (t^2 - 1)/(t - 1)*x
    ("(t + 1)*x", ()),
    ("0", ("--n", "2")),
)

# (--n, --q, --x) of each line of eval.txt, in order: `eval` runs the
# float recurrence that the witness runs, on the same recurrence floats
EVAL_CASES = tuple(
    itertools.product((0, 1, 15, 40), ("0.05", "0.3", "0.95"), ("-3", "0.2", "1.5"))
)


def _golden(name):
    with open(os.path.join(DATA, name), encoding="utf-8", newline="") as fh:
        return fh.read()


@pytest.mark.parametrize("name", list(STREAMS))
def test_stream_is_unchanged(name, capsys):
    code = main(["verify", *STREAMS[name], "--format", "json"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out == _golden(name)


def test_expand_stream_is_unchanged(capsys):
    out = []
    for text, extra in EXPAND_CASES:
        assert main(["expand", "--degree-poly", text, *extra, "--format", "json"]) == 0
        out.append(capsys.readouterr().out)
    assert "".join(out) == _golden("expand.jsonl")


def test_eval_outputs_are_unchanged(capsys):
    out = []
    for n, q, x in EVAL_CASES:
        assert main(["eval", "--n", str(n), "--q", q, "--x=" + x]) == 0
        out.append(capsys.readouterr().out)
    assert "".join(out) == _golden("eval.txt")
