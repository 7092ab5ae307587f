"""The `verify` and `expand` record streams against committed copies, byte for byte.

Each verify_*.jsonl file under tests/data is the output of `qaw verify
<target> ... --format json` with the arguments listed below, and
expand.jsonl the outputs of `qaw expand ... --format json` for
`EXPAND_CASES`, one after the other.  Any change that moves a
verdict, a bandwidth, a residual or a float of `numeric` shows up here
as a diff; rewrite a file only for an intended change of output.  The
`numeric` stream pins IEEE-754 doubles as CPython computes them with the
platform's `pow`.
"""

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

# (--degree-poly, extra arguments), in the order of expand.jsonl
EXPAND_CASES = (
    ("x^2 - t*x + 1", ("--n", "3")),
    ("x^10", ()),
    ("(x+t+u)^8", ()),
    ("3*x^7-t*x^2+u/2", ()),
    ("(t^2-1)/(t-1)*x", ()),
    ("0", ("--n", "2")),
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
