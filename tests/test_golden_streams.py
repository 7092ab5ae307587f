"""The `verify` record streams against committed copies, byte for byte.

Each file under tests/data is the output of `qaw verify <target> ...
--format json` with the arguments listed below.  Any change that moves a
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
}


@pytest.mark.parametrize("name", list(STREAMS))
def test_stream_is_unchanged(name, capsys):
    code = main(["verify", *STREAMS[name], "--format", "json"])
    out, _ = capsys.readouterr()
    assert code == 0
    with open(os.path.join(DATA, name), encoding="utf-8", newline="") as fh:
        assert out == fh.read()
