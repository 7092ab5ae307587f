"""The command-line surface: records, formats, exit codes."""

import fractions
import json
import os
import platform
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import qaw
import qaw.cli
import qaw.inductor
import qaw.numeric
import qaw.structure
from qaw.cli import main
from qaw.scalar import T, Rat, tpow
from test_structure import bumped_family


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def test_show_n1_exact(capsys):
    code, out, _ = run(capsys, "show", "--n", "1")
    assert code == 0
    assert out == "x - t\n"


def test_show_latex(capsys):
    code, out, _ = run(capsys, "show", "--n", "2", "--latex")
    assert code == 0
    assert "x^{2}" in out


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", "--n", "0", "--q", "0.5", "--x", "2.0")
    assert code == 0
    assert float(out) == 1.0


def test_show_and_eval_match_the_recurrence(capsys):
    fam = qaw.counterexample_family()
    for n in range(11):
        p = fam.poly(n)
        assert run(capsys, "show", "--n", str(n)) == (0, p.render() + "\n", "")
        assert run(capsys, "show", "--n", str(n), "--latex") == (
            0, p.to_latex() + "\n", ""
        )
        for q0, x0 in ((0.3, 1.5), (0.7, -2.0)):
            code, out, _ = run(
                capsys, "eval", "--n", str(n), "--q", str(q0), "--x", str(x0)
            )
            assert code == 0
            want = qaw.eval_poly(p, q0, x0)
            assert abs(float(out) - want) <= 1e-12 * abs(want)


def _exact_recurrence(n, s, x):
    """p_n(x) in Q at t = s, from the closed forms of B_k and C_k."""
    prev, cur = Fraction(0), Fraction(1)
    for k in range(n):
        u = s ** (2 * k)
        b = ((1 + s**-2) * u + 1 - s**-2) * u * s / 2
        c = (1 + u * s**-2) * (1 - u) * (1 - u * u * s**-2) / 4
        prev, cur = cur, (x - b) * cur - c * prev
    return cur


@pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(2, 3)])
def test_eval_matches_the_exact_recurrence(capsys, s):
    # Horner's rule on the monomial x-form was off by about 1e-7
    # relative at n = 40 on this grid
    for x0 in (1.1, 2.5, -0.4):
        for n in (5, 25, 40):
            code, out, _ = run(
                capsys, "eval", "--n", str(n), "--q", repr(float(s**4)), "--x", repr(x0)
            )
            assert code == 0
            want = _exact_recurrence(n, s, Fraction(x0))
            assert abs(Fraction(float(out)) - want) <= Fraction(1, 10**12) * abs(want)


def test_eval_bad_q(capsys):
    code, _, err = run(capsys, "eval", "--n", "1", "--q", "1.5", "--x", "2.0")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
def test_eval_non_finite_x_is_refused(capsys, x):
    # a NaN used to print "nan" with exit 0, although --q is checked
    code, out, err = run(capsys, "eval", "--n", "2", "--q", "0.5", "--x=" + x)
    assert code == 2
    assert out == ""
    assert err == "error: --x must be finite\n"


def test_eval_non_finite_result_is_refused(capsys):
    # p_3(1e200) overflows a float; it used to print "inf" with exit 0
    code, out, err = run(capsys, "eval", "--n", "3", "--q", "0.25", "--x", "1e200")
    assert code == 2
    assert out == ""
    assert err == "error: p_3(1e+200) is not finite in floating point\n"


@pytest.mark.parametrize(
    "argv", [["show", "--n", "-1"], ["eval", "--n", "-1", "--q", "0.5", "--x", "1.5"]]
)
def test_negative_n_is_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: --n must be nonnegative\n"


def test_info(capsys):
    code, out, _ = run(capsys, "info", "--format", "json")
    assert code == 0
    (rec,) = json_lines(out)
    assert rec == {
        "backend": "%s.%s" % (Rat.__module__, Rat.__qualname__),
        "qaw": qaw.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }
    assert rec["backend"] in ("fractions.Fraction", "gmpy2.mpq")
    code, text, _ = run(capsys, "info")
    assert code == 0
    assert text.startswith("backend=%s qaw=%s " % (rec["backend"], rec["qaw"]))


FRACTION_NOTE = (
    "note: gmpy2 is not installed; exact arithmetic ran on fractions.Fraction\n"
)
SMALL_VERIFY = (
    ("proposition", "--n-max", "2"),
    ("proof",),
    ("numeric", "--n-max", "1"),
    ("oracle", "--n-max", "1"),
)


def test_verify_notes_the_fraction_backend(capsys, monkeypatch):
    gmpy_like = type("mpq", (), {"__module__": "gmpy2"})
    for argv in SMALL_VERIFY:
        monkeypatch.setattr(qaw.cli, "Rat", fractions.Fraction)
        code, out, err = run(capsys, "verify", *argv)
        assert (code, err) == (0, FRACTION_NOTE), argv
        # the note is the only difference: stdout is the same on any backend
        monkeypatch.setattr(qaw.cli, "Rat", gmpy_like)
        assert run(capsys, "verify", *argv) == (0, out, ""), argv


def test_other_commands_keep_stderr_empty(capsys, monkeypatch):
    monkeypatch.setattr(qaw.cli, "Rat", fractions.Fraction)
    for argv in (
        ("show", "--n", "2"),
        ("eval", "--n", "2", "--q", "0.5", "--x", "2.0"),
        ("info",),
        ("expand", "--degree-poly", "x^2"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out


def test_every_verify_record_is_emitted_and_judged(capsys, monkeypatch):
    recs = [{"status": "pass"}, {"verdict": "nonzero"}, {"verdict": "zero"}]
    monkeypatch.setattr(qaw.cli, "_proof", lambda args: iter(recs))
    code, out, _ = run(capsys, "verify", "proof", "--format", "json")
    assert code == 1
    assert json_lines(out) == recs


def test_a_record_without_a_verdict_fails(capsys, monkeypatch):
    # neither "status" nor "verdict": never a silent pass
    monkeypatch.setattr(qaw.cli, "_proof", lambda args: iter([{"check": "x"}]))
    assert run(capsys, "verify", "proof")[:2] == (1, "check=x\n")


def test_an_unchecked_relation_record_fails(capsys, monkeypatch):
    # structure_relation compares against nothing: its record is no pass
    rec = qaw.structure_relation(qaw.counterexample_family(), 2).record()
    monkeypatch.setattr(qaw.cli, "_proof", lambda args: iter([rec]))
    assert run(capsys, "verify", "proof")[0] == 1


def test_verify_proposition_base_case(capsys):
    code, out, _ = run(capsys, "verify", "proposition", "--n-max", "0", "--format", "json")
    assert code == 0
    recs = json_lines(out)
    assert [r["check"] for r in recs] == ["sq-relation", "dq-relation"]
    assert all(r["status"] == "pass" for r in recs)


def test_verify_proposition_includes_bandwidth(capsys):
    code, out, _ = run(capsys, "verify", "proposition", "--n-max", "4", "--format", "json")
    assert code == 0
    recs = json_lines(out)
    assert len(recs) == 11
    assert recs[-1]["check"] == "bandwidth"
    assert recs[-1]["max_r"] == 2 and recs[-1]["max_s"] == 1


def test_verify_proof(capsys):
    code, out, _ = run(capsys, "verify", "proof", "--format", "json")
    assert code == 0
    recs = json_lines(out)
    verdicts = [r for r in recs if "verdict" in r]
    assert len(verdicts) == 15
    assert all(r["verdict"] == "zero" for r in verdicts)
    coherence = [r for r in recs if r.get("check") == "instantiation-coherence"]
    assert len(coherence) == 40


def test_empty_samples_are_usage_errors(capsys):
    for argv in (
        ("verify", "numeric", "--q", ","),
        ("verify", "numeric", "--x", ","),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


def test_expand_exponent_out_of_range(capsys):
    # the last would wrap x^256 u^(2^32) into t x^256 in the packed key
    # and cancel the -t*x^256: refused at its "^" before it is formed
    last = "(x*u^16777216)^256 - t*x^256 + x"
    for text, pos in (("u^2147483648", 1), ("2^99999999999", 1), (last, 14)):
        code, out, err = run(capsys, "expand", "--degree-poly", text)
        assert code == 2
        assert out == ""
        assert err.startswith("error: position %d:" % pos)
    assert err == "error: position 14: exponent beyond the supported range |e| <= 16777216\n"
    # int() would refuse these 5000 digits with no position
    for base in ("x", "1"):
        code, out, err = run(capsys, "expand", "--degree-poly", base + "^" + "9" * 5000)
        assert (code, out) == (2, "")
        assert err == "error: position 1: exponent beyond the supported range |e| <= 16777216\n"


def test_expand_power_too_large(capsys):
    for text, pos in (("x^99999999", 1), ("(1+t)^100000", 5)):
        code, out, err = run(capsys, "expand", "--degree-poly", text)
        assert code == 2
        assert out == ""
        assert err.startswith("error: position %d:" % pos)


def test_expand_product_too_large(capsys):
    # refused at the "*" from the predicted size, before the powers or the
    # million-term product are formed
    start = time.perf_counter()
    code, out, err = run(capsys, "expand", "--degree-poly", "(1+t)^1000*(1+u)^1000")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == "error: position 10: product beyond the supported range of 1024 terms\n"


def test_verify_numeric(capsys):
    code, out, _ = run(
        capsys, "verify", "numeric", "--n-max", "3",
        "--q", "0.4", "--x", "1.5,2.5", "--format", "json",
    )
    assert code == 0
    (rec,) = json_lines(out)
    assert rec["check"] == "numeric"
    assert rec["status"] == "pass"


def test_verify_numeric_bad_grid(capsys):
    code, _, err = run(capsys, "verify", "numeric", "--x", "0.5")
    assert code == 2
    assert "|x| > 1" in err


def test_verify_numeric_rejects_non_finite_x(capsys):
    for x in ("inf", "nan"):
        code, out, err = run(capsys, "verify", "numeric", "--x", x, "--n-max", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "finite" in err


@pytest.mark.parametrize(
    "grid, where",
    [(("--x", "1e200"), "x=1e+200"), (("--q", "1e-300"), "q=1e-300")],
)
def test_verify_numeric_float_breakdown_fails(capsys, grid, where):
    code, out, _ = run(
        capsys, "verify", "numeric", *grid, "--n-max", "2", "--format", "json"
    )
    assert code == 1
    assert "NaN" not in out and "Infinity" not in out
    (rec,) = json_lines(out)
    assert rec["status"] == "fail"
    assert where in rec["worst"]


def test_worst_names_a_grid_point(capsys):
    # the label names the grid's own floats; six digits would read q=0.123457
    qs, xs = [0.1234567], [3.0000001, 1.5]
    code, out, _ = run(
        capsys, "verify", "numeric", "--q", "0.1234567", "--x", "3.0000001,1.5",
        "--n-max", "12", "--format", "json",
    )
    assert code == 0
    (rec,) = json_lines(out)
    q, x = re.fullmatch(r"\S+ n=\d+ q=(\S+) x=(\S+) \S+", rec["worst"]).groups()
    assert float(q) in qs and float(x) in xs


def test_verify_oracle(capsys):
    code, out, _ = run(capsys, "verify", "oracle", "--n-max", "3", "--format", "json")
    assert code == 0
    recs = json_lines(out)
    assert len(recs) == 8
    assert {r["params"] for r in recs} == {"counterexample", "generic"}
    assert all(r["status"] == "pass" for r in recs)


def test_expand(capsys):
    code, out, _ = run(
        capsys, "expand", "--degree-poly", "x^2 - t*x + 1", "--n", "3", "--format", "json"
    )
    assert code == 0
    recs = json_lines(out)
    assert [r["index"] for r in recs] == [0, 1, 2, 3]
    assert recs[2]["coefficient"] == "1"
    assert recs[3]["coefficient"] == "0"


def test_expand_quotient_outside_the_ring(capsys):
    # an exact quotient stays in Q[t^+-1, u^+-1] and expands
    code, out, _ = run(capsys, "expand", "--degree-poly", "(t^2-1)/(t-1)*x")
    assert code == 0
    assert out.splitlines()[1] == 'index=1 coefficient="t + 1"'
    for text, pos in (("x/(1+t)", 1), ("(1+t)^-1", 5), ("x + u/(u - 1)", 5)):
        code, out, err = run(capsys, "expand", "--degree-poly", text)
        assert (code, out) == (2, "")
        assert err == "error: position %d: result is not a Laurent polynomial in t and u\n" % pos
    # and the installed command prints that one line, with no traceback
    src = os.path.dirname(os.path.dirname(os.path.abspath(qaw.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "qaw.cli", "expand", "--degree-poly", "x/(1+t)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: position 1: result is not a Laurent polynomial in t and u"
    ]


def test_expand_malformed_poly(capsys):
    code, _, err = run(capsys, "expand", "--degree-poly", "x +")
    assert code == 2
    assert "position" in err


def test_expand_n_below_degree(capsys):
    code, _, err = run(capsys, "expand", "--degree-poly", "x^3", "--n", "1")
    assert code == 2
    assert "beyond" in err


def test_text_format_is_default(capsys):
    code, out, _ = run(capsys, "verify", "proposition", "--n-max", "0")
    assert code == 0
    assert out.splitlines()[0].startswith("check=sq-relation")


def test_unknown_flag_is_usage_error(capsys):
    # the proof's spot-check indices are fixed, not an option
    for argv in (("proposition", "--frobnicate"), ("proof", "--k-samples", "2")):
        with pytest.raises(SystemExit) as info:
            main(["verify", *argv])
        assert info.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify"])
    assert info.value.code == 2


def test_corrupted_c3_fails_every_target_that_reads_it(capsys, monkeypatch):
    # t^5 added to b_3, the C_3 of the recurrence, wherever the targets
    # build the counterexample family
    fam = bumped_family(tpow(5))
    for module in (qaw.cli, qaw.inductor, qaw.numeric, qaw.structure):
        monkeypatch.setattr(module, "counterexample_family", lambda: fam)
    for argv, check in (
        (("proposition", "--n-max", "6"), "dq-relation"),
        (("oracle", "--n-max", "5"), "oracle"),
        (("numeric", "--n-max", "6"), "numeric"),
    ):
        code, out, err = run(capsys, "verify", *argv, "--format", "json")
        assert code == 1, argv
        assert "Traceback" not in err
        recs = json_lines(out)
        assert any(r["check"] == check and r["status"] == "fail" for r in recs)
    # `verify proof` reads the closed forms of B_n and C_n, and of the
    # family only p_0, which no C_n enters: it cannot see this fault
    assert run(capsys, "verify", "proof")[0] == 0


def test_shifted_float_lattice_fails_numeric(capsys, monkeypatch):
    # a relative 1e-6 error in both lattice points, far above rel_tol
    pair = qaw.numeric._lattice_pair

    def shifted(q0, x0):
        xp, xm = pair(q0, x0)
        return xp * (1 + 1e-6), xm * (1 + 1e-6)

    monkeypatch.setattr(qaw.numeric, "_lattice_pair", shifted)
    code, out, err = run(capsys, "verify", "numeric", "--format", "json")
    assert code == 1
    assert "Traceback" not in err
    (rec,) = json_lines(out)
    assert rec["status"] == "fail" and rec["max_rel_dev"] > 1e-9


def test_wrong_closed_form_fails_numeric_and_proposition(capsys, monkeypatch):
    # t added to c_{5,4}, the D_q offset -2 at n = 5: the witness compares
    # the closed forms with the lattice, the sweep with the kernel's rows
    expected = qaw.structure._expected
    closed_values = qaw.numeric._closed_values

    def wrong(check, n):
        ex = expected(check, n)
        if (check, n) == ("dq-relation", 5):
            ex = {**ex, -2: ex[-2] + T}
        return ex

    def wrong_values(q0, nmax, split):
        # the same t in floats: t = q0^(1/4)
        values = closed_values(q0, nmax, split)
        values[5][1][-2] += q0 ** 0.25
        return values

    monkeypatch.setattr(qaw.numeric, "_closed_values", wrong_values)
    code, out, err = run(capsys, "verify", "numeric", "--format", "json")
    assert code == 1
    assert "Traceback" not in err
    (rec,) = json_lines(out)
    assert rec["status"] == "fail" and rec["worst"].startswith("dq n=5 ")
    monkeypatch.setattr(qaw.structure, "_expected", wrong)
    argv = ("verify", "proposition", "--n-max", "6", "--format", "json")
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert "Traceback" not in err
    recs = json_lines(out)
    assert [(r["check"], r.get("n")) for r in recs if r["status"] == "fail"] == [
        ("dq-relation", 5)
    ]


def refuse_to_expand(*args):
    raise AssertionError("expand_in_basis was called")


def test_expand_degree_bound(capsys, monkeypatch):
    # the first degree past the bound is refused before any product
    monkeypatch.setattr(qaw.cli, "expand_in_basis", refuse_to_expand)
    deg = qaw.cli.MAX_EXPAND_DEGREE + 1
    for text in ("x^%d" % deg, "(x+t+u)^%d - 1" % deg):
        code, out, err = run(capsys, "expand", "--degree-poly", text)
        assert (code, out) == (2, "")
        assert err == "error: degree %d is beyond the bound %d\n" % (deg, deg - 1)


def test_expand_n_checked_before_expanding(capsys, monkeypatch):
    monkeypatch.setattr(qaw.cli, "expand_in_basis", refuse_to_expand)
    for n, msg in (("-1", "--n must be nonnegative"), ("2", "beyond --n 2")):
        code, out, err = run(capsys, "expand", "--degree-poly", "x^3", "--n", n)
        assert (code, out) == (2, "")
        assert msg in err


def test_expand_work_bound(capsys, monkeypatch):
    monkeypatch.setattr(qaw.structure, "MAX_EXPAND_WORK", 10)
    code, out, err = run(capsys, "expand", "--degree-poly", "x^5")
    assert (code, out, err) == (2, "", "error: expansion beyond 10 units of work\n")
