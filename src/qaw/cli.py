"""Command-line front end.

Each verification target streams one record per check (line-delimited,
json or key=value) so a harness can parse the output as it arrives.
The cheap symbolic certificates and the long exact sweep are separate
subcommands on purpose: the former belong on every commit, the latter
is a nightly job.
"""

from __future__ import annotations

import argparse
import math
import os
import platform
import sys

from . import __version__
from .awcore import u2
from .families import (
    COUNTEREXAMPLE_PARAMS,
    FamilyParams,
    aw_hyp_poly,
    counterexample_family,
    dual_qhahn_family,
)
from .inductor import certify_proof
from .numeric import NumericConfig, numeric_crosscheck
from .scalar import ZERO, Rat, tpow
from .structure import (
    _poly_xrows,
    _xrow_poly,
    bandwidth_scan,
    expand_in_basis,
    iter_proposition_reports,
)
from .textio import format_record, render_scalar
from .zsym import XPoly


def _emit(rec: dict, fmt: str):
    print(format_record(rec, fmt), flush=True)


def _cmd_proposition(args) -> int:
    if args.n_max < 0:
        raise ValueError("--n-max must be nonnegative")
    fam = counterexample_family()
    ok = True
    reports = []
    for rep in iter_proposition_reports(args.n_max, fam):
        reports.append(rep)
        _emit(rep.record(), args.format)
        ok = ok and rep.status == "pass"
    if args.n_max >= 2:
        summary = bandwidth_scan(fam, u2(), args.n_max, reports=reports)
        _emit(summary.record(), args.format)
        ok = ok and summary.status == "pass"
    return 0 if ok else 1


def _cmd_proof(args) -> int:
    try:
        ks = tuple(int(p) for p in args.k_samples.split(",") if p.strip())
    except ValueError:
        raise ValueError(
            "--k-samples wants comma-separated integers, got %r" % args.k_samples
        ) from None
    if not ks:
        raise ValueError("--k-samples wants at least one index")
    ok = True
    certs, coherence = certify_proof(ks)
    for cert in certs:
        _emit(cert.record(), args.format)
        ok = ok and cert.verdict == "zero"
    for rec in coherence:
        _emit(rec, args.format)
        ok = ok and rec["status"] == "pass"
    return 0 if ok else 1


def _cmd_numeric(args) -> int:
    if args.n_max < 0:
        raise ValueError("--n-max must be nonnegative")
    try:
        qs = tuple(float(p) for p in args.q.split(",") if p.strip())
        xs = tuple(float(p) for p in args.x.split(",") if p.strip())
    except ValueError:
        raise ValueError("--q/--x want comma-separated floats") from None
    cfg = NumericConfig(q_samples=qs, x_samples=xs)
    summary = numeric_crosscheck(cfg, args.n_max)
    _emit(summary.record(), args.format)
    return 0 if summary.status == "pass" else 1


_GENERIC_PARAMS = FamilyParams(tpow(1), tpow(2), tpow(3), tpow(4))


def _cmd_oracle(args) -> int:
    if args.n_max < 0:
        raise ValueError("--n-max must be nonnegative")
    ok = True
    sets = (
        ("counterexample", COUNTEREXAMPLE_PARAMS, counterexample_family()),
        ("generic", _GENERIC_PARAMS, dual_qhahn_family(_GENERIC_PARAMS)),
    )
    for label, p, fam in sets:
        for n in range(args.n_max + 1):
            hyp = aw_hyp_poly(n, p.a, p.b, p.c, ZERO, p.base)
            match = hyp == fam.poly(n)
            rec = {
                "check": "oracle",
                "params": label,
                "n": n,
                "status": "pass" if match else "fail",
            }
            _emit(rec, args.format)
            ok = ok and match
    return 0 if ok else 1


def _cmd_expand(args) -> int:
    f = XPoly.parse(args.degree_poly)
    coeffs = expand_in_basis(f, counterexample_family())
    if args.n is not None:
        if args.n < 0:
            raise ValueError("--n must be nonnegative")
        if args.n + 1 < len(coeffs):
            raise ValueError(
                "expansion reaches index %d, beyond --n %d"
                % (len(coeffs) - 1, args.n)
            )
        coeffs = coeffs + [ZERO] * (args.n + 1 - len(coeffs))
    for k, c in enumerate(coeffs):
        _emit({"index": k, "coefficient": render_scalar(c)}, args.format)
    return 0


def _cmd_show(args) -> int:
    if args.n < 0:
        raise ValueError("--n must be nonnegative")
    p = _xrow_poly(_poly_xrows(args.n, counterexample_family()))
    print(p.to_latex() if args.latex else p.render())
    return 0


def _cmd_eval(args) -> int:
    if args.n < 0:
        raise ValueError("--n must be nonnegative")
    if not 0.0 < args.q < 1.0:
        raise ValueError("--q must lie strictly between 0 and 1")
    if not math.isfinite(args.x):
        raise ValueError("--x must be finite")
    # the recurrence itself, in floats: Horner's rule on the monomial
    # x-form cancels, about 1e-7 relative at n = 40
    fam = counterexample_family()
    prev, cur = 0.0, 1.0
    for k in range(args.n):
        a, b = fam.rec_a(k).evaluate(args.q), fam.rec_b(k).evaluate(args.q)
        prev, cur = cur, (args.x - a) * cur - b * prev
    if not math.isfinite(cur):
        raise ValueError("p_%d(%r) is not finite in floating point" % (args.n, args.x))
    print(cur)
    return 0


def _cmd_info(args) -> int:
    rec = {
        "backend": "%s.%s" % (Rat.__module__, Rat.__qualname__),
        "qaw": __version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }
    _emit(rec, args.format)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qaw",
        description="exact verification toolkit for a continuous dual "
        "q-Hahn family under the Askey-Wilson operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run verification checks")
    vsub = verify.add_subparsers(dest="target", required=True)

    def vparser(name, help_text):
        p = vsub.add_parser(name, help=help_text)
        p.add_argument(
            "--format", choices=("json", "text"), default="text",
            help="record format, one per line (default text)",
        )
        return p

    p = vparser("proposition", "exact structure-relation sweep")
    p.add_argument(
        "--n-max", type=int, default=40,
        help="largest index checked (default 40)",
    )
    p.set_defaults(func=_cmd_proposition)

    p = vparser("proof", "symbolic step and base-case certificates")
    p.add_argument(
        "--k-samples", default="2,3,5,8", metavar="K1,K2,...",
        help="indices for the instantiation coherence spot check",
    )
    p.set_defaults(func=_cmd_proof)

    p = vparser("numeric", "float lattice cross-check")
    p.add_argument("--n-max", type=int, default=15)
    p.add_argument(
        "--q", default="0.3,0.7", metavar="Q1,Q2,...",
        help="comma-separated q samples in (0, 1)",
    )
    p.add_argument(
        "--x", default="1.1,1.5,2.0,3.0", metavar="X1,X2,...",
        help="comma-separated x samples with |x| > 1",
    )
    p.set_defaults(func=_cmd_numeric)

    p = vparser("oracle", "recurrence vs hypergeometric construction")
    p.add_argument("--n-max", type=int, default=8)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("expand", help="expand a polynomial in the family basis")
    p.add_argument(
        "--degree-poly", required=True, metavar="TEXT",
        help="polynomial in x, t, u; e.g. 'x^2 - t*x + 1'",
    )
    p.add_argument(
        "--n", type=int, default=None,
        help="pad the coefficient list up to basis index n",
    )
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("show", help="print one family member")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--latex", action="store_true")
    p.set_defaults(func=_cmd_show)

    p = sub.add_parser("eval", help="evaluate one family member at (q, x)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("info", help="print the backend, version and machine")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_info)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream closed the stream (head, jq); park stdout on devnull
        # so interpreter shutdown does not trip over the dead pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    if args.command == "verify" and Rat.__module__ == "fractions":
        # the backend sets the speed of a run, not its records, so the
        # note stays off stdout
        print(
            "note: gmpy2 is not installed; exact arithmetic ran on fractions.Fraction",
            file=sys.stderr,
        )
    return code


if __name__ == "__main__":
    raise SystemExit(main())
