"""One round of one workload, in a fresh process.

    python3 perfbench/worker.py <workload> [--trace SPANS_PATH] [--setup-only]

Imports `qaw` from the checkout's `src/` (and refuses any other copy),
times the set-up, runs the workload once through the same public calls
its `qaw verify` subcommand makes, and then, with the clock stopped,
turns the returned reports into plain data (ints and strings) for the
checks in `checks.py`.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

SWEEP_NMAX = 40  # `qaw verify proposition` default
WITNESS_NMAX = 15  # `qaw verify numeric` default
ORACLE_NMAX = 8  # `qaw verify oracle` default
PROOF_K_SAMPLES = (2, 3, 5, 8)  # `qaw verify proof` default
REFERENCE_NMAX = 14


def _terms(s) -> list:
    """An exact Scalar as [[num terms], [den terms]], each term [i, j, p, q]."""
    return [
        [[i, j, int(c.numerator), int(c.denominator)] for i, j, c in it]
        for it in (s.numerator_terms(), s.denominator_terms())
    ]


def _records(it, tracer, nmax):
    """The sweep generator's reports; with a tracer, each next() is a span."""
    if tracer is None:
        yield from it
        return
    while True:
        idx = tracer.open()
        try:
            rep = next(it)
        except StopIteration:
            tracer.close(idx, "structure.top_index")
            return
        if rep.n == nmax:
            name = "structure.top_index"
        elif rep.check == "sq-relation":
            name = "structure.sq_records"
        else:
            name = "structure.dq_records"
        tracer.close(idx, name)
        yield rep


# Each workload returns (raw outputs, text lines); `extract_*` turns the raw
# outputs into plain data once the clock has stopped.


def run_sweep(qaw, tracer):
    fam = qaw.counterexample_family()
    ctx = qaw.context()
    reports, lines = [], []
    for rep in _records(qaw.iter_proposition_reports(SWEEP_NMAX, fam, ctx), tracer, SWEEP_NMAX):
        reports.append(rep)
        lines.append(qaw.format_record(rep.record()))
    summary = qaw.bandwidth_scan(fam, ctx.u2(), SWEEP_NMAX, reports=reports)
    lines.append(qaw.format_record(summary.record()))
    return (reports, summary), lines


def extract_sweep(raw):
    reports, summary = raw
    return {
        "nmax": SWEEP_NMAX,
        "reports": [
            {
                "check": rep.check,
                "n": rep.n,
                "status": rep.status,
                "bandwidth": list(rep.bandwidth),
                "record": rep.record(),
                "coefficients": {str(k): _terms(v) for k, v in rep.coefficients.items()},
            }
            for rep in reports
        ],
        "summary": summary.record(),
    }


def run_witness(qaw, tracer):
    cfg = qaw.NumericConfig()
    summary = qaw.numeric_crosscheck(cfg, WITNESS_NMAX)
    return (cfg, summary), [qaw.format_record(summary.record())]


def extract_witness(raw):
    cfg, summary = raw
    return {
        "nmax": WITNESS_NMAX,
        "q_samples": list(cfg.q_samples),
        "x_samples": list(cfg.x_samples),
        "rel_tol": cfg.rel_tol,
        "summary": summary.record(),
    }


def run_oracle(qaw, tracer):
    generic = qaw.FamilyParams(qaw.tpow(1), qaw.tpow(2), qaw.tpow(3), qaw.tpow(4))
    sets = (
        ("counterexample", qaw.COUNTEREXAMPLE_PARAMS, qaw.counterexample_family()),
        ("generic", generic, qaw.dual_qhahn_family(generic)),
    )
    zero = qaw.rational(0)
    oracle, lines = [], []
    for label, p, fam in sets:
        for n in range(ORACLE_NMAX + 1):
            hyp = qaw.aw_hyp_poly(n, p.a, p.b, p.c, zero, p.base)
            match = hyp == fam.poly(n)
            rec = {
                "check": "oracle",
                "params": label,
                "n": n,
                "status": "pass" if match else "fail",
            }
            oracle.append((rec, hyp))
            lines.append(qaw.format_record(rec))
    certs = qaw.certify_sq_step() + qaw.certify_dq_step() + qaw.certify_base_case()
    for cert in certs:
        lines.append(qaw.format_record(cert.record()))
    coherence = qaw.instantiation_coherence(PROOF_K_SAMPLES)
    for rec in coherence:
        lines.append(qaw.format_record(rec))
    return (oracle, certs, coherence), lines


def extract_oracle(raw):
    oracle, certs, coherence = raw
    return {
        "nmax": ORACLE_NMAX,
        "k_samples": list(PROOF_K_SAMPLES),
        "oracle": [
            {"record": rec, "coefficients": [_terms(c) for c in hyp.coeffs()]}
            for rec, hyp in oracle
        ],
        "certificates": [cert.record() for cert in certs],
        "coherence": coherence,
    }


def run_reference(qaw, tracer):
    summary = qaw.bandwidth_scan(qaw.counterexample_family(), qaw.u2(), REFERENCE_NMAX)
    return summary, []


def extract_reference(summary):
    return {
        "nmax": REFERENCE_NMAX,
        "rows": [list(row) for row in summary.rows],
        "summary": summary.record(),
    }


WORKLOADS = {
    "sweep": (run_sweep, extract_sweep),
    "witness": (run_witness, extract_witness),
    "oracle": (run_oracle, extract_oracle),
    "reference": (run_reference, extract_reference),
}


def main(argv: list[str]) -> int:
    workload = argv[0]
    spans_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    setup_only = "--setup-only" in argv
    run, extract = WORKLOADS[workload]
    tracer = None
    if spans_path is not None:
        from tracer import Tracer

        tracer = Tracer()

    # set-up: import, then the first coeff_suite() and context()
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import qaw

    if not os.path.abspath(qaw.__file__).startswith(SRC + os.sep):
        raise SystemExit("qaw was imported from %s, not from %s" % (qaw.__file__, SRC))
    if tracer is not None:
        tracer.install()
    qaw.coeff_suite()
    qaw.context()
    setup_s = time.perf_counter() - t0
    out = {"setup_s": setup_s}
    if not setup_only:
        w0, c0 = time.perf_counter(), time.process_time()
        raw, lines = run(qaw, tracer)
        out["wall_s"] = time.perf_counter() - w0
        out["cpu_s"] = time.process_time() - c0
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out["lines"] = lines
        out["data"] = extract(raw)
    if tracer is not None:
        out["layers"] = tracer.layer_totals()
        tracer.write(spans_path)
    out["env"] = {
        "python": sys.version.split()[0],
        "backend": "%s.%s" % (qaw.scalar.Rat.__module__, qaw.scalar.Rat.__name__),
        "qaw": qaw.__version__,
    }
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
