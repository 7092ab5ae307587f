"""Benchmark of the `qaw` verifier: four workloads, each a closed loop.

    python3 perfbench/run.py --workload {sweep,witness,oracle,reference} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Every round of a workload is a fresh,
single-threaded worker process (`worker.py`), so module caches start cold
as they do for a `qaw` user; one caller runs one round after another until
`--seconds` have passed (always whole rounds; the one running when the time
is up is finished).  Set-up is also timed in
separate set-up-only processes and reported as the median.

With `--trace 0` the last line of stdout reports the end-to-end metrics;
with `--trace 1` each round is run once untraced and once traced, and the
last line reports the per-layer metrics of the traced rounds plus
`trace.overhead_s`.  Once the clock has stopped, every round's outputs are
checked: the first against mpmath computations of the paper's definitions
in `checks.py`, with the seed choosing the sample points, and every later
one against the first.  Details of the last
run of each workload are written to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

from checks import CHECKS  # noqa: E402  (perfbench/ is sys.path[0])
from tracer import GENERATOR_SPANS, LAYERS  # noqa: E402

SETUP_PROBES = 5
DEADLINE_S = 170.0  # a run must end within 180 s

# span names whose call counts are reported next to their self time
COUNTED = (
    "structure.structure_relation",
    "awcore.dq",
    "zsym.divide_exact",
    "scalar.arith",
    "scalar.div",
    "scalar.instantiate_n",
    "scalar.evaluate",
    "numeric.eval_poly",
)
# structure_relation is reported by its count alone
TIMED = tuple(n for n in list(LAYERS) + list(GENERATOR_SPANS) if n != "structure.structure_relation")


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, extra: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("no time left for another worker")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), workload, *extra],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise WorkerError("worker for %s passed the deadline" % workload) from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise WorkerError("worker for %s exited with %d" % (workload, proc.returncode))
    return json.loads(proc.stdout)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(CHECKS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qaw", "__init__.py")):
        print("error: no qaw source under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    w = args.workload
    deadline = time.monotonic() + DEADLINE_S
    spans_path = os.path.join(OUT, "spans-%s.tsv" % w)

    try:
        setups = [spawn(w, ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        plain, traced = [], []
        start = time.monotonic()
        while True:
            plain.append(spawn(w, [], deadline))
            if args.trace:
                traced.append(spawn(w, ["--trace", spans_path], deadline))
            if time.monotonic() - start >= args.seconds:
                break
    except WorkerError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    # the clock has stopped: check the first round's outputs, and require
    # every later round to have produced exactly the same
    rounds = plain + traced
    a, f, problems = CHECKS[w](rounds[0]["data"], args.seed, rounds[0]["lines"])
    attempted, failed = a * len(rounds), f * len(rounds)
    for k, rnd in enumerate(rounds[1:], 2):
        if (rnd["data"], rnd["lines"]) != (rounds[0]["data"], rounds[0]["lines"]):
            problems.append("%s: round %d's outputs differ from round 1's" % (w, k))

    med = statistics.median
    if args.trace:
        layers = {}
        for name in TIMED:
            layers[name + ".s"] = metric(med(r["layers"][name]["self_s"] for r in traced), "s")
        for name in COUNTED:
            layers[name + ".calls"] = metric(med(r["layers"][name]["calls"] for r in traced), "count")
        overhead = med(r["wall_s"] for r in traced) - med(r["wall_s"] for r in plain)
        layers["trace.overhead_s"] = metric(overhead, "s")
        metrics = dict(sorted(layers.items()))
    else:
        setups += [r["setup_s"] for r in plain]
        metrics = {
            "setup_s": metric(med(setups), "s"),
            "wall_s": metric(med(r["wall_s"] for r in plain), "s"),
            "cpu_s": metric(med(r["cpu_s"] for r in plain), "s"),
            "peak_rss_mb": metric(med(r["peak_rss_kb"] for r in plain) / 1024.0, "MB"),
        }

    env = dict(plain[0]["env"], nproc=len(os.sched_getaffinity(0)))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    detail = {
        "workload": w,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "rounds": len(plain),
        "setup_s": setups,
        "plain": [{k: r[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_kb")} for r in plain],
        "traced": [{"wall_s": r["wall_s"], "layers": r["layers"]} for r in traced],
        "problems": problems,
        "result": result,
    }
    name = "%s%s.json" % (w, "-traced" if args.trace else "")
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(detail, fh, indent=1)

    for p in problems:
        print("problem: %s" % p, file=sys.stderr)
    print(" ".join("%s=%s" % kv for kv in env.items()))
    print("workload=%s seed=%d rounds=%d attempted=%d failed=%d correct=%s"
          % (w, args.seed, len(plain), attempted, failed, result["correct"]))
    for key, m in metrics.items():
        print("%-36s %14.6f %s" % (key, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
