"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py [--seed N]

Runs one round of every workload, requires its honest outputs to pass
`checks.py`, and then requires each of a set of corrupted copies (one
coefficient changed, a bandwidth row or record made wrong) to be caught.
Also checks the benchmark's two constructions of the family against each
other: the 3phi2 at (1, -1, t | t^2) must equal the recurrence with the
closed-form B_n and C_n.  Takes about a minute; exits 1 if anything slips
through.
"""

from __future__ import annotations

import argparse
import copy
import random
import time

from mpmath import mp, mpf

import checks
from run import spawn


def _add_term(terms, term):
    """terms = [num, den]; add one monomial to the numerator."""
    terms[0].append(term)


def _bump_first(terms):
    """Change the first numerator coefficient by one unit of its numerator."""
    terms[0][0][2] += 1


def _report(data, check, n):
    return next(r for r in data["reports"] if r["check"] == check and r["n"] == n)


def _oracle_item(data, label, n):
    return next(i for i in data["oracle"] if i["record"]["params"] == label and i["record"]["n"] == n)


def sweep_mutations(data):
    def m2_plus_t5(d):
        _add_term(_report(d, "dq-relation", 20)["coefficients"]["-2"], [5, 0, 1, 1])

    def sq_one_unit(d):
        _bump_first(_report(d, "sq-relation", 33)["coefficients"]["0"])

    def dq_top_one_unit(d):
        _bump_first(_report(d, "dq-relation", 40)["coefficients"]["1"])

    def drop_m2(d):
        del _report(d, "dq-relation", 12)["coefficients"]["-2"]

    def wrong_band(d):
        _report(d, "dq-relation", 7)["bandwidth"] = [3, 1]

    def wrong_summary(d):
        d["summary"]["max_r"] = 3

    return [m2_plus_t5, sq_one_unit, dq_top_one_unit, drop_m2, wrong_band, wrong_summary]


def witness_mutations(data):
    def dev_above_tol(d):
        d["summary"]["max_rel_dev"] = 1e-6

    def worst_off_grid(d):
        d["summary"]["worst"] = "dq n=3 q=0.5 x=1.5 lattice-vs-exact"

    def worst_beyond_nmax(d):
        d["summary"]["worst"] = "sq n=99 q=0.3 x=1.5 exact-vs-closed"

    return [dev_above_tol, worst_off_grid, worst_beyond_nmax]


def oracle_mutations(data):
    def generic_x2(d):
        _add_term(_oracle_item(d, "generic", 5)["coefficients"][2], [1, 0, 1, 3])

    def counterexample_constant(d):
        _bump_first(_oracle_item(d, "counterexample", 8)["coefficients"][0])

    def swap_params(d):
        a, b = _oracle_item(d, "generic", 4), _oracle_item(d, "counterexample", 4)
        a["coefficients"], b["coefficients"] = b["coefficients"], a["coefficients"]

    def missing_certificate(d):
        d["certificates"].pop()

    return [generic_x2, counterexample_constant, swap_params, missing_certificate]


def reference_mutations(data):
    def row_r3(d):
        d["rows"][5][1] = 3

    def row_s0(d):
        d["rows"][9][2] = 0

    def summary_contradiction(d):
        d["summary"]["offset_m2_all_nonzero"] = False

    return [row_r3, row_s0, summary_contradiction]


MUTATIONS = {
    "sweep": sweep_mutations,
    "witness": witness_mutations,
    "oracle": oracle_mutations,
    "reference": reference_mutations,
}


def family_constructions_agree() -> bool:
    with mp.workdps(checks.DPS):
        for t, z in checks.sample_points(random.Random(0), 3):
            x = checks.lattice(t, z)[0]
            vals = checks.family_values(t, x, 12)
            for n in range(13):
                a, b, c, q = checks.oracle_params("counterexample", t)
                hyp = checks.monic_3phi2(n, a, b, c, q, x)
                if abs(hyp - vals[n]) > mpf(10) ** -60 * max(abs(hyp), 1):
                    return False
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    misses = 0
    ok = family_constructions_agree()
    print("%s family: 3phi2 equals the recurrence" % ("ok  " if ok else "MISS"))
    misses += not ok
    for workload, mutations in MUTATIONS.items():
        rnd = spawn(workload, [], time.monotonic() + 120.0)
        data, lines = rnd["data"], rnd["lines"]
        check = checks.CHECKS[workload]
        _, failed, problems = check(data, args.seed, lines)
        ok = not failed and not problems
        print("%s %s: honest outputs pass" % ("ok  " if ok else "MISS", workload))
        misses += not ok
        for mutate in mutations(data):
            bad = copy.deepcopy(data)
            mutate(bad)
            _, failed, problems = check(bad, args.seed, None)
            caught = bool(problems) and not failed
            print(
                "%s %s: %s caught (%s)"
                % ("ok  " if caught else "MISS", workload, mutate.__name__,
                   problems[0] if problems else "%d failed" % failed)
            )
            misses += not caught
    print("%d missed" % misses)
    return 1 if misses else 0


if __name__ == "__main__":
    raise SystemExit(main())
