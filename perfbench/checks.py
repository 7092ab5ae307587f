"""Correctness checks on the workloads' outputs, with mpmath and no qaw code.

Everything here is rebuilt from the paper's definitions, at numeric sample
points drawn from the run's seed:

- the monic family from its three-term recurrence with the closed forms
  (t = q^(1/4), u = t^(2n))

      B_n = ((1 + t^-2) u + 1 - t^-2) u t / 2,
      C_n = (1 + u t^-2)(1 - u)(1 - u^2 t^-2) / 4;

- S_q and D_q from their lattice definitions: with x = (z + z^-1)/2 and
  x+-, the same map at z q^(+-1/2) = z t^(+-2),

      S_q f(x) = (f(x+) + f(x-)) / 2,   D_q f(x) = (f(x+) - f(x-)) / (x+ - x-),

  and U_2(x) = (alpha^2 - 1)(x^2 - 1), alpha = (t^2 + t^-2)/2;
- the monic continuous dual q-Hahn polynomial as the terminating
  3phi2(q^-n, a z, a/z; ab, ac; q, q) (the d = 0 Askey-Wilson 4phi3),
  divided by its own x^n coefficient.

A program coefficient reaches these checks as exact integer terms
[t-exp, u-exp, numerator, denominator] of its numerator and denominator.

Each `check_<workload>(data, seed)` returns (attempted, failed, problems):
`failed` counts the records the program itself marked as failing, and
`problems` lists every way in which an output the program passed is wrong.
"""

from __future__ import annotations

import random
import re

from mpmath import cos, exp, lu_solve, matrix, mp, mpc, mpf, pi

DPS = 100
RESIDUAL_TOL = mpf(10) ** -40  # see the README for the honest worst case
BAND_ZERO = mpf(10) ** -30  # |e_k| / max|e| at or below: the entry is 0
BAND_NONZERO = mpf(10) ** -15  # at or above: the entry is certainly nonzero

SWEEP_POINTS = 3
ORACLE_POINTS = 3
REFERENCE_TS = 2

SWEEP_OPS = 83  # 41 S_q and 41 D_q relations, then the bandwidth summary
WITNESS_OPS = 1
ORACLE_OPS = 18 + 15 + 40  # oracle indices, certificates, coherence records
REFERENCE_OPS = 13  # bandwidth rows n = 2 .. 14

CERTIFICATES = (
    "sq-offset-m1-cancels",
    "sq-offset-m2-cancels",
    "sq-alpha-advance",
    "sq-c-advance",
    "dq-offset-p2",
    "dq-offset-p1",
    "dq-offset-0",
    "dq-offset-m1",
    "dq-offset-m2-cancels",
    "dq-offset-m3-cancels",
    "base-alpha0",
    "base-c0",
    "base-c1-cancel",
    "base-sq-constant",
    "base-dq-constant",
)


# -- the paper's objects, numerically ----------------------------------------


def rec_b(n, t):
    u = t ** (2 * n)
    return ((1 + t ** -2) * u + 1 - t ** -2) * u * t / 2


def rec_c(n, t):
    u = t ** (2 * n)
    return (1 + u * t ** -2) * (1 - u) * (1 - u * u * t ** -2) / 4


def family_values(t, x, nmax):
    """[P_0(x), ..., P_nmax(x)] from the three-term recurrence."""
    vals = [mpf(1), x - rec_b(0, t)]
    for m in range(1, nmax):
        vals.append((x - rec_b(m, t)) * vals[m] - rec_c(m, t) * vals[m - 1])
    return vals[: nmax + 1]


def lattice(t, z):
    """x and the shifted points x+, x- at z t^2 and z t^-2."""
    def xof(w):
        return (w + 1 / w) / 2

    return xof(z), xof(z * t * t), xof(z / (t * t))


def relation_lhs(kind, n, t, z):
    """S_q P_n or U_2 D_q P_n at x = (z + z^-1)/2, from the lattice."""
    x, xp, xm = lattice(t, z)
    fp = family_values(t, xp, n)[n]
    fm = family_values(t, xm, n)[n]
    if kind == "sq":
        return (fp + fm) / 2
    alpha = (t * t + t ** -2) / 2
    return (alpha * alpha - 1) * (x * x - 1) * (fp - fm) / (xp - xm)


def qpoch(a, q, k):
    out = mpf(1)
    for j in range(k):
        out *= 1 - a * q ** j
    return out


def monic_3phi2(n, a, b, c, q, x):
    """Monic continuous dual q-Hahn p_n(x; a, b, c | q) from its 3phi2."""
    total = mpf(0)
    zprod = mpf(1)  # (a z, a/z; q)_k as a polynomial in x
    for k in range(n + 1):
        total += (
            qpoch(q ** -n, q, k) * zprod * q ** k
            / (qpoch(a * b, q, k) * qpoch(a * c, q, k) * qpoch(q, q, k))
        )
        zprod *= 1 - 2 * a * q ** k * x + a * a * q ** (2 * k)
    lead = qpoch(q ** -n, q, n) * q ** n / (
        qpoch(a * b, q, n) * qpoch(a * c, q, n) * qpoch(q, q, n)
    )
    for j in range(n):
        lead *= -2 * a * q ** j
    return total / lead


def oracle_params(label, t):
    """(a, b, c, base) of the two parameter sets `qaw verify oracle` runs."""
    if label == "counterexample":
        return mpf(1), mpf(-1), t, t * t
    if label == "generic":
        return t, t ** 2, t ** 3, t ** 4
    raise ValueError("unknown parameter set %r" % label)


def scalar_value(terms, t, n=0):
    """An exact program coefficient at numeric t, with u = t^(2n)."""
    u = t ** (2 * n)

    def val(ts):
        return sum(
            (mpf(p) / q * t ** i * u ** j for i, j, p, q in ts), mpf(0)
        )

    num, den = terms
    return val(num) / val(den)


def expansion(kind, n, t, rng):
    """Coefficients e_0 .. e_d of the relation's left side in P_0 .. P_d.

    Solved from d + 1 values at Chebyshev-like nodes x = cos(theta),
    z = exp(i theta), with a seeded phase.
    """
    d = n if kind == "sq" else n + 1
    phase = rng.uniform(0.25, 0.75)
    rows, rhs = [], []
    for j in range(d + 1):
        theta = pi * (j + phase) / (d + 1)
        z = exp(mpc(0, theta))
        rows.append(family_values(t, cos(theta), d))
        rhs.append(relation_lhs(kind, n, t, z))
    sol = lu_solve(matrix(rows), matrix(rhs))
    return [sol[k] for k in range(d + 1)]


def numeric_band(e, n):
    """(r, s, offset -2 nonzero, ambiguous) of an expansion about index n."""
    top = max(abs(v) for v in e)
    nonzero = [k for k, v in enumerate(e) if abs(v) > BAND_ZERO * top]
    ambiguous = any(BAND_ZERO * top < abs(v) < BAND_NONZERO * top for v in e)
    r = max(0, n - min(nonzero))
    s = max(0, max(nonzero) - n)
    m2 = n >= 2 and abs(e[n - 2]) >= BAND_NONZERO * top
    return r, s, m2, ambiguous


def sample_points(rng, count):
    """(t, z) pairs: t = q^(1/4) with q in about (0.13, 0.66), z real > 1."""
    return [(mpf(rng.uniform(0.6, 0.9)), mpf(rng.uniform(1.2, 3.0))) for _ in range(count)]


def residual(lhs, parts):
    scale = max([abs(lhs)] + [abs(v) for v in parts])
    return abs(lhs - sum(parts, mpf(0))) / scale if scale else mpf(0)


def parse_text(line):
    """A `key=value` text record back into {key: value-string}."""
    return dict(
        (m.group(1), m.group(2).strip('"'))
        for m in re.finditer(r'(\S+?)=("(?:[^"\\]|\\.)*"|\S+)', line)
    )


def _text_agrees(line, rec):
    fields = parse_text(line)
    for key in ("check", "status", "n", "name", "verdict"):
        if key in rec and fields.get(key) != str(rec[key]):
            return False
    return True


# -- the four workloads -------------------------------------------------------


def check_sweep(data, seed, lines=None):
    problems = []
    reports, summary = data["reports"], data["summary"]
    nmax = data["nmax"]
    failed = sum(rep["status"] != "pass" for rep in reports)
    failed += summary["status"] != "pass"
    want = [(kind, n) for n in range(nmax + 1) for kind in ("sq-relation", "dq-relation")]
    if [(rep["check"], rep["n"]) for rep in reports] != want:
        problems.append("sweep: reports are not the S_q, D_q pairs for n = 0..%d" % nmax)
    if lines is not None and (
        len(lines) != len(reports) + 1
        or not all(_text_agrees(ln, rep["record"]) for ln, rep in zip(lines, reports))
        or not _text_agrees(lines[-1], summary)
    ):
        problems.append("sweep: text records disagree with the reports")
    rng = random.Random(seed)
    with mp.workdps(DPS):
        points = [
            (t, z, family_values(t, lattice(t, z)[0], nmax + 1))
            for t, z in sample_points(rng, SWEEP_POINTS)
        ]
        for rep in reports:
            if rep["status"] != "pass":
                continue
            n, kind = rep["n"], rep["check"][:2]
            offs = {int(k): v for k, v in rep["coefficients"].items()}
            label = "sweep: %s n=%d" % (kind, n)
            band = (max(0, -min(offs)), max(0, max(offs))) if offs else (0, 0)
            if tuple(rep["bandwidth"]) != band:
                problems.append("%s: bandwidth %s, offsets give %s" % (label, rep["bandwidth"], band))
            if kind == "dq" and n >= 2:
                if tuple(rep["bandwidth"]) != (2, 1):
                    problems.append("%s: bandwidth %s, not (2, 1)" % (label, rep["bandwidth"]))
                if -2 not in offs or not offs[-2][0]:
                    problems.append("%s: offset -2 coefficient is zero" % label)
            for t, z, vals in points:
                parts = [scalar_value(v, t, n) * vals[n + k] for k, v in offs.items() if n + k >= 0]
                res = residual(relation_lhs(kind, n, t, z), parts)
                if not res < RESIDUAL_TOL:
                    problems.append("%s: relation residual %s at t=%s" % (label, mp.nstr(res, 3), mp.nstr(t, 8)))
                    break
    if not (
        summary.get("nmax") == nmax
        and summary.get("max_r") == 2
        and summary.get("max_s") == 1
        and summary.get("offset_m2_all_nonzero") is True
    ) and summary["status"] == "pass":
        problems.append("sweep: bandwidth summary %s is not (2, 1) with offset -2 nonzero" % summary)
    return SWEEP_OPS, failed, problems


_WORST = re.compile(r"^(sq|dq) n=(\d+) q=(\S+) x=(\S+) (\S+)$")


def check_witness(data, seed, lines=None):
    problems = []
    summary = data["summary"]
    failed = int(summary["status"] != "pass")
    if lines is not None and not (len(lines) == 1 and _text_agrees(lines[0], summary)):
        problems.append("witness: text record disagrees with the summary")
    if failed:
        return WITNESS_OPS, failed, problems
    dev = summary["max_rel_dev"]
    if not 0.0 <= dev < data["rel_tol"]:
        problems.append("witness: max_rel_dev %r is not below %r" % (dev, data["rel_tol"]))
    m = _WORST.match(summary.get("worst", ""))
    if m is None:
        problems.append("witness: worst point %r is not a grid label" % summary.get("worst"))
        return WITNESS_OPS, failed, problems
    kind, n, q0, x0 = m.group(1), int(m.group(2)), float(m.group(3)), float(m.group(4))
    if n > data["nmax"] or q0 not in data["q_samples"] or x0 not in data["x_samples"]:
        problems.append("witness: worst point %r lies off the grid" % summary["worst"])
        return WITNESS_OPS, failed, problems
    rng = random.Random(seed)
    with mp.workdps(DPS):
        t = mpf(q0) ** mpf(0.25)
        x = mpf(x0)
        z = x + (x * x - 1) ** mpf(0.5)
        e = expansion(kind, n, t, rng)
        band = range(n - 1, n + 1) if kind == "sq" else range(n - 2, n + 2)
        outside = [abs(v) for k, v in enumerate(e) if k not in band]
        top = max(abs(v) for v in e)
        if outside and max(outside) > BAND_ZERO * top:
            problems.append("witness: %s n=%d leaves the band at q=%g" % (kind, n, q0))
        vals = family_values(t, x, n + 1)
        parts = [e[k] * vals[k] for k in band if 0 <= k < len(e)]
        res = residual(relation_lhs(kind, n, t, z), parts)
        if not res < RESIDUAL_TOL:
            problems.append("witness: mpmath residual %s at the worst point" % mp.nstr(res, 3))
    return WITNESS_OPS, failed, problems


def check_oracle(data, seed, lines=None):
    problems = []
    oracle, certs, coherence = data["oracle"], data["certificates"], data["coherence"]
    failed = sum(item["record"]["status"] != "pass" for item in oracle)
    failed += sum(c["verdict"] != "zero" for c in certs)
    failed += sum(rec["status"] != "pass" for rec in coherence)
    nmax, ks = data["nmax"], data["k_samples"]
    want = [(label, n) for label in ("counterexample", "generic") for n in range(nmax + 1)]
    if [(i["record"]["params"], i["record"]["n"]) for i in oracle] != want:
        problems.append("oracle: records are not n = 0..%d for both parameter sets" % nmax)
        return ORACLE_OPS, failed, problems
    if tuple(c["name"] for c in certs) != CERTIFICATES:
        problems.append("oracle: certificate names %s" % [c["name"] for c in certs])
    names = CERTIFICATES[:10]
    if [(r["name"], r["k"]) for r in coherence] != [(nm, k) for k in ks for nm in names]:
        problems.append("oracle: coherence records are not the 10 identities at k = %s" % ks)
    records = [i["record"] for i in oracle] + certs + coherence
    if lines is not None and (
        len(lines) != len(records)
        or not all(_text_agrees(ln, rec) for ln, rec in zip(lines, records))
    ):
        problems.append("oracle: text records disagree with the results")
    rng = random.Random(seed)
    with mp.workdps(DPS):
        points = sample_points(rng, ORACLE_POINTS)
        for item in oracle:
            rec = item["record"]
            if rec["status"] != "pass":
                continue
            n, coeffs = rec["n"], item["coefficients"]
            label = "oracle: %s n=%d" % (rec["params"], n)
            if len(coeffs) != n + 1:
                problems.append("%s: degree %d" % (label, len(coeffs) - 1))
                continue
            for t, z in points:
                x = lattice(t, z)[0]
                a, b, c, q = oracle_params(rec["params"], t)
                parts = [scalar_value(v, t) * x ** k for k, v in enumerate(coeffs)]
                res = residual(monic_3phi2(n, a, b, c, q, x), parts)
                if not res < RESIDUAL_TOL:
                    problems.append("%s: differs from the 3phi2 by %s" % (label, mp.nstr(res, 3)))
                    break
    return ORACLE_OPS, failed, problems


def check_reference(data, seed, lines=None):
    problems = []
    rows, summary, nmax = data["rows"], data["summary"], data["nmax"]
    # rows carry no status of their own: when the program's summary fails,
    # the rows off (2, 1) are its failed operations (at least one)
    off_band = {row[0] for row in rows if tuple(row[1:]) != (2, 1)}
    failed = max(1, len(off_band)) if summary["status"] != "pass" else 0
    if [row[0] for row in rows] != list(range(2, nmax + 1)):
        problems.append("reference: rows are not n = 2..%d" % nmax)
    rng = random.Random(seed)
    with mp.workdps(DPS):
        ts = [mpf(rng.uniform(0.6, 0.9)) for _ in range(REFERENCE_TS)]
        for n, r, s in rows:
            if failed and n in off_band:
                continue
            for t in ts:
                nr, ns, m2, ambiguous = numeric_band(expansion("dq", n, t, rng), n)
                if ambiguous or (nr, ns) != (r, s) or not m2:
                    problems.append(
                        "reference: n=%d row (%d, %d), mpmath gives (%d, %d) with offset -2 %s"
                        % (n, r, s, nr, ns, "nonzero" if m2 else "not certainly nonzero")
                    )
                    break
    ok_summary = (
        summary.get("max_r") == 2
        and summary.get("max_s") == 1
        and summary.get("offset_m2_all_nonzero") is True
    )
    if ok_summary != (summary["status"] == "pass"):
        problems.append("reference: summary %s contradicts its status" % summary)
    return REFERENCE_OPS, failed, problems


CHECKS = {
    "sweep": check_sweep,
    "witness": check_witness,
    "oracle": check_oracle,
    "reference": check_reference,
}
