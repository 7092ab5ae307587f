"""Basis expansion and the per-index verification of both relations."""

import itertools
import random

import pytest

from qaw import structure
from qaw.awcore import ALPHA2M1, OperatorContext, context, u2
from qaw.cli import main
from qaw.families import (
    C_SYM,
    FamilyParams,
    OPSFamily,
    coeff_suite,
    counterexample_family,
    dual_qhahn_family,
)
from qaw.scalar import ONE, Scalar, T, U, ZERO, rational, tpow
from qaw.structure import (
    _Widen,
    _expand_int,
    _expected,
    _int_recurrence,
    _lincomb,
    _stride,
    _offsets_report,
    _zmonic_next,
    bandwidth_scan,
    expand_in_basis,
    iter_proposition_reports,
    structure_relation,
)
from qaw.zsym import XPoly

X = XPoly.x()
CTX = context()


def bumped_family(bump):
    """The counterexample family with bump added to b_3."""
    base = counterexample_family()

    def rec_b(n):
        return base.rec_b(n) + bump if n == 3 else base.rec_b(n)

    return OPSFamily(base.rec_a, rec_b)


def x_side_expansion(check, n, fam, ctx):
    """{k: e_k}, nonzero only, of S_q p_n or U_2 D_q p_n, expanded from its
    x-form by `expand_in_basis`: the Q(t, u) reference for the kernel."""
    pn = fam.poly(n)
    g = ctx.sq(pn) if check == "sq-relation" else u2() * ctx.dq(pn)
    return {k: c for k, c in enumerate(expand_in_basis(g, fam)) if c}


def test_expand_examples():
    fam = counterexample_family()
    assert expand_in_basis(fam.poly(3), fam) == [ZERO, ZERO, ZERO, ONE]
    assert expand_in_basis(X, fam) == [fam.rec_a(0), ONE]
    assert expand_in_basis(XPoly.zero(), fam) == []


def test_expand_roundtrip():
    # resumming with fam.poly, the z-side recurrence, undoes the Jacobi
    # loop, for rational coefficients and for Laurent ones in t and u, on
    # the counterexample, (1, t, -t | t^2) and a_n = 2^70 past a 64-bit slot
    families = (
        counterexample_family(),
        dual_qhahn_family(FamilyParams(ONE, tpow(1), -tpow(1), tpow(2))),
        OPSFamily(lambda n: rational(2**70), lambda n: ONE),
    )
    monomials = (ONE, T, U, tpow(-3), T * U, U ** -2)
    for fam in families:
        ps = [fam.poly(k) for k in range(11)]
        rng = random.Random(41)
        cases = [
            XPoly([rational(rng.randint(-9, 9)) for _ in range(rng.randint(1, 11))])
            for _ in range(15)
        ]
        cases += [
            XPoly(
                sum((rational(rng.randint(-9, 9), rng.randint(1, 5)) * m for m in monomials), ZERO)
                for _ in range(rng.randint(1, 6))
            )
            for _ in range(6)
        ]
        for f in cases:
            coeffs = expand_in_basis(f, fam)
            assert sum((p.scale(c) for p, c in zip(ps, coeffs)), XPoly.zero()) == f


def test_structure_relation_n0():
    fam = counterexample_family()
    rep = structure_relation(fam, 0)
    assert rep.coefficients == {}
    assert rep.bandwidth == (0, 0)
    # it compares against no closed form, so it claims no verdict
    assert rep.status == "unchecked"


def test_structure_relation_n1():
    fam = counterexample_family()
    rep = structure_relation(fam, 1)
    # D_q P_1 = 1, so the relation just expands U_2 itself
    oracle = expand_in_basis(u2(), fam)
    assert rep.coefficients[1] == oracle[2] == ALPHA2M1
    assert rep.coefficients[0] == oracle[1]
    assert rep.coefficients[-1] == oracle[0]
    assert rep.bandwidth == (1, 1)


def test_structure_relation_n5():
    fam = counterexample_family()
    rep = structure_relation(fam, 5)
    assert rep.bandwidth == (2, 1)
    assert not rep.coefficients[-2].is_zero


def test_relation_coefficients_match_closed_forms():
    fam = counterexample_family()
    s = coeff_suite()
    for n in range(2, 11):
        rep = structure_relation(fam, n)
        assert rep.coefficients[1] == s.c_n1.instantiate_n(n)
        assert rep.coefficients[0] == s.c_n2.instantiate_n(n)
        assert rep.coefficients[-1] == s.c_n3.instantiate_n(n)
        assert rep.coefficients[-2] == s.c_n4.instantiate_n(n)


def test_relation_matches_x_side_pipeline():
    # a non-integral family is refused instead, see
    # test_corrupted_coefficient_fails[non-integral]
    fam = counterexample_family()
    for n in range(11):
        rep = structure_relation(fam, n)
        direct = expand_in_basis(u2() * CTX.dq(fam.poly(n)), fam)
        for k, c in enumerate(direct):
            assert rep.coefficients.get(k - n, ZERO) == c


def test_residuals_reported_on_mismatch():
    fam = counterexample_family()
    offs = structure_relation(fam, 2).coefficients
    rep = _offsets_report("dq-relation", 2, {o + 2: c for o, c in offs.items()}, {0: ONE})
    assert rep.status == "fail"
    assert rep.residuals
    rec = rep.record()
    assert rec["status"] == "fail" and rec["residual_count"] == len(rep.residuals)


def test_verify_proposition_base():
    reports = list(iter_proposition_reports(0))
    assert [r.check for r in reports] == ["sq-relation", "dq-relation"]
    assert all(r.status == "pass" for r in reports)


def test_negative_nmax_is_refused():
    # the generator itself refuses, rather than yielding nothing
    with pytest.raises(ValueError, match="nonnegative"):
        list(iter_proposition_reports(-1))


def test_verify_proposition_small_sweep():
    reports = list(iter_proposition_reports(8))
    assert len(reports) == 18
    assert all(r.status == "pass" for r in reports)
    sq = [r for r in reports if r.check == "sq-relation" and r.n >= 1]
    assert all(r.bandwidth == (1, 0) for r in sq)


def test_sweep_matches_scalar_reference():
    # the integer sweep against the Q(t, u) operator pipeline on the x side
    fam = counterexample_family()
    ctx = context()
    reports = list(iter_proposition_reports(10, fam))
    assert len(reports) == 22
    for rep in reports:
        ex = x_side_expansion(rep.check, rep.n, fam, ctx)
        expected = _expected(rep.check, rep.n)
        ref = _offsets_report(rep.check, rep.n, ex, expected)
        assert rep.coefficients == ref.coefficients
        assert rep.bandwidth == ref.bandwidth
        assert rep.status == ref.status
        assert rep.record() == ref.record()


@pytest.mark.parametrize(
    "bump, integral",
    [(tpow(5), True), (rational(1, 3), False)],
    ids=["integral", "non-integral"],
)
def test_corrupted_coefficient_fails(bump, integral):
    fam = bumped_family(bump)
    if not integral:
        # a b_3 with 4 b_3 not integral has no route: every entry point that
        # reads b_3 raises, and those that stop short of it still pass
        for read_b3 in (
            lambda: _int_recurrence(fam, 3),
            lambda: list(iter_proposition_reports(6, fam)),
            lambda: structure_relation(fam, 6),
            lambda: bandwidth_scan(fam, u2(), 6),
        ):
            with pytest.raises(ValueError, match="integral 2 a_n and 4 b_n"):
                read_b3()
        assert all(r.status == "pass" for r in iter_proposition_reports(2, fam))
        return
    reports = list(iter_proposition_reports(6, fam))
    assert len(reports) == 14
    # P_0 .. P_3 do not read b_3; the D_q relation at n = 3 expands
    # against P_4, which does
    assert all(r.status == "pass" for r in reports if r.n < 3)
    assert [r.status for r in reports if r.n == 3] == ["pass", "fail"]
    late = [r for r in reports if r.n > 3]
    assert all(r.status == "fail" and r.residuals for r in late)


def test_degree_sanity():
    fam = counterexample_family()
    w = u2()
    for n in range(1, 11):
        assert (w * CTX.dq(fam.poly(n))).degree == n + 1


def test_bandwidth_scan():
    fam = counterexample_family()
    summary = bandwidth_scan(fam, u2(), 8)
    assert summary.status == "pass"
    assert (summary.max_r, summary.max_s) == (2, 1)
    assert summary.offset_m2_all_nonzero
    rec = summary.record()
    assert rec["check"] == "bandwidth" and rec["nmax"] == 8
    with pytest.raises(ValueError):
        bandwidth_scan(fam, u2(), 1)


def test_bandwidth_scan_reuses_reports():
    fam = counterexample_family()
    reports = list(iter_proposition_reports(6, fam))
    summary = bandwidth_scan(fam, u2(), 6, reports=reports)
    assert summary.status == "pass"
    assert summary.nmax == 6
    # a missing n is an error, not a recomputation
    with pytest.raises(ValueError):
        bandwidth_scan(fam, u2(), 6, reports=[r for r in reports if r.n != 3])
    # structure_relation reports carry the sweep's D_q label
    single = [structure_relation(fam, n) for n in range(2, 7)]
    assert {r.check for r in single} == {"dq-relation"}
    assert bandwidth_scan(fam, u2(), 6, reports=single).rows == summary.rows


def test_pi_other_than_u2_is_refused():
    fam = counterexample_family()
    with pytest.raises(ValueError):
        bandwidth_scan(fam, X, 3)


def test_integral_family_never_takes_the_qtu_route(monkeypatch):
    fam = counterexample_family()

    def refuse(*args):
        raise AssertionError("Q(t, u) route for an integral family")

    monkeypatch.setattr(structure, "expand_in_basis", refuse)
    monkeypatch.setattr(OperatorContext, "dq_sym", refuse)
    rep = structure_relation(fam, 8)
    assert rep.bandwidth == (2, 1) and rep.status == "unchecked"
    assert bandwidth_scan(fam, u2(), 8).status == "pass"


# (a, b, c, base) and whether the lower bandwidth stays at 2 for n <= 8:
# the counterexample, its mirror under x -> -x (all parameters negated),
# (1, t, -t | t^2), then four perturbations whose lower bandwidth is n
NEIGHBOURS = {
    "1,-1,t|t^2": ((ONE, rational(-1), tpow(1), tpow(2)), True),
    "1,-1,-t|t^2": ((ONE, rational(-1), -tpow(1), tpow(2)), True),
    "1,t,-t|t^2": ((ONE, tpow(1), -tpow(1), tpow(2)), True),
    "1,-1,t^3|t^2": ((ONE, rational(-1), tpow(3), tpow(2)), False),
    "t,-t,t^3|t^2": ((tpow(1), -tpow(1), tpow(3), tpow(2)), False),
    "1,-1,t|t^4": ((ONE, rational(-1), tpow(1), tpow(4)), False),
    "t,t^2,t^3|t^4": ((tpow(1), tpow(2), tpow(3), tpow(4)), False),
}


@pytest.mark.parametrize("label", list(NEIGHBOURS))
def test_neighbourhood_bandwidths(label):
    params, bounded = NEIGHBOURS[label]
    fam = dual_qhahn_family(FamilyParams(*params))
    summary = bandwidth_scan(fam, u2(), 8)
    assert summary.rows == [(n, 2 if bounded else n, 1) for n in range(2, 9)]
    assert summary.status == ("pass" if bounded else "fail")
    assert_dq_matches_qtu_route(fam, 6)


def assert_dq_matches_qtu_route(fam, nmax):
    """The kernel's D_q expansions for n <= nmax against the Q(t, u) reference."""
    ctx = context()
    for rep in iter_proposition_reports(nmax, fam):
        if rep.check == "dq-relation":
            ref = x_side_expansion(rep.check, rep.n, fam, ctx)
            assert rep.coefficients == {k - rep.n: v for k, v in ref.items()}


# the grid of ROADMAP item 2 at base t^2: every 3-subset of
# {1, -1, t, -t, t^2} as (a, b, c), the family being symmetric in them
GRID_VALUES = {"1": ONE, "-1": rational(-1), "t": tpow(1), "-t": -tpow(1), "t^2": tpow(2)}
GRID = [",".join(labels) for labels in itertools.combinations(GRID_VALUES, 3)]


@pytest.mark.parametrize("label", GRID)
def test_neighbourhood_grid(label):
    labels = label.split(",")
    a, b, c = (GRID_VALUES[v] for v in labels)
    fam = dual_qhahn_family(FamilyParams(a, b, c, tpow(2)))
    summary = bandwidth_scan(fam, u2(), 8)
    # the four 3-subsets of {1, -1, t, -t} keep (2, 1) with c_{n,4} != 0;
    # the six sets with t^2 have r = n, up to r = 8
    bounded = "t^2" not in labels
    assert summary.rows == [(n, 2 if bounded else n, 1) for n in range(2, 9)]
    assert summary.status == ("pass" if bounded else "fail")
    if bounded:
        assert summary.offset_m2_all_nonzero
    # where r = n, E_k is nonzero down to k = 0
    assert_dq_matches_qtu_route(fam, 5)


def scan_families():
    """(label, family, nmax) for the scans that must not need reports."""
    yield "counterexample", counterexample_family(), 14
    for label, (params, _) in NEIGHBOURS.items():
        yield label, dual_qhahn_family(FamilyParams(*params)), 8
    for label in GRID:
        params = (GRID_VALUES[v] for v in label.split(","))
        yield label, dual_qhahn_family(FamilyParams(*params, tpow(2))), 8
    yield "bumped", bumped_family(tpow(5)), 6


def test_scan_without_reports_matches_the_sweep():
    for label, fam, nmax in scan_families():
        reports = list(iter_proposition_reports(nmax, fam))
        want = bandwidth_scan(fam, u2(), nmax, reports=reports)
        got = bandwidth_scan(fam, u2(), nmax)
        assert got == want, label
        assert got.record() == want.record(), label
    with pytest.raises(ValueError, match="integral 2 a_n and 4 b_n"):
        bandwidth_scan(bumped_family(rational(1, 3)), u2(), 6)


# each has b_1 = (1 - ab)(1 - ac)(1 - bc)(1 - q)/4 = 0, so its recurrence
# defines no orthogonal family (Favard), and the scan must not read it as
# a bandwidth failure
DEGENERATE = {
    "1,1,t|t^2": (ONE, ONE, tpow(1)),
    "-1,-1,-t|t^2": (rational(-1), rational(-1), -tpow(1)),
    "-1,1,1|t^2": (rational(-1), ONE, ONE),
}


@pytest.mark.parametrize("label", list(DEGENERATE))
def test_degenerate_family_is_refused(label):
    fam = dual_qhahn_family(FamilyParams(*DEGENERATE[label], tpow(2)))
    assert fam.rec_b(1) == ZERO
    with pytest.raises(ValueError, match="b_1"):
        bandwidth_scan(fam, u2(), 8)
    with pytest.raises(ValueError, match="b_1"):
        list(iter_proposition_reports(8, fam))


def test_scan_and_relation_expand_only_u2_dq(monkeypatch):
    def refuse(*args):
        raise AssertionError("the scan reached the report path")

    for name in ("_sq_rows", "_int_scalar", "_expected", "_offsets_report"):
        monkeypatch.setattr(structure, name, refuse)
    summary = bandwidth_scan(counterexample_family(), u2(), 14)
    assert summary.status == "pass"
    assert summary.rows == [(n, 2, 1) for n in range(2, 15)]
    monkeypatch.undo()
    calls = []
    rows = structure._dq_rows

    def spy(*args):
        calls.append(args[0])
        return rows(*args)

    monkeypatch.setattr(structure, "_sq_rows", refuse)
    monkeypatch.setattr(structure, "_dq_rows", spy)
    rep = structure_relation(counterexample_family(), 8)
    assert rep.status == "unchecked" and rep.bandwidth == (2, 1)
    # one expansion, of the nine rows of Q_8
    assert [len(q) for q in calls] == [9]


def test_wrong_dq_factor_fails_every_dq_relation(monkeypatch):
    # t^2 + t^-2 in place of the factor that the D_q rows leave out: the
    # factored elimination cannot silently agree with the closed forms
    monkeypatch.setattr(structure, "_T2_DIFF", {2: 1, -2: 1})
    status = {(r.check, r.n): r.status for r in iter_proposition_reports(6)}
    assert {status["sq-relation", n] for n in range(7)} == {"pass"}
    # U_2 D_q P_0 = 0, which any factor keeps
    assert status["dq-relation", 0] == "pass"
    assert {status["dq-relation", n] for n in range(1, 7)} == {"fail"}
    assert main(["verify", "proposition", "--n-max", "6"]) == 1
    # the float witness reads no kernel rows, so the fault is not its to see
    assert main(["verify", "numeric", "--n-max", "6"]) == 0


def test_stride_follows_the_data():
    # g = 2 exactly when every 2 a_m has odd and every 4 b_m even exponents
    assert _stride(_int_recurrence(counterexample_family(), 20)) == 2
    # (1, t, -t | t^2) is bounded at stride 1: its 2 a_1 = t^6 + t^4
    stride_1 = {"1,t,-t|t^2", "t,t^2,t^3|t^4"}
    for label, (params, _) in NEIGHBOURS.items():
        rec = _int_recurrence(dual_qhahn_family(FamilyParams(*params)), 8)
        assert _stride(rec) == (1 if label in stride_1 else 2), label
    assert _stride(_int_recurrence(bumped_family(tpow(5)), 6)) == 1


def big_a_family():
    """a_n = 64, b_n = 1: ||2 a_0||_1 = 128 fills an 8-bit slot at once."""
    return OPSFamily(lambda n: rational(64), lambda n: ONE)


@pytest.mark.parametrize(
    "make, nmax, first",
    [
        # widens twice, so rows repacked once are repacked again
        (counterexample_family, 16, None),
        (lambda: bumped_family(tpow(5)), 6, None),
        # the first widening fires while only Q_0 is stored, i.e. in the
        # recurrence step that builds Q_1, not in an elimination; its
        # bound 128 needs 9 bits, and 8 more to spare make 24
        (big_a_family, 5, 24),
    ],
    ids=["counterexample", "bumped", "big-a"],
)
def test_tiny_slot_width_widens_to_the_same_reports(monkeypatch, make, nmax, first):
    def reports():
        return [(r.record(), r.coefficients) for r in iter_proposition_reports(nmax, make())]

    want = reports()
    events = []
    zmonic_next, repack = structure._zmonic_next, structure._repack

    def spy_next(qs, a2, b4, w, g):
        rows = zmonic_next(qs, a2, b4, w, g)
        events.append(("built", len(qs), w))
        return rows

    def spy_repack(row, w, w2):
        events.append(("repacked", w, w2))
        return repack(row, w, w2)

    monkeypatch.setattr(structure, "_SLOT_BITS", 8)
    monkeypatch.setattr(structure, "_zmonic_next", spy_next)
    monkeypatch.setattr(structure, "_repack", spy_repack)
    assert reports() == want
    # every Q_k, k = 1 .. nmax + 1, was built once: widening repacks the
    # stored rows and never rebuilds them from the recurrence
    assert [k for e, k, _ in events if e == "built"] == list(range(1, nmax + 2))
    # each widening repacks the stored rows from one width to the next,
    # starting from 8 bits
    steps = list(dict.fromkeys((w, w2) for e, w, w2 in events if e == "repacked"))
    assert steps and steps[0][0] == 8
    assert all(w < w2 for w, w2 in steps)
    assert all(a[1] == b[0] for a, b in zip(steps, steps[1:]))
    if first:
        # one row repacked, then Q_1 built at the new width
        assert events[:2] == [("repacked", 8, first), ("built", 1, first)]


def test_wide_recurrence_coefficient_matches_qtu_route():
    # 2 a_0 = 2^71 is past the default slot width before any elimination
    fam = OPSFamily(lambda n: rational(2**70), lambda n: ONE)
    ctx = context()
    reps = list(iter_proposition_reports(4, fam))
    assert len(reps) == 10
    for rep in reps:
        ref = x_side_expansion(rep.check, rep.n, fam, ctx)
        assert rep.coefficients == {k - rep.n: v for k, v in ref.items()}


# Sparse {k: E_k}: gaps between the indices, k = 0 and the top k = 9,
# coefficients +-1, +-2^j, +-3 and large.  Every exponent of E_k is
# k mod 2, so at stride 2 each row of sum E_k Q_k keeps one parity.
KNOWN_E = {
    9: {1: 1, -3: -2**5},
    6: {0: -1, 4: 3, -2: 2**70 + 1},
    5: {1: -3, 3: 2},
    2: {2: -(2**64)},
    0: {0: 2**90, -4: -(3**50), 6: 1},
}


@pytest.mark.parametrize("g", [2, 1])
def test_expand_int_known_answer(g):
    params = NEIGHBOURS["1,-1,t|t^2" if g == 2 else "t,t^2,t^3|t^4"][0]
    rec = _int_recurrence(dual_qhahn_family(FamilyParams(*params)), 10)
    assert _stride(rec) == g
    w = 512
    qs = [[(1, 0, 1)]]
    while len(qs) < 10:
        qs.append(_zmonic_next(qs, *rec[len(qs) - 1], w, g))
    work = {
        m: _lincomb([(e, qs[k][m]) for k, e in KNOWN_E.items() if k >= m], w, g)
        for m in range(10)
    }
    assert _expand_int(work, qs, w, g) == KNOWN_E
    # row 0 is solved last, with every other E_k subtracted; its bound is
    # B(work[0]) + sum ||E_k||_1 B(Q_k[0]), and _Widen fires exactly when
    # that reaches 2^(w - 1)
    subs = sum(
        sum(map(abs, e.values())) * qs[k][0][2]
        for k, e in KNOWN_E.items()
        if k and qs[k][0][0]
    )
    p, o, _ = work[0]
    work[0] = (p, o, (1 << (w - 1)) - subs - 1)
    assert _expand_int(work, qs, w, g) == KNOWN_E
    work[0] = (p, o, (1 << (w - 1)) - subs)
    with pytest.raises(_Widen):
        _expand_int(work, qs, w, g)


def test_offset_off_the_stride_is_refused(monkeypatch):
    unit = (1, 0, 1)
    one = _lincomb([({0: 1}, unit)], 64, 2)
    t = _lincomb([({1: 1}, unit)], 64, 2)
    with pytest.raises(ArithmeticError):
        _lincomb([({0: 1}, one), ({0: 1}, t)], 64, 2)
    with pytest.raises(ArithmeticError):
        _lincomb([({0: 1, 1: 1}, unit)], 64, 2)
    # the kernel at stride 2 on families whose data need stride 1
    monkeypatch.setattr(structure, "_stride", lambda rec: 2)
    params, _ = NEIGHBOURS["t,t^2,t^3|t^4"]
    for fam in (dual_qhahn_family(FamilyParams(*params)), bumped_family(tpow(5))):
        with pytest.raises(ArithmeticError):
            list(iter_proposition_reports(6, fam))


def test_offset_m2_witness():
    # c_{n,4} factors as C_{n-1} C_n u^-1 t (t^2 - t^-2)/2, and C_n
    # vanishes only at n = 0, which pins the bandwidth at r = 2 from n = 2 on
    s = coeff_suite()
    got = s.c_n4
    assert got == C_SYM.shift_n(-1) * C_SYM / U * T * (tpow(2) - tpow(-2)) / 2
    assert not got.is_zero
    # spot value at n = 2: c_1 C_2 - alpha c_2 C_1
    alpha = (tpow(2) + tpow(-2)) * Scalar.parse("1/2")
    c1, c2 = s.c_n.instantiate_n(1), s.c_n.instantiate_n(2)
    C1, C2 = s.C_n.instantiate_n(1), s.C_n.instantiate_n(2)
    assert got.instantiate_n(2) == c1 * C2 - alpha * c2 * C1


def test_expand_work_bound(monkeypatch):
    # a term counts once per 64 bits of its numerator and denominator
    fam = counterexample_family()
    monkeypatch.setattr(structure, "MAX_EXPAND_WORK", 10)
    ten_terms = sum((tpow(i) for i in range(10)), ZERO)
    for c in (ten_terms, rational(2**600), rational(1, 2**600)):
        assert expand_in_basis(XPoly([c]), fam) == [c]
    for c in (ten_terms + tpow(10), rational(2**640), rational(1, 2**640)):
        with pytest.raises(ValueError, match="beyond 10 units of work"):
            expand_in_basis(XPoly([c]), fam)
