"""Basis expansion and per-n verification of the structure relations.

The family P_n satisfies, for every n,

    S_q P_n       = alpha_n P_n + c_n P_{n-1},
    U_2 D_q P_n   = c_{n,1} P_{n+1} + c_{n,2} P_n + c_{n,3} P_{n-1}
                                                  + c_{n,4} P_{n-2},

with all coefficients given in closed form by `families.coeff_suite`.
This module recomputes the left sides from the recurrence, expands them
in the basis, and compares coefficient by coefficient.  The D_q
relation has bandwidth (2, 1): offsets -2 .. +1, with the -2 entry
provably nonzero from n = 2 on, which is the whole point of the family.

Expansion writes a z-side Laurent polynomial in the basis.  The private
generator `_int_expansions` yields the integer expansions of only the
relations and the n that its caller asks for: `iter_proposition_reports`
reads both relations at every n <= nmax, `structure_relation` the D_q
relation at its one n, and `bandwidth_scan` without reports the D_q
relation at n = 2 .. nmax.  It has one route, over
Z[t^+-][z^+-], and so needs the family's 2 a_n and 4 b_n to be integral,
u-free Laurent polynomials in t, as they are for the counterexample
family and for every family that the CLI builds.  Every entry point
raises ValueError for any other family, and for a family with b_m = 0
at some 1 <= m <= nmax, whose recurrence defines no orthogonal family.
The route uses the z-monic basis Q_n = 2^n P_n,

    Q_{n+1} = (z + z^-1 - 2 a_n) Q_n - 4 b_n Q_{n-1},

and the two operators without division,

    Q_n(t^2 z) + Q_n(t^-2 z)              = 2^(n+1) S_q P_n,
    (z - z^-1)(Q_n(t^2 z) - Q_n(t^-2 z))  = 2^(n+3) U_2 D_q P_n / (t^2 - t^-2).

The second holds because U_2's z-form carries the D_q denominator
(t^2 - t^-2)(z - z^-1)/2, so the multiplier of D_q is fixed to U_2.
Q_k is monic in z, so G = sum E_k Q_k is solved by back-substitution:
row m of G is E_m + sum_{k > m} E_k Q_k[m], and

    E_m = G[m] - sum_{k > m, E_k != 0} E_k Q_k[m],

from the top row down to m = 0, each row one `_lincomb`.  Every row
is formed exactly and tested for zero, and the E_k are integer
Laurent polynomials in t.  The expansion is linear and unique, so the
D_q relation eliminates the second left side above, with 4 terms per
row where its product with t^2 - t^-2 has 8, and its reported E_k are
t^2 - t^-2 times the eliminated E'_k, one `_pmul` for each of the few
nonzero ones.  Reports turn only those E_k into Scalars, scaled by
2^(k-n-1) and 2^(k-n-3) respectively; the bandwidth scan reads the
shape from the indices k alone, which the nonzero factor keeps.
Everything here is symmetric under z -> z^-1, so only the z^m rows
with m >= 0 are kept.

Each row, an integer Laurent polynomial in t, is one Python int
(Kronecker substitution; D. Harvey, J. Symb. Comput. 44 (2009)).  A
row (P, o, B) stands for t^o f(t^g), where P = f(2^w) for a slot
width w common to the whole sweep and B >= max |coeff f|:

* Injectivity.  f -> f(2^w) is a ring homomorphism Z[t] -> Z, and it
  is injective on polynomials with |c| < 2^(w-1): such an f is
  recovered from P as its balanced base-2^w digits, and is zero
  exactly when P is.  Sums, shifts and products therefore act on P
  directly, with no carries to propagate.
* Bounds.  Every row is built by `_lincomb` as a sum of small known
  polynomials e (2 a_m, 4 b_m, t^(2j) +- t^(-2j) and the eliminated
  E_k) times rows, term by term
  as P += (c P_row) << (slots * w), and gets the bound
  B = sum ||e||_1 B_row.  Nearly every c is +-2^j, and such a term is
  the same integer as P +-= P_row << (slots * w + j), one shift and
  one add or subtract.  No row is kept, unpacked or tested for zero
  unless B < 2^(w-1).  A back-substituted row E_m has the bound
  B(G[m]) + sum ||E_k||_1 B(Q_k[m]).  A row of Q_k, which is stored
  and read by every later step, takes instead the least of that bound
  and its digit-read bound (`_digit_bound`): if the top byte of slot
  s of P's biased digits is 128 + k, then c_s lies in
  [k 2^(w-8), (k+1) 2^(w-8)), so max |c_s| <= (max |k| + 1) 2^(w-8).
  The triangle bound compounds at every recurrence step, to 110 bits
  where Q_40's largest coefficient has 69; the digit-read bound does
  not compound.
* Widening.  When a bound b would reach 2^(w-1), the step in progress
  is abandoned, the width grows to the least multiple of 8 above w
  that holds b with _HEADROOM bits to spare, every stored row is
  repacked to it in place, one Q_k at a time, and the step is redone;
  `_Kernel` owns the rows and this loop.  Repacking (`_repack`)
  spreads each biased digit into its wider slot and takes the old bias
  off once, with no arithmetic on the coefficients; a repacked row
  keeps its coefficients and its bound.  The redone step therefore
  meets the same bound b, which now fits.  Rows never wrap, and the
  sweep never refuses a family for its coefficient size.  The only
  rows the sweep ever unpacks are the nonzero E_k.
* Stride.  g = 2 when every exponent of every 2 a_m is odd and every
  exponent of 4 b_m is even, else 1.  Under that rule row m of Q_n
  has only exponents = n + m (mod 2), by induction on the recurrence:
  z^(+-1) Q_n moves row m +- 1 to row m, 2 a_n adds an odd exponent,
  4 b_n Q_{n-1} an even one.  The operators and the elimination keep a
  common parity per row in the same way, so half the slots would be
  zeros at g = 1.  The congruence of the offsets is checked on every
  sum rather than assumed, and a violation raises ArithmeticError.
* x-forms.  `_poly_xrows` turns Q_n to x for `qaw show`, by
  z^m + z^-m = E_m(x), E_{m+1} = 2x E_m - E_{m-1}.  Each x-coefficient
  row is a `_lincomb` of z-rows with the integers of E_m, so it widens
  the same way.  `_unpack` splits a row's biased digits slot by slot.

`expand_in_basis` expands any x-polynomial over Q[t^+-1, u^+-1] in the
basis of any family as f(J) e_0, J the Jacobi matrix of the recurrence
(W. Gautschi, Orthogonal Polynomials, 2004): Horner's rule on J.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple, Sequence

from .awcore import u2
from .families import OPSFamily, coeff_suite, counterexample_family
from .scalar import Rat, Scalar, ZERO, _padd, _pmul
from .zsym import XPoly, _e_table


class StructureReport(NamedTuple):
    """Expansion of one relation at one n, with pass/fail bookkeeping.

    `coefficients` maps offsets k to the computed coefficient of
    p_{n+k}, nonzero entries only; `residuals` lists the nonzero
    differences computed - expected, empty when passing.  A report
    compared against nothing has status `unchecked`.
    """

    check: str
    n: int
    coefficients: dict[int, Scalar]
    bandwidth: tuple[int, int]
    status: str
    residuals: Sequence[tuple[str, Scalar]] = ()

    def record(self) -> dict:
        rec = {
            "check": self.check,
            "n": self.n,
            "status": self.status,
            "bandwidth_r": self.bandwidth[0],
            "bandwidth_s": self.bandwidth[1],
            "residual_count": len(self.residuals),
        }
        if self.residuals:
            rec["residuals"] = [
                "%s: %s" % (label, r.render()) for label, r in self.residuals
            ]
        return rec


# The most work of `expand_in_basis`: v's terms summed over its steps, each
# counted once per 64 bits of its numerator and denominator (~35 us a unit)
MAX_EXPAND_WORK = 300_000


def expand_in_basis(f: XPoly, fam: OPSFamily) -> list[Scalar]:
    """Coefficients e_0 .. e_deg(f) with f = sum e_k p_k, exact.

    Horner's rule on the Jacobi matrix J of x p_k = p_{k+1} + a_k p_k +
    b_k p_{k-1}: v <- J v + f_i e_0 for i = deg f .. 0, where (J v)_k =
    v_{k-1} + a_k v_k + b_{k+1} v_{k+1}.  ValueError past MAX_EXPAND_WORK.
    """
    cs = f.coeffs()
    a = [fam.rec_a(k) for k in range(len(cs))]
    b = [ZERO] + [fam.rec_b(k) for k in range(1, len(cs))] + [ZERO]
    v, work = [], 0
    for c in reversed(cs):
        p = [ZERO, *v, ZERO, ZERO]  # p[k] = v_{k-1}
        v = [p[k] + a[k] * p[k + 1] + b[k + 1] * p[k + 2] for k in range(len(v) + 1)]
        v[0] += c
        rs = [r for e in v for r in e._t.values()]
        work += sum(1 + (r.numerator.bit_length() + r.denominator.bit_length()) // 64 for r in rs)
        if work > MAX_EXPAND_WORK:
            raise ValueError("expansion beyond %d units of work" % MAX_EXPAND_WORK)
    return v


def _offsets_report(
    check: str,
    n: int,
    expansion: dict[int, Scalar],
    expected: dict[int, Scalar] | None,
) -> StructureReport:
    offs = {k - n: v for k, v in expansion.items()}
    residuals: list[tuple[str, Scalar]] = []
    if expected is not None:
        for o in sorted(set(offs) | set(expected), reverse=True):
            diff = offs.get(o, ZERO) - expected.get(o, ZERO)
            if diff:
                residuals.append(("offset%+d" % o, diff))
    if expected is None:
        status = "unchecked"
    else:
        status = "fail" if residuals else "pass"
    return StructureReport(check, n, offs, _bandwidth(offs), status, residuals)


def _bandwidth(offsets) -> tuple[int, int]:
    """(r, s) with the nonzero offsets in -r .. s, r and s at least 0."""
    if not offsets:
        return 0, 0
    return max(0, -min(offsets)), max(0, max(offsets))


def structure_relation(fam: OPSFamily, n: int) -> StructureReport:
    """Expand U_2 D_q p_n in the family basis.

    The report compares against no closed form, so its status is always
    `unchecked`, which `qaw verify` would count as a failure;
    `iter_proposition_reports` is the check against the closed forms.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    ((check, _, shift, ex),) = _int_expansions(fam, range(n, n + 1), ("dq-relation",))
    return _offsets_report(check, n, _scalars(ex, shift), None)


def _closed_forms(check: str) -> dict[int, Scalar]:
    """The closed-form coefficients of relation `check`, symbolic in u, by offset."""
    s = coeff_suite()
    if check == "sq-relation":
        return {0: s.alpha_n, -1: s.c_n}
    return {1: s.c_n1, 0: s.c_n2, -1: s.c_n3, -2: s.c_n4}


def _expected(check: str, n: int) -> dict[int, Scalar]:
    """The closed-form coefficients of relation `check` at n, by offset."""
    return {o: c.instantiate_n(n) for o, c in _closed_forms(check).items() if n + o >= 0}


# t^2 - t^-2 and 1 as {t-exp: int}
_T2_DIFF = {2: 1, -2: -1}
_ONE_T = {0: 1}

# The slot width, in bits, that every integer sweep starts from; it
# grows to what a failing bound needs, and the stored rows are repacked.
# Any multiple of 8 gives the same results, which the tests check at 8;
# 32, with 8 bits to spare at each widening, timed best on the n <= 40
# sweep among starts of 8 to 64 bits and spares of 0 to 16.
_SLOT_BITS = 32
_HEADROOM = 8

# A packed row (P, o, B) stands for t^o f(t^g), with P = f(2^w) and
# B >= max |coeff f|; it is zero exactly when P == 0.
Row = tuple[int, int, int]
_ZERO_ROW: Row = (0, 0, 0)


class _Widen(Exception):
    """A bound b = args[0] reached 2^(w - 1): the step is redone at a width
    that holds b."""


def _int_laurent(s: Scalar, scale: int) -> dict[int, int]:
    """scale * s as {t-exp: int}; ValueError unless integral and u-free."""
    terms = [(i, j, c * scale) for i, j, c in s.laurent_terms()]
    if any(j or c.denominator != 1 for _, j, c in terms):
        raise ValueError("the integer kernel needs integral 2 a_n and 4 b_n in t")
    return {i: int(c) for i, _, c in terms}


def _int_recurrence(fam: OPSFamily, nmax: int) -> list[tuple[dict, dict]]:
    """(2 a_m, 4 b_m) for m <= nmax as integer t-polynomials, by `_int_laurent`.

    b_0 multiplies the zero polynomial Q_-1 and is never read.  A zero
    b_m, m >= 1, raises ValueError: such a recurrence defines no
    orthogonal family (Favard's theorem; Chihara 1978).
    """
    rec = [
        (_int_laurent(fam.rec_a(m), 2), _int_laurent(fam.rec_b(m), 4) if m else {})
        for m in range(nmax + 1)
    ]
    for m in range(1, nmax + 1):
        if not rec[m][1]:
            raise ValueError(
                "degenerate family: b_%d vanishes, so the recurrence"
                " defines no orthogonal family" % m
            )
    return rec


def _stride(rec: list[tuple[dict, dict]]) -> int:
    """2 if every 2 a_m has odd and every 4 b_m even t-exponents, else 1."""
    odd = all(x % 2 for a2, _ in rec for x in a2)
    even = all(x % 2 == 0 for _, b4 in rec for x in b4)
    return 2 if odd and even else 1


def _digits(p: int, w: int) -> bytes:
    """p plus a bias, little-endian: for a row whose bound is below
    2^(w-1), each balanced digit c becomes the plain w-bit c + 2^(w-1)."""
    slots = p.bit_length() // w + 2
    bias = (1 << (w - 1)).to_bytes(w // 8, "little") * slots
    return (p + int.from_bytes(bias, "little")).to_bytes(len(bias), "little")


def _unpack(row: Row, w: int, g: int) -> dict[int, int]:
    """{t-exp: int} of a row whose bound is below 2^(w - 1), slot by slot."""
    p, lo, _ = row
    data, wb, half = _digits(p, w), w // 8, 1 << (w - 1)
    out = {}
    for s in range(len(data) // wb):
        c = int.from_bytes(data[s * wb : (s + 1) * wb], "little") - half
        if c:
            out[lo + g * s] = c
    return out


def _digit_bound(row: Row, w: int) -> int:
    """min(B, (max_s |T_s - 128| + 1) 2^(w-8)) for a row whose bound B is
    below 2^(w - 1), T_s the top byte of slot s's biased digit.

    T_s = 128 + k puts c_s in [k 2^(w-8), (k+1) 2^(w-8)).
    """
    p, _, b = row
    wb = w // 8
    top = _digits(p, w)[wb - 1 :: wb]
    return min(b, (max(max(top) - 128, 128 - min(top)) + 1) << (w - 8))


def _repack(row: Row, w: int, w2: int) -> Row:
    """The row at slot width w2 > w, with its offset and bound: each biased
    digit spread into its wider slot, then the old bias taken off once."""
    p, lo, b = row
    data, wb, wb2 = _digits(p, w), w // 8, w2 // 8
    slots = len(data) // wb
    wide = bytearray(slots * wb2)
    for j in range(wb):
        wide[j::wb2] = data[j::wb]
    bias = (1 << (w - 1)).to_bytes(wb2, "little") * slots
    return int.from_bytes(wide, "little") - int.from_bytes(bias, "little"), lo, b


def _lincomb(terms: list[tuple[dict[int, int], Row]], w: int, g: int) -> Row:
    """The sum of e * row over the (e, row) pairs, each e a small {t-exp: int}.

    Term by term, acc += (c P) << (slots * w), or the equal
    acc +-= P << (slots * w + j) when c = +-2^j (a zero c adds nothing),
    with the bound sum ||e||_1 B.  Raises _Widen when that bound reaches
    2^(w - 1), and ArithmeticError when two terms' exponents are not
    congruent mod g.
    """
    live = [(e, r) for e, r in terms if e and r[0]]
    if not live:
        return _ZERO_ROW
    b = sum(sum(map(abs, e.values())) * r[2] for e, r in live)
    if b >> (w - 1):
        raise _Widen(b)
    lo = min(r[1] + min(e) for e, r in live)
    acc = 0
    for e, (p, o, _) in live:
        for x, c in e.items():
            s, off = divmod(o + x - lo, g)
            if off:
                raise ArithmeticError("t^%d is off the stride %d" % (o + x, g))
            if c > 0 and not c & (c - 1):
                acc += p << (s * w + c.bit_length() - 1)
            elif c < 0 and not -c & (-c - 1):
                acc -= p << (s * w + c.bit_length() - 1)
            else:
                acc += (c * p) << (s * w)
    return (acc, lo, b) if acc else _ZERO_ROW


def _row(q: list[Row], m: int) -> Row:
    return q[m] if m < len(q) else _ZERO_ROW


def _twin(j: int, sign: int) -> dict[int, int]:
    """t^(2j) + sign t^(-2j)."""
    return _padd({2 * j: 1}, {-2 * j: sign})


def _zmonic_next(qs: list[list[Row]], a2: dict, b4: dict, w: int, g: int) -> list[Row]:
    """Q_{k+1} = (z + z^-1 - 2 a_k) Q_k - 4 b_k Q_{k-1}, k = len(qs) - 1.

    Each Q_k is kept as its rows of z^m, m = 0..k; its z^-1 row is its
    z^1 row, by symmetry.  Each row takes its digit-read bound, since it
    is stored and read by every later step.
    """
    cur = qs[-1]
    prev = qs[-2] if len(qs) > 1 else []
    na = {x: -c for x, c in a2.items()}
    nb = {x: -c for x, c in b4.items()}
    rows = [
        _lincomb(
            [
                (_ONE_T, _row(cur, abs(m - 1))),
                (_ONE_T, _row(cur, m + 1)),
                (na, _row(cur, m)),
                (nb, _row(prev, m)),
            ],
            w,
            g,
        )
        for m in range(len(cur) + 1)
    ]
    return [(r[0], r[1], _digit_bound(r, w)) if r[0] else r for r in rows]


class _Kernel:
    """The z-rows `qs` of Q_0, Q_1, ... of an integral family, at stride g
    and a slot width w that grows to what a failing bound needs."""

    def __init__(self, fam: OPSFamily, nmax: int):
        self.rec = _int_recurrence(fam, nmax)
        self.g, self.w = _stride(self.rec), _SLOT_BITS
        self.qs: list[list[Row]] = [[(1, 0, 1)]]

    def fit(self, step: Callable):
        """step(qs, w, g), redone after each widening, which repacks qs in place.

        The new width is the least multiple of 8 above w that holds the
        failing bound with _HEADROOM bits to spare.  A repacked row keeps
        its bound, so the redone step meets the same bound, which fits.
        """
        while True:
            try:
                return step(self.qs, self.w, self.g)
            except _Widen as e:
                need = e.args[0].bit_length() + 1 + _HEADROOM
                w = max(self.w + 8, -(-need // 8) * 8)
                for q in self.qs:
                    q[:] = [_repack(r, self.w, w) for r in q]
                self.w = w

    def extend(self, count: int) -> None:
        """Store Q_k for every k < count."""
        while len(self.qs) < count:
            rec = self.rec[len(self.qs) - 1]
            self.qs.append(self.fit(lambda qs, w, g: _zmonic_next(qs, *rec, w, g)))


def _sq_rows(q: list[Row], w: int, g: int) -> dict[int, Row]:
    """Q_n(t^2 z) + Q_n(t^-2 z), i.e. 2^(n+1) S_q P_n, by its m >= 0 rows."""
    rows = {m: _lincomb([(_twin(m, 1), r)], w, g) for m, r in enumerate(q)}
    return {m: r for m, r in rows.items() if r[0]}


def _dq_rows(q: list[Row], w: int, g: int) -> dict[int, Row]:
    """(z - z^-1)(Q_n(t^2 z) - Q_n(t^-2 z)) by its m >= 0 rows.

    That is 2^(n+3) U_2 D_q P_n divided by t^2 - t^-2, whose z^m row is
    d_{m-1} - d_{m+1} with d_j = (t^(2j) - t^(-2j)) Q_n[|j|].
    `_int_expansions` puts the factor back on the nonzero E_k.
    """
    rows = {}
    for m in range(len(q) + 1):
        r = _lincomb(
            [
                (_twin(m - 1, -1), _row(q, abs(m - 1))),
                (_twin(-m - 1, -1), _row(q, m + 1)),
            ],
            w,
            g,
        )
        if r[0]:
            rows[m] = r
    return rows


def _expand_int(
    work: dict[int, Row], qs: list[list[Row]], w: int, g: int
) -> dict[int, dict[int, int]]:
    """{k: E_k} with work = sum E_k Q_k, nonzero only.

    work and every Q_k are symmetric under z -> z^-1, so only the z^m,
    m >= 0, rows are read.  Q_k is monic in z, so row m of the sum is
    E_m + sum_{k > m} E_k Q_k[m], and E_m is solved from it top down.
    """
    out: dict[int, dict[int, int]] = {}
    subs: list[tuple[dict[int, int], list[Row]]] = []
    for m in range(max(work, default=-1), -1, -1):
        terms = [(ne, q[m]) for ne, q in subs]
        e = _lincomb([(_ONE_T, work.get(m, _ZERO_ROW)), *terms], w, g)
        if e[0]:
            out[m] = _unpack(e, w, g)
            subs.append(({x: -c for x, c in out[m].items()}, qs[m]))
    return out


def _int_scalar(e: dict[int, int], shift: int) -> Scalar:
    """The Scalar e / 2^shift of an integer {t-exp: int}."""
    den = 1 << shift
    return Scalar.from_terms({(i, 0): Rat(c, den) for i, c in e.items()})


def _scalars(ex: dict[int, dict[int, int]], shift: int) -> dict[int, Scalar]:
    """{k: E_k / 2^(shift - k)} of an integer expansion."""
    return {k: _int_scalar(e, shift - k) for k, e in ex.items()}


def _int_expansions(
    fam: OPSFamily, ns: range, checks: Sequence[str]
) -> Iterator[tuple[str, int, int, dict[int, dict[int, int]]]]:
    """(check, n, shift, {k: E_k}) for each n in ns and each check, in order.

    The left side of the relation is sum_k E_k / 2^(shift - k) P_k.
    Lazy per relation, so a consumer timing each step sees them apart.
    """
    kernel = _Kernel(fam, ns[-1])
    # each relation's rows of Q_n, times its factor, are 2^(n + s) times
    # its left side; the expansion is linear, so the factor multiplies
    # only the few nonzero E_k after the elimination
    table = {
        "sq-relation": (_sq_rows, 1, _ONE_T),
        "dq-relation": (_dq_rows, 3, _T2_DIFF),
    }
    relations = [(check, *table[check]) for check in checks]
    for n in ns:
        # G below has degree n + 1, so eliminating it needs Q_{n+1}
        kernel.extend(n + 2)
        for check, rows, s, factor in relations:
            ex = kernel.fit(lambda qs, w, g: _expand_int(rows(qs[n], w, g), qs, w, g))
            yield check, n, n + s, {k: _pmul(factor, e) for k, e in ex.items()}


def _x_rows(z: dict[int, Row], es: list[list[int]], w: int, g: int) -> list[Row]:
    """x-coefficient rows, lowest first, of sum_m z[m] (z^m + z^-m), z[0] once.

    Row k sums E_m[k] z[m] over m.  Every E_m[k] is an integer, nonzero
    only for m = k (mod 2), so the rows summed share one parity.
    """
    terms: list[list] = [[] for _ in range(max(z, default=-1) + 1)]
    for m, r in z.items():
        for k, c in enumerate(es[m] if m else [1]):
            if c:
                terms[k].append(({0: c}, r))
    return [_lincomb(ts, w, g) for ts in terms]


def _poly_xrows(n: int, fam: OPSFamily) -> XPoly:
    """p_n alone, Q_n / 2^n, read from its x-coefficient rows, for `qaw show`.

    The rows are `_x_rows` of Q_n's z-rows, at one slot width to which
    the stored rows are repacked until no bound reaches it.  ValueError
    unless the family's 2 a_n and 4 b_n are integral, u-free Laurent
    polynomials in t.
    """
    kernel = _Kernel(fam, n - 1)
    kernel.extend(n + 1)
    es = _e_table(n)
    rows, w, g = kernel.fit(
        lambda qs, w, g: (_x_rows(dict(enumerate(qs[n])), es, w, g), w, g)
    )
    return XPoly(_int_scalar(_unpack(r, w, g), n) for r in rows)


def iter_proposition_reports(
    nmax: int,
    fam: OPSFamily | None = None,
    ctx: object = None,  # ignored; the benchmark's worker still passes a context
) -> Iterator[StructureReport]:
    """Per-n reports for both relations, in order (sq then dq per n).

    Coefficients against the zero polynomials p_{-1}, p_{-2} are absent
    on both sides at small n, so nothing special happens there.
    ValueError for a negative nmax, for a family whose 2 a_n and 4 b_n
    are not integral, u-free Laurent polynomials in t, and for one with
    b_m = 0 at some 1 <= m <= nmax.
    """
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    fam = fam or counterexample_family()
    checks = ("sq-relation", "dq-relation")
    for check, n, shift, ex in _int_expansions(fam, range(nmax + 1), checks):
        yield _offsets_report(check, n, _scalars(ex, shift), _expected(check, n))


class BandwidthSummary(NamedTuple):
    """Aggregate of the D_q relation's shape over 2 <= n <= nmax."""

    nmax: int
    rows: list[tuple[int, int, int]]  # (n, r, s)
    max_r: int
    max_s: int
    offset_m2_all_nonzero: bool
    status: str

    def record(self) -> dict:
        return {
            "check": "bandwidth",
            "nmax": self.nmax,
            "status": self.status,
            "max_r": self.max_r,
            "max_s": self.max_s,
            "offset_m2_all_nonzero": self.offset_m2_all_nonzero,
        }


def bandwidth_scan(
    fam: OPSFamily,
    pi: XPoly,
    nmax: int,
    reports: list[StructureReport] | None = None,
) -> BandwidthSummary:
    """Shape of the pi*D_q relation for n in [2, nmax]; pi must be U_2.

    `reports`, if given, must hold a D_q relation for every n in
    [2, nmax], or ValueError.  Without them the scan expands only
    U_2 D_q P_n, on integers, and reads the shape from the indices of
    the nonzero coefficients; a family with b_m = 0 at some
    1 <= m <= nmax is refused with ValueError, not scanned.
    """
    if pi != u2():
        raise ValueError("the relation is implemented for pi = U_2 only")
    if nmax < 2:
        raise ValueError("bandwidth scan wants nmax >= 2")
    if reports is None:
        ns = range(2, nmax + 1)
        shapes = {
            n: (_bandwidth([k - n for k in ex]), n - 2 in ex)
            for _, n, _, ex in _int_expansions(fam, ns, ("dq-relation",))
        }
    else:
        shapes = {
            r.n: (r.bandwidth, bool(r.coefficients.get(-2, ZERO)))
            for r in reports
            if r.check == "dq-relation"
        }
    rows = []
    max_r = max_s = 0
    all_nonzero = True
    for n in range(2, nmax + 1):
        if n not in shapes:
            raise ValueError("the reports lack the D_q relation at n = %d" % n)
        (r, s), m2_nonzero = shapes[n]
        rows.append((n, r, s))
        max_r = max(max_r, r)
        max_s = max(max_s, s)
        all_nonzero = all_nonzero and m2_nonzero
    ok = max_r == 2 and max_s == 1 and all_nonzero
    return BandwidthSummary(
        nmax, rows, max_r, max_s, all_nonzero, "pass" if ok else "fail"
    )
