"""The induction step of `qaw verify proof`, derived again in sympy alone.

The suite is built from the paper's closed forms in sympy's field
Q(t, u), with u = t^(2n), so that index n + j is u -> u t^(2j).  The two
product-rule steps are applied to formal sums {offset j: coefficient of
P_{n+j}}, and all ten residuals of derived minus claimed must be zero.
The field cancels every quotient it forms, so a residual is zero exactly
when it is the zero rational function.  Nothing here goes through
`Scalar` arithmetic; qaw is read only to compare its `coeff_suite()`
with the sympy suite, member by member.
"""

import pytest

sympy = pytest.importorskip("sympy")

from qaw.families import CoeffSuite, coeff_suite  # noqa: E402

_, t, u = sympy.field("t, u", sympy.QQ)

ALPHA = (t**2 + t**-2) / 2
ALPHA2M1 = ALPHA**2 - 1


def B(v):
    return ((1 + t**-2) * v + 1 - t**-2) * v * t / 2


def C(v):
    return (1 + v * t**-2) * (1 - v) * (1 - v**2 * t**-2) / 4


def c(v):
    return C(v) / v * t


def paper_suite(j: int = 0) -> CoeffSuite:
    """alpha_n, B_n, C_n, c_n and c_{n,1..4} at index n + j."""
    v = u * t ** (2 * j)
    up, down = v * t**2, v * t**-2  # indices n + j + 1 and n + j - 1
    alpha_n = (v + 1 / v) / 2
    gamma = (v - 1 / v) / (t**2 - t**-2)
    c1 = ALPHA2M1 * gamma
    c2 = c(up) - ALPHA * c(v) + (1 - ALPHA) * alpha_n * B(v)
    c3 = (B(v) - ALPHA * B(down)) * c(v) + (1 - ALPHA**2) * gamma * C(v)
    c4 = c(down) * C(v) - ALPHA * c(v) * C(down)
    return CoeffSuite(alpha_n, B(v), C(v), c(v), c1, c2, c3, c4)


def comb(*terms):
    """sum_i w_i v_i over formal sums v_i."""
    out = {}
    for w, v in terms:
        for j, vj in v.items():
            out[j] = out.get(j, 0) + w * vj
    return out


def times_x(v, at):
    """x v, by x P_m = P_{m+1} + B_m P_m + C_m P_{m-1}."""
    return comb(*((vj, {j + 1: 1, j: at[j].B_n, j - 1: at[j].C_n}) for j, vj in v.items()))


def times_u2(v, at):
    """U_2 v = (alpha^2 - 1)(x^2 - 1) v."""
    return comb((ALPHA2M1, times_x(times_x(v, at), at)), (-ALPHA2M1, v))


def sq_claim(s, j):
    """S_q P_{n+j} = alpha_n P_{n+j} + c_n P_{n+j-1}, s at n + j."""
    return {j: s.alpha_n, j - 1: s.c_n}


def dq_claim(s, j):
    """U_2 D_q P_{n+j} over P_{n+j+1} .. P_{n+j-2}, s at n + j."""
    return {j + 1: s.c_n1, j: s.c_n2, j - 1: s.c_n3, j - 2: s.c_n4}


def step(at):
    """S_q and U_2 D_q of P_{n+1} = (x - B_n) P_n - C_n P_{n-1}.

    S_q(x f) = alpha x S_q f + U_2 D_q f and D_q(x f) = S_q f + alpha x
    D_q f, from the product rules with D_q x = 1 and S_q x = alpha x.
    """
    s = at[0]
    sq, dq = sq_claim(s, 0), dq_claim(s, 0)
    sq_next = comb(
        (ALPHA, times_x(sq, at)), (1, dq), (-s.B_n, sq), (-s.C_n, sq_claim(at[-1], -1))
    )
    dq_next = comb(
        (1, times_u2(sq, at)),
        (ALPHA, times_x(dq, at)),
        (-s.B_n, dq),
        (-s.C_n, dq_claim(at[-1], -1)),
    )
    return sq_next, dq_next


def residuals():
    """Derived minus claimed at n + 1: S_q at offsets -1, -2, +1, 0 and
    U_2 D_q at +2 .. -3, as `inductor` names them."""
    at = {j: paper_suite(j) for j in range(-2, 2)}
    sq_next, dq_next = step(at)
    out = []
    for offsets, derived, claimed in (
        ((-1, -2, 1, 0), sq_next, sq_claim(at[1], 1)),
        ((2, 1, 0, -1, -2, -3), dq_next, dq_claim(at[1], 1)),
    ):
        out += [derived.get(j, 0) - claimed.get(j, 0) for j in offsets]
    return out


def to_field(s):
    return sum(
        (sympy.QQ(int(r.numerator), int(r.denominator)) * t**i * u**j
         for i, j, r in s.laurent_terms()),
        0 * t,
    )


def test_all_ten_step_residuals_are_zero():
    assert residuals() == [0] * 10


def test_coeff_suite_is_the_paper_suite():
    for name, got, want in zip(CoeffSuite._fields, coeff_suite(), paper_suite()):
        assert to_field(got) == want, name
