"""The divided-difference operator D_q and its companion average S_q.

Both operators act on polynomials in x = (z + z^-1)/2 through the two
half-step substitutions z -> t^2 z and z -> t^-2 z (recall q = t^4, so
t^2 is a square root of q).  Writing f+ and f- for the two shifted
copies of the z-side representation of f,

    D_q f = (f+ - f-) / delta,      delta = (t^2 - t^-2) (z - z^-1) / 2,
    S_q f = (f+ + f-) / 2.

On the symmetric basis z^m + z^-m both have a closed form, so neither
operator divides:

    D_q (z^m + z^-m) = 2 [m] (z^(m-1) + z^(m-3) + ... + z^(1-m)),
    S_q (z^m + z^-m) = (t^2m + t^-2m)/2 (z^m + z^-m),

with [m] = (t^2m - t^-2m)/(t^2 - t^-2) = t^(2m-2) + t^(2m-6) + ...
+ t^(2-2m).  D_q lowers the degree by one and S_q preserves it.

The context also owns the two constants that the structure relations
are phrased with: alpha = (t^2 + t^-2)/2, the average damping of x
itself, and U_2 = (alpha^2 - 1)(x^2 - 1), the fixed quadratic that
multiplies D_q throughout.
"""

from __future__ import annotations

from .scalar import Rat, Scalar, tpow, HALF, ONE, ZERO
from .zsym import XPoly, ZLaurent, x_to_z, z_to_x


class OperatorContext:
    """Precomputed constants for applying D_q and S_q.

    The context is stateless after construction; `context()` returns
    the module-level default instance, which also backs `u2()`.
    """

    def __init__(self):
        self.alpha: Scalar = (tpow(2) + tpow(-2)) * HALF
        self.alpha2m1: Scalar = (self.alpha * self.alpha) - ONE

    def u2(self) -> XPoly:
        """The fixed quadratic (alpha^2 - 1)(x^2 - 1)."""
        return XPoly((-self.alpha2m1, ZERO, self.alpha2m1))

    def dq_sym(self, f: ZLaurent) -> ZLaurent:
        # the z^j coefficient, j >= 0, is the sum of 2 [m] f_m over
        # m = j+1, j+3, ...: a suffix sum by parity from the top down
        out: dict[int, Scalar] = {}
        acc = [ZERO, ZERO]
        for m in range(max(f.degree, 0), 0, -1):
            c = f.coeff(m)
            if c:
                two_qint = Scalar.from_terms(
                    {(2 * m - 2 - 4 * k, 0): 2 for k in range(m)}
                )
                acc[m & 1] = acc[m & 1] + c * two_qint
            s = acc[m & 1]
            if s:
                out[m - 1] = out[1 - m] = s
        return ZLaurent._raw(out)

    def sq_sym(self, f: ZLaurent) -> ZLaurent:
        out: dict[int, Scalar] = {}
        for m, c in f.terms():
            if m > 0:
                w = Scalar.from_terms({(2 * m, 0): Rat(1, 2), (-2 * m, 0): Rat(1, 2)})
                out[m] = out[-m] = c * w
            elif m == 0:
                out[0] = c
        return ZLaurent._raw(out)

    def dq(self, f: XPoly) -> XPoly:
        """Apply D_q; the degree drops by exactly one."""
        return z_to_x(self.dq_sym(x_to_z(f)))

    def sq(self, f: XPoly) -> XPoly:
        """Apply S_q; the degree is preserved."""
        return z_to_x(self.sq_sym(x_to_z(f)))


_DEFAULT = OperatorContext()


def context() -> OperatorContext:
    return _DEFAULT


def u2() -> XPoly:
    return _DEFAULT.u2()


ALPHA = _DEFAULT.alpha
ALPHA2M1 = _DEFAULT.alpha2m1
