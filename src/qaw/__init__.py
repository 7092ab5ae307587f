"""Exact kernel for Askey-Wilson divided-difference operators.

Everything runs over the Laurent ring Q[t^+-1, u^+-1], with exact
division, t = q^(1/4) and u tracking the family index symbolically, so
identities can be certified either for one index at a time or once for
all indices.
"""

from .awcore import ALPHA, ALPHA2M1, OperatorContext, context, u2
from .families import (
    COUNTEREXAMPLE_PARAMS,
    CoeffSuite,
    FamilyParams,
    OPSFamily,
    aw_hyp_poly,
    coeff_suite,
    counterexample_family,
    dual_qhahn_family,
    dual_qhahn_rec_coeffs,
)
from .inductor import (
    IdentityCertificate,
    certify_base_case,
    certify_dq_step,
    certify_sq_step,
    instantiation_coherence,
)
from .numeric import (
    NumericConfig,
    NumericSummary,
    eval_poly,
    lattice_dq,
    lattice_sq,
    numeric_crosscheck,
)
from .scalar import ExactDivisionError, Scalar, as_scalar, rational, tpow, upow
from .structure import (
    BandwidthSummary,
    StructureReport,
    bandwidth_scan,
    expand_in_basis,
    iter_proposition_reports,
    structure_relation,
)
from .textio import ParseError, format_record
from .zsym import XPoly, ZLaurent, x_to_z, z_to_x

__version__ = "0.1.0"

__all__ = [
    "ALPHA",
    "ALPHA2M1",
    "BandwidthSummary",
    "COUNTEREXAMPLE_PARAMS",
    "CoeffSuite",
    "ExactDivisionError",
    "FamilyParams",
    "IdentityCertificate",
    "NumericConfig",
    "NumericSummary",
    "OPSFamily",
    "OperatorContext",
    "ParseError",
    "Scalar",
    "StructureReport",
    "XPoly",
    "ZLaurent",
    "as_scalar",
    "aw_hyp_poly",
    "bandwidth_scan",
    "certify_base_case",
    "certify_dq_step",
    "certify_sq_step",
    "coeff_suite",
    "context",
    "counterexample_family",
    "dual_qhahn_family",
    "dual_qhahn_rec_coeffs",
    "eval_poly",
    "expand_in_basis",
    "format_record",
    "instantiation_coherence",
    "iter_proposition_reports",
    "lattice_dq",
    "lattice_sq",
    "numeric_crosscheck",
    "rational",
    "structure_relation",
    "tpow",
    "u2",
    "upow",
    "x_to_z",
    "z_to_x",
]
