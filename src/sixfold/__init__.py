"""sixfold: multi-path numerical verification of a six-dimensional
log-kernel Legendre integral family and its Lerch-zeta closed forms."""

from .core import (
    ConvergenceError,
    DomainError,
    ExponentQuad,
    InadmissibleError,
    NonFiniteSampleError,
    ParameterSet,
    PoleError,
    SixfoldError,
    Tolerances,
    UnsupportedRegimeError,
    derive_exponents,
    parameter_warnings,
    validate_parameters,
)
from .engine import (
    CATALOG,
    IdentityCase,
    VerificationReport,
    catalog_case,
    lhs_jet,
    lhs_moment_expansion,
    report_to_csv_rows,
    report_to_dict,
    rhs_example,
    rhs_limit_full,
    rhs_theorem,
    theorem_parameters,
    verify,
)
from .jets import Jet, closed_form_jet, jet_csc, jet_of_gamma
from .legendre import legendre_recurrence
from .lerch import (
    lerch_apostol,
    lerch_minus_one_split,
    lerch_phi,
    lerch_series,
    lerch_unit_circle_full,
)
from .mellin import mellin_legendre_closed, mellin_legendre_quadrature
from .quad import (
    Integrand6D,
    QmcSpec,
    Rule1D,
    gauss_laguerre,
    integrate_6d_qmc,
    integrate_6d_tensor,
    log_axis_rule,
    sobol_points,
    tanh_sinh,
)
from .specialfn import (
    EULER_GAMMA,
    digamma,
    gamma,
    harmonic,
    hurwitz_zeta,
    log_gamma,
    polygamma,
    rgamma,
    riemann_zeta,
)

__version__ = "0.1.0"
