"""opcalc: divided differences and contour-integral matrix calculus.

Dense complex matrices stand in for Banach-algebra elements; tensor-algebra
elements are Kronecker matrices.  The package evaluates matrix functions by
circle quadrature against resolvents, divided differences by four independent
routes, interpolation / perturbation expansions with tracked remainders, a
log-propagator integrator for linear matrix ODEs, and half-line operator
integrals rearranged into modular form -- each identity paired with an
independent numerical oracle.
"""

from .core import (
    TensorOperator,
    as_matrix,
    commutator,
    eigen_decompose,
    kron,
    matrix_exp,
    matrix_from_json,
    matrix_to_json,
    multikron,
    opnorm,
    pair,
    rel_err,
)
from .divdiff import (
    bang_shriek,
    compositions,
    dd_contour,
    dd_explicit,
    dd_hermite,
    dd_power,
    dd_recursive,
    multinomial_identity,
    simplex_moment_s,
)
from .errors import OpcalcError
from .funcalc import (
    CommutingTuple,
    Contour,
    apply_function,
    apply_via_eig,
    bidiagonal,
    dd_apply,
    dd_tensor,
    funcalc_elementary,
    funcalc_n,
)
from .functions import (
    Disc,
    Entire,
    HoloFunction,
    MultivariateFunction,
    Sector,
    exp_function,
    log_function,
    named_function,
    power_function,
    rational_function,
    resolvent_function,
)
from .generate import gen_matrix
from .magnus import (
    bernoulli,
    magnus_rhs,
    magnus_solve,
    rk_reference,
)
from .ncseries import (
    ExpansionReport,
    dyson_exp,
    dyson_terms_simplex,
    newton_interpolate,
    newton_recursion_check,
    taylor_expand,
    taylor_series_ad,
)
from .quadrature import contour_around
from .rearrange import (
    SectorFunction,
    family_from_exponents,
    kernel_F,
    kernel_G,
    power_rational,
    rearrange_lhs,
    rearrange_rhs_F,
    rearrange_rhs_G,
)

__version__ = "0.1.0"
