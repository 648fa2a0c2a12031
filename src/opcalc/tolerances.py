"""Central tolerance settings.

Every identity of the registry (``opcalc.verify.IDENTITIES``) names the field
that holds its residual; the CLI flag ``--tol-scale`` multiplies all of them
uniformly.  The few identities held to a fixed number instead (an exact count
of failures, the Taylor decay ratio) are not scaled.
The structural gates and quadrature targets here are the keyword defaults of
the library functions that read them.  Other library thresholds, such as the
node-coincidence gate and the contour and simplex targets of ``divdiff``, live
only as literal keyword defaults of their functions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    # structural gates
    eig_cond_cap: float = 1e8            # eigenvector condition above which a matrix counts as defective
    eig_residual: float = 1e-10          # relative reconstruction error of V diag(w) V^-1
    comm_tol: float = 1e-10              # relative commutator norm for commuting tuples
    # quadrature targets
    funcalc_rtol: float = 1e-10          # tensor-grid contour quadrature
    halfline_rtol: float = 1e-10         # adaptive Gauss-Kronrod on [0, inf)
    # identity-check tolerances (relative unless noted)
    dd_four_way: float = 1e-8
    dd_power_vs_recursive: float = 1e-10
    funcalc_eig_oracle: float = 1e-9
    funcalc_homomorphism: float = 1e-8
    tensor_rule: float = 1e-8
    pair_consistency: float = 1e-8
    newton_residual: float = 1e-8
    recursion_residual: float = 1e-8
    ad_series: float = 1e-6
    dyson_identity: float = 1e-7
    magnus_vs_rk: float = 1e-6           # absolute, desk-scale fields
    rearrange_three_way: float = 1e-6
    kernel_scaling: float = 1e-9

    def scaled(self, factor: float) -> "Tolerances":
        """All tolerances multiplied by ``factor`` (structural caps included)."""
        return replace(
            self,
            **{name: getattr(self, name) * factor for name in self.__dataclass_fields__},
        )


DEFAULTS = Tolerances()
