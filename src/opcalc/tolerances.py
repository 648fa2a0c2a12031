"""Central tolerance settings.

Every identity of the registry (``opcalc.verify.IDENTITIES``) names the field
that holds its residual; the CLI flag ``--tol-scale`` multiplies all of them
uniformly.  The few identities held to a fixed number instead (an exact count
of failures, the Taylor decay ratio) are not scaled.
Individual library functions carry the same numbers as keyword defaults so
they stay usable without this module.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    # structural gates
    eig_cond_cap: float = 1e8            # eigenvector condition above which a matrix counts as defective
    eig_residual: float = 1e-10          # relative reconstruction error of V diag(w) V^-1
    coincidence: float = 1e-8            # relative node-coincidence threshold for the recursion
    comm_tol: float = 1e-10              # relative commutator norm for commuting tuples
    contour_min_distance: float = 1e-6   # x radius: closest approach of quadrature nodes to poles
    # quadrature targets
    contour_rtol: float = 1e-12          # circle trapezoid node-doubling
    funcalc_rtol: float = 1e-10          # tensor-grid contour quadrature
    hermite_rtol: float = 1e-10          # simplex Gauss-Legendre degree-doubling
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
