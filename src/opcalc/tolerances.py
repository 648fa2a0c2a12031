"""Identity tolerances.

Every field is the tolerance of at least one identity of the registry
(``opcalc.verify.IDENTITIES``), and the CLI flag ``--tol-scale`` multiplies
all of them uniformly.  The few identities held to a fixed number instead (an
exact count of failures, the Taylor decay ratio) are not scaled.  Library
gates and quadrature targets are not tolerances of an identity: each is a
constant of the module that reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import InvalidInput


@dataclass(frozen=True)
class Tolerances:
    # relative unless noted
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
        """All tolerances multiplied by ``factor``, which must be finite and
        positive: zero, a negative, infinite or NaN factor would fail or pass
        every check whatever its residual (:class:`InvalidInput`)."""
        if not (math.isfinite(factor) and factor > 0):
            raise InvalidInput(f"tolerance scale must be finite and positive, got {factor!r}")
        return replace(
            self,
            **{name: getattr(self, name) * factor for name in self.__dataclass_fields__},
        )


DEFAULTS = Tolerances()
