"""Material properties and measured single-joint records (the data model;
the catalog files are read by mechfile).

Moduli in N/mm^2 (MPa).  The isotropy assumption behind the derived shear
modulus is known to be shaky for FDM-printed parts; Material carries a
caveat string so reports can surface it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

ISOTROPY_CAVEAT = (
    "shear modulus derived assuming isotropy; questionable for "
    "fused-deposition printed parts"
)


def derive_shear_modulus(e_modulus, nu):
    """G = E / (2 (1 + nu)) for an isotropic material."""
    if not 0.0 < e_modulus < math.inf:
        raise ValueError(f"Young's modulus must be positive, got {e_modulus}")
    if not -1.0 < nu < 0.5:
        raise ValueError(f"Poisson's ratio must lie in (-1, 0.5), got {nu}")
    return e_modulus / (2.0 * (1.0 + nu))


@dataclass(frozen=True)
class Material:
    """Isotropic elastic material; G derived from E and nu when not given."""

    name: str
    e_modulus: float          # N/mm^2
    nu: float
    g_modulus: float = None   # N/mm^2; derived if None
    caveat: str = ISOTROPY_CAVEAT

    def __post_init__(self):
        derived = derive_shear_modulus(self.e_modulus, self.nu)  # range checks
        if self.g_modulus is None:
            object.__setattr__(self, "g_modulus", derived)
        # a derived G can overflow to inf or underflow to 0
        if not 0.0 < self.g_modulus < math.inf:
            raise ValueError(f"shear modulus must be positive and finite, got {self.g_modulus}")


@dataclass(frozen=True)
class MeasuredJointRecord:
    """One measured two-joint hinge variant: stiffnesses in Nm/rad, load in Nm."""

    variant: str
    cross_stiffness: float | None
    joint_stiffness: float
    max_joint_load: float

    def __post_init__(self):
        for name in ("cross_stiffness", "joint_stiffness", "max_joint_load"):
            v = getattr(self, name)
            if v is None and name != "cross_stiffness":
                raise ValueError(f"{name} must be measured; only cross_stiffness may be None")
            if v is not None and not 0.0 < v < math.inf:
                raise ValueError(f"{name} must be positive, got {v}")


def stiffness_ratio(record: MeasuredJointRecord):
    """Cross-direction over joint-direction stiffness; None when cross is unmeasured."""
    if record.cross_stiffness is None:
        return None
    return record.cross_stiffness / record.joint_stiffness
