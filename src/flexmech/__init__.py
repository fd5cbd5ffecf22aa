"""flexmech: spatial stiffness analysis of compound flexure mechanisms.

Builds 6x6 compliance/stiffness matrices of notch-hinge and beam elements,
composes them into limbs and parallel mechanisms, and extracts
remote-center-of-compliance properties.  Includes creep-model fitting and
parametric design sweeps, with a CLI over a line-oriented mechanism file
format.
"""

from .analysis import (CreepFit, CreepModel, SweepObjective, SweepPoint, SweepResult,
                       SweepSpec, VerticalComplianceDatum, creep_force, fit_creep, run_sweep)
from .elements import (BeamGeometry, HingeGeometry, beam_compliance, hinge_compliance,
                       notch_thickness, torsion_compliance_hinge)
from .errors import FlexmechError, MechanismFileError, SingularMatrixError
from .kernels import torsion_beta
from .materials import (Material, MeasuredJointRecord, derive_shear_modulus,
                        stiffness_ratio)
from .mechanism import (Limb, Mechanism, RccResult, analyze, analyze_batch,
                        center_of_compliance, deviation_report, ideal_fourbar_center,
                        limb_compliance, mechanism_stiffness, rotational_precision,
                        static_deflection)
from .mechfile import ParsedMechanism, parse_mechanism, serialize
from .spatial import (FramePlacement, SpatialMatrix6, amplification_displacement,
                      amplification_force, invert, rot_z, s_matrix,
                      transform_compliance, transform_stiffness)

__version__ = "0.1.0"
