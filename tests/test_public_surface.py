"""The package's public surface, and no dead imports inside it.

The public names of flexmech are pinned, so an export is added or removed
only by editing this list.  Every name a flexmech module imports from
another flexmech module must be used in that module; the package's
__init__ is exempt, since its imports are the exports.
"""

import ast
import types
from pathlib import Path

import flexmech

PUBLIC = (
    "BeamGeometry", "CreepFit", "CreepModel", "FlexmechError", "FramePlacement",
    "HingeGeometry", "Limb", "Material", "MeasuredJointRecord", "Mechanism",
    "MechanismFileError", "ParsedMechanism", "RccResult", "SingularMatrixError",
    "SpatialMatrix6", "SweepObjective", "SweepPoint", "SweepResult", "SweepSpec", "analyze",
    "analyze_batch", "center_of_compliance", "creep_force", "derive_shear_modulus",
    "deviation_report", "element_compliance", "fit_creep", "ideal_fourbar_center", "invert",
    "limb_compliance", "mechanism_stiffness", "parse_mechanism", "rot_z",
    "rotational_precision", "run_sweep", "s_matrix", "serialize", "static_deflection",
    "stiffness_ratio", "torsion_beta",
)


def test_public_names_are_pinned():
    # submodules are attributes of the package once imported; they are not exports
    names = sorted(name for name, value in vars(flexmech).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert tuple(names) == PUBLIC


def _unused_package_imports(source):
    """The names a module's source imports from flexmech modules and never uses."""
    tree = ast.parse(source)
    imported = [alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.level > 0 or (node.module or "").partition(".")[0] == "flexmech")
                for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_every_package_import_is_used():
    package = Path(flexmech.__file__).parent
    unused = {path.name: _unused_package_imports(path.read_text(encoding="utf-8"))
              for path in sorted(package.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}
