"""The package's public surface, and no dead imports inside it.

The public names of flexmech are pinned, so an export is added or removed
only by editing this list.  Every name a flexmech module imports from
another flexmech module must be used in that module; the package's
__init__ is exempt, since its imports are the exports.  No flexmech module
reads an underscore name of another: each module's private names are its
own.
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


def _private_reads(source):
    """The underscore names a module's source reads from other flexmech
    modules: imported as `from .mod import _x`, or read as `mod._x` of a
    module it imported."""
    tree = ast.parse(source)
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").partition(".")[0] == "flexmech"):
            found += [alias.name for alias in node.names if alias.name.startswith("_")]
            # `from . import mod` and `from flexmech import mod` bind modules
            if node.module in (None, "flexmech"):
                modules.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names
                           if alias.name.partition(".")[0] == "flexmech")
    return found + [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and node.attr.startswith("_")]


def test_no_module_reads_private_names_of_another():
    package = Path(flexmech.__file__).parent
    reads = {path.name: _private_reads(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    assert {name: names for name, names in reads.items() if names} == {}
