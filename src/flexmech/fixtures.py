"""Access to the bundled data files: the example mechanism, the measured
joint catalog, the reference stiffness matrix and the synthetic creep trace."""

from __future__ import annotations

from importlib import resources

import numpy as np

from .mechfile import (load_joint_catalog, load_materials, numeric_rows, parse_lines,
                       read_lines, text_entries)
from .spatial import SpatialMatrix6


def data_path(name):
    """Filesystem path of a bundled data file (packages install unzipped)."""
    return str(resources.files("flexmech.data").joinpath(name))


def _data_lines(name):
    return read_lines(data_path(name))


def load_small_rcc():
    """The bundled small remote-center-of-compliance example mechanism."""
    return parse_lines(_data_lines("small_rcc.mech"))


def load_reference_stiffness() -> SpatialMatrix6:
    """Published 6x6 stiffness of the small RCC; regression fixture."""
    columns = tuple(f"column {j}" for j in range(1, 7))
    rows = numeric_rows(text_entries(_data_lines("reference_stiffness.dat")), columns)
    return SpatialMatrix6(np.array(rows), "stiffness")


def load_bundled_joint_catalog():
    """Measured two-joint hinge records (read-only comparison data)."""
    return load_joint_catalog(_data_lines("joint_catalog.dat"))


def load_bundled_materials():
    """Default material catalog (user-editable data file, not code)."""
    return load_materials(_data_lines("materials.dat"), "materials.dat")
