"""Exception types shared across the package, and the one table of the
assembly engine's fault codes."""


class FlexmechError(Exception):
    """Base class for flexmech-specific failures."""


class SingularMatrixError(FlexmechError):
    """Matrix inversion refused: condition number above the trust threshold.

    Attributes:
        cond: the 1-norm condition number of the diagonally equilibrated
            matrix (spatial.invert_stack); inf for an exact zero pivot or a
            non-positive diagonal entry.
    """

    def __init__(self, message, cond):
        super().__init__(f"{message} (condition estimate {cond:.3e})")
        self.cond = cond


class MechanismFileError(FlexmechError):
    """Parse failure in a mechanism/material file; names line and field."""

    def __init__(self, message, line=None, field=None):
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if field is not None:
            loc.append(f"field '{field}'")
        prefix = ", ".join(loc)
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.line = line
        self.field = field


# the engine carries each item's first fault as one of these codes (0 is a
# valid item) and builds its exception with fault_error only where the API
# returns it
(NOT_FINITE, NOT_SYMMETRIC, SINGULAR_COMPLIANCE, SINGULAR_STIFFNESS, NO_CENTER, ONE_SIDED,
 PARALLEL_LEGS, CENTERS_NOT_FINITE) = range(1, 9)
FAULTS = {
    NOT_FINITE: "matrix entries must be finite",
    NOT_SYMMETRIC: "matrix is not symmetric within tolerance",
    SINGULAR_COMPLIANCE: "compliance matrix is numerically singular",
    SINGULAR_STIFFNESS: "stiffness matrix is numerically singular",
    NO_CENTER: "no finite rotation center: lateral/rotation coupling is zero",
    ONE_SIDED: "ideal four-bar center needs limbs on both sides of the mid-plane",
    PARALLEL_LEGS: "center at infinity: leg axes are parallel",
    CENTERS_NOT_FINITE: "both center heights must be finite",
}


def fault_error(code, cond=None):
    """The exception of a nonzero fault code: SingularMatrixError, with the
    condition number `cond`, for a refused inversion, else ValueError."""
    message = FAULTS[int(code)]
    if code in (SINGULAR_COMPLIANCE, SINGULAR_STIFFNESS):
        return SingularMatrixError(message, cond)
    return ValueError(message)
