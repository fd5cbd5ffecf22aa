"""Exception types shared across the package."""


class FlexmechError(Exception):
    """Base class for flexmech-specific failures."""


class SingularMatrixError(FlexmechError):
    """Matrix inversion refused: condition number above the trust threshold.

    Attributes:
        cond: estimated condition number.
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
