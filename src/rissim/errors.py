"""Exception hierarchy shared across the package.

Validation failures (bad inputs, malformed files) map to CLI exit code 1,
geometry/numeric failures to exit code 2.
"""


class ValidationError(ValueError):
    """Invalid argument, configuration value, or file content."""


class GeometryError(RuntimeError):
    """Degenerate or out-of-domain geometry (coincident points, bad angles)."""


class BeamNotResolvedError(GeometryError):
    """No half-power crossing found inside the search window."""


class NoPeakError(GeometryError):
    """Grid contains no cell above the power floor: every cell is -inf."""
