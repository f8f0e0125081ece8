"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration and input problems exit
with code 2, runtime infeasibility (an unusable link) with code 3. Bad
arguments to library functions (shapes, dimensions, windows) raise
ValueError instead.
"""


class SplitCVLError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SplitCVLError):
    """Malformed or invalid scenario configuration or input file."""


class ZeroRateError(SplitCVLError):
    """Link rate is zero; the partition decision is infeasible."""


class NonFiniteError(SplitCVLError):
    """A loss or gradient evaluated to a non-finite value."""
