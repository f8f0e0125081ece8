"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration and input problems exit
with code 2, runtime infeasibility (an unusable link) with code 3.
"""


class SplitCVLError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SplitCVLError):
    """Malformed or invalid scenario configuration or input file."""


class ZeroRateError(SplitCVLError):
    """Link rate is zero; the partition decision is infeasible."""


class DimensionError(SplitCVLError):
    """Invalid input dimensions for the profile builder."""


class DimensionMismatchError(SplitCVLError):
    """Vector or image dimensions do not agree."""


class ZeroVectorError(SplitCVLError):
    """A vector with (near-)zero norm cannot be normalized."""


class WindowTooLargeError(SplitCVLError):
    """SSIM window exceeds the image extent."""


class EmptyCutError(SplitCVLError):
    """A reconstruction corpus cut contains no image triples."""


class NonFiniteError(SplitCVLError):
    """A loss or gradient evaluated to a non-finite value."""
