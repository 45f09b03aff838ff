"""Exception types shared across the toolkit."""


class VanetPosError(ValueError):
    """Base class for all toolkit errors."""


class PolarRegion(VanetPosError):
    """Latitude too close to a pole for the flat-earth local frame."""


class InsufficientAnchors(VanetPosError):
    """Fewer ranging anchors (RSUs) than the solve requires."""


class DegenerateGeometry(VanetPosError):
    """Anchor layout leaves the position ambiguous and no hint resolves it."""


class NoConvergence(VanetPosError):
    """Iterative solver did not converge within its iteration budget."""


class EmptyInput(VanetPosError):
    """An operation requiring a nonempty collection received an empty one."""


class BelowReferenceDistance(VanetPosError):
    """Propagation model queried closer than its reference distance."""


class ChannelOutOfRange(VanetPosError):
    """Wi-Fi channel number outside [1, 13]."""


class LengthMismatch(VanetPosError):
    """Paired series have different lengths."""


class TooFewSamples(VanetPosError):
    """Not enough samples for the requested computation."""


class ZeroVariance(VanetPosError):
    """Correlation undefined because a series is constant."""


class ZeroTotalVariance(VanetPosError):
    """R-squared undefined because the response is constant."""


class RankDeficient(VanetPosError):
    """Design matrix rank-deficient (too few distinct predictor values)."""


class DimensionMismatch(VanetPosError):
    """Input vector length does not match the model."""


class EmptyBatch(VanetPosError):
    """Gradient computation received an empty batch."""


class NoCoverage(VanetPosError):
    """No GPS and no beacons heard: no positioning source available."""


class ConfigError(VanetPosError):
    """Malformed or inconsistent scenario configuration."""


class OutOfRange(VanetPosError):
    """A config number outside its field's stated range."""
