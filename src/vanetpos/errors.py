"""Exception types shared across the toolkit: a class of its own only for an
error some caller tells apart, a plain VanetPosError for any other."""


class VanetPosError(ValueError):
    """Base class for all toolkit errors."""


class InsufficientAnchors(VanetPosError):
    """Fewer ranging anchors (RSUs) than the solve requires."""


class NoConvergence(VanetPosError):
    """Iterative solver did not converge within its iteration budget."""


class TooFewSamples(VanetPosError):
    """Not enough samples for the requested computation."""


class RankDeficient(VanetPosError):
    """Design matrix rank-deficient (too few distinct predictor values)."""


class NoCoverage(VanetPosError):
    """No GPS and no beacons heard: no positioning source available."""


class ConfigError(VanetPosError):
    """Malformed or inconsistent scenario configuration."""


class OutOfRange(VanetPosError):
    """A config number outside its field's stated range."""
