"""Exception types shared across the package."""


class CollabDesignError(Exception):
    """Base class for all errors raised by this package."""


class RankDeficient(CollabDesignError):
    """Matrix rank is too low for the requested operation."""


class NotDiagonal(CollabDesignError):
    """Matrix has off-diagonal mass where a diagonal one is required."""


class ZeroSignalClass(CollabDesignError):
    """Every signal in the class is zero."""


class Unachievable(CollabDesignError):
    """Calibration target cannot be bracketed."""


class ConfigError(CollabDesignError):
    """Run configuration is missing, malformed, or inconsistent."""
