"""Exception and warning types shared across the package."""


class ScenarioError(ValueError):
    """Invalid physical inputs (non-positive energy/mass, eps out of range)."""


class StrengthBoundError(ValueError):
    """|eta| exceeds the spreading-negligibility bound for the given eps."""


class UndefinedRatioError(ValueError):
    """A ratio to the Rutherford cross section that an energy leaves
    undefined: the cross section underflows to 0, or the ratio is not
    finite."""


class TruncationMismatchError(ValueError):
    """A short-range phase-shift table is shorter than the requested l_max."""


class MatchingError(RuntimeError):
    """Square-well interior/exterior matching produced non-finite ratios."""

    def __init__(self, bad_l):
        self.bad_l = [int(l) for l in bad_l]
        super().__init__(f"phase-shift matching failed for l = {self.bad_l}")


class NonConvergenceError(RuntimeError):
    """Short-range phase shifts not negligible at the end of their table."""


class ResourceLimitError(RuntimeError):
    """A requested grid exceeds the configured memory budget."""


class CoulscatWarning(UserWarning):
    """A warning of the package; it names the first calling line outside it."""
