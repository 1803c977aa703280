"""Exception types shared across the package."""


def _fmt_set(nodes) -> str:
    """A node set as 1-based labels, e.g. ``{1, 2}``."""
    return "{" + ", ".join(str(i + 1) for i in sorted(nodes)) + "}"


class TrafficFlowError(Exception):
    """Base class for all errors raised by this package."""


class NetworkFormatError(TrafficFlowError):
    """A network document is malformed or violates a model invariant."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class SpectralRadiusAtLeastOneError(TrafficFlowError):
    """The routing matrix fails the Neumann test (spectral radius not
    below 1 - 1e-9), so the open-network linear solve is refused."""


class IsolatedClassError(TrafficFlowError):
    """The network contains at least one isolated communicating class
    (cannot be filled and cannot be drained), so the capacity-clipped
    traffic equation has no unique nonnegative solution."""

    def __init__(self, isolated_classes):
        self.isolated_classes = tuple(frozenset(c) for c in isolated_classes)
        pretty = ", ".join(_fmt_set(c) for c in self.isolated_classes)
        super().__init__(f"isolated classes present: {pretty}")


class SingularInnerSystemError(TrafficFlowError):
    """An inner linear system of a solver was singular; no certified
    solution can be produced for the requested pattern.

    A checked ``solve_overflow`` does not raise it: once the overflow
    condition is verified, every inner system is dominated by a certified
    mix, so only ``best_effort`` solves reach this error."""


class ConditionNotVerifiedError(TrafficFlowError):
    """The overflow uniqueness condition could not be verified and
    best-effort mode was not requested."""

    def __init__(self, verdict):
        self.verdict = verdict
        super().__init__(f"overflow condition not verified: {verdict}")


class NonConvergenceError(TrafficFlowError):
    """The overflow solver exceeded its iteration cap without reaching a
    fixed point (possible only when the uniqueness condition fails)."""


class IterationCapError(TrafficFlowError):
    """The monotone fixed-point iteration hit its step cap before the
    successive-iterate tolerance was met."""


class OracleSizeError(TrafficFlowError):
    """The network is too large for exhaustive pattern enumeration."""

    def __init__(self, n, limit):
        self.n = n
        self.limit = limit
        super().__init__(f"n={n} exceeds enumeration limit {limit}")
