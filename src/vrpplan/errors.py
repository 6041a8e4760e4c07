"""Exception types shared across the package.

The class sets the command-line exit code: an :class:`InfeasibleError` exits 3,
any other :class:`VrpError` exits 2, as do ``ValueError`` and OS errors.
"""


class VrpError(Exception):
    """Base class for all package errors."""


class InfeasibleError(VrpError):
    """No feasible decision exists for the scenario at the requested state."""


class CurveDomainError(VrpError):
    """Evaluation requested outside a curve's or model's declared domain."""


class NetZeroGridError(InfeasibleError):
    """Emissions intensity is zero or negative: program demand is undefined."""


class NoSellableCreditsError(InfeasibleError):
    """Delivered renewable output is zero or negative: nothing to sell."""


class NoRevenueError(InfeasibleError):
    """Maximal program revenue is nonpositive; a revenue share is undefined."""


class InfeasibleSharingError(InfeasibleError):
    """The required generator share would be >= 1, leaving the operator nothing."""


class InfeasiblePeriodError(InfeasibleError):
    """Revenue cannot cover the non-investment cost even with zero expansion."""


class ThresholdUnreachableError(InfeasibleError):
    """Delivered output never reaches the unconstrained-demand level in the domain."""


class InfeasibleAtThresholdError(InfeasibleError):
    """Cost already exceeds maximal revenue where the deliverability cap stops binding."""


class DispatchShortageError(InfeasibleError):
    """Residual load exceeds total thermal capacity in at least one hour."""

    def __init__(self, hour: int, residual_gw: float, fleet_capacity_gw: float):
        self.hour = hour
        self.residual_gw = residual_gw
        self.fleet_capacity_gw = fleet_capacity_gw
        super().__init__(
            f"hour {hour}: residual load {residual_gw:.4f} GW exceeds "
            f"fleet capacity {fleet_capacity_gw:.4f} GW"
        )


class ScenarioError(VrpError):
    """A scenario file failed to parse or validate."""
