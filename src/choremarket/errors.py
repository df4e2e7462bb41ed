"""Exception types shared across the package."""


class ChoreMarketError(Exception):
    """Base class for all package errors."""


class ZeroPriceSum(ChoreMarketError):
    """All price entries are zero; normalization is undefined."""


class DimensionMismatch(ChoreMarketError):
    """Vector/matrix shapes do not match the instance."""


class WrongVariant(ChoreMarketError):
    """Operation requires the other instance variant."""


class Malformed(ChoreMarketError):
    """Inconsistent LP dimensions or invalid input data."""


class Infeasible(ChoreMarketError):
    """A required feasibility precondition does not hold."""


class PatternBudgetExceeded(ChoreMarketError):
    """The MPB-pattern search space exceeds the configured cap."""


class ConditionViolated(ChoreMarketError):
    """Instance fails the sufficiency conditions required by the solver."""


class ConstructionFailed(ChoreMarketError):
    """A construction or search that must succeed produced no valid result."""


class BadParams(ChoreMarketError):
    """Gadget parameters violate their constraints."""


class NotSatisfying(ChoreMarketError):
    """Truth assignment does not satisfy the formula."""


class NotGadget(ChoreMarketError):
    """Instance is missing the gadget metadata required by this operation."""


class NonIntegralEarnings(ChoreMarketError):
    """Earnings are not integer multiples of the requested unit."""


class BadGame(ChoreMarketError):
    """Payoff matrix violates the normalized-game constraints."""


class DegenerateSize(ChoreMarketError):
    """Game size too small for the reduction."""


class OutOfBand(ChoreMarketError):
    """A price lies outside the regulation band beyond tolerance."""
