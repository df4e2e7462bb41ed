"""Exception types shared across the package."""


class ChoreMarketError(Exception):
    """Base class for all package errors."""


class ZeroPriceSum(ChoreMarketError):
    """All price entries are zero; normalization is undefined."""


class Malformed(ChoreMarketError):
    """Inconsistent LP dimensions or invalid input data.

    The CLI exits 2 on this and every subclass: the input, not the search or
    the check, is at fault.
    """


class DimensionMismatch(Malformed):
    """Vector/matrix shapes do not match the instance."""


class WrongVariant(Malformed):
    """Operation requires the other instance variant."""


class Infeasible(ChoreMarketError):
    """A required feasibility precondition does not hold."""


class PatternBudgetExceeded(ChoreMarketError):
    """The MPB-pattern search space exceeds the configured cap."""


class ConditionViolated(ChoreMarketError):
    """Instance fails the sufficiency conditions required by the solver."""


class ConstructionFailed(ChoreMarketError):
    """A construction or search that must succeed produced no valid result."""


class BadParams(Malformed):
    """Gadget parameters violate their constraints."""


class NotSatisfying(ChoreMarketError):
    """Truth assignment does not satisfy the formula."""


class NotGadget(Malformed):
    """Instance is missing the gadget metadata required by this operation."""


class NonIntegralEarnings(ChoreMarketError):
    """Earnings are not integer multiples of the requested unit."""


class BadGame(Malformed):
    """Payoff matrix violates the normalized-game constraints."""


class DegenerateSize(Malformed):
    """Game size too small for the reduction."""


class OutOfBand(ChoreMarketError):
    """A price lies outside the regulation band beyond tolerance."""
