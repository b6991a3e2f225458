"""Exception types shared across the package.

Exit-code mapping used by the CLI, by base class: ``UsageError`` -> 2,
``LimitExceeded`` -> 3, ``FalsificationError`` -> 4.
"""


class BipCayleyError(Exception):
    """Base class for all package errors."""


class UsageError(BipCayleyError):
    """Input or parameter the operation cannot accept."""


class LimitExceeded(BipCayleyError):
    """A cap, budget or timeout stopped the operation."""


# --- group construction ---

class EmptyOrders(UsageError):
    """A group needs at least one cyclic factor."""


class OrderBelowTwo(UsageError):
    """Every cyclic factor order must be >= 2."""


class SizeCapExceeded(LimitExceeded):
    """Group size exceeds the configured construction cap."""


class GroupSpecError(UsageError):
    """Malformed group/subgroup/set specification string."""

    def __init__(self, message, position=None):
        super().__init__(message if position is None
                         else f"{message} (at position {position})")
        self.position = position


# --- validation ---

class BadParameter(UsageError):
    """Parameter outside its documented range."""


class BadSubgroup(UsageError):
    """Subgroup does not satisfy the required hypotheses (e.g. index 2)."""


class SetOutOfRange(UsageError):
    """Connection set refers to elements outside the group."""


class SetNotAvoidingB(UsageError):
    """Connection set intersects the index-2 subgroup it must avoid."""


class NotInverseClosed(UsageError):
    """Operation requires an inverse-closed connection set."""


class ExceptionalPair(UsageError):
    """(A, B) is one of the two exceptional families; the undirected
    classification does not apply."""


class HypothesisViolated(UsageError):
    """A lemma's hypotheses are not met by the given arguments."""


class OddOrder(UsageError):
    """Group of odd order has no index-2 subgroup."""


# --- caps, budgets, timeouts ---

class CapExceeded(LimitExceeded):
    """Problem size exceeds a configured cap."""


class BudgetExceeded(LimitExceeded):
    """Search budget exhausted."""


class Timeout(LimitExceeded):
    """Wall-clock budget for a search exceeded."""


# --- falsification ---

class FalsificationError(BipCayleyError):
    """A machine-checked assertion from the underlying theory failed.

    This is never expected to fire; it exists so that a genuine
    counterexample is reported loudly (CLI exit code 4) instead of being
    silently swallowed.
    """
