"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: InputError -> 2,
BudgetExceededError -> 3, InternalError -> 4.
"""


class PolyboundError(Exception):
    """Base class for all errors raised by this package."""


class InputError(PolyboundError):
    """Invalid or unusable input (empty polyhedron, not pointed, bad file, ...)."""


class BudgetExceededError(PolyboundError):
    """A combinatorial guard tripped; the instance is too large for the chosen method."""


class InternalError(PolyboundError):
    """An internal invariant was violated; indicates a bug, not bad input."""
