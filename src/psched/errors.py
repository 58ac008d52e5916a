"""Exception types shared across the package."""


class CycleError(ValueError):
    """The edge set contains a directed cycle, so it is not a strict partial order."""


class InvalidInput(ValueError):
    """A schedule or system handed to a conversion does not meet its precondition."""


class CapacityDeficit(ValueError):
    """The capacity profile cannot hold the given number of jobs."""


class NoSolution(RuntimeError):
    """The horizon search failed even at the trivially sufficient horizon."""


class InvalidOverride(ValueError):
    """A parameter override violates the structural constraints."""


class GuessExhausted(RuntimeError):
    """A guess vector ran out of entries before the split loop finished.

    ``push_down`` raises it for an inconsistent guess.  Nothing in the
    package catches it: the solver's guess-tree walk prunes such vectors
    itself, and hinted replay reads the system recorded from its reference.
    """


class BudgetExceeded(RuntimeError):
    """The solver used more search nodes, or split-walk states, than the
    configured budget; ``nodes`` is the count that ran over."""

    def __init__(self, nodes: int, limit: int, unit: str = "nodes") -> None:
        super().__init__(f"search budget exceeded: {nodes} {unit} > limit {limit}")
        self.nodes = nodes
        self.limit = limit


class BadParams(ValueError):
    """Invalid arguments to an instance generator."""
