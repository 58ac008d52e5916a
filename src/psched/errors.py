"""Exception types shared across the package, and the search budget."""

from dataclasses import dataclass

DEFAULT_BUDGET = 10_000_000


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


@dataclass
class Budget:
    """Shared counters that abort the search when one exceeds ``limit``.

    A node is a search state that was entered: one ``schedule_subtree``
    call that solves its subproblem, one step of the outer cascades or
    one state of a bottom search or of the oracle's search.  Children that
    a bound or the oracle's failed-state memo rules out before entry are
    not counted, nor is a subproblem answered from the ``SolveMemo`` of
    the current ``main_solve``, which holds each one solved at its own
    interval, nor a partition or right half that ``schedule_subtree``'s
    count bound cuts, which is never entered.
    A collapsed attempt (``L = 0``) counts only the states of one bottom
    search of its own jobs on ``(0, horizon]``, with no padding sink.
    ``exact_opt`` counts its states in the budget it is given, which for
    a ``pipeline.solve`` run is the run's ``budget``.  An attempt with
    an oracle enters no search state (``solve_hinted``, or the oracle's
    schedule itself when the tree collapses), so a hinted or collapsed
    run counts exactly its oracle's states.  The outer cascades stop at
    the first state whose subtree places every job.  A subproblem with
    no job (no ancestor window and no set, since it lists only sets that
    hold jobs) is answered without a search and counts nothing.

    The split-outcome walk counts its steps in ``walk_states``, a counter
    of its own held to the same ``limit``: one per (residual set, guesses
    left) that a ``_guess_outcomes`` call steps, and one per outcome it
    lists, that of a guess vector that ends.  The walk is not search in
    the sense above, and counting it apart leaves every node count out of
    it, while the limit still bounds a walk's time.
    """

    limit: int = DEFAULT_BUDGET
    nodes: int = 0
    walk_states: int = 0

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.limit:
            raise BudgetExceeded(self.nodes, self.limit)

    def tick_walk(self, states: int = 1) -> None:
        self.walk_states += states
        if self.walk_states > self.limit:
            raise BudgetExceeded(self.walk_states, self.limit, "split-walk states")


class BadParams(ValueError):
    """Invalid arguments to an instance generator."""
