"""The solving pipeline: pick a horizon, solve there with guessed splits,
make the virtually-valid schedule valid, re-insert the discarded jobs.

``solve`` runs the first three steps and ``pipeline`` all four; their
parameters are the ``psched solve`` and ``psched pipeline`` flags.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .baselines import bound_sandwich, exact_opt
from .convert import virtually_valid_to_valid
from .core import DISC, Instance, Interval, Schedule, Slot, iter_jobs
from .dyadic import TOP, PartialDyadicSystem, Params, check_reference, compute_params, tree_for
from .errors import DEFAULT_BUDGET, Budget, NoSolution
from .solver import bottom_solve, main_solve, solve_hinted
from .transform import (binary_search_makespan, insert_discarded, pad_to_power_of_two,
                        padded_horizon)


@dataclass
class SolveOutcome:
    horizon: int          # requested horizon (pre-padding)
    padded_T: int         # power-of-two horizon actually solved
    virtual: Schedule     # virtually-valid schedule, original jobs only
    valid: Schedule       # after conversions, original jobs only
    nodes: int            # budget nodes spent, every horizon attempt included

    @property
    def discards(self) -> int:
        """The discarded original jobs in ``valid``."""
        return self.valid.discard_count


def _originals(sched: Schedule, n: int) -> Schedule:
    """The schedule of the first ``n`` jobs, dropping padding jobs."""
    return sched if sched.n == n else Schedule(T=sched.T, assign=sched.assign[:n])


def _with_sinks(inst: Instance, padded: Instance, sched: Schedule, after: int) -> Schedule:
    """``sched`` of the original jobs, extended to ``padded``: its sinks
    fill the slots after ``after`` up to the padded horizon, ``m`` per
    slot, in ascending id."""
    assign: list[Slot] = list(sched.assign)
    slot = after
    for k, _ in enumerate(iter_jobs(padded.all_jobs & ~inst.all_jobs)):
        if k % inst.m == 0:
            slot += 1
        assign.append(slot)
    return Schedule(T=slot, assign=tuple(assign))


def _places_top_job(sys: PartialDyadicSystem, sched: Schedule, params: Params) -> bool:
    """Whether ``sched`` places a job that ``sys`` keeps on a top interval."""
    kinds = tree_for(params).kinds
    return any(sched.assign[j] is not None
               for i, jobs in sys.assign.items() if kinds[i] == TOP
               for j in iter_jobs(jobs))


def solve_at_horizon(
    inst: Instance,
    horizon: int,
    eps: Fraction,
    overrides: dict,
    budget: Budget,
    oracle: tuple[int, Schedule] | None,
) -> SolveOutcome | None:
    """Solve at one horizon; with ``oracle`` (the result of ``exact_opt``),
    fail when its optimum exceeds ``horizon`` and otherwise replay the
    splits of its schedule instead of enumerating.  An attempt with no job
    is answered with the empty schedule and no search.

    When the tree collapses (``L = 0``) the horizon is one bottom
    interval, and the attempt pads nothing and builds no system: its
    schedule is the oracle's, checked with ``check_reference``, or else
    one ``bottom_solve`` of the original jobs on ``(0, horizon]``, which
    keeps as many as fit there.  Either is retimed to the padded horizon.
    Deeper trees run on the padded instance, sinks included: replayed with
    ``solve_hinted`` from the oracle's schedule with the sinks added, or
    searched with ``main_solve``.  An attempt with an oracle enters no
    search state, so it spends no node.  The virtually-valid schedule is
    made valid by ``virtually_valid_to_valid`` only when it places a top
    job, since the conversion is the identity otherwise."""
    T2 = padded_horizon(horizon)
    params = compute_params(T2, inst.m, eps, overrides=overrides or None)
    if inst.n == 0:
        empty = Schedule(T=T2, assign=())
        return SolveOutcome(horizon, T2, empty, empty, budget.nodes)
    if oracle is not None:
        opt, best = oracle
        if opt > horizon:
            return None
    if params.L == 0:
        if oracle is None:
            got = bottom_solve(inst, Interval(0, horizon), inst.all_jobs, {}, budget)
            assign = tuple(got.get(j, DISC) for j in range(inst.n))
        else:
            check_reference(inst, best, params)
            assign = best.assign
        sched = Schedule(T=T2, assign=assign)
        return SolveOutcome(horizon, T2, sched, sched, budget.nodes)
    padded = pad_to_power_of_two(inst, horizon)[0]
    if oracle is None:
        sys_out, virtual = main_solve(padded, params, budget)
    else:
        sys_out, virtual = solve_hinted(padded, _with_sinks(inst, padded, best, horizon), params)
    valid = virtual
    if _places_top_job(sys_out, virtual, params):
        valid = virtually_valid_to_valid(padded, sys_out, virtual, params)
    return SolveOutcome(horizon, T2, _originals(virtual, inst.n), _originals(valid, inst.n),
                        budget.nodes)


def _search_horizon(inst, eps, overrides, budget, oracle, bounds):
    """Minimal horizon whose converted schedule discards nothing.

    ``bounds`` is the run's bound sandwich.  When the tree at its list
    schedule's horizon collapses (``L = 0``), so does every smaller one,
    since ``L = log2 T2 - h`` never falls as ``T2`` grows: the answer is
    the optimum, taken from ``oracle`` or from ``exact_opt``, and one
    attempt there is answered from its schedule.  Deeper trees bisect with
    ``binary_search_makespan``, which probes the lower bound first and
    hands back the outcome of the attempt it settles on.  An attempt fails
    when the oracle's optimum exceeds its horizon or its valid schedule
    discards a job."""
    if inst.n == 0:  # horizon 0, with no attempt
        empty = Schedule(T=0, assign=())
        return SolveOutcome(horizon=0, padded_T=0, virtual=empty, valid=empty, nodes=budget.nodes)
    T2 = padded_horizon(bounds[1].makespan)
    if compute_params(T2, inst.m, eps, overrides=overrides or None).L == 0:
        opt, best = oracle or exact_opt(inst, bounds=bounds, budget=budget)
        return solve_at_horizon(inst, opt, eps, overrides, budget, (opt, best))

    def attempt(T0: int) -> SolveOutcome | None:
        got = solve_at_horizon(inst, T0, eps, overrides, budget, oracle)
        return None if got is None or got.discards else got

    return replace(binary_search_makespan(inst, attempt, bounds)[1], nodes=budget.nodes)


def solve(inst: Instance, eps: Fraction = Fraction(1, 2), overrides: dict | None = None,
          horizon: int | None = None, hinted: bool = False,
          budget: int = DEFAULT_BUDGET) -> SolveOutcome:
    """Solve at ``horizon``, or, when it is ``None``, at the smallest
    horizon found whose valid schedule discards nothing.

    ``overrides`` maps ``dyadic.OVERRIDE_KEYS`` to values, and ``budget``
    caps the nodes of the whole run, the ``hinted`` oracle's included
    (``BudgetExceeded``).  Raises ``ValueError`` on ``horizon < 1`` or
    ``budget < 0``, and ``NoSolution`` when no horizon is found."""
    if horizon is not None and horizon < 1:
        raise ValueError(f"need --horizon >= 1, got {horizon}")
    if budget < 0:
        raise ValueError(f"need --budget >= 0, got {budget}")
    overrides = overrides or {}
    nodes = Budget(limit=budget)
    # one sandwich per run, for the oracle and the horizon search; a run
    # with neither needs none
    searched = horizon is None
    bounds = bound_sandwich(inst) if hinted or searched else None
    oracle = exact_opt(inst, bounds=bounds, budget=nodes) if hinted else None
    if not searched:
        got = solve_at_horizon(inst, horizon, eps, overrides, nodes, oracle)
        if got is None:
            raise NoSolution(f"no zero-discard reference at horizon {horizon}")
        return got
    return _search_horizon(inst, eps, overrides, nodes, oracle, bounds)


def pipeline(inst: Instance, eps: Fraction = Fraction(1, 2), overrides: dict | None = None,
             horizon: int | None = None, hinted: bool = False,
             budget: int = DEFAULT_BUDGET) -> tuple[SolveOutcome, Schedule]:
    """``solve``'s outcome and the final schedule: its valid schedule with
    every discarded job re-inserted by ``insert_discarded``, which is not
    called when nothing was discarded."""
    got = solve(inst, eps, overrides, horizon, hinted, budget)
    return got, insert_discarded(inst, got.valid) if got.discards else got.valid
