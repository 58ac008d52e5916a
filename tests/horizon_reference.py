"""One horizon attempt as it ran before held schedules answered collapsed ones.

A test-only copy of the earlier ``psched.cli._solve_at_horizon``: every
attempt runs the solver on the padded instance.  The oracle's schedule,
extended with the padding sinks, is replayed through ``solve_hinted``;
otherwise the horizon search's list schedule, extended the same way when it
fits, warm-starts ``main_solve``.  ``test_cli`` holds the current attempt to
the same ``SolveOutcome``, node count included.
"""

from __future__ import annotations

from fractions import Fraction

from psched.cli import SolveOutcome, _originals, _with_sinks
from psched.convert import canonicalize, virtually_valid_to_valid
from psched.core import Instance, Schedule
from psched.dyadic import compute_params
from psched.solver import Budget, main_solve, solve_hinted
from psched.transform import pad_to_power_of_two


def reference_solve_at_horizon(
    inst: Instance,
    horizon: int,
    eps: Fraction,
    overrides: dict,
    budget: Budget,
    oracle: tuple[int, Schedule] | None,
    warm: Schedule | None = None,
) -> SolveOutcome | None:
    target = max(horizon, 2)
    padded, T2, _pads = pad_to_power_of_two(inst, target)
    params = compute_params(T2, inst.m, eps, overrides=overrides or None)
    if oracle is not None:
        opt, best = oracle
        if opt > horizon:
            return None
        reference = _with_sinks(inst, padded, best, target)
        sys_out, virtual = solve_hinted(padded, reference, params, budget=budget)
    else:
        complete = warm is not None
        if complete:
            warm = _with_sinks(inst, padded, warm, target) if warm.makespan <= horizon else None
        sys_out, virtual = main_solve(padded, params, budget, warm=warm, complete=complete)
    valid = virtual
    if params.L > 0:
        canon = canonicalize(padded, sys_out, virtual, params)
        valid = virtually_valid_to_valid(padded, sys_out, canon, params)
    valid_orig = _originals(valid, inst.n)
    return SolveOutcome(
        horizon=horizon,
        padded_T=T2,
        virtual=_originals(virtual, inst.n),
        valid=valid_orig,
        discards=valid_orig.discard_count,
        nodes=budget.nodes,
    )
