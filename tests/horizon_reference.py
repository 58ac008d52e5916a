"""One horizon attempt that always runs the solver on the padded instance.

A test-only copy of ``psched.pipeline.solve_at_horizon`` without its
collapsed route on the instance itself: the oracle's schedule, extended
with the padding sinks, is replayed through ``solve_hinted`` on the padded
instance at every depth; otherwise ``main_solve`` searches the padded
instance.  Every attempt with ``L > 0`` converts its schedule through the
earlier two-step chain (``convert_reference``).  ``test_cli`` holds deep
and oracle attempts to the same ``SolveOutcome``, node count included,
and checks with it that a collapsed run's horizon is the smallest that
fits.
"""

from __future__ import annotations

from fractions import Fraction

from psched.core import Instance, Schedule
from psched.dyadic import compute_params
from psched.pipeline import SolveOutcome, _originals, _with_sinks
from psched.solver import Budget, main_solve, solve_hinted
from psched.transform import pad_to_power_of_two

from convert_reference import reference_convert


def reference_solve_at_horizon(
    inst: Instance,
    horizon: int,
    eps: Fraction,
    overrides: dict,
    budget: Budget,
    oracle: tuple[int, Schedule] | None,
) -> SolveOutcome | None:
    padded, T2, _pads = pad_to_power_of_two(inst, horizon)
    params = compute_params(T2, inst.m, eps, overrides=overrides or None)
    if oracle is not None:
        opt, best = oracle
        if opt > horizon:
            return None
        reference = _with_sinks(inst, padded, best, horizon)
        sys_out, virtual = solve_hinted(padded, reference, params)
    else:
        sys_out, virtual = main_solve(padded, params, budget)
    valid = virtual
    if params.L > 0:
        valid = reference_convert(padded, sys_out, virtual, params)
    valid_orig = _originals(valid, inst.n)
    return SolveOutcome(
        horizon=horizon,
        padded_T=T2,
        virtual=_originals(virtual, inst.n),
        valid=valid_orig,
        nodes=budget.nodes,
    )
