"""The split-outcome walk as it was before it was memoized.

A test-only copy of the earlier ``psched.solver._guess_outcomes``: it walks
every terminating guess prefix, one stack entry per prefix, so a middle
interval with ``max_len = m * |I|`` can take up to ``2 ** max_len`` steps,
and it ticks no budget.  ``test_solver`` holds the memoized walk, which
visits each (residual set, guesses left) once, to the same list.
"""

from __future__ import annotations

from psched.core import Instance, JobSet
from psched.dyadic import LEFT, RIGHT, Guesses, Params, moved_with, split_budget, split_step
from psched.solver import SplitOutcome


def reference_guess_outcomes(
    inst: Instance,
    iv: int,
    jobs: JobSet,
    params: Params,
    max_len: int,
) -> list[tuple[Guesses, SplitOutcome]]:
    """Results of the split loop over all guess vectors of ``max_len``, one
    per terminating prefix, in the lexicographic order of the prefixes."""
    a, b = split_budget(params, iv)
    out: list[tuple[Guesses, SplitOutcome]] = []
    # (prefix, stay, to-left, to-right) after the prefix's split steps
    stack: list[tuple[Guesses, JobSet, JobSet, JobSet]] = [((), jobs, 0, 0)]
    while stack:
        prefix, stay, k_left, k_right = stack.pop()
        pivot = split_step(inst, stay, a, b, params.D)
        if pivot is None:
            out.append((prefix, (stay, k_left, k_right)))
        elif len(prefix) < max_len:
            right = moved_with(inst, pivot, RIGHT, stay)
            stack.append((prefix + (RIGHT,), stay & ~right, k_left, k_right | right))
            left = moved_with(inst, pivot, LEFT, stay)
            stack.append((prefix + (LEFT,), stay & ~left, k_left | left, k_right))
    return out

