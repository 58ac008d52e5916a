"""Bounds and list schedules that ``psched`` computes only inside
``baselines.bound_sandwich``.

Test-only copies of the earlier ``psched.baselines.level_bound`` and
``critical_path_list``, written from their definitions: ``test_baselines``
holds the sandwich's lower bound to ``level_bound`` and checks the
critical-path order on hand-made instances.
"""

from __future__ import annotations

from psched.baselines import tail_heights
from psched.core import DISC, Instance, Schedule, chain_depths


def level_bound(inst: Instance) -> int:
    """Hu's level lower bound on the makespan, taken from both ends:
    ``max over k of (k - 1) + ceil(|{j : height(j) >= k}| / m)`` for the
    tail heights and for the head depths."""
    best = 0
    for heights in (tail_heights(inst), list(chain_depths(inst, inst.all_jobs).values())):
        for k in range(1, max(heights, default=0) + 1):
            at_least = sum(1 for h in heights if h >= k)
            best = max(best, k - 1 + -(-at_least // inst.m))
    return best


def critical_path_list(inst: Instance) -> Schedule:
    """Graham's list schedule with ready jobs taken by longest tail first,
    ties to the smaller id."""
    height = tail_heights(inst)
    order = sorted(range(inst.n), key=lambda j: (-height[j], j))
    assign = [DISC] * inst.n
    done = t = 0
    while done.bit_count() < inst.n:
        t += 1
        ready = [j for j in order if not done >> j & 1 and inst.pred[j] & ~done == 0]
        for j in ready[: inst.m]:
            assign[j] = t
            done |= 1 << j
    return Schedule(T=t, assign=tuple(assign))
