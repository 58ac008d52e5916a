"""The virtually-valid to valid conversion as it was before it became one step.

A test-only copy of the earlier two-step chain of ``psched.convert``:
``reference_canonicalize`` swaps out-of-order pairs of scheduled top jobs
to the fixpoint, and ``reference_regroup`` then checks that its input is
virtually valid and canonical (``NotCanonical`` otherwise) before
re-running each bottom interval's top-job load through
capacity-constrained list scheduling.  ``reference_convert`` runs both on
one set of windows, as the pipeline did.  ``test_convert`` holds
``virtually_valid_to_valid`` to its schedules.
"""

from __future__ import annotations

from psched.baselines import CapacityProfile, capacity_list_schedule
from psched.core import (
    Instance,
    Interval,
    Schedule,
    Slot,
    chain_depths,
    count_inversions,
    iter_jobs,
    mask_from,
)
from psched.dyadic import (
    Params,
    PartialDyadicSystem,
    Window,
    check_virtually_valid,
    tree_for,
    windows,
)
from psched.errors import InvalidInput


class NotCanonical(ValueError):
    """The regroup step's input breaks the canonical order conditions."""


class _Order:
    """Precedence and the per-(owner, side) key order on scheduled top jobs."""

    def __init__(self, inst: Instance, sys: PartialDyadicSystem, sched: Schedule,
                 params: Params, win: dict[int, Window]) -> None:
        self.inst = inst
        self.win = win
        interval = tree_for(params).interval
        self.owner = {j: interval[i] for j, i in sys.owner_of().items()}
        self.jobs = sorted(j for j in win if sched.assign[j] is not None)
        self.slot = {j: sched.assign[j] for j in self.jobs}
        by_interval: dict[Interval, list[int]] = {}
        for j in self.jobs:
            by_interval.setdefault(self.owner[j], []).append(j)
        self.depth: dict[int, int] = {}
        for members in by_interval.values():
            self.depth.update(chain_depths(inst, mask_from(members)))

    def side(self, j: int) -> str:
        return "L" if self.slot[j] in self.owner[j].left else "R"

    def side_less(self, a: int, b: int) -> bool:
        if self.owner[a] != self.owner[b] or self.side(a) != self.side(b):
            return False
        k = 0 if self.side(a) == "L" else 1
        return (self.win[a][k], self.depth[a]) < (self.win[b][k], self.depth[b])

    def out_of_order(self):
        slot = self.slot
        for kind, less in (("precedence", self.inst.precedes), ("side", self.side_less)):
            for i, a in enumerate(self.jobs):
                for b in self.jobs[i + 1 :]:
                    if less(a, b) and slot[a] > slot[b]:
                        yield kind, a, b
                    elif less(b, a) and slot[b] > slot[a]:
                        yield kind, b, a


def reference_canonicalize(inst: Instance, sys: PartialDyadicSystem, sched: Schedule,
                           params: Params, win: dict[int, Window]) -> Schedule:
    """Swap the first out-of-order pair until none is left."""
    order = _Order(inst, sys, sched, params, win)
    jobs, owner, slot = order.jobs, order.owner, order.slot

    def rank() -> tuple[int, int, int]:
        d1 = sum(owner[j].length * abs(slot[j] - owner[j].center) for j in jobs)
        sides = {j: 0 if order.side(j) == "L" else 1 for j in jobs}
        return (d1, count_inversions(jobs, inst.precedes, sides),
                count_inversions(jobs, order.side_less, slot))

    before = rank()
    while (pair := next(order.out_of_order(), None)) is not None:
        _, a, b = pair
        slot[a], slot[b] = slot[b], slot[a]
        for j in (a, b):
            assert win[j][0] < slot[j] <= win[j][1], "swap broke a window constraint"
        after = rank()
        assert after < before, "swap did not decrease the ranking vector"
        before = after
    return sched.replace(slot)


def reference_regroup(inst: Instance, sys: PartialDyadicSystem, sched: Schedule,
                      params: Params, win: dict[int, Window]) -> Schedule:
    """Check a canonical virtually-valid ``sched`` and list-schedule each
    bottom interval's top jobs over the slots they occupy."""
    report = check_virtually_valid(inst, sys, params, sched, win=win)
    if not report.ok:
        raise InvalidInput(f"input schedule is not virtually valid:\n{report}")
    bad = [f"{kind} pair ({x}, {y}) out of order"
           for kind, x, y in _Order(inst, sys, sched, params, win).out_of_order()]
    if bad:
        raise NotCanonical("; ".join(bad))
    tree = tree_for(params)
    assign: list[Slot] = list(sched.assign)
    for i in tree.below(1, tree.L):
        iv = tree.interval[i]
        group = mask_from(
            j for j in win if sched.assign[j] is not None and sched.assign[j] in iv)
        if not group:
            continue
        cap = [0] * iv.length
        for j in iter_jobs(group):
            cap[sched.assign[j] - iv.begin - 1] += 1
        sub = capacity_list_schedule(inst, group, CapacityProfile(iv, tuple(cap)))
        for j in iter_jobs(group):
            assign[j] = sub.assign[j]
    return Schedule(T=sched.T, assign=tuple(assign))


def reference_convert(inst: Instance, sys: PartialDyadicSystem, sched: Schedule,
                      params: Params) -> Schedule:
    """Both steps on the system's ``windows``, computed once."""
    win = windows(inst, sys, params)
    canon = reference_canonicalize(inst, sys, sched, params, win)
    return reference_regroup(inst, sys, canon, params, win)
