"""Conversions between valid and virtually-valid schedules for a full system.

Two conversions: (1) rebuild a valid schedule's top jobs inside their
windows by sweeping aligned blocks per half-interval, discarding a
bounded remainder; (2) make a virtually-valid schedule valid in one step,
on one set of windows: canonicalize it by swapping violating pairs until
weak precedence and side-order agreement hold, then re-run each bottom
interval's top-job load through capacity-constrained list scheduling.
``canonicalize`` runs the first half of (2) alone.
"""

from __future__ import annotations

from collections.abc import Iterator

from .baselines import CapacityProfile, capacity_list_schedule
from .core import (
    DISC,
    Instance,
    Interval,
    JobSet,
    Schedule,
    Slot,
    chain_depths,
    count_inversions,
    iter_jobs,
    mask_from,
)
from .dyadic import (
    TOP,
    Params,
    PartialDyadicSystem,
    check_valid_for_system,
    check_virtually_valid,
    in_order,
    tree_for,
    window_step,
    windows,
)
from .errors import InvalidInput

_SWAP_CAP = 1_000_000


def _half_blocks(half: Interval, step: int, reverse: bool) -> list[Interval]:
    """Blocks of ``step`` slots from the begin of ``half``, the last one cut
    at its end (a step longer than the half, as with ``h = 0``, gives one)."""
    starts = range(half.begin, half.end, step)
    blocks = [Interval(b, min(b + step, half.end)) for b in starts]
    return blocks[::-1] if reverse else blocks


def valid_to_virtually_valid(
    inst: Instance,
    sys: PartialDyadicSystem,
    sched: Schedule,
    params: Params,
) -> Schedule:
    """Turn a schedule that is valid for the system into a virtually-valid one.

    Bottom jobs keep their slots.  Per top interval and half, the jobs stay
    on their side and reuse exactly the slots the input gave them, but each
    aligned block's occupants shift into later-processed blocks; whatever
    remains after the last block is discarded.  Per half that is at most
    one block's worth of jobs, so per top interval at most
    max(2**(1-h) |I|, 2**(h+1)) * m jobs are lost.
    """
    report = check_valid_for_system(inst, sys, params, sched)
    if not report.ok:
        raise InvalidInput(f"input schedule is not valid for the system:\n{report}")
    tree = tree_for(params)
    assign: list[Slot] = list(sched.assign)
    for i, jobs in in_order(tree, sys.assign):
        if not jobs or tree.kinds[i] != TOP:
            continue
        iv = tree.interval[i]
        step = window_step(params, iv.length)
        for half, reverse in ((iv.left, False), (iv.right, True)):
            members = [
                j for j in iter_jobs(jobs)
                if sched.assign[j] is not None and sched.assign[j] in half
            ]
            for j in members:
                assign[j] = DISC
            cap = {t: 0 for t in half.slots()}
            for j in members:
                cap[sched.assign[j]] += 1
            queue: list[int] = []
            for block in _half_blocks(half, step, reverse):
                free = [t for t in block.slots() for _ in range(cap[t])]
                for t in free[: len(queue)]:
                    assign[queue.pop(0)] = t
                queue.extend(j for j in members if sched.assign[j] in block)
    return Schedule(T=sched.T, assign=tuple(assign))


class _TopOrder:
    """The weak orders a canonical schedule keeps on its scheduled top jobs.

    Precedence, and within one owning interval and side of its center the
    key (window boundary on that side, chain depth among the owner's
    scheduled top jobs).  ``win`` is the system's ``windows`` and ``owner``
    maps each job to its owning interval's ``Interval``.  ``slot`` is a
    copy the swap loop may edit.
    """

    def __init__(self, inst: Instance, sys: PartialDyadicSystem, sched: Schedule,
                 params: Params) -> None:
        self.inst = inst
        self.win = windows(inst, sys, params)
        interval = tree_for(params).interval
        self.owner = {j: interval[i] for j, i in sys.owner_of().items()}
        self.jobs = sorted(j for j in self.win if sched.assign[j] is not None)
        self.slot: dict[int, int] = {j: sched.assign[j] for j in self.jobs}
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

    def out_of_order(self) -> Iterator[tuple[str, int, int]]:
        """Pairs (kind, x, y) with x ordered before y but slotted after it:
        every precedence pair, then every side pair, by ascending ids."""
        slot = self.slot
        for kind, less in (("precedence", self.inst.precedes), ("side", self.side_less)):
            for i, a in enumerate(self.jobs):
                for b in self.jobs[i + 1 :]:
                    if less(a, b) and slot[a] > slot[b]:
                        yield kind, a, b
                    elif less(b, a) and slot[b] > slot[a]:
                        yield kind, b, a

    def swap_to_fixpoint(self) -> int:
        """Swap the slots of the first out-of-order pair until none is
        left; returns the number of swaps."""
        jobs, win, owner, slot = self.jobs, self.win, self.owner, self.slot

        def dif_vector() -> tuple[int, int, int]:
            d1 = sum(owner[j].length * abs(slot[j] - owner[j].center) for j in jobs)
            sides = {j: 0 if self.side(j) == "L" else 1 for j in jobs}
            d2 = count_inversions(jobs, self.inst.precedes, sides)
            d3 = count_inversions(jobs, self.side_less, slot)
            return d1, d2, d3

        swaps = 0
        rank = dif_vector()
        while (pair := next(self.out_of_order(), None)) is not None:
            _, a, b = pair
            slot[a], slot[b] = slot[b], slot[a]
            swaps += 1
            for j in (a, b):
                wb, we = win[j]
                assert wb < slot[j] <= we, "swap broke a window constraint"
            new_rank = dif_vector()
            assert new_rank < rank, "swap did not decrease the ranking vector"
            rank = new_rank
            if swaps > _SWAP_CAP:  # pragma: no cover - strict decrease prevents this
                raise RuntimeError("canonicalization exceeded the swap cap")
        return swaps


def canonicalize(
    inst: Instance,
    sys: PartialDyadicSystem,
    sched: Schedule,
    params: Params,
) -> Schedule:
    """Reorder scheduled top jobs (by slot swaps) until weakly consistent.

    At the fixpoint, for scheduled top jobs: precedence implies
    slot(j) <= slot(j'), and so does the per-(interval, side) key order by
    (window boundary, chain depth).  Discards and bottom-job slots are
    unchanged; each swap stays inside both windows and strictly decreases
    the lexicographic ranking vector, which bounds the loop polynomially.
    """
    order = _TopOrder(inst, sys, sched, params)
    order.swap_to_fixpoint()
    return sched.replace(order.slot)


def canonical_violations(
    inst: Instance,
    sys: PartialDyadicSystem,
    sched: Schedule,
    params: Params,
) -> list[str]:
    """Pairs breaking the weak-order conditions of a canonical schedule."""
    order = _TopOrder(inst, sys, sched, params)
    return [f"{kind} pair ({x}, {y}) out of order" for kind, x, y in order.out_of_order()]


def virtually_valid_to_valid(
    inst: Instance,
    sys: PartialDyadicSystem,
    sched: Schedule,
    params: Params,
) -> Schedule:
    """Turn a virtually-valid schedule into a valid one.

    The scheduled top jobs are first canonicalized as ``canonicalize``
    does, on the one set of windows the input is checked with.  Bottom
    jobs and discards carry over.  The top jobs inside each bottom
    interval are then rescheduled there by capacity-constrained list
    scheduling over exactly the slots they occupy in the canonical
    schedule, discarding at most m * (chain length of that group) extra
    jobs per bottom interval.  With no top job scheduled the result is
    ``sched``.
    """
    order = _TopOrder(inst, sys, sched, params)
    report = check_virtually_valid(inst, sys, params, sched, win=order.win)
    if not report.ok:
        raise InvalidInput(f"input schedule is not virtually valid:\n{report}")
    order.swap_to_fixpoint()
    tree = tree_for(params)
    # every scheduled top job lies in one bottom interval, of 2**h slots
    groups: dict[int, JobSet] = {}
    for j, t in order.slot.items():
        leaf = (1 << tree.L) + ((t - 1) >> params.h)
        groups[leaf] = groups.get(leaf, 0) | 1 << j
    placed: dict[int, Slot] = {}
    for leaf, group in groups.items():
        iv = tree.interval[leaf]
        cap = [0] * iv.length
        for j in iter_jobs(group):
            cap[order.slot[j] - iv.begin - 1] += 1
        sub = capacity_list_schedule(inst, group, CapacityProfile(iv, tuple(cap)))
        placed.update((j, sub.assign[j]) for j in iter_jobs(group))
    return sched.replace(placed)
