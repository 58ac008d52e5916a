"""List-scheduling baselines, makespan bounds and the exact oracle.

The oracle is the bound sandwich followed, when it does not certify, by
an exhaustive search of its own (``_fits``) at each horizon in turn.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import combinations

from .core import (
    DISC,
    Instance,
    Interval,
    JobSet,
    Schedule,
    Slot,
    chain_depths,
    iter_jobs,
    job_count,
    mask_from,
)
from .errors import Budget, CapacityDeficit


@dataclass(frozen=True)
class CapacityProfile:
    """Per-slot machine capacities over an interval."""

    interval: Interval
    cap: tuple[int, ...]  # one entry per slot of `interval`, each in [0, m]

    def __post_init__(self) -> None:
        if len(self.cap) != self.interval.length:
            raise ValueError("capacity vector length must match interval length")
        if any(c < 0 for c in self.cap):
            raise ValueError("capacities must be nonnegative")

    def total(self) -> int:
        return sum(self.cap)


def graham_list(inst: Instance) -> Schedule:
    """Greedy non-idling list schedule: at each slot run up to ``m`` ready jobs.

    Ready jobs are taken in ascending id.  Never discards; the makespan is
    at most (longest chain) + ceil(n/m).
    """
    return _list_schedule(inst, range(inst.n))


def _list_schedule(inst: Instance, priority: Sequence[int]) -> Schedule:
    """Run up to ``m`` ready jobs per slot, the first ones in ``priority``
    (every job once); the loop of every list schedule here.  Each slot
    scans the jobs left, in priority order, up to its ``m``-th ready one."""
    pred, m = inst.pred, inst.m
    assign: list[Slot] = [DISC] * inst.n
    left, done, t = list(priority), 0, 0
    while left:
        t += 1
        rest: list[int] = []
        batch = taken = 0
        for k, j in enumerate(left):
            if pred[j] & ~done:
                rest.append(j)
                continue
            assign[j] = t
            batch |= 1 << j
            taken += 1
            if taken == m:
                rest += left[k + 1 :]
                break
        done |= batch
        left = rest
    return Schedule(T=max(t, 1) if inst.n else 0, assign=tuple(assign))


def tail_heights(inst: Instance) -> list[int]:
    """Per job, the length of the longest chain that starts at it."""
    height = [0] * inst.n
    succ = inst.succ
    for j in reversed(inst.topo):
        h, rest = 0, succ[j]
        while rest:
            low = rest & -rest
            hs = height[low.bit_length() - 1]
            if hs > h:
                h = hs
            rest ^= low
        height[j] = h + 1
    return height


def height_counts(heights: Iterable[int]) -> list[int]:
    """Entry ``k`` counts the heights equal to ``k``, up to the largest
    (``[0]`` for none)."""
    count = [0]
    for k in heights:
        if k >= len(count):
            count += [0] * (k + 1 - len(count))
        count[k] += 1
    return count


def _level(per_height: Sequence[int], m: int) -> int:
    """``max over k of (k - 1) + ceil(|{j : height(j) >= k}| / m)``, given
    ``per_height[k]`` jobs of height ``k``; heights no job reaches skipped."""
    best = at_least = 0
    for k in range(len(per_height) - 1, 0, -1):
        at_least += per_height[k]
        if at_least and k - 1 + -(-at_least // m) > best:
            best = k - 1 + -(-at_least // m)
    return best


def bound_sandwich(inst: Instance) -> tuple[int, Schedule]:
    """A certified makespan range ``(lower, upper)``: the level bound, below
    which no schedule ends, and the shorter of the Graham and critical-path
    list schedules (Graham's on a tie), a valid schedule the optimum is no
    longer than.  When ``upper.makespan == lower``, ``upper`` is optimal.
    The critical-path list takes ready jobs by longest tail first.  It is
    built only when Graham's schedule is longer than ``lower``: otherwise
    nothing is shorter, and Graham's wins the tie.

    Hu's level bound: a job of tail height ``k`` runs in the first
    ``C - (k - 1)`` slots of a schedule of makespan ``C``, so at most ``m``
    jobs per slot gives ``C >= (k - 1) + ceil(|{j : height(j) >= k}| / m)``;
    likewise for head depths read backwards in time.  It is never below
    ``max(longest chain, ceil(n/m))``."""
    height = tail_heights(inst)
    depths = chain_depths(inst, inst.all_jobs).values()
    lower = max(_level(height_counts(height), inst.m), _level(height_counts(depths), inst.m))
    upper = graham_list(inst)
    if upper.makespan > lower:
        # a stable sort in reverse keeps ascending ids among equal heights
        critical = _list_schedule(
            inst, sorted(range(inst.n), key=height.__getitem__, reverse=True))
        if critical.makespan < upper.makespan:
            upper = critical
    return lower, upper


def capacity_list_schedule(
    inst: Instance, jobs: JobSet, profile: CapacityProfile
) -> Schedule:
    """Schedule ``jobs`` inside the profile's interval, discarding leftovers.

    Greedy per slot: run as many ready jobs as the slot's capacity allows
    (ascending id).  When capacities sum to more than ``|jobs|`` the excess
    is trimmed away from the latest slots first.  Discards at most
    ``m * longest_chain(jobs)`` jobs; precedence is respected within
    ``jobs`` and per-slot counts never exceed the (untrimmed) capacities.
    """
    total, want = profile.total(), job_count(jobs)
    if total < want:
        raise CapacityDeficit(f"capacity {total} < {want} jobs")
    cap = list(profile.cap)
    surplus = total - want
    for i in range(len(cap) - 1, -1, -1):
        if surplus == 0:
            break
        take = min(cap[i], surplus)
        cap[i] -= take
        surplus -= take

    assign: dict[int, Slot] = {j: DISC for j in iter_jobs(jobs)}
    done: JobSet = 0
    for idx, t in enumerate(profile.interval.slots()):
        if cap[idx] == 0:
            continue
        ready = [
            j
            for j in iter_jobs(jobs & ~done)
            if inst.pred[j] & jobs & ~done == 0
        ]
        for j in ready[: cap[idx]]:
            assign[j] = t
            done |= 1 << j
    full = [DISC] * inst.n
    for j, t in assign.items():
        full[j] = t
    return Schedule(T=profile.interval.end, assign=tuple(full))


def _fits(inst: Instance, T: int, budget: Budget) -> Schedule | None:
    """A schedule of every job in slots ``1..T`` (``inst`` has one at
    least), or ``None`` when none exists.

    Depth-first over slots, each slot running a batch of ``min(m, #ready)``
    ready jobs, batches in lexicographic order of their ascending members
    (a unit-job schedule that fits can be made to never idle a machine
    while a job is ready); the first schedule found is returned.  A child
    whose ``(slot, alive)`` state already failed, or whose alive jobs break
    Hu's level bound for the slots left, read from per-height counts kept
    along the search, is skipped before it is entered.  A child's ready
    jobs are its parent's without the batch, plus the jobs directly after
    the batch with no predecessor left alive.  The root and each entered
    child tick ``budget``, the root even when ``m * T < n`` ends the search.
    The search recurses once per slot, so one that would recurse as deep
    as ``sys.getrecursionlimit()`` raises ``ValueError`` after the root.
    """
    n, m, pred, succ = inst.n, inst.m, inst.pred, inst.succ
    budget.tick()
    if m * T < n:
        return None
    depth = min(T, n)  # a job a slot at least, and none once all are placed
    if depth >= sys.getrecursionlimit():
        raise ValueError(
            f"horizon {T} is too long to search: it recurses once per slot, "
            f"{depth} levels, and the recursion limit is {sys.getrecursionlimit()}")
    failed: set[tuple[int, JobSet]] = set()
    height = tail_heights(inst)
    per_height = height_counts(height)
    cover = []  # the jobs directly after each job
    for j in range(n):
        far = 0
        for k in iter_jobs(succ[j]):
            far |= succ[k]
        cover.append(succ[j] & ~far)
    assign: list[Slot] = [DISC] * n

    def fill(t: int, alive: JobSet, ready: JobSet) -> bool:
        """Place every job of ``alive`` from slot ``t`` on; ``ready`` is
        the jobs of ``alive`` with no predecessor alive."""
        if not alive:
            return True
        ready_jobs = list(iter_jobs(ready))
        for batch in combinations(ready_jobs, min(m, len(ready_jobs))):
            placed = mask_from(batch)
            child = alive & ~placed
            for j in batch:
                per_height[height[j]] -= 1
            if (t + 1, child) not in failed and _level(per_height, m) <= T - t:
                budget.tick()
                # a success places every job, so slots left by failed
                # branches are all overwritten
                for j in batch:
                    assign[j] = t
                # a job that becomes ready follows a job of the batch with
                # no job between: one between would follow the batch job,
                # so be alive, and precede the new one, so be in the batch,
                # which is an antichain
                after = 0
                for j in batch:
                    after |= cover[j]
                child_ready = ready & ~placed
                for s in iter_jobs(after & child):
                    if not pred[s] & child:
                        child_ready |= 1 << s
                if fill(t + 1, child, child_ready):
                    return True
                failed.add((t + 1, child))
            for j in batch:
                per_height[height[j]] += 1
        return False

    try:
        ready = mask_from(j for j in range(n) if not pred[j])
        return Schedule(T=T, assign=tuple(assign)) if fill(1, inst.all_jobs, ready) else None
    finally:
        del fill  # it refers to itself: free what it captures now, not at a collection


def exact_opt(
    inst: Instance,
    bounds: tuple[int, Schedule] | None = None,
    budget: Budget | None = None,
) -> tuple[int, Schedule]:
    """Minimum-makespan zero-discard schedule: certified by the bound
    sandwich when it can be, otherwise by exhaustive search.

    ``bounds`` is ``bound_sandwich(inst)``, computed here when omitted.
    When its list schedule meets the level bound, that schedule is optimal
    and is returned as it is.  Otherwise ``_fits`` decides each horizon T
    from the level bound up to the list schedule's makespan, and the first
    with a schedule of every job is returned with it.  ``budget`` (a fresh
    ``Budget`` when omitted) counts the nodes of every horizon tried and
    raises ``BudgetExceeded`` when they run out.
    """
    if inst.n == 0:
        return 0, Schedule(T=0, assign=())
    lower, upper = bounds or bound_sandwich(inst)
    if upper.makespan == lower:
        return lower, upper
    budget = budget or Budget()
    for T in range(lower, upper.makespan + 1):
        sched = _fits(inst, T, budget)
        if sched is not None:
            return T, sched
    raise AssertionError("the list schedule fits in its own makespan")  # pragma: no cover
