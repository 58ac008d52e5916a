"""Horizon padding, discarded-job re-insertion, and the outer makespan search."""

from __future__ import annotations

from collections.abc import Callable
from typing import TypeVar

from .baselines import bound_sandwich
from .core import Instance, JobSet, Schedule, iter_jobs, verify_valid
from .errors import InvalidInput, NoSolution

R = TypeVar("R")


def next_power_of_two(x: int) -> int:
    if x < 1:
        raise ValueError("need x >= 1")
    return 1 << (x - 1).bit_length()


def padded_horizon(T: int) -> int:
    """The horizon ``pad_to_power_of_two`` pads ``T`` to: the smallest power
    of two >= max(T, 2), the shortest horizon a tree has."""
    return next_power_of_two(max(T, 2))


def pad_to_power_of_two(inst: Instance, T: int) -> tuple[Instance, int, JobSet]:
    """Extend the instance so the target horizon becomes a power of two.

    Adds ``m * (T' - T)`` sink jobs, each preceded by every original job,
    where ``T'`` is ``padded_horizon(T)``.  Original job ids are
    preserved; returns ``(padded instance, T', mask of added jobs)``.
    """
    T2 = padded_horizon(T)
    extra = inst.m * (T2 - T)
    if extra == 0:
        return inst, T2, 0
    n2 = inst.n + extra
    originals = inst.all_jobs
    pad_mask = ((1 << n2) - 1) ^ originals
    succ = [s | pad_mask for s in inst.succ] + [0] * extra
    pred = list(inst.pred) + [originals] * extra
    topo = inst.topo + tuple(range(inst.n, n2))
    padded = Instance(n=n2, m=inst.m, succ=tuple(succ), pred=tuple(pred), topo=topo)
    return padded, T2, pad_mask


def insert_discarded(inst: Instance, sched: Schedule) -> Schedule:
    """Insert every discarded job back, growing the makespan by one per job.

    Each discarded job goes right after its latest-scheduled predecessor
    (slot 0 if none), with the suffix of the schedule shifted right by one
    slot to make room.  Jobs are inserted in topological order so that a
    discarded predecessor is placed before its discarded successors.
    """
    base = verify_valid(inst, sched)
    if not base.ok:
        raise InvalidInput(f"schedule is not valid before insertion:\n{base}")
    assign = list(sched.assign)
    T = sched.T
    for j in inst.topo:
        if assign[j] is not None:
            continue
        t = 0
        for i in iter_jobs(inst.pred[j]):
            ti = assign[i]
            if ti is not None and ti > t:
                t = ti
        T += 1
        for i, ti in enumerate(assign):
            if ti is not None and ti >= t + 1:
                assign[i] = ti + 1
        assign[j] = t + 1
    return Schedule(T=T, assign=tuple(assign))


def binary_search_makespan(
    inst: Instance,
    solver: Callable[[int], R | None],
    bounds: tuple[int, Schedule] | None = None,
) -> tuple[int, R]:
    """Smallest horizon found at which ``solver`` succeeds, with what
    ``solver`` returned there (``None`` is failure; any other answer is
    passed through as it is).  An instance with no jobs has level bound
    and list schedule 0, so ``solver`` is asked at horizon 0 alone.

    ``bounds`` is ``bound_sandwich(inst)``, computed here when omitted.
    Probes the level lower bound ``lo`` first.  No horizon below ``lo``
    can succeed, so a success there is returned at once and is minimal
    even when success is not monotone in the horizon.  Otherwise probes
    the makespan of the upper bound's list schedule (a valid schedule, so
    never below ``lo``) and, if that fails too, ``n``.  The first of them
    that succeeds caps a bisection of the horizons between it and the
    last failure; only that bisection assumes monotone success.  Raises
    ``NoSolution`` when ``n`` fails.
    """
    lo, upper = bounds or bound_sandwich(inst)
    best = solver(lo)
    if best is not None:
        return lo, best
    for hi in (upper.makespan, inst.n):
        if hi > lo:
            best = solver(hi)
            if best is not None:
                break
            lo = hi
    else:
        raise NoSolution(f"solver failed at horizon n={inst.n}")
    lo, best_T = lo + 1, hi
    while lo < best_T:
        mid = (lo + best_T) // 2
        got = solver(mid)
        if got is None:
            lo = mid + 1
        else:
            best, best_T = got, mid
    return best_T, best
