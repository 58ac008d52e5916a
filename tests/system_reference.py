"""Structural checks and small helpers that only the tests use.

Test-only copies of the earlier ``psched.dyadic.check_system``,
``psched.core.Schedule.jobs_at`` and ``Schedule.discarded``, and
``psched.baselines.CapacityProfile.uniform``, the last three as plain
functions: the package calls none of them.  ``reference_system_from_schedule``
is the earlier ``psched.dyadic.system_from_schedule``, which ran the split
loop on every interval, an empty pool's included.
"""

from __future__ import annotations

from fractions import Fraction

from psched.baselines import CapacityProfile
from psched.core import (
    Instance,
    Interval,
    JobSet,
    Schedule,
    ValidityReport,
    Violation,
    iter_jobs,
    job_count,
    longest_chain,
    mask_from,
)
from psched.dyadic import (
    BOT,
    LEFT,
    MID,
    RIGHT,
    TOP,
    Guesses,
    Params,
    PartialDyadicSystem,
    _split,
    check_reference,
    full_system,
    in_order,
    split_budget,
    tree_for,
)


def check_system(
    inst: Instance,
    sys: PartialDyadicSystem,
    params: Params,
    require_full: bool = False,
) -> ValidityReport:
    """Check the four structural clauses of a system, with witnesses.

    Every key must be a heap index of the tree.  (a) Per-interval job
    sets mutually disjoint; (b) chain length within budget on every top
    interval; (c) middle intervals empty; (d) for in-order earlier
    intervals, no precedence constraints pointing back.  With
    ``require_full``: every job assigned.
    """
    tree = tree_for(params)
    out: list[Violation] = []
    size = len(tree.kinds)
    for i in sys.assign:
        if not 0 < i < size:
            out.append(Violation(
                "system-key", f"key {i} is not a tree interval (heap indices 1..{size - 1})"))
    items = in_order(tree, {i: jobs for i, jobs in sys.assign.items() if 0 < i < size})
    seen = 0
    for i, jobs in items:
        iv = tree.interval[i]
        if jobs & seen:
            dup = next(iter_jobs(jobs & seen))
            out.append(Violation("system-disjoint", f"job {dup} assigned twice (at {iv})"))
        seen |= jobs
        kind = tree.kinds[i]
        if kind == TOP:
            a, b = split_budget(params, i)
            bound = a * job_count(jobs) + b
            got = longest_chain(inst, jobs)
            if got * params.D > bound:
                out.append(Violation(
                    "system-chain",
                    f"chain {got} > budget {Fraction(bound, params.D)} on top {iv}"))
        elif kind == MID and jobs:
            out.append(Violation("system-middle", f"middle {iv} holds {job_count(jobs)} jobs"))
    items = [(i, jobs) for i, jobs in items if jobs]
    for k, (a, jobs_a) in enumerate(items):
        for b, jobs_b in items[k + 1 :]:
            # a is in-order before b: no constraints from later to earlier.
            if not inst.no_prec_between(jobs_b, jobs_a):
                out.append(Violation(
                    "system-order",
                    f"precedence from jobs of {tree.interval[b]} back to jobs of "
                    f"{tree.interval[a]}"))
    if require_full:
        missing = inst.all_jobs & ~sys.jobs_assigned()
        if missing:
            out.append(Violation(
                "system-cover", f"jobs {list(iter_jobs(missing))} not assigned"))
    return ValidityReport(violations=tuple(out))


def discarded(sched: Schedule) -> JobSet:
    """The jobs ``sched`` discards."""
    return mask_from(j for j, t in enumerate(sched.assign) if t is None)


def jobs_at(sched: Schedule, t: int) -> JobSet:
    """The jobs ``sched`` places at slot ``t``."""
    return mask_from(j for j, s in enumerate(sched.assign) if s == t)


def uniform_profile(interval: Interval, cap: int) -> CapacityProfile:
    """``cap`` machines at every slot of ``interval``."""
    return CapacityProfile(interval, (cap,) * interval.length)


def reference_system_from_schedule(
    inst: Instance,
    sched: Schedule,
    params: Params,
) -> tuple[PartialDyadicSystem, dict[int, JobSet], dict[int, Guesses]]:
    """The system, covered sets and guess vectors of ``sched``, each split
    recorded by the split loop, in the walk's preorder."""
    check_reference(inst, sched, params)
    tree = tree_for(params)
    assign: dict[int, JobSet] = {}
    covered: dict[int, JobSet] = {}
    guesses: dict[int, Guesses] = {}

    def walk(i: int, pool: JobSet) -> None:
        covered[i] = pool
        if tree.kinds[i] == BOT:
            assign[i] = pool
            return
        begin, end = tree.span[i]
        center = (begin + end) // 2

        def side_of(q: int, j: int) -> str:
            return LEFT if sched.assign[j] <= center else RIGHT

        stay, k_left, k_right, sides = _split(inst, i, pool, params, side_of)
        assign[i] = stay
        guesses[i] = sides
        walk(2 * i, k_left)
        walk(2 * i + 1, k_right)

    walk(1, inst.all_jobs)
    return full_system(assign), covered, guesses
