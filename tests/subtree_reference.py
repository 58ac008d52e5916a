"""The subtree solver as it was before count bounds cut candidates, and the
hinted replay as it was before it became a loop over bottom intervals.

A test-only copy of the earlier ``psched.solver._solve_subtree``: it solves
every split-outcome combination and every partition to the end, whether or
not its job counts can beat the incumbent, and recounts the jobs each
result places rather than reading the count a result carries; and of the
earlier loop of
``psched.solver.main_solve``, which tried every outer state even after one
placed every job.  ``test_solver`` patches both in and holds the current
solver to the same systems and schedules, never more nodes.

The same recursion keeps its hinted branch, with the earlier ``Hints``,
outer cascades and split outcomes: ``reference_solve_hinted`` replays a
reference through every node of the tree, one candidate per node, with
each split outcome read from the reference system and each pool
partitioned where the virtually-valid reference puts it, and each bottom
interval searched by ``bottom_reference.reference_bottom_solve`` started
from the reference's slots there.  ``test_solver`` holds ``solve_hinted``,
which answers with the reference's system and virtually-valid schedule
without a search, to its schedules, and to its systems wherever a job is
placed: a recursion that places none keeps its trivial starting system.

``pruned_main_solve`` is the count-bounded enumeration as it was before
its per-state path was reworked: each state asks ``tree_for`` for the
tree, recounts every result's placed jobs, restricts the parent's maps to
each half with four ``_restrict`` calls, walks every guess prefix
(``split_reference``) and computes windows and partitions with the
earlier ``node_windows`` and
``partition_reference.reference_placeable_partitions``.  Like the solver,
it answers a subproblem with no job at once and counts nothing for it,
and answers a repeat of a subproblem at the same heap index from its
memo.
``test_solver`` holds ``main_solve`` to its systems, schedules and node
counts.

Both keep the earlier record forms: a system entry for every interval,
empty ones included (``_preorder`` lists an empty subtree's), and a
``DISC`` entry for every discarded job (``_bottom_solve`` fills them in
around ``solver.bottom_solve``).  The tests compare through
``record_forms``.  A subproblem's ancestors are the keys of its windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from psched import solver
from psched.convert import valid_to_virtually_valid
from psched.core import DISC, Instance, JobSet, Schedule, Slot, iter_jobs, job_count, mask_from
from psched.dyadic import (
    BOT,
    TOP,
    Params,
    Window,
    full_system,
    node_windows,
    system_from_schedule,
    tree_for,
    window_step,
)
from psched.solver import (
    Budget,
    PartialAssign,
    Result,
    SolveMemo,
    SplitOutcome,
    SubproblemInput,
    bottom_solve,
    enumerate_partitions,
)

from bottom_reference import reference_bottom_solve
from partition_reference import reference_placeable_partitions
from record_forms import discarded
from split_reference import reference_guess_outcomes


def _restrict(mp: dict[int, JobSet], half: int) -> dict[int, JobSet]:
    """The entries of ``mp`` at heap index ``half`` or below it."""
    hb = half.bit_length()
    return {i: jobs for i, jobs in mp.items() if i >> max(i.bit_length() - hb, 0) == half}


def _ancestors(sub: SubproblemInput) -> JobSet:
    """The ancestors of ``sub``: the jobs its windows name."""
    return mask_from(sub.anc_windows)


def _preorder(tree, i: int) -> list[int]:
    """Indices of the subtree under index ``i`` in preorder."""
    order, todo = [], [i]
    while todo:
        k = todo.pop()
        order.append(k)
        if k < 1 << tree.L:
            todo += (2 * k + 1, 2 * k)
    return order


def _bottom_solve(inst, iv, bottom, ancestors, anc_windows, budget):
    """``solver.bottom_solve`` with a ``DISC`` entry for every job it
    discards, as it gave them."""
    return {**dict.fromkeys(iter_jobs(bottom | ancestors), DISC),
            **bottom_solve(inst, iv, bottom, anc_windows, budget)}


@dataclass(frozen=True)
class Hints:
    """A virtually-valid reference to replay, and the split outcomes
    recorded from its system: ``outcomes`` maps each non-bottom heap index
    to the (stay, to-left, to-right) outcome of the split there."""

    reference: Schedule
    outcomes: dict[int, SplitOutcome]


def _split_outcomes(inst, f, jobs, params, hints, memo):
    """The one outcome recorded at ``f`` with hints, else the solver's."""
    if hints is not None:
        return (hints.outcomes[f],)
    return solver._split_outcomes(inst, f, jobs, params, memo, Budget())


def _schedule_subtree(inst, sub, params, budget, memo, hints):
    """A child's solve: a hinted one enters every node without the memo,
    the enumeration goes through ``solver.schedule_subtree`` and its memo."""
    if hints is not None:
        return reference_solve_subtree(inst, sub, params, budget, memo, hints)
    return solver.schedule_subtree(inst, sub, params, budget, memo)


def reference_solve_subtree(
    inst: Instance,
    sub: SubproblemInput,
    params: Params,
    budget: Budget,
    memo: SolveMemo,
    hints: Hints | None = None,
) -> Result | None:
    budget.tick()
    tree = tree_for(params)
    i = sub.root
    begin, end = tree.span[i]
    center = (begin + end) // 2
    cap = params.m * (end - begin)
    ancestors = _ancestors(sub)
    if job_count(ancestors) > cap:
        return None
    own = 0
    for jobs in (*sub.assigned.values(), *sub.pending.values()):
        own |= jobs
    if job_count(own) > cap:
        return None

    if tree.kinds[i] == BOT:
        bottom = sub.assigned.get(i, 0) | sub.pending.get(i, 0)
        if hints is None:
            assign = _bottom_solve(inst, tree.interval[i], bottom, ancestors, sub.anc_windows,
                                   budget)
        else:
            ref = hints.reference.assign
            warm = {
                j: (ref[j] if ref[j] is not None and begin < ref[j] <= end else None)
                for j in iter_jobs(bottom | ancestors)
            }
            assign = reference_bottom_solve(
                inst, tree.interval[i], bottom, ancestors, sub.anc_windows, params,
                budget=budget, warm=warm,
            )
        return {i: bottom}, assign

    frontier = tree.below(i, params.h - 1)
    if not frontier:
        splits = iter(((),))
    else:
        per_interval: list[list[tuple[int, SplitOutcome | None]]] = []
        for f in frontier:
            jobs = sub.pending.get(f, 0)
            if tree.kinds[f] == BOT:
                per_interval.append([(f, None)])
                continue
            options = _split_outcomes(inst, f, jobs, params, hints, memo)
            if not options:
                return None
            per_interval.append([(f, result) for result in options])
        splits = product(*per_interval)

    best: Result | None = None
    best_count = -1
    for combo in splits:
        j_map = dict(sub.assigned)
        k_map: dict[int, JobSet] = {}
        for f, outcome in combo:
            if outcome is None:
                j_map[f] = sub.pending.get(f, 0)
            else:
                stay, k_left, k_right = outcome
                j_map[f] = stay
                k_map[2 * f] = k_left
                k_map[2 * f + 1] = k_right
        own_windows = node_windows(inst, i, j_map, k_map, params)
        pool_windows = {**sub.anc_windows, **own_windows}

        if hints is not None:
            ref = hints.reference.assign
            pool = ancestors | j_map.get(i, 0)
            j_left = mask_from(
                j for j in iter_jobs(pool)
                if ref[j] is not None and begin < ref[j] <= center
            )
            j_right = mask_from(
                j for j in iter_jobs(pool)
                if ref[j] is not None and center < ref[j] <= end
            )
            partitions = [(j_left, j_right, pool & ~(j_left | j_right))]
        else:
            pool = mask_from(pool_windows)
            partitions = [(j_left, j_right, discarded(pool, j_left, j_right))
                          for j_left, j_right in enumerate_partitions(pool_windows,
                                                                      tree.interval[i])]

        lo_assigned, lo_pending = _restrict(j_map, 2 * i), _restrict(k_map, 2 * i)
        hi_assigned, hi_pending = _restrict(j_map, 2 * i + 1), _restrict(k_map, 2 * i + 1)
        for j_left, j_right, j_disc in partitions:
            left_in = SubproblemInput(
                root=2 * i,
                anc_windows={j: pool_windows[j] for j in iter_jobs(j_left)},
                assigned=lo_assigned,
                pending=lo_pending,
            )
            right_in = SubproblemInput(
                root=2 * i + 1,
                anc_windows={j: pool_windows[j] for j in iter_jobs(j_right)},
                assigned=hi_assigned,
                pending=hi_pending,
            )
            left = _schedule_subtree(inst, left_in, params, budget, memo, hints)
            if left is None:
                continue
            right = _schedule_subtree(inst, right_in, params, budget, memo, hints)
            if right is None:
                continue
            (lsys, lassign), (rsys, rassign) = left, right
            merged: PartialAssign = dict(lassign)
            merged.update(rassign)
            for j in iter_jobs(j_disc):
                merged[j] = DISC
            count = sum(1 for t in merged.values() if t is not None)
            if count > best_count:
                assign_map = {i: j_map.get(i, 0)}
                assign_map.update(lsys)
                assign_map.update(rsys)
                best = assign_map, merged
                best_count = count
    return best


def _outer_cascades(inst, params, budget, hints, memo):
    """The earlier ``solver._outer_cascades``, reading hints when given."""
    tree = tree_for(params)
    m = params.m
    outer = range(1, 1 << max(min(params.h - 1, tree.L + 1), 0))
    frontier = tree.below(1, params.h - 1)

    def walk(idx, j_map, k_map):
        budget.tick()
        if idx == len(outer):
            yield dict(j_map), {f: k_map.get(f, 0) for f in frontier}
            return
        f = outer[idx]
        jobs = k_map.get(f, 0)
        if tree.kinds[f] == BOT:
            j_map[f] = jobs
            yield from walk(idx + 1, j_map, k_map)
            del j_map[f]
            return
        half = m * (params.T >> (f.bit_length() - 1)) // 2
        for stay, k_left, k_right in _split_outcomes(inst, f, jobs, params, hints, memo):
            if job_count(k_left) > half or job_count(k_right) > half:
                continue
            j_map[f] = stay
            k_map[2 * f] = k_left
            k_map[2 * f + 1] = k_right
            yield from walk(idx + 1, j_map, k_map)
            del j_map[f], k_map[2 * f], k_map[2 * f + 1]

    try:
        yield from walk(0, {}, {1: inst.all_jobs})
    finally:
        del walk


def reference_main_solve(
    inst: Instance,
    params: Params,
    budget: Budget | None = None,
    hints: Hints | None = None,
):
    """The earlier ``main_solve`` on a tree with ``L > 0``."""
    budget = budget or Budget()
    tree = tree_for(params)
    assert tree.L > 0 and inst.n > 0
    best = {1 << tree.L: inst.all_jobs}
    best_sched = Schedule(T=params.T, assign=(DISC,) * inst.n)
    memo = SolveMemo(tree=tree)
    best_count = 0
    for j_map, pending in _outer_cascades(inst, params, budget, hints, memo):
        sub = SubproblemInput(root=1, assigned=j_map, pending=pending)
        got = _schedule_subtree(inst, sub, params, budget, memo, hints)
        if got is None:
            continue
        sys_assign, assign = got
        count = sum(1 for t in assign.values() if t is not None)
        if count > best_count:
            full_assign: list[Slot] = [DISC] * inst.n
            for j, t in assign.items():
                full_assign[j] = t
            best = sys_assign
            best_sched = Schedule(T=params.T, assign=tuple(full_assign))
            best_count = count
    return full_system(best), best_sched


def reference_solve_hinted(
    inst: Instance,
    reference: Schedule,
    params: Params,
    budget: Budget | None = None,
):
    """The earlier ``solve_hinted`` on a tree with ``L > 0``: the split
    outcomes recorded from the reference system, replayed through the
    recursion with the virtually-valid reference."""
    ref_sys, covered, _ = system_from_schedule(inst, reference, params)
    virt = valid_to_virtually_valid(inst, ref_sys, reference, params)
    outcomes = {
        i: (ref_sys.assign.get(i, 0), covered.get(2 * i, 0), covered.get(2 * i + 1, 0))
        for i in range(1, 1 << tree_for(params).L)
    }
    return reference_main_solve(inst, params, budget, Hints(virt, outcomes))


def reference_node_windows(
    inst: Instance,
    root: int,
    j_map: dict[int, JobSet],
    k_map: dict[int, JobSet],
    params: Params,
) -> dict[int, Window]:
    """The earlier ``dyadic.node_windows``: every boundary short of the
    center is scanned, and the region of every set is computed, even when
    there is none."""
    own = j_map.get(root, 0)
    if not own:
        return {}
    span = tree_for(params).span
    begin, end = span[root]
    center = (begin + end) // 2
    step = window_step(params, end - begin)
    known = [(span[i], jobs) for mp in (j_map, k_map) for i, jobs in mp.items() if jobs]

    def within(b: int, e: int) -> JobSet:
        out = 0
        for (ib, ie), jobs in known:
            if b <= ib and ie <= e:
                out |= jobs
        return out

    lefts = [(b, within(b, center)) for b in range(begin + step, center, step)]
    rights = [(e, within(center, e)) for e in range(end - step, center, -step)]
    return {
        j: (next((b for b, region in lefts if inst.no_prec_between(region, 1 << j)), center),
            next((e for e, region in rights if inst.no_prec_between(1 << j, region)), center))
        for j in iter_jobs(own)
    }


def _pruned_key(sub: SubproblemInput) -> tuple:
    """The earlier ``SubproblemInput.key``: the subproblem by heap index
    and absolute windows, every map sorted."""
    return (
        sub.root,
        _ancestors(sub),
        tuple(sorted((j, b, e) for j, (b, e) in sub.anc_windows.items())),
        tuple(sorted(sub.assigned.items())),
        tuple(sorted(sub.pending.items())),
    )


def _pruned_split_outcomes(inst, f, jobs, params, splits):
    """Every outcome of the walk over all prefixes, once per (f, jobs)."""
    got = splits.get((f, jobs))
    if got is None:
        length = params.T >> (f.bit_length() - 1)
        max_len = params.p if tree_for(params).kinds[f] == TOP else params.m * length
        got = tuple(result for _, result in
                    reference_guess_outcomes(inst, f, jobs, params, max_len))
        splits[(f, jobs)] = got
    return got


def _size(mp: dict[int, JobSet]) -> int:
    return sum(job_count(jobs) for jobs in mp.values())


def _pruned_schedule_subtree(inst, sub, params, budget, memo):
    """The earlier ``schedule_subtree`` over plain memo tables."""
    subtrees, _ = memo
    tree = tree_for(params)
    ancestors = _ancestors(sub)
    if not (ancestors or any(sub.assigned.values()) or any(sub.pending.values())):
        return dict.fromkeys(_preorder(tree, sub.root), 0), {}
    key = _pruned_key(sub)
    if key not in subtrees:
        subtrees[key] = _pruned_solve_subtree(inst, sub, params, budget, memo)
    return subtrees[key]


def _pruned_solve_subtree(inst, sub, params, budget, memo):
    """The earlier ``_solve_subtree``, count bounds included."""
    _, splits_memo = memo
    budget.tick()
    tree = tree_for(params)
    i = sub.root
    begin, end = tree.span[i]
    cap = params.m * (end - begin)
    ancestors = _ancestors(sub)
    n_anc = job_count(ancestors)
    if n_anc > cap:
        return None
    n_own = _size(sub.assigned) + _size(sub.pending)
    if n_own > cap:
        return None

    if tree.kinds[i] == BOT:
        bottom = sub.assigned.get(i, 0) | sub.pending.get(i, 0)
        return {i: bottom}, _bottom_solve(
            inst, tree.interval[i], bottom, ancestors, sub.anc_windows, budget)

    frontier = tree.below(i, params.h - 1)
    if not frontier:
        splits = iter(((),))
    else:
        per_interval: list[list[tuple[int, SplitOutcome | None]]] = []
        for f in frontier:
            jobs = sub.pending.get(f, 0)
            if tree.kinds[f] == BOT:
                per_interval.append([(f, None)])
                continue
            options = _pruned_split_outcomes(inst, f, jobs, params, splits_memo)
            if not options:
                return None
            per_interval.append([(f, result) for result in options])
        splits = product(*per_interval)

    most = min(cap, n_anc + n_own)
    half_cap = cap // 2
    best: Result | None = None
    best_count = -1
    for combo in splits:
        j_map = dict(sub.assigned)
        k_map: dict[int, JobSet] = {}
        for f, outcome in combo:
            if outcome is None:
                j_map[f] = sub.pending.get(f, 0)
            else:
                stay, k_left, k_right = outcome
                j_map[f] = stay
                k_map[2 * f] = k_left
                k_map[2 * f + 1] = k_right
        own_windows = reference_node_windows(inst, i, j_map, k_map, params)
        pool_windows = {**sub.anc_windows, **own_windows}
        partitions = reference_placeable_partitions(pool_windows, tree.interval[i])

        lo_assigned, lo_pending = _restrict(j_map, 2 * i), _restrict(k_map, 2 * i)
        hi_assigned, hi_pending = _restrict(j_map, 2 * i + 1), _restrict(k_map, 2 * i + 1)
        lo_own = hi_own = -1
        for j_left, j_right, j_disc in partitions:
            if best is not None:
                if lo_own < 0:
                    lo_own = _size(lo_assigned) + _size(lo_pending)
                    hi_own = _size(hi_assigned) + _size(hi_pending)
                ub_right = min(half_cap, job_count(j_right) + hi_own)
                if min(half_cap, job_count(j_left) + lo_own) + ub_right <= best_count:
                    continue
            left_in = SubproblemInput(
                root=2 * i,
                anc_windows={j: pool_windows[j] for j in iter_jobs(j_left)},
                assigned=lo_assigned,
                pending=lo_pending,
            )
            left = _pruned_schedule_subtree(inst, left_in, params, budget, memo)
            if left is None:
                continue
            if best is not None and (
                sum(1 for t in left[1].values() if t is not None) + ub_right <= best_count
            ):
                continue
            right_in = SubproblemInput(
                root=2 * i + 1,
                anc_windows={j: pool_windows[j] for j in iter_jobs(j_right)},
                assigned=hi_assigned,
                pending=hi_pending,
            )
            right = _pruned_schedule_subtree(inst, right_in, params, budget, memo)
            if right is None:
                continue
            (lsys, lassign), (rsys, rassign) = left, right
            merged: PartialAssign = dict(lassign)
            merged.update(rassign)
            for j in iter_jobs(j_disc):
                merged[j] = DISC
            count = sum(1 for t in merged.values() if t is not None)
            if count > best_count:
                assign_map = {i: j_map.get(i, 0)}
                assign_map.update(lsys)
                assign_map.update(rsys)
                best = assign_map, merged
                best_count = count
                if count == most:
                    return best
    return best


def pruned_main_solve(inst: Instance, params: Params, budget: Budget | None = None):
    """The earlier ``main_solve`` on a tree with ``L > 0``, stopping at the
    first outer state that places every job."""
    budget = budget or Budget()
    tree = tree_for(params)
    assert tree.L > 0 and inst.n > 0
    best = {1 << tree.L: inst.all_jobs}
    best_sched = Schedule(T=params.T, assign=(DISC,) * inst.n)
    memo: tuple[dict, dict] = ({}, {})
    best_count = 0
    m = params.m
    outer = range(1, 1 << max(min(params.h - 1, tree.L + 1), 0))
    frontier = tree.below(1, params.h - 1)

    def walk(idx, j_map, k_map):
        budget.tick()
        if idx == len(outer):
            yield dict(j_map), {f: k_map.get(f, 0) for f in frontier}
            return
        f = outer[idx]
        jobs = k_map.get(f, 0)
        if tree.kinds[f] == BOT:
            j_map[f] = jobs
            yield from walk(idx + 1, j_map, k_map)
            del j_map[f]
            return
        half = m * (params.T >> (f.bit_length() - 1)) // 2
        for stay, k_left, k_right in _pruned_split_outcomes(inst, f, jobs, params, memo[1]):
            if job_count(k_left) > half or job_count(k_right) > half:
                continue
            j_map[f] = stay
            k_map[2 * f] = k_left
            k_map[2 * f + 1] = k_right
            yield from walk(idx + 1, j_map, k_map)
            del j_map[f], k_map[2 * f], k_map[2 * f + 1]

    try:
        for j_map, pending in walk(0, {}, {1: inst.all_jobs}):
            sub = SubproblemInput(root=1, assigned=j_map, pending=pending)
            got = _pruned_schedule_subtree(inst, sub, params, budget, memo)
            if got is None:
                continue
            sys_assign, assign = got
            count = sum(1 for t in assign.values() if t is not None)
            if count > best_count:
                full_assign: list[Slot] = [DISC] * inst.n
                for j, t in assign.items():
                    full_assign[j] = t
                best = sys_assign
                best_sched = Schedule(T=params.T, assign=tuple(full_assign))
                best_count = count
                if count == inst.n:
                    break
    finally:
        del walk
    return full_system(best), best_sched
