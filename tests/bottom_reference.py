"""The bottom search as it was before batches were generated lazily, with
the warm start it took before hinted solves stopped searching.

A test-only copy of the earlier ``psched.solver.bottom_solve``: it builds
and sorts every antichain of the alive jobs at every node and enters every
child before checking its bound.  ``test_bottom_search`` holds the current
search to the same result, dict for dict.  The hinted recursion of
``subtree_reference`` starts it from the reference's slots, checked by
``reference_warm_check``.
"""

from __future__ import annotations

from psched.core import DISC, Instance, Interval, JobSet, job_count, iter_jobs, mask_from
from psched.dyadic import Params, Window
from psched.solver import Budget, PartialAssign


def reference_warm_check(
    inst: Instance,
    iv: Interval,
    bottom: JobSet,
    ancestors: JobSet,
    anc_windows: dict[int, Window],
    warm: PartialAssign,
) -> bool:
    """Whether ``dyadic.check_virtually_valid`` accepted ``warm`` for the
    one-interval system that assigned ``bottom`` to ``iv``, rooted at
    ``iv``, with ``ancestors`` and their windows ``anc_windows``.

    Its clauses, written out: the domain is exactly ``bottom | ancestors``
    and every placed job is inside the root; at most ``m`` jobs a slot;
    placed bottom jobs inside their interval and pairwise in precedence
    order; a system of one bottom interval has no top jobs, so no top
    windows; every placed ancestor inside its window (b, e].
    """
    ok = mask_from(warm.keys()) == bottom | ancestors
    counts: dict[int, int] = {}
    for j, t in warm.items():
        if t is not None:
            ok = ok and t in iv
            counts[t] = counts.get(t, 0) + 1
    ok = ok and all(count <= inst.m for count in counts.values())
    placed = [j for j in iter_jobs(bottom) if warm.get(j) is not None]
    for a in placed:
        ok = ok and warm[a] in iv
        for b in placed:
            ok = ok and not (inst.precedes(a, b) and warm[a] >= warm[b])
    for j in iter_jobs(ancestors):
        t = warm.get(j)
        if t is not None:
            b, e = anc_windows[j]
            ok = ok and b < t <= e
    return ok


def reference_bottom_solve(
    inst: Instance,
    iv: Interval,
    bottom: JobSet,
    ancestors: JobSet,
    anc_windows: dict[int, Window],
    params: Params,
    budget: Budget | None = None,
    warm: PartialAssign | None = None,
) -> PartialAssign:
    """Best virtually-valid assignment on a bottom interval.

    Bottom jobs obey precedence among themselves plus the interval range;
    ancestors obey only their windows; capacity is m per slot.  Branch and
    bound over per-slot antichain batches of bottom jobs; ancestor slots
    are filled greedily by earliest window end, which is optimal for unit
    jobs.  ``warm`` seeds the incumbent when ``reference_warm_check``
    accepts it.
    """
    budget = budget or Budget()
    m = params.m
    slots = list(iv.slots())
    anc_order = sorted(
        iter_jobs(ancestors), key=lambda j: (anc_windows[j][1], j)
    )
    total_jobs = job_count(bottom) + job_count(ancestors)

    best_assign: PartialAssign = {j: DISC for j in iter_jobs(bottom | ancestors)}
    best_count = 0
    if warm is not None:
        if reference_warm_check(inst, iv, bottom, ancestors, anc_windows, warm):
            got = {j: warm[j] for j in iter_jobs(bottom | ancestors)}
            cnt = sum(1 for t in got.values() if t is not None)
            if cnt > 0:
                best_assign, best_count = got, cnt

    assign: PartialAssign = {j: DISC for j in iter_jobs(bottom | ancestors)}

    def antichains(alive: JobSet, cap: int) -> list[list[int]]:
        jobs = list(iter_jobs(alive))
        out: list[list[int]] = [[]]
        stack: list[tuple[list[int], int]] = [([], 0)]
        while stack:
            chosen, start = stack.pop()
            if len(chosen) == cap:
                continue
            for i in range(start, len(jobs)):
                cand = jobs[i]
                if any(
                    inst.precedes(c, cand) or inst.precedes(cand, c) for c in chosen
                ):
                    continue
                nxt = chosen + [cand]
                out.append(nxt)
                stack.append((nxt, i + 1))
        # larger batches first, then lexicographic members
        out.sort(key=lambda batch: (-len(batch), batch))
        return out

    def dfs(idx: int, alive: JobSet, anc_left: tuple[int, ...], count: int) -> None:
        nonlocal best_assign, best_count
        budget.tick()
        if idx == len(slots):
            if count > best_count:
                best_count = count
                best_assign = dict(assign)
            return
        remaining_cap = m * (len(slots) - idx)
        placeable_anc = sum(1 for j in anc_left if anc_windows[j][1] > slots[idx] - 1)
        if count + min(remaining_cap, job_count(alive) + placeable_anc) <= best_count:
            return
        t = slots[idx]
        for batch in antichains(alive, m):
            killed = 0
            for j in batch:
                killed |= inst.pred[j] & alive
            batch_mask = mask_from(batch)
            if killed & batch_mask:
                continue
            for j in batch:
                assign[j] = t
            # earliest-deadline ancestors into the remaining capacity
            placed_anc = []
            room = m - len(batch)
            rest: list[int] = []
            for j in anc_left:
                b, e = anc_windows[j]
                if room > 0 and b < t <= e:
                    assign[j] = t
                    placed_anc.append(j)
                    room -= 1
                else:
                    rest.append(j)
            dfs(
                idx + 1,
                alive & ~(batch_mask | killed),
                tuple(rest),
                count + len(batch) + len(placed_anc),
            )
            for j in batch:
                assign[j] = DISC
            for j in placed_anc:
                assign[j] = DISC
            if best_count == total_jobs:
                return

    dfs(0, bottom, tuple(anc_order), 0)
    return dict(best_assign)
