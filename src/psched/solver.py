"""The recursive guessing solver.

The driver enumerates split decisions for the first levels of the tree,
then hands each frontier state to a recursive subtree solver that guesses
one more level of splits, computes windows for the jobs staying at the
node, partitions the window-constrained pool between the two halves (one
representative per window-multiset equivalence class, never sending a job
to a half its window misses), and recurses.
Within one ``main_solve`` each subproblem is solved once, so the
recursion is a dynamic program over its states, and a candidate whose
job counts cannot beat the best one found is cut.  The split outcomes of
an interval come from a walk over guess vectors that steps each
(residual set, guesses left) once and never re-enters one from which no
vector ends, and its steps count against the budget too.
Bottom intervals are solved exactly by branch and bound.  A hinted solve
answers with a reference schedule's system and its virtually-valid
counterpart instead of enumerating: the enumeration held to the
reference's splits and partitions finds exactly that schedule, which
realizes the guarantee that it can do at least as well as the reference.
Tree intervals are heap indices throughout, in subproblems, results and
the system a solve returns, and windows come from ``dyadic.node_windows``,
the region query that ``dyadic.windows`` runs on whole systems.  A record
holds only what is there: a system and a subproblem have no entry for an
interval with no job, an assignment none for a discarded job, and what a
record's other fields determine (the jobs it places, the ancestors its
windows name, whether a subproblem's set is fixed or still to be split,
which is its level) is read from them, not stored.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import product

from .core import (
    DISC,
    Instance,
    Interval,
    JobSet,
    Schedule,
    Slot,
    iter_jobs,
    job_count,
    mask_from,
)
from .dyadic import (
    BOT,
    TOP,
    DyadicTree,
    Params,
    PartialDyadicSystem,
    Window,
    check_virtually_valid,
    full_system,
    node_windows,
    split_budget,
    split_step,
    system_from_schedule,
    tree_for,
)
from .convert import valid_to_virtually_valid
from .errors import Budget


@dataclass(slots=True)
class SubproblemInput:
    """One node of the recursion: what is already decided under ``root``.

    ``sets`` maps a heap index under ``root`` to its job set, and an
    interval with no job has no entry.  A set on the first h-1 relative
    levels is fixed; one on relative level h-1 (``tree.below(root, h -
    1)``) holds the jobs still to be split in that interval's subtree.
    ``anc_windows`` holds the window of each ancestor job routed here, and
    its keys are the ancestors.  The solver builds one per child it enters
    and never changes one after; it is a plain slotted record because a
    frozen dataclass takes twice as long to build.
    """

    root: int
    anc_windows: dict[int, Window] = field(default_factory=dict)
    sets: dict[int, JobSet] = field(default_factory=dict)

    def key(self) -> tuple:
        """Hashable form; equal keys are equal subproblems.

        The key holds the root, the ancestors' windows by job and the sets
        by heap index, each map sorted.
        """
        return self.root, tuple(sorted(self.anc_windows.items())), tuple(sorted(self.sets.items()))


PartialAssign = dict[int, Slot]
# a subtree's system (job sets by heap index) and its virtually-valid
# assignment of the jobs it places, whose size is the count it places
Result = tuple[dict[int, JobSet], PartialAssign]
SplitOutcome = tuple[JobSet, JobSet, JobSet]


@dataclass
class SolveMemo:
    """Answers already computed within one ``main_solve``.

    ``subtrees`` maps ``SubproblemInput.key`` to the (system, assignment)
    ``schedule_subtree`` returns, or None, and ``splits`` maps (interval,
    jobs) to the outcomes of ``_split_outcomes`` (intervals by heap
    index).  ``tree`` is the call's ``DyadicTree``, fetched by the first
    state that needs it.
    Only the enumeration builds one: a hinted solve runs no recursion.  The
    instance and params are fixed for the call, so each answer is a
    function of its key alone and a repeat returns the value a second
    solve would compute.
    A subproblem whose candidate the count bound cuts is never solved, so
    the memo may hold fewer keys than a solve of every candidate would
    leave, never a different value.  Stored results are shared and must
    never be mutated.
    """

    subtrees: dict[tuple, Result | None] = field(default_factory=dict)
    splits: dict[tuple[int, JobSet], tuple[SplitOutcome, ...]] = field(
        default_factory=dict
    )
    tree: DyadicTree | None = None


def _clip(w: Window, begin: int, end: int) -> Window | None:
    b, e = max(w[0], begin), min(w[1], end)
    return (b, e) if b < e else None


def enumerate_partitions(
    pool_windows: dict[int, Window],
    root: Interval,
):
    """Placeable partitions of the pool into (left, right), one per class;
    the jobs of the pool in neither part are discarded.

    Two partitions are equivalent when the multisets of windows clipped to
    the left half agree on the left parts and likewise on the right.  Jobs
    sharing both clips are interchangeable, so enumeration runs over
    per-group count vectors in ``product`` order, deduplicated by the
    class key; concrete jobs fill the sides in ascending id.

    A job is never sent to a half its window misses (clip ``None``): such
    a partition P can never win.  Lowering its offending counts to 0 gives
    a partition P' that discards those jobs instead and comes earlier in
    ``product`` order, so P' or an earlier member of its class is tried
    before P.  The jobs P sends can never be placed, since ``bottom_solve``
    filters ancestors by window and clips below stay ``None``, so P' keeps
    at least as many jobs as P, and ``_solve_subtree`` replaces its
    incumbent only on a strict gain.  Every such class holds a ``None``
    clip and no placeable class does, so each placeable class keeps the
    representative it had when unplaceable ones were enumerated too.

    A job whose window misses both halves (an empty window, as every top
    window is at ``h <= 1``) has one count vector, all zero, so it is
    discarded by every partition, and a pool of such jobs alone (or no
    job) yields its one partition, ``(0, 0)``, at once.
    """
    begin, center, end = root.begin, root.center, root.end
    groups: dict[tuple, list[int]] = {}
    for j in sorted(pool_windows):
        w = pool_windows[j]
        # a window from the center on misses the left half, one up to it
        # the right half
        lc = _clip(w, begin, center) if w[0] < center else None
        rc = _clip(w, center, end) if w[1] > center else None
        if lc is not None or rc is not None:
            groups.setdefault((lc, rc), []).append(j)
    if not groups:
        yield 0, 0
        return
    keys = sorted(groups, key=lambda k: (k[0] or (-1, -1), k[1] or (-1, -1)))
    counts = [
        [
            (a, b)
            for a in (range(len(groups[k]) + 1) if k[0] else (0,))
            for b in (range(len(groups[k]) - a + 1) if k[1] else (0,))
        ]
        for k in keys
    ]
    seen: set[tuple] = set()
    for combo in product(*counts):
        left_ms: list[Window] = []
        right_ms: list[Window] = []
        for key, (a, b) in zip(keys, combo):
            lc, rc = key
            left_ms.extend([lc] * a)
            right_ms.extend([rc] * b)
        class_key = (tuple(sorted(left_ms)), tuple(sorted(right_ms)))
        if class_key in seen:
            continue
        seen.add(class_key)
        j_left = 0
        j_right = 0
        for key, (a, b) in zip(keys, combo):
            members = groups[key]
            j_left |= mask_from(members[:a])
            j_right |= mask_from(members[a : a + b])
        yield j_left, j_right


def antichains(
    comparable: Sequence[JobSet],
    pred: Sequence[JobSet],
    alive: JobSet,
    size: int,
    keep: Sequence[int],
):
    """Antichains of exactly ``size`` jobs of ``alive`` that leave at
    least ``keep[0]`` jobs alive, as (members, left).

    ``comparable[j]`` is the mask of jobs comparable to ``j``; ``left`` is
    ``alive`` without the members and their predecessors.  Members ascend
    within a batch and batches come in lexicographic order of their
    members; nothing is collected or sorted.  ``keep[0]`` is read at every
    step, so the caller may raise it between batches; a prefix that
    already leaves too few jobs alive is not extended.
    """
    if alive.bit_count() - size < keep[0]:
        return
    if size == 0:
        yield (), alive
        return
    # depth first over the members in ascending order: per member chosen
    # so far, the candidates after it that it is not comparable to and the
    # jobs still alive; every member still to come is a distinct job of
    # those candidates, so each one lowers the count alive by one at least
    prefix: list[int] = []
    stack = [(alive, alive)]
    while stack:
        cand, left = stack[-1]
        need = size - len(prefix)
        if cand.bit_count() < need:
            stack.pop()
            if prefix:
                prefix.pop()
            continue
        low = cand & -cand
        cand ^= low
        stack[-1] = cand, left
        j = low.bit_length() - 1
        after = left & ~(low | pred[j])
        if after.bit_count() - (need - 1) < keep[0]:
            continue
        if need == 1:
            yield (*prefix, j), after
        else:
            prefix.append(j)
            stack.append((cand & ~comparable[j], after))


def bottom_solve(
    inst: Instance,
    iv: Interval,
    bottom: JobSet,
    anc_windows: dict[int, Window],
    budget: Budget | None = None,
) -> PartialAssign:
    """Best virtually-valid assignment on a bottom interval, of the jobs
    it places: a job of ``bottom`` or ``anc_windows`` (the ancestors, by
    their windows) that it lacks is discarded.

    Bottom jobs obey precedence among themselves plus the interval range;
    ancestors obey only their windows; capacity is ``inst.m`` per slot.
    Branch and bound over per-slot antichain batches of bottom jobs;
    ancestor slots are filled greedily by earliest window end, which is
    optimal for unit jobs.  The root state is always entered and counted,
    but when there is no job to place the empty assignment is returned
    before any search state is built.

    At each slot the batches are tried larger first, then in lexicographic
    order of their ascending members (see ``antichains``); the result is
    the first assignment in that order that schedules the most jobs, so
    this order fixes the output.  A child whose bound cannot beat the
    incumbent is skipped before it is entered and costs no node.

    The search recurses once per slot, so a search that would recurse as
    deep as ``sys.getrecursionlimit()`` raises ``ValueError`` after the
    root state instead of starting.
    """
    budget = budget or Budget()
    m = inst.m
    first = iv.begin + 1  # the interval's first slot
    n_slots = iv.end - iv.begin
    # ancestors whose window ends before the interval never fit; each
    # level below drops the ones whose window has ended
    anc_order = tuple(sorted(
        (j for j, w in anc_windows.items() if w[1] >= first),
        key=lambda j: (anc_windows[j][1], j),
    )) if anc_windows else ()
    n_bottom = bottom.bit_count()
    total_jobs = n_bottom + len(anc_windows)

    best_assign: PartialAssign = {}
    best_count = 0
    budget.tick()  # the root is entered even when its bound ends the search
    if min(m * n_slots, n_bottom + len(anc_order)) <= best_count:
        return best_assign
    if n_slots >= sys.getrecursionlimit():  # one level per slot
        raise ValueError(
            f"bottom interval {iv} is too long to search: it recurses once per slot, "
            f"{n_slots} levels, and the recursion limit is {sys.getrecursionlimit()}")
    pred, succ = inst.pred, inst.succ
    assign: PartialAssign = {}
    # only a batch of two or more jobs reads it
    comparable = {j: succ[j] | pred[j] for j in iter_jobs(bottom)} if m > 1 else {}

    def dfs(idx: int, alive: JobSet, anc_left: tuple[int, ...], count: int) -> None:
        """Expand a node whose bound the caller found to beat the incumbent.

        ``anc_left`` holds only ancestors whose window has not ended
        before slot ``idx``.  A child at the last slot is a complete
        assignment, and one entered beats the incumbent."""
        nonlocal best_assign, best_count
        t = first + idx
        last = idx + 1 == n_slots
        cap_after = m * (n_slots - idx - 1)
        fits = [j for j in anc_left if anc_windows[j][0] < t] if anc_left else ()
        placed_anc = rest = ()
        for size in range(min(m, alive.bit_count()), -1, -1):
            if anc_left:
                # earliest-deadline ancestors into the room the batch leaves
                placed_anc = fits[: m - size]
                rest = tuple(
                    j for j in anc_left if j not in placed_anc and anc_windows[j][1] > t
                )
            base = count + size + len(placed_anc)
            if base + cap_after <= best_count:
                continue  # no batch of this size can beat the incumbent
            # with room in the slots left, a child beats the incumbent iff
            # it leaves this many bottom jobs alive
            keep = [best_count - base - len(rest) + 1]
            for batch, child_alive in antichains(comparable, pred, alive, size, keep):
                budget.tick()
                for j in batch:
                    assign[j] = t
                for j in placed_anc:
                    assign[j] = t
                if last:
                    best_count = base
                    best_assign = dict(assign)
                else:
                    dfs(idx + 1, child_alive, rest, base)
                for j in batch:
                    del assign[j]
                for j in placed_anc:
                    del assign[j]
                if best_count == total_jobs:
                    return
                if base + cap_after <= best_count:
                    break
                keep[0] = best_count - base - len(rest) + 1

    try:
        dfs(0, bottom, anc_order, 0)
    finally:
        # ``dfs`` refers to itself; dropping it breaks the cycle that
        # would keep everything it captures alive until the cycle
        # collector runs
        del dfs
    return best_assign


def _guess_outcomes(
    inst: Instance,
    iv: int,
    jobs: JobSet,
    params: Params,
    max_len: int,
    budget: Budget | None = None,
) -> list[SplitOutcome]:
    """Results of the split loop over all guess vectors of at most
    ``max_len`` entries, one per vector that ends.

    Walks the tree of guess prefixes left branch first, so results follow
    the lexicographic order of the vectors ('L' before 'R'), and prunes any
    prefix still running after ``max_len`` entries (the replay's exhausted
    guess).  The pivot and the jobs it moves depend only on the residual
    set, so each (residual set, guesses left) is stepped once, and one
    from which no vector ends is marked dead when its first prefix is left
    and never entered again: the prefixes that run out of guesses, which
    can be exponentially many, cost one visit per state.  Two vectors part
    at a pivot that one sends left and the other right, so their outcomes
    differ: no outcome is listed twice.  Each state stepped and each
    vector that ends ticks ``budget.walk_states``, so the walk cannot
    outrun the budget.
    """
    budget = budget or Budget()
    a, b = split_budget(params, iv)
    d = params.D
    pred, succ = inst.pred, inst.succ
    # the walk counts its states here and hands them to ``budget`` at the
    # end, or as soon as they outrun the room it had left
    room = budget.limit - budget.walk_states
    ticks = 0
    # each state's step: None when its chain fits, () when it has no guess
    # left, else the jobs its pivot takes to each side
    steps: dict[tuple[JobSet, int], tuple[JobSet, JobSet] | tuple[()] | None] = {}
    dead: set[tuple[JobSet, int]] = set()
    out: list[SplitOutcome] = []
    # ((stay, guesses left), to-left, to-right) after a prefix's steps, or
    # ((stay, guesses left), results listed, None) to leave that state
    todo: list[tuple] = [((jobs, max_len), 0, 0)]
    while todo:
        state, k_left, k_right = todo.pop()
        if k_right is None:
            if len(out) == k_left:
                dead.add(state)
            continue
        stay, left = state
        move = steps.get(state, steps)  # the table itself: not stepped yet
        if move is steps:
            ticks += 1
            if ticks > room:
                budget.tick_walk(ticks)
            pivot = split_step(inst, stay, a, b, d)
            move = steps[state] = (
                None if pivot is None else () if not left else
                ((1 << pivot) | (pred[pivot] & stay), (1 << pivot) | (succ[pivot] & stay)))
        if move is None:
            ticks += 1
            if ticks > room:
                budget.tick_walk(ticks)
            out.append((stay, k_left, k_right))
        elif move:
            to_left, to_right = move
            todo.append((state, len(out), None))
            child = (stay & ~to_right, left - 1)
            if child not in dead:
                todo.append((child, k_left, k_right | to_right))
            child = (stay & ~to_left, left - 1)
            if child not in dead:
                todo.append((child, k_left | to_left, k_right))
    budget.tick_walk(ticks)
    return out


def _split_outcomes(
    inst: Instance,
    f: int,
    jobs: JobSet,
    params: Params,
    memo: SolveMemo,
    budget: Budget,
) -> tuple[SplitOutcome, ...]:
    """Split outcomes to try for ``jobs`` on the non-bottom interval ``f``:
    every distinct outcome of a guess vector of at most ``p`` entries on
    top intervals, ``m * |f|`` on middle ones, worked out once per
    (f, jobs) and ``memo``.
    """
    got = memo.splits.get((f, jobs))
    if got is None:
        length = params.T >> (f.bit_length() - 1)
        max_len = params.p if memo.tree.kinds[f] == TOP else params.m * length
        got = memo.splits[(f, jobs)] = tuple(
            _guess_outcomes(inst, f, jobs, params, max_len, budget))
    return got


def schedule_subtree(
    inst: Instance,
    sub: SubproblemInput,
    params: Params,
    budget: Budget | None = None,
    memo: SolveMemo | None = None,
) -> Result | None:
    """Best partial system (job sets by heap index, intervals with no job
    left out) and its virtually-valid assignment over ``sub.root`` of the
    jobs it places.

    Returns None when the input sizes already exceed the capacity of the
    root interval.  Otherwise tries every split-outcome combination for
    the frontier level and every partition representative of the
    window-constrained pool, recursing on both halves and keeping the
    candidate that schedules strictly more jobs.  Once it holds an
    incumbent, a partition whose halves' count bounds (each half's
    capacity or its jobs, whichever is fewer) sum to no more than the
    incumbent's count is neither entered nor counted, and neither is a
    right half whose bound, added to what the left half placed, cannot
    beat it; an incumbent that places as many jobs as the node can hold
    or has ends the search.  A cut candidate could not have replaced the
    incumbent, so the result is the one a solve of every candidate gives.

    Each subproblem is solved once per ``memo`` (a fresh one when
    omitted): a repeat enters no node and returns the stored result,
    shared with the first caller.  A subproblem with no job (no ancestor,
    no set) is answered at once with the empty system and assignment: it
    enters no node, steps no split walk and leaves the memo as it was.
    """
    memo = memo or SolveMemo()
    budget = budget or Budget()
    if memo.tree is None:
        memo.tree = tree_for(params)
    if not (sub.anc_windows or sub.sets):
        return {}, {}
    subtrees = memo.subtrees
    key = sub.key()
    got = subtrees.get(key, subtrees)  # the table itself: not solved yet
    if got is subtrees:
        got = subtrees[key] = _solve_subtree(inst, sub, params, budget, memo)
    return got


def _solve_subtree(
    inst: Instance,
    sub: SubproblemInput,
    params: Params,
    budget: Budget,
    memo: SolveMemo,
) -> Result | None:
    """``schedule_subtree``'s answer when the memo has none."""
    budget.tick()
    tree = memo.tree
    i = sub.root
    begin, end = tree.span[i]
    cap = params.m * (end - begin)
    n_anc = len(sub.anc_windows)
    if n_anc > cap:
        return None
    sets = sub.sets
    n_own = sum(map(int.bit_count, sets.values()))
    if n_own > cap:
        return None

    if tree.kinds[i] == BOT:
        bottom = sets.get(i, 0)
        return ({i: bottom} if bottom else {}), bottom_solve(
            inst, tree.interval[i], bottom, sub.anc_windows, budget)

    lo, hi = 2 * i, 2 * i + 1
    # an index k at a half or below it is under ``hi`` iff bit
    # ``k.bit_length() - below - 1`` of k is set
    below = i.bit_length()
    frontier = tree.below(i, params.h - 1)
    if frontier and tree.kinds[frontier.start] == BOT:
        frontier = range(0)  # a bottom set is never split: it passes on as it is
    # the sets below the root that every candidate passes on, by half, and
    # the jobs each half holds: a split only moves a frontier interval's
    # jobs within its half, but the root's to either
    fixed: tuple[dict[int, JobSet], dict[int, JobSet]] = ({}, {})
    held = [0, 0]
    for k, jobs in sets.items():
        if k != i:
            side = k >> (k.bit_length() - below - 1) & 1
            held[side] += jobs.bit_count()
            if k not in frontier:
                fixed[side][k] = jobs
    # per frontier interval, the half it lies under (None for the root
    # itself, its own frontier at h = 1) and its split outcomes
    sides: list[int | None] = []
    options: list[tuple[SplitOutcome, ...]] = []
    for f in frontier:
        got = _split_outcomes(inst, f, sets.get(f, 0), params, memo, budget)
        if not got:
            return None
        options.append(got)
        sides.append(None if f == i else f >> (f.bit_length() - below - 1) & 1)

    # a candidate places at most ``most`` jobs, and a half at most its
    # capacity or the jobs it holds (its ancestors and its sets, disjoint),
    # read from the second candidate on
    most = min(cap, n_anc + n_own)
    half_cap = cap // 2
    interval = tree.interval[i]
    best: tuple | None = None  # the incumbent's parts, joined once at the end
    best_count = -1
    for combo in product(*options):
        own = sets.get(i, 0)
        lo_own, hi_own = held
        lo_sets, hi_sets = dict(fixed[0]), dict(fixed[1])
        for f, side, (stay, k_left, k_right) in zip(frontier, sides, combo):
            if side is None:
                own = stay
                lo_own += k_left.bit_count()
                hi_own += k_right.bit_count()
                to_left, to_right = lo_sets, hi_sets
            else:  # a frontier interval's jobs stay in the half it lies under
                to_left = to_right = hi_sets if side else lo_sets
                if stay:
                    to_left[f] = stay
            if k_left:
                to_left[2 * f] = k_left
            if k_right:
                to_right[2 * f + 1] = k_right
        own_windows = node_windows(
            inst, i, {i: own, **lo_sets, **hi_sets}, params) if own else {}
        pool_windows = {**sub.anc_windows, **own_windows} if sub.anc_windows else own_windows
        for j_left, j_right in enumerate_partitions(pool_windows, interval):
            if best is not None:
                ub_right = min(half_cap, j_right.bit_count() + hi_own)
                if min(half_cap, j_left.bit_count() + lo_own) + ub_right <= best_count:
                    continue
            left = schedule_subtree(inst, SubproblemInput(
                lo, {j: pool_windows[j] for j in iter_jobs(j_left)} if j_left else {},
                lo_sets), params, budget, memo)
            if left is None:
                continue
            if best is not None and len(left[1]) + ub_right <= best_count:
                continue
            right = schedule_subtree(inst, SubproblemInput(
                hi, {j: pool_windows[j] for j in iter_jobs(j_right)} if j_right else {},
                hi_sets), params, budget, memo)
            if right is None:
                continue
            # the halves place disjoint jobs
            count = len(left[1]) + len(right[1])
            if count > best_count:
                best = own, left, right
                best_count = count
                if count == most:
                    break
        else:
            continue
        break  # the incumbent places all it can
    if best is None:
        return None
    # the incumbent's own set and its halves' results, joined once
    own, (lsys, lassign), (rsys, rassign) = best
    return ({i: own, **lsys, **rsys} if own else {**lsys, **rsys}), {**lassign, **rassign}


def _outer_cascades(
    inst: Instance,
    params: Params,
    budget: Budget,
    memo: SolveMemo,
):
    """States after deciding all splits above the frontier level.

    Yields each state's sets by heap index: the sets kept on the levels
    above the frontier (level h-1) and the jobs each frontier interval
    still holds, with no entry for an interval with no job.  An interval's
    entry holds its jobs still to be split until its split replaces them
    with the set it keeps and adds its children's; states where a half
    receives more jobs than it can hold are pruned.
    """
    tree = memo.tree
    m = params.m
    # the levels above the frontier, root first, each by begin
    outer = range(1, 1 << max(min(params.h - 1, tree.L + 1), 0))

    def walk(idx: int, sets: dict[int, JobSet]):
        budget.tick()
        if idx == len(outer):
            yield sets
            return
        f = outer[idx]
        if tree.kinds[f] == BOT:  # a bottom set is never split
            yield from walk(idx + 1, sets)
            return
        half = m * (params.T >> (f.bit_length() - 1)) // 2
        jobs = sets.get(f, 0)
        rest = {k: v for k, v in sets.items() if k != f}
        for stay, k_left, k_right in _split_outcomes(inst, f, jobs, params, memo, budget):
            if job_count(k_left) > half or job_count(k_right) > half:
                continue
            split = ((f, stay), (2 * f, k_left), (2 * f + 1, k_right))
            yield from walk(idx + 1, {**rest, **{k: v for k, v in split if v}})

    try:
        yield from walk(0, {1: inst.all_jobs} if inst.n else {})
    finally:
        # ``walk`` refers to itself; dropping it breaks the cycle that would
        # keep the memo and every stored result alive until the cycle
        # collector runs, long after ``main_solve`` returns
        del walk


def main_solve(
    inst: Instance,
    params: Params,
    budget: Budget | None = None,
) -> tuple[PartialDyadicSystem, Schedule]:
    """Full enumeration over outer split decisions, keeping the best schedule.

    Always succeeds: the result is a full system together with a
    virtually-valid schedule for it, or, when no state places a job, the
    empty system and a schedule that places nothing.  Subproblems and split
    outcomes met again during the call are answered from one
    ``SolveMemo``, which also holds the call's tree.  The outer states are
    tried in order until one places every job.
    """
    budget = budget or Budget()
    best: dict[int, JobSet] = {}  # the system, by heap index
    memo = SolveMemo()
    memo.tree = tree_for(params)
    best_assign: PartialAssign = {}
    for sets in _outer_cascades(inst, params, budget, memo):
        got = schedule_subtree(inst, SubproblemInput(1, {}, sets), params, budget, memo)
        if got is not None and len(got[1]) > len(best_assign):
            best, best_assign = got
            if len(best_assign) == inst.n:  # no later state can place more
                break
    full_assign: list[Slot] = [DISC] * inst.n
    for j, t in best_assign.items():
        full_assign[j] = t
    return full_system(best), Schedule(T=params.T, assign=tuple(full_assign))


def solve_hinted(
    inst: Instance,
    reference: Schedule,
    params: Params,
) -> tuple[PartialDyadicSystem, Schedule]:
    """The answer the enumeration gives when held to the splits recorded
    from ``reference``, a zero-discard schedule, found with no search.

    That is the reference's system from ``system_from_schedule``
    (``InvalidInput`` unless the reference has no discards, fits in T and
    is valid) and the schedule ``valid_to_virtually_valid`` makes of the
    reference for it, checked once with ``check_virtually_valid``
    (``RuntimeError`` naming the violations otherwise: the conversion is
    broken), retimed to horizon T.  When ``L = 0`` these are the
    one-interval system and the reference itself.

    On its own system the reference's windows are the ones the recursion
    held to its splits computes (window boundaries in a top interval
    ``I`` are multiples of ``|I| >> h`` from its begin), a partition sends
    each job to the half holding its virtually-valid slot, no size check
    fails for a zero-discard reference, and each bottom interval's
    virtually-valid slots place every job it holds, the bottom search's
    root bound, so the recursion keeps them.  No node is counted.
    """
    ref_sys = system_from_schedule(inst, reference, params)[0]
    virt = valid_to_virtually_valid(inst, ref_sys, reference, params)
    report = check_virtually_valid(inst, ref_sys, params, virt)
    if not report.ok:
        raise RuntimeError(f"the virtually-valid reference is not virtually valid:\n{report}")
    return ref_sys, Schedule(T=params.T, assign=virt.assign)
