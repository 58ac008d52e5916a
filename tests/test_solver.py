"""Partition enumeration, bottom-interval search, recursion, hinted replay."""

import copy
import dataclasses
import gc
import hashlib
import random
import sys
import weakref
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psched.baselines import exact_opt, graham_list
from psched.convert import valid_to_virtually_valid
from psched.core import (
    DISC,
    Interval,
    Schedule,
    build_instance,
    iter_jobs,
    job_count,
    mask_from,
)
from psched.dyadic import (
    PartialDyadicSystem,
    check_virtually_valid,
    compute_params,
    full_system,
    node_windows,
    push_down,
    system_from_schedule,
    tree_for,
    windows,
)
from psched import pipeline, solver
from psched.errors import BudgetExceeded, GuessExhausted, InvalidInput
from psched.generators import gen_instance
from psched.pipeline import _with_sinks
from psched.solver import (
    Budget,
    SolveMemo,
    SubproblemInput,
    bottom_solve,
    enumerate_partitions,
    main_solve,
    schedule_subtree,
    solve_hinted,
)
from psched.transform import pad_to_power_of_two

from conftest import assert_no_violations, max_scheduled_oracle, random_instance
from record_forms import kept, nonempty, one_map, two_sided, without_vectors
from partition_reference import (
    partition_class_key,
    reference_enumerate_partitions,
    reference_placeable_partitions,
)
from split_reference import reference_guess_outcomes
from subtree_reference import (
    _restrict,
    pruned_main_solve,
    reference_main_solve,
    reference_node_windows,
    reference_solve_hinted,
    reference_solve_subtree,
)
from system_reference import check_system, reference_system_from_schedule

from test_dyadic import desk_params, reference_pair

MICRO = dict(h=1, hp=1, p=2, delta=Fraction(1, 4), deltap=Fraction(1, 8))


def micro_params(m=2, **kw):
    ov = dict(MICRO)
    ov.update(kw)
    return compute_params(8, m, Fraction(1, 2), overrides=ov)


def single_bottom_params(m=2):
    return compute_params(8, m, Fraction(1, 2), overrides={"h": 3, "hp": 0, "p": 1})


def padded_reference(seed, m=2, n=11, density=0.5):
    """Instance padded so its optimum fills the 16-slot horizon exactly."""
    inst0 = random_instance(n, m, density, seed)
    opt, sched = exact_opt(inst0)
    if not 8 < opt <= 16:
        return None
    inst, T2, pads = pad_to_power_of_two(inst0, opt)
    assert T2 == 16
    assign = list(sched.assign) + [0] * job_count(pads)
    slot = opt
    for k, j in enumerate(iter_jobs(pads)):
        if k % m == 0:
            slot += 1
        assign[j] = slot
    return inst, Schedule(T=16, assign=tuple(assign))


def test_node_windows_match_full_system_windows():
    for seed in range(30):
        T = 16 if seed % 2 else 32
        inst, sched = reference_pair(seed, T=T, m=2, n=8)
        params = desk_params(T=T, m=2)
        sys, covered, _ = system_from_schedule(inst, sched, params)
        tree = tree_for(params)
        full = windows(inst, sys, params)
        for i, jobs in sys.assign.items():
            if not jobs or tree.kinds[i] != "top":
                continue
            j_map = {
                sub: sys.assign.get(sub, 0)
                for k in range(params.h)
                for sub in tree.below(i, k)
            }
            k_map = {sub: covered.get(sub, 0) for sub in tree.below(i, params.h)}
            local = node_windows(inst, i, one_map(j_map, k_map), params)
            for j in iter_jobs(jobs):
                assert local[j] == full[j]


def test_node_windows_alignment():
    params = desk_params(T=16, m=2)
    inst = build_instance(3, 2, [])
    local = node_windows(inst, 1, {1: inst.all_jobs}, params)  # the root, (0,16]
    assert local == {j: (4, 12) for j in range(3)}


def test_enumerate_partitions_identical_windows():
    root = Interval(0, 16)
    for k in range(5):
        pool = {j: (4, 12) for j in range(k)}
        classes = list(enumerate_partitions(pool, root))
        assert len(classes) == (k + 1) * (k + 2) // 2
        # partition property: the halves are disjoint parts of the pool
        for jl, jr in classes:
            assert (jl | jr) & ~mask_from(range(k)) == 0
            assert jl & jr == 0


def test_enumerate_partitions_empty_pool():
    assert list(enumerate_partitions({}, Interval(0, 16))) == [(0, 0)]


def test_enumerate_partitions_cover_all_raw_partitions():
    # a raw partition that sends a job to a half its window misses is
    # covered with that job discarded instead, since it can never place it:
    # (4, 8) misses the right half (8, 16], (8, 12) the left one, (8, 8) both
    rng = random.Random(5)
    root = Interval(0, 16)
    aligned = [4, 8, 12]
    for trial in range(25):
        k = rng.randrange(1, 6)
        pool = {}
        for j in range(k):
            b = rng.choice([x for x in aligned if x <= 8])
            e = rng.choice([x for x in aligned if x >= max(b, 8)])
            pool[j] = (b, e)
        reps = list(enumerate_partitions(pool, root))
        rep_keys = {partition_class_key(pool, root, jl, jr) for jl, jr in reps}
        assert len(rep_keys) == len(reps)  # one representative per class
        for raw in product(range(3), repeat=k):
            jl = mask_from(j for j in range(k) if raw[j] == 0 and pool[j][0] < 8)
            jr = mask_from(j for j in range(k) if raw[j] == 1 and pool[j][1] > 8)
            assert partition_class_key(pool, root, jl, jr) in rep_keys


def test_enumerate_partitions_send_no_job_to_a_missed_half():
    rng = random.Random(7)
    root = Interval(0, 16)
    missed = 0
    for trial in range(40):
        k = rng.randrange(1, 7)
        pool = {}
        for j in range(k):
            b = rng.choice([0, 4, 8, 12])
            pool[j] = (b, rng.choice([x for x in (4, 8, 12, 16) if x > b]))
        missed += sum(1 for b, e in pool.values() if e <= 8 or b >= 8)
        for jl, jr in enumerate_partitions(pool, root):
            assert (jl | jr) & ~mask_from(range(k)) == 0
            assert jl & jr == 0
            assert all(pool[j][0] < 8 for j in iter_jobs(jl))  # meets (0, 8]
            assert all(pool[j][1] > 8 for j in iter_jobs(jr))  # meets (8, 16]
    assert missed > 0


DEEP_FAMILIES = ("random-dag", "layered", "forest")


@pytest.mark.parametrize("family", DEEP_FAMILIES)
def test_main_solve_matches_the_unpruned_enumeration(monkeypatch, family):
    # cutting unplaceable partitions changes no result, only the nodes
    fewer = 0
    for m, T, h in product((2, 3), (8, 16, 32), (1, 2)):
        seed = DEEP_FAMILIES.index(family) * 100 + m * 10 + T + h
        inst, _ = gen_instance(family, 4 + seed % 4, m, 0.3, seed)
        params = compute_params(T, m, Fraction(1, 2), overrides={"h": h, "hp": 1, "p": 2})
        got = []
        for enum in (_two_sided_reference, enumerate_partitions):
            monkeypatch.setattr(solver, "enumerate_partitions", enum)
            budget = Budget()
            sys, sched = main_solve(inst, params, budget=budget)
            got.append((sys.assign, sched, budget.nodes))
        (ref_assign, ref_sched, ref_nodes), (assign, sched, nodes) = got
        assert assign == ref_assign and sched == ref_sched, (m, T, h)
        assert nodes <= ref_nodes, (m, T, h)
        fewer += nodes < ref_nodes
    assert fewer > 0


def _two_sided_reference(pool_windows, root):
    """The earlier enumeration's partitions, as ``(left, right)``."""
    return two_sided(reference_enumerate_partitions(pool_windows, root))


def _solve_with(monkeypatch, reference, name, *args):
    """``solver.<name>(*args)`` with the reference subtree solver and
    ``main_solve`` loop patched in or not, as (system, schedule, nodes)."""
    if reference:
        monkeypatch.setattr(solver, "_solve_subtree", reference_solve_subtree)
        monkeypatch.setattr(solver, "main_solve", reference_main_solve)
    else:
        monkeypatch.undo()
    budget = Budget()
    sys_out, sched = getattr(solver, name)(*args, budget=budget)
    return kept(sys_out.assign, sched), sched, budget.nodes


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("family", DEEP_FAMILIES)
def test_count_bounds_match_solving_every_candidate(monkeypatch, family, m):
    # a candidate cut by its count bound could not have replaced the
    # incumbent: the same results and never more nodes
    fewer = 0
    for T, h, n in product((8, 16, 32), (1, 2), range(4, 11)):
        inst, _ = gen_instance(family, n, m, 0.3, 10 * n + T + h)
        params = compute_params(T, m, Fraction(1, 2), overrides={"h": h, "hp": 1, "p": 2})
        case = (T, h, n)
        ref = _solve_with(monkeypatch, True, "main_solve", inst, params)
        got = _solve_with(monkeypatch, False, "main_solve", inst, params)
        assert got[:2] == ref[:2], case
        assert got[2] <= ref[2], case
        fewer += got[2] < ref[2]
    assert fewer > 0


# (T, h, hp, p) of the deep trees on which the reworked per-state path
# must give the earlier one's systems, schedules and node counts; at
# (16, 3, 0, 4) L = 1 and the outer levels reach bottom intervals 2 and 3,
# so the outer cascades walk a bottom level
LEAN_GRID = [(16, 1, 1, 2), (32, 1, 1, 2), (16, 2, 1, 3), (32, 2, 1, 2), (8, 1, 0, 2),
             (32, 3, 1, 2), (16, 3, 0, 4)]


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("family", DEEP_FAMILIES)
def test_main_solve_matches_the_earlier_per_state_path(family, m):
    placed = 0
    for (T, h, hp, p), n in product(LEAN_GRID, range(5, 11)):
        inst, _ = gen_instance(family, n, m, 0.3, 100 * m + 10 * n + T + h)
        params = compute_params(T, m, Fraction(1, 2), overrides={"h": h, "hp": hp, "p": p})
        runs = []
        for solve in (main_solve, pruned_main_solve):
            budget = Budget()
            sys_out, sched = solve(inst, params, budget)
            runs.append((list(kept(sys_out.assign, sched).items()), sched, budget.nodes))
        assert runs[0] == runs[1], (T, h, hp, p, n)
        placed += runs[0][1].scheduled_count
    assert placed > 0


# (T, h, hp, p) of the grid on which the leaner per-state path must give
# the earlier systems (key order included, empty entries dropped),
# schedules and nodes, and answering a subproblem with no job at once
# must keep the systems and schedules of the solver that searched it.
# EMPTY_GRID_OUTPUTS digests the systems and schedules alone and was
# recorded from that solver, as 0d790be1..., before systems dropped their
# empty entries; EMPTY_GRID_DIGEST adds the nodes and split-walk states,
# whose totals fell from (10461, 10163) when empty subproblems stopped
# counting and read (9176, 9049) while the memo answered a subproblem
# translated to another interval of its level.  Both digests were
# re-recorded, as 4f14c6ed... and 64a97788... from 880de3cc..., when the
# earlier records with their empty entries dropped were shown to hash to
# them, and again, as 3432f8d6... and ea62948f..., when a solve that keeps
# nothing answered with the empty system instead of every job on the
# first leaf, after the earlier records mapped so were shown to hash to
# them
EMPTY_GRID = [(8, 1, 0, 2), (16, 1, 1, 2), (16, 2, 1, 3), (16, 3, 0, 2), (32, 1, 1, 2),
              (32, 2, 1, 2), (32, 3, 1, 2), (64, 2, 1, 2)]
EMPTY_GRID_OUTPUTS = "3432f8d6f3bd58040af2ae4b7c23f3b767afee2342de781854e668f2ec407bf5"
EMPTY_GRID_DIGEST = "ea62948fae5e7a1a90ded5e42669faddfbd735a857664f912bfec6c01cfb2f66"


def test_main_solve_keeps_every_count_on_the_empty_grid():
    digest, outputs = hashlib.sha256(), hashlib.sha256()
    nodes = walk_states = 0
    for family, m, (T, h, hp, p), n, seed in product(
            DEEP_FAMILIES, (2, 3), EMPTY_GRID, (5, 7, 9, 12), range(3)):
        inst, _ = gen_instance(family, n, m, 0.3, seed)
        params = compute_params(T, m, Fraction(1, 2), overrides={"h": h, "hp": hp, "p": p})
        budget, ref_budget = Budget(), Budget()
        sys_out, sched = main_solve(inst, params, budget)
        ref_sys, ref_sched = pruned_main_solve(inst, params, ref_budget)
        assert (list(sys_out.assign.items()), sched, budget.nodes) == (
            list(kept(ref_sys.assign, ref_sched).items()), ref_sched, ref_budget.nodes), (
            family, m, T, h, hp, p, n, seed)
        output = list(sys_out.assign.items()), sched.assign
        outputs.update(repr(output).encode())
        digest.update(repr((*output, budget.nodes, budget.walk_states)).encode())
        nodes += budget.nodes
        walk_states += budget.walk_states
    assert outputs.hexdigest() == EMPTY_GRID_OUTPUTS
    assert (nodes, walk_states) == (9185, 9049)
    assert digest.hexdigest() == EMPTY_GRID_DIGEST


def test_an_empty_subproblem_costs_nothing(monkeypatch):
    # random-dag n=3 m=2 seed 0 at T = 16, h = 1: the root keeps every job,
    # so its halves hold none and are answered at once.  The search enters
    # the outer cascades' state and the root, its split walk steps the
    # root's jobs, and every job is discarded
    inst, _ = gen_instance("random-dag", 3, 2, 0.3, 0)
    params = compute_params(16, 2, Fraction(1, 2), overrides={"h": 1, "hp": 1, "p": 2})
    tree = tree_for(params)
    empty_calls = []

    def spy(inst, sub, params, budget, memo):
        before = budget.nodes, budget.walk_states, len(memo.subtrees), len(memo.splits)
        got = schedule_subtree(inst, sub, params, budget, memo)
        if not (sub.anc_windows or sub.sets):
            empty_calls.append(sub.root)
            assert (budget.nodes, budget.walk_states, len(memo.subtrees),
                    len(memo.splits)) == before
        return got

    monkeypatch.setattr(solver, "schedule_subtree", spy)
    budget = Budget()
    sys_out, sched = main_solve(inst, params, budget)
    assert empty_calls == [2, 3]
    assert (budget.nodes, budget.walk_states) == (2, 2)
    assert sched.assign == (DISC,) * 3
    assert sys_out == full_system({})

    # called alone at every level, it answers with the empty system and
    # assignment and counts and stores nothing
    for i in (1, 2, 5, 11):
        budget, memo = Budget(), SolveMemo()
        got = schedule_subtree(inst, SubproblemInput(i), params, budget, memo)
        assert got == ({}, {}), i
        assert (budget.nodes, budget.walk_states) == (0, 0)
        assert memo.subtrees == {} and memo.splits == {}


@pytest.mark.parametrize("limit", [2, 4], ids=["nodes", "walk-states"])
def test_budget_runs_out_inside_an_empty_descent(monkeypatch, limit):
    # the same instance at the limits where the search that descended the
    # empty chain ran out inside the left half's descent, of nodes at 2 and
    # of split-walk states at 4.  The empty halves now spend nothing, so
    # both limits finish with the counts of the root alone; a limit one
    # short of those runs out at the root, before either half is entered
    inst, _ = gen_instance("random-dag", 3, 2, 0.3, 0)
    params = compute_params(16, 2, Fraction(1, 2), overrides={"h": 1, "hp": 1, "p": 2})
    entered = []
    schedule = solver.schedule_subtree

    def spy(inst, sub, params, budget, memo):
        entered.append(sub.root)
        return schedule(inst, sub, params, budget, memo)

    monkeypatch.setattr(solver, "schedule_subtree", spy)
    budget = Budget(limit=limit)
    sys_out, sched = main_solve(inst, params, budget)
    assert entered == [1, 2, 3]
    assert (budget.nodes, budget.walk_states) == (2, 2)
    assert sched.assign == (DISC,) * 3

    entered.clear()
    budget = Budget(limit=1)
    with pytest.raises(BudgetExceeded, match="^search budget exceeded: 2 nodes > limit 1$"):
        main_solve(inst, params, budget)
    assert entered == [1]
    assert (budget.nodes, budget.walk_states) == (2, 0)


def test_enumerate_partitions_match_the_earlier_enumeration():
    # the same partitions in the same order, with jobs whose window misses
    # both halves (empty, or outside the root) discarded in every one
    rng = random.Random(11)
    root = Interval(0, 16)
    dead = 0
    for trial in range(200):
        pool = {}
        for j in rng.sample(range(12), rng.randrange(0, 7)):
            b = rng.choice([0, 4, 8, 12, 16, 20])
            pool[j] = (b, rng.choice([b, b, b + 4, b + 8]))
        dead += sum(1 for b, e in pool.values() if b == e or b >= 16)
        assert list(enumerate_partitions(pool, root)) == two_sided(
            reference_placeable_partitions(pool, root)), pool
    assert dead > 0


def test_node_windows_match_the_earlier_region_scan():
    # the (center, center] shortcut where no boundary lies short of the
    # center, and the scan elsewhere, give the windows the scan gave
    short = scanned = 0
    for seed in range(24):
        m = 2 + seed % 2
        T = (16, 32, 64)[seed % 3]
        h = (1, 2, 3)[seed % 3]
        inst, sched = reference_pair(seed, T=T, m=m, n=10)
        params = compute_params(T, m, Fraction(1, 2), overrides={
            "h": h, "hp": 1, "delta": Fraction(1, 4), "deltap": Fraction(1, 8)})
        sys_ref, covered, _ = system_from_schedule(inst, sched, params)
        tree = tree_for(params)
        for i in range(1, 1 << tree.L):
            if tree.kinds[i] != "top":
                continue
            j_map = {k: sys_ref.assign.get(k, 0) for d in range(h) for k in tree.below(i, d)}
            k_map = {k: covered.get(k, 0) for k in tree.below(i, h)}
            got = node_windows(inst, i, one_map(j_map, k_map), params)
            assert got == reference_node_windows(inst, i, j_map, k_map, params), (seed, i)
            short += h == 1 and bool(got)
            scanned += h > 1 and bool(got)
    assert short > 0 and scanned > 0


# (h, hp) of the trees on which the replay must match the recursion, and
# the split budgets: the default, and a looser one that keeps enough top
# jobs for some to survive the conversion and be routed down as ancestors
REPLAY_PARAMS = [(1, 1), (2, 1), (2, 0), (3, 1), (1, 0)]
REPLAY_BUDGETS = [{}, {"delta": Fraction(1, 4), "deltap": Fraction(1, 8)}]


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("family", DEEP_FAMILIES)
def test_replay_matches_the_hinted_recursion(family, m):
    # the reference's conversion is what the recursion held to the
    # reference's splits and partitions finds: the same schedule, and,
    # wherever it places a job, the same system in the same order.  When
    # it places none the recursion keeps its trivial starting system,
    # which the conversion never builds
    cases = placed_top = unplaced = 0
    for n, T, (h, hp), split in product((6, 9, 13, 18, 24), (16, 32, 64), REPLAY_PARAMS,
                                        REPLAY_BUDGETS):
        inst, _ = gen_instance(family, n, m, 0.3, 7 * n + T + h)
        opt, best = exact_opt(inst)
        assert opt <= T
        params = compute_params(T, m, Fraction(1, 2),
                                overrides={"h": h, "hp": hp, "p": 2, **split})
        args = (inst, Schedule(T=T, assign=best.assign), params)
        got = [(list(nonempty(sys_out.assign).items()), sched)
               for sys_out, sched in (solve_hinted(*args), reference_solve_hinted(*args))]
        case = (n, T, h, hp, split)
        assert got[0][1] == got[1][1], case
        if got[0][1].scheduled_count:
            assert got[0][0] == got[1][0], case
        else:
            unplaced += 1
        kinds = tree_for(params).kinds
        placed_top += sum(1 for i, jobs in got[0][0] if kinds[i] != "bot"
                          for j in iter_jobs(jobs) if got[0][1].assign[j] is not None)
        cases += 1
    assert cases == 150 and placed_top > 0 and unplaced > 0


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("family", DEEP_FAMILIES)
def test_deep_solve_hinted_is_the_virtually_valid_reference(monkeypatch, family, m):
    # on the reference's own system each bottom interval's virtually-valid
    # slots reach the search's root bound, so a deep hinted solve answers
    # with the reference's system and that schedule under horizon T, also
    # when it places no job, and searches nothing.  References as the
    # pipeline hands them over: the oracle's schedule at T, and padded by
    # ``_with_sinks``, which ends before T
    unplaced = placed_top = 0
    for T, n in ((16, 9), (32, 16), (64, 24)):
        inst0, _ = gen_instance(family, n, m, 0.3, 5 * n + T + m)
        opt, best = exact_opt(inst0)
        horizon = max(opt, 3 * T // 4)
        inst, T2, _ = pad_to_power_of_two(inst0, horizon)
        assert T2 == T
        refs = ((inst0, Schedule(T=T, assign=best.assign)),
                (inst, _with_sinks(inst0, inst, best, horizon)))
        for h, hp, split in product(range(4), range(3), REPLAY_BUDGETS):
            params = compute_params(T, m, Fraction(1, 2),
                                    overrides={"h": h, "hp": hp, "p": 2, **split})
            assert params.L > 0
            kinds = tree_for(params).kinds
            for inst, reference in refs:
                case = (T, h, hp, split, inst.n)
                sys_ref = system_from_schedule(inst, reference, params)[0]
                virt = valid_to_virtually_valid(inst, sys_ref, reference, params)
                with monkeypatch.context() as patch:
                    for name in ("main_solve", "bottom_solve"):
                        patch.setattr(solver, name, _unused)
                    got = solve_hinted(inst, reference, params)
                assert got == (sys_ref, Schedule(T=T, assign=virt.assign)), case
                unplaced += not virt.scheduled_count
                placed_top += sum(1 for i, jobs in sys_ref.assign.items() if kinds[i] == "top"
                                  for j in iter_jobs(jobs) if virt.assign[j] is not None)
    assert unplaced > 0 and placed_top > 0


def _unused(*args, **kwargs):
    raise AssertionError("a hinted solve searches nothing")


def test_solve_hinted_raises_on_a_broken_virtual_schedule(monkeypatch):
    # a conversion that moves a top job onto its window's exclusive left
    # boundary breaks the hinted solve's one check: the solve raises and
    # never returns that schedule
    inst, _ = gen_instance("random-dag", 16, 2, 0.3, 0)
    reference = Schedule(T=32, assign=exact_opt(inst)[1].assign)
    params = compute_params(32, 2, Fraction(1, 2), overrides={"h": 2, "hp": 1, "p": 2})
    moved = []

    def broken(inst, sys, sched, params):
        virt = valid_to_virtually_valid(inst, sys, sched, params)
        j, (b, e) = min(windows(inst, sys, params).items())
        moved.append(f"top job {j} at {b} outside ({b},{e}]")
        return virt.replace({j: b})

    monkeypatch.setattr(solver, "valid_to_virtually_valid", broken)
    with pytest.raises(RuntimeError, match="not virtually valid") as exc:
        solve_hinted(inst, reference, params)
    assert moved and moved[0] in str(exc.value)


def test_deep_enum_pool_node_count():
    # the structures of the benchmark's deep-enum pool, unrelabeled, at its
    # horizon and overrides; every partition solved to the end took 863,
    # counting the search an empty subproblem skipped took 412, and
    # answering a translated subproblem from the memo took 300
    total = 0
    params = compute_params(16, 2, Fraction(1, 2), overrides={"h": 1, "hp": 1, "p": 2})
    for n, count in ((5, 20), (6, 8)):
        for seed in range(count):
            inst, _ = gen_instance("random-dag", n, 2, 0.3, seed)
            budget = Budget()
            main_solve(inst, params, budget=budget)
            total += budget.nodes
    assert total == 308


# the deep-enum pool's instances that keep no job at h = 1, (n, generator
# seed): each has a longest chain of 2, within the root's chain budget,
# so every job stays on the root, whose windows are empty at h = 1
DEEP_ENUM_ZERO_KEEP = [(5, 2), (5, 3), (5, 4), (5, 5), (5, 9), (5, 12), (5, 15), (5, 16),
                       (6, 0), (6, 2)]


@pytest.mark.parametrize("p", [2, 8])
def test_deep_enum_pool_zero_keep_instances(p):
    # the same instances keep nothing at every p, each in 2 nodes and 2
    # walk states: the outer cascades' state and the root, whose split
    # keeps every job there, while the empty halves cost nothing
    params = compute_params(16, 2, Fraction(1, 2), overrides={"h": 1, "hp": 1, "p": p})
    zero = []
    for n, count in ((5, 20), (6, 8)):
        for seed in range(count):
            inst, _ = gen_instance("random-dag", n, 2, 0.3, seed)
            budget = Budget()
            _, sched = main_solve(inst, params, budget=budget)
            if sched.scheduled_count == 0:
                zero.append((n, seed))
                assert (budget.nodes, budget.walk_states) == (2, 2), (n, seed)
    assert zero == DEEP_ENUM_ZERO_KEEP


@pytest.mark.parametrize("p, kept, nodes, walk_states", [(2, 0, 1, 7), (4, 16, 5814, 582)])
def test_h2_root_keeps_all_jobs_or_none(p, kept, nodes, walk_states):
    # random-dag n=16 m=2 seed 1 at T = 16, h = 2 hp = 1: the root's chain
    # budget lets no chain stay, so every job must leave the root within p
    # guesses.  At p = 2 no guess vector of the root's split ends, so the
    # outer cascades yield no state and nothing is kept; at p = 4 every
    # job is
    inst, _ = gen_instance("random-dag", 16, 2, 0.3, 1)
    params = compute_params(16, 2, Fraction(1, 2), overrides={"h": 2, "hp": 1, "p": p})
    budget = Budget()
    _, sched = main_solve(inst, params, budget=budget)
    assert (sched.scheduled_count, budget.nodes, budget.walk_states) == (
        kept, nodes, walk_states)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("family", DEEP_FAMILIES)
def test_recorded_split_outcomes_replay_like_push_down(family, m):
    # references as the pipeline replays them: the oracle's schedule at
    # T, and padded by ``_with_sinks`` from a horizon between T/2 and T.
    # A hinted solve answers with the reference's system and its
    # virtually-valid schedule, and each split of that system is the one
    # ``push_down`` makes of the guesses recorded there
    padded = 0
    for T, h, n in product((16, 32), (1, 2, 3), (6, 11, 16)):
        inst0, _ = gen_instance(family, n, m, 0.3, 7 * n + T + h)
        params = compute_params(T, m, Fraction(1, 2), overrides={"h": h, "hp": 1, "p": 2})
        assert params.L > 0
        opt, best = exact_opt(inst0)
        horizon = max(opt, 3 * T // 4)
        inst, T2, _ = pad_to_power_of_two(inst0, horizon)
        assert T2 == T
        refs = [(inst, _with_sinks(inst0, inst, best, horizon))]
        if inst.n > n:
            refs.append((inst0, Schedule(T=T, assign=best.assign)))
            padded += 1
        for inst, reference in refs:
            case = (T, h, n, inst.n)
            sys_ref, covered, guesses = system_from_schedule(inst, reference, params)
            virt = valid_to_virtually_valid(inst, sys_ref, reference, params)
            assert solve_hinted(inst, reference, params) == (
                sys_ref, Schedule(T=T, assign=virt.assign)), case
            assert guesses, case
            for i, trace in guesses.items():
                outcome = (sys_ref.assign.get(i, 0), covered.get(2 * i, 0),
                           covered.get(2 * i + 1, 0))
                assert outcome == push_down(inst, i, covered[i], trace, params), case
    assert padded > 0


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("family", DEEP_FAMILIES)
def test_recorded_systems_keep_the_walks_order(family, m):
    # references as a hinted run replays them (the oracle's schedule with
    # the padding sinks), on trees where most pools are empty: the system,
    # covered sets and guess vectors, which skip an empty pool's subtree,
    # are the ones the split loop on every interval gave, key order
    # included, with every empty entry dropped and the guess vectors of
    # empty pools with them
    empty = 0
    for (T, h, hp), n in product(((16, 1, 1), (32, 1, 1), (32, 2, 1), (64, 2, 1), (16, 3, 0)),
                                 (6, 11, 16)):
        inst0, _ = gen_instance(family, n, m, 0.3, 3 * n + T + h)
        params = compute_params(T, m, Fraction(1, 2), overrides={"h": h, "hp": hp, "p": 2})
        opt, best = exact_opt(inst0)
        horizon = max(opt, T // 2 + 1)
        inst, T2, _ = pad_to_power_of_two(inst0, horizon)
        if T2 != T:
            continue
        reference = _with_sinks(inst0, inst, best, horizon)
        sys_got, *maps_got = system_from_schedule(inst, reference, params)
        sys_want, covered, guesses = reference_system_from_schedule(inst, reference, params)
        maps_want = (nonempty(sys_want.assign), nonempty(covered),
                     {i: g for i, g in guesses.items() if covered[i]})
        for got, want in zip((sys_got.assign, *maps_got), maps_want):
            assert list(got.items()) == list(want.items()), (T, h, hp, n)
        empty += sum(not jobs for jobs in covered.values())
    assert empty > 0


def test_hinted_replay_pool_node_count(monkeypatch):
    # the deep half of the benchmark's hinted-replay pool, unrelabeled, at
    # its horizon and overrides: a run calls neither search, so it can
    # count no node
    runs = []
    for family, m in product(DEEP_FAMILIES, (2, 3)):
        params = compute_params(32, m, Fraction(1, 2), overrides={"h": 1, "hp": 1, "p": 2})
        for seed in range(8):
            inst, _ = gen_instance(family, 16, m, 0.3, seed)
            runs.append((inst, Schedule(T=32, assign=exact_opt(inst)[1].assign), params))
    for name in ("main_solve", "bottom_solve"):
        monkeypatch.setattr(solver, name, _unused)
    for inst, reference, params in runs:
        solve_hinted(inst, reference, params)
    assert len(runs) == 48


def test_hinted_replay_pool_windows_are_all_empty_at_h1():
    # the same structures: at h = 1 the window step is half a top
    # interval, so the center is the only boundary and every top job's
    # window is empty; the reference conversion then discards every top
    # job (per family and m: top jobs, empty windows, jobs discarded).
    # A change to windows or their plumbing moves these counts
    counts = {}
    for family, m in product(DEEP_FAMILIES, (2, 3)):
        params = compute_params(32, m, Fraction(1, 2), overrides={"h": 1, "hp": 1, "p": 2})
        tops = empty = lost = 0
        for seed in range(8):
            inst, _ = gen_instance(family, 16, m, 0.3, seed)
            reference = Schedule(T=32, assign=exact_opt(inst)[1].assign)
            sys_ref = system_from_schedule(inst, reference, params)[0]
            win = windows(inst, sys_ref, params)
            tops += len(win)
            empty += sum(1 for b, e in win.values() if b >= e)
            lost += valid_to_virtually_valid(inst, sys_ref, reference, params).discard_count
        counts[family, m] = (tops, empty, lost)
    assert counts == {
        ("random-dag", 2): (89, 89, 89), ("random-dag", 3): (88, 88, 88),
        ("layered", 2): (128, 128, 128), ("layered", 3): (128, 128, 128),
        ("forest", 2): (126, 126, 126), ("forest", 3): (126, 126, 126),
    }


def brute_force_bottom(inst, iv, bottom, ancestors, anc_windows, m):
    """Exhaustive max scheduled count over all slot/discard assignments.

    Each job ranges over its own domain: discarded, or a slot of the
    interval, and for an ancestor only the slots inside its window."""
    jobs = list(iter_jobs(bottom | ancestors))
    domains = []
    for j in jobs:
        slots = list(iv.slots())
        if ancestors >> j & 1:
            b, e = anc_windows[j]
            slots = [t for t in slots if b < t <= e]
        domains.append([None, *slots])
    best = 0
    for combo in product(*domains):
        assign = dict(zip(jobs, combo))
        counts = {}
        ok = True
        for t in combo:
            if t is None:
                continue
            counts[t] = counts.get(t, 0) + 1
            if counts[t] > m:
                ok = False
                break
        if not ok:
            continue
        placed = [j for j in iter_jobs(bottom) if assign[j] is not None]
        for a in placed:
            for b in placed:
                if inst.precedes(a, b) and assign[a] >= assign[b]:
                    ok = False
        if ok:
            best = max(best, sum(1 for t in combo if t is not None))
    return best


def test_bottom_solve_packs_when_room():
    inst = build_instance(6, 2, [])
    out = bottom_solve(inst, Interval(0, 8), inst.all_jobs, {})
    assert len(out) == 6 and DISC not in out.values()


def test_bottom_solve_chain_pigeonhole():
    inst = build_instance(5, 2, [(i, i + 1) for i in range(4)])
    iv = Interval(0, 2)
    out = bottom_solve(inst, iv, inst.all_jobs, {})
    assert DISC not in out.values()
    assert inst.n - len(out) >= 3  # chain of 5 in 2 slots


def test_bottom_solve_matches_exhaustive_oracle():
    rng = random.Random(0)
    for seed in range(45):
        m = 1 + seed % 3
        inst = random_instance(6 + seed % 3, m, 0.4, seed)
        iv = Interval(4, 8)
        split = mask_from(j for j in range(inst.n) if rng.random() < 0.6)
        bottom = split
        ancestors = inst.all_jobs & ~split
        anc_windows = {}
        for j in iter_jobs(ancestors):
            b = rng.choice([2, 4, 6])
            e = rng.choice([x for x in (4, 6, 8) if x >= b])
            anc_windows[j] = (b, e)  # b == e gives an empty window: forced discard
        out = bottom_solve(inst, iv, bottom, anc_windows)
        assert DISC not in out.values()
        assert len(out) == brute_force_bottom(inst, iv, bottom, ancestors, anc_windows, m)


def test_bottom_solve_respects_everything():
    inst = build_instance(6, 2, [(0, 1), (2, 3)])
    iv = Interval(0, 4)
    wins = {4: (0, 2), 5: (2, 4)}
    out = bottom_solve(inst, iv, mask_from([0, 1, 2, 3]), wins)
    for j, t in out.items():
        assert t in iv
        if j in wins:
            assert wins[j][0] < t <= wins[j][1]
    if 0 in out and 1 in out:
        assert out[0] < out[1]


def test_schedule_subtree_rejects_oversized_input():
    params = micro_params()
    inst = build_instance(6, 2, [])
    sub = SubproblemInput(root=4, sets={4: inst.all_jobs})  # (0,2]
    assert schedule_subtree(inst, sub, params) is None


def test_schedule_subtree_bottom_delegates():
    params = micro_params()
    inst = build_instance(3, 2, [(0, 1), (1, 2)])
    sub = SubproblemInput(root=4, sets={4: inst.all_jobs})  # (0,2]
    got = schedule_subtree(inst, sub, params)
    assert got is not None
    sys, assign = got
    assert sys == {4: inst.all_jobs}
    # chain of 3 in 2 slots: exactly one job must go
    assert len(assign) == 2 and DISC not in assign.values()


def test_schedule_subtree_preserves_fixed_levels():
    for seed in range(15):
        inst, sched = reference_pair(seed, T=16, m=2, n=8)
        params = desk_params(T=16, m=2)
        sys, covered, guesses = system_from_schedule(inst, sched, params)
        tree = tree_for(params)
        frontier = tree.below(1, params.h - 1)
        sub = SubproblemInput(root=1, sets=one_map(
            {1: sys.assign.get(1, 0)}, {f: covered.get(f, 0) for f in frontier}))
        got = schedule_subtree(inst, sub, params, Budget())
        assert got is not None
        by_index, assign = got
        assert DISC not in assign.values() and 0 not in by_index.values()
        assert by_index.get(1, 0) == sys.assign.get(1, 0)
        for f in frontier:
            agg = 0
            for jobs in _restrict(by_index, f).values():
                agg |= jobs
            assert agg == covered.get(f, 0)
        out_sys = PartialDyadicSystem(assign=by_index)
        report = check_system(inst, out_sys, params)
        assert_no_violations(report)
        assert_no_violations(check_virtually_valid(inst, out_sys, params, assign))


def test_subproblem_key_ignores_dict_order():
    fields = {
        "anc_windows": {5: (0, 4), 1: (2, 8), 3: (4, 6)},
        "sets": {1: 0b1, 3: 0b100, 4: 0b1000, 5: 0b10000, 7: 0b1000000},
    }
    a = SubproblemInput(root=1, **fields)
    b = SubproblemInput(root=1, **{k: dict(reversed(v.items())) for k, v in fields.items()})
    assert list(a.sets) != list(b.sets)
    assert a.key() == b.key()
    assert hash(a.key()) == hash(b.key())


def test_subproblem_key_changes_with_every_field():
    # the memo tells subproblems apart by their keys alone, so changing any
    # one field must change the key; every field of the record needs its
    # changes listed here, so one added later cannot be left out of the key
    base = SubproblemInput(root=2, anc_windows={5: (0, 4), 1: (2, 8)},
                           sets={2: 0b1, 4: 0b100, 5: 0b1000})
    changes = {
        "root": [3, 4],
        # an entry dropped, a value changed, a key changed, an entry added
        "anc_windows": [{5: (0, 4)}, {5: (0, 4), 1: (2, 6)}, {5: (0, 4), 3: (2, 8)},
                        {5: (0, 4), 1: (2, 8), 3: (4, 6)}],
        "sets": [{2: 0b1, 4: 0b100}, {2: 0b1, 4: 0b100, 5: 0b10000},
                 {2: 0b1, 4: 0b100, 9: 0b1000}, {2: 0b1, 4: 0b100, 5: 0b1000, 9: 0b10}],
    }
    assert set(changes) == {f.name for f in dataclasses.fields(SubproblemInput)}
    for name, values in changes.items():
        for value in values:
            assert dataclasses.replace(base, **{name: value}).key() != base.key(), (name, value)


def test_subproblem_key_names_its_interval():
    # the halves (0, 8] and (8, 16] of a T = 16 tree with the same
    # ancestors, the same windows, which span the center as a parent
    # passes them down, and no set of their own: they differ only in
    # where they lie, and so do their keys
    windows = {0: (2, 14), 1: (4, 12)}
    left = SubproblemInput(root=2, anc_windows=windows)
    right = SubproblemInput(root=3, anc_windows=dict(windows))
    assert left.key() != right.key()
    assert left.key()[1:] == right.key()[1:]
    # windows are read as given: moved by the distance between the two
    # begins, they name another subproblem
    moved = SubproblemInput(root=3, anc_windows={0: (10, 22), 1: (12, 20)})
    assert moved.key() != right.key()


def test_memo_answers_a_repeat_without_entering_a_node():
    inst, sched = reference_pair(3, T=16, m=2, n=8)
    params = desk_params(T=16, m=2)
    sys, covered, _ = system_from_schedule(inst, sched, params)
    tree = tree_for(params)
    sub = SubproblemInput(root=1, sets=one_map(
        {1: sys.assign.get(1, 0)}, {f: covered.get(f, 0) for f in tree.below(1, params.h - 1)}))
    memo = SolveMemo()
    budget = Budget()
    first = schedule_subtree(inst, sub, params, budget, memo=memo)
    spent = budget.nodes
    assert first is not None and spent > 1
    assert schedule_subtree(inst, sub, params, budget, memo=memo) is first
    assert budget.nodes == spent
    again = schedule_subtree(inst, sub, params, Budget())  # a fresh memo
    assert again == first and again is not first


def test_main_solve_micro_structure_and_degenerate_oracle():
    for seed in range(10):
        inst = random_instance(7, 2, 0.45, seed)
        params = single_bottom_params()
        sys, sched = main_solve(inst, params)
        assert_no_violations(check_system(inst, sys, params, require_full=True))
        assert_no_violations(check_virtually_valid(inst, sys, params, sched))
        assert sched.scheduled_count == max_scheduled_oracle(inst, 8)


def test_main_solve_micro_exhaustive_beats_hinted():
    for seed in range(4):
        inst = random_instance(6, 2, 0.35, seed)
        params = micro_params()
        opt, opt_sched = exact_opt(inst)
        ref = Schedule(T=8, assign=opt_sched.assign)
        _, _, guesses = system_from_schedule(inst, ref, params)
        tree = tree_for(params)
        in_space = all(
            len(g) <= (params.p if tree.kinds[i] == "top" else 2 * tree.interval[i].length)
            for i, g in guesses.items()
        )
        _, hinted = solve_hinted(inst, ref, params)
        sys, full = main_solve(inst, params, budget=Budget(2_000_000))
        assert_no_violations(check_virtually_valid(inst, sys, params, full))
        if in_space:
            assert full.scheduled_count >= hinted.scheduled_count


def test_hinted_accounting_on_padded_instances():
    found = 0
    seed = 0
    while found < 5 and seed < 200:
        seed += 1
        got = padded_reference(seed)
        if got is None:
            continue
        found += 1
        inst, ref = got
        params = desk_params(T=16, m=2)
        sys_ref, _, _ = system_from_schedule(inst, ref, params)
        virt = valid_to_virtually_valid(inst, sys_ref, ref, params)
        out_sys, out = solve_hinted(inst, ref, params)
        assert out.scheduled_count >= virt.scheduled_count
        assert_no_violations(check_virtually_valid(inst, out_sys, params, out))
        assert_no_violations(check_system(inst, out_sys, params, require_full=True))
    assert found == 5


def test_guess_padding_never_changes_replay():
    for seed in range(10):
        inst, sched = reference_pair(seed, T=16, m=2, n=8)
        params = desk_params(T=16, m=2)
        _, covered, guesses = system_from_schedule(inst, sched, params)
        for i, trace in guesses.items():
            results = {
                push_down(inst, i, covered[i], trace + pad, params)
                for pad in ((), ("L",) * 5, ("R",) * 5, ("R", "L", "R"))
            }
            assert len(results) == 1


def test_equivalent_ancestor_pools_schedule_equally():
    # ancestors matter only through their windows: swapping the concrete
    # jobs of two window-identical ancestors cannot change the optimum
    rng = random.Random(8)
    for seed in range(15):
        inst = random_instance(6, 2, 0.4, seed)
        iv = Interval(2, 4)
        bottom = mask_from([0, 1])
        a, b = 2, 3
        others = mask_from([4, 5])
        window = (0, 4)
        wins_a = {a: window, 4: (2, 8), 5: (0, 2)}
        wins_b = {b: window, 4: (2, 8), 5: (0, 2)}
        out_a = bottom_solve(inst, iv, bottom, wins_a)
        out_b = bottom_solve(inst, iv, bottom, wins_b)
        assert len(out_a) == len(out_b)


def test_solver_is_deterministic():
    for seed in range(3):
        inst = random_instance(6, 2, 0.35, seed)
        params = micro_params()
        runs = []
        for _ in range(2):
            budget = Budget()
            sys_out, sched = main_solve(inst, params, budget=budget)
            runs.append((dict(sys_out.assign), sched.assign, budget.nodes))
        assert runs[0] == runs[1]


def test_hinted_on_three_level_tree():
    # chain instances have a forced optimum, so no oracle limit applies:
    # pad a 20-chain to a 32-slot horizon and run the full depth (two top
    # levels, one middle, bottoms of length four)
    from psched.dyadic import check_valid_for_system

    for n, m in ((20, 2), (18, 3)):
        chain = build_instance(n, m, [(i, i + 1) for i in range(n - 1)])
        inst, T2, pads = pad_to_power_of_two(chain, n)
        assert T2 == 32
        assign = list(range(1, n + 1)) + [0] * job_count(pads)
        slot = n
        for k, j in enumerate(iter_jobs(pads)):
            if k % m == 0:
                slot += 1
            assign[j] = slot
        ref = Schedule(T=32, assign=tuple(assign))
        params = desk_params(T=32, m=m)
        tree = tree_for(params)
        assert tree.L == 3
        sys_ref, _, _ = system_from_schedule(inst, ref, params)
        assert check_valid_for_system(inst, sys_ref, params, ref).ok
        virt = valid_to_virtually_valid(inst, sys_ref, ref, params)
        out_sys, out = solve_hinted(inst, ref, params)
        assert out.scheduled_count >= virt.scheduled_count
        assert check_virtually_valid(inst, out_sys, params, out).ok
        assert check_system(inst, out_sys, params, require_full=True).ok


def test_overloaded_instance_falls_back_to_all_disc():
    # more jobs than the horizon can hold: every branch hits the size
    # guard, so nothing is kept: the empty system, with every job
    # discarded, which checks out
    inst = build_instance(12, 1, [])
    params = compute_params(8, 1, Fraction(1, 2), overrides={"h": 1, "hp": 1, "p": 2})
    sys_out, sched = main_solve(inst, params)
    assert sys_out.assign == {} and sched.assign == (DISC,) * 12
    assert check_virtually_valid(inst, sys_out, params, sched).ok
    assert check_system(inst, sys_out, params).ok


def test_empty_instance():
    inst = build_instance(0, 2, [])
    params = micro_params()
    sys_out, sched = main_solve(inst, params)
    assert sys_out.assign == {} and sched.assign == ()


def collapsed_case(seed, m, offset, hinted):
    """A padded instance at horizon ``opt + offset`` whose params collapse
    the tree to one bottom interval (``L = 0``), with a reference schedule
    when asked.

    The reference is the optimal schedule with its padding sinks after the
    horizon, or, below the optimum, with every job that does not fit
    discarded."""
    inst0 = random_instance(7 + seed % 3, m, 0.5, seed)
    opt, best = exact_opt(inst0)
    target = max(opt + offset, 2)
    inst, T2, pads = pad_to_power_of_two(inst0, target)
    params = compute_params(T2, m, Fraction(1, 2))
    assert params.L == 0
    if not hinted:
        return inst, params, None
    assign = [t if t <= target else None for t in best.assign]
    for k in range(job_count(pads)):
        assign.append(target + 1 + k // m if offset >= 0 else None)
    return inst, params, Schedule(T=T2, assign=tuple(assign))


COLLAPSED_GRID = [
    (seed, m, offset, hinted)
    for m in (1, 2, 3)
    for offset in (-1, 0, 3)
    for hinted in (False, True)
    for seed in range(3)
]


@pytest.mark.parametrize("seed, m, offset, hinted", COLLAPSED_GRID, ids=[
    f"s{g[0]}-m{g[1]}-opt{g[2]:+d}-{'hinted' if g[3] else 'enum'}" for g in COLLAPSED_GRID
])
def test_collapsed_main_solve_matches_root_subtree(seed, m, offset, hinted):
    # at L = 0 main_solve runs its one path: the outer cascades step the
    # root, a bottom interval (h >= 2 here), and the state that keeps all
    # jobs on it, two nodes, then solve the root subproblem.  So it returns
    # the same system and schedule as that subproblem's solve, or the
    # empty system and no job placed when that finds nothing, with the
    # subproblem's nodes and two more (3 for a root that cannot hold its
    # jobs), and keeps at least the jobs a reference schedule keeps
    inst, params, reference = collapsed_case(seed, m, offset, hinted)
    assert params.h >= 2
    sub_budget = Budget()
    got = schedule_subtree(
        inst, SubproblemInput(root=1, sets={1: inst.all_jobs}), params, sub_budget)
    budget = Budget()
    sys_out, sched = main_solve(inst, params, budget=budget)
    if got is None:  # more jobs than the root holds
        assert sys_out == PartialDyadicSystem(assign={})
        assert inst.n > m * params.T
        assert sched == Schedule(T=params.T, assign=(None,) * inst.n)
        assert budget.nodes == sub_budget.nodes + 2 == 3
        return
    assert got[0] == {1: inst.all_jobs}
    assert sys_out == PartialDyadicSystem(assign=got[0])
    assert check_virtually_valid(inst, sys_out, params, sched).ok
    assert sched == Schedule(T=params.T, assign=tuple(got[1].get(j, DISC) for j in range(inst.n)))
    assert budget.nodes == sub_budget.nodes + 2
    if reference is not None:
        assert sched.scheduled_count >= reference.scheduled_count


def test_budget_exceeded():
    # the search enters 2 nodes: the outer cascades' state and the root
    inst = random_instance(8, 2, 0.3, 1)
    params = micro_params()
    with pytest.raises(BudgetExceeded, match="^search budget exceeded: 2 nodes > limit 1$"):
        main_solve(inst, params, budget=Budget(limit=1))


def test_trivial_instance_schedules_everything():
    inst = build_instance(2, 2, [])
    params = single_bottom_params()
    _, sched = solve_hinted(inst, Schedule(T=8, assign=(1, 1)), params)
    assert sched.discard_count == 0


# (n, m, seed, horizon, schedule) of hinted L = 0 solves replaying the
# Graham schedule of random_instance(n, m, 0.3, seed): every job keeps its
# reference slot, as when the reference was first turned into a system and
# its virtually-valid counterpart
COLLAPSED_HINTED = [
    (7, 2, 0, 4, (2, 1, 1, 2, 3, 3, 4)),
    (9, 2, 1, 8, (3, 4, 5, 1, 3, 1, 2, 2, 4)),
    (10, 3, 2, 4, (1, 2, 4, 1, 3, 1, 3, 3, 4, 2)),
    (12, 2, 3, 8, (1, 1, 3, 8, 5, 5, 3, 2, 6, 7, 2, 4)),
    (8, 1, 4, 8, (5, 1, 6, 7, 3, 4, 2, 8)),
    (11, 3, 5, 4, (3, 3, 1, 2, 3, 4, 2, 2, 1, 4, 1)),
]


@pytest.mark.parametrize("n, m, seed, T, expected", COLLAPSED_HINTED,
                         ids=[f"n{g[0]}-m{g[1]}-s{g[2]}" for g in COLLAPSED_HINTED])
def test_collapsed_solve_hinted_replays_the_reference(monkeypatch, n, m, seed, T, expected):
    # at L = 0 the reference is the answer: a pipeline attempt with it as
    # its oracle returns it with no system, no conversion and no search,
    # and solve_hinted's system and conversion give it back unchanged on
    # the one-interval system
    inst = random_instance(n, m, 0.3, seed)
    params = compute_params(T, m, Fraction(1, 2))
    assert params.L == 0
    reference = Schedule(T=T, assign=graham_list(inst).assign)
    sys_out, sched = solve_hinted(inst, reference, params)
    assert sched == Schedule(T=T, assign=expected) == reference
    assert sys_out == PartialDyadicSystem(assign={1: inst.all_jobs})

    def unused(*args, **kwargs):
        raise AssertionError("no system is built and nothing searched at L = 0")

    for name in ("solve_hinted", "main_solve", "virtually_valid_to_valid", "pad_to_power_of_two",
                 "_places_top_job", "_originals"):
        monkeypatch.setattr(pipeline, name, unused)
    budget = Budget()
    got = pipeline.solve_at_horizon(inst, T, Fraction(1, 2), {}, budget, (T, reference))
    assert got == pipeline.SolveOutcome(horizon=T, padded_T=T, virtual=reference,
                                        valid=reference, nodes=0)
    assert budget.nodes == 0


@pytest.mark.parametrize("case, message", [
    ("discard", "reference schedule must have zero discards"),
    ("late", "makespan 9 exceeds horizon 8"),
    ("order", "reference schedule invalid:"),
])
def test_collapsed_solve_hinted_rejects_a_bad_reference(case, message):
    # the same errors as the reference's system construction raises
    inst = build_instance(3, 2, [(0, 1)])
    params = compute_params(8, 2, Fraction(1, 2))
    assert params.L == 0
    assign = {"discard": (1, 2, None), "late": (1, 9, 1), "order": (2, 2, 1)}[case]
    reference = Schedule(T=9 if case == "late" else 8, assign=assign)
    with pytest.raises(InvalidInput, match=message):
        system_from_schedule(inst, reference, params)
    with pytest.raises(InvalidInput, match=message):
        solve_hinted(inst, reference, params)


def _guess_outcomes_by_prefix(inst, iv, jobs, params, max_len):
    """The guess-tree walk as one ``push_down`` per prefix, each replaying
    the split loop from the start."""
    out = []
    stack = [()]
    while stack:
        prefix = stack.pop()
        try:
            result = push_down(inst, iv, jobs, prefix, params)
        except GuessExhausted:
            if len(prefix) < max_len:
                stack.append(prefix + ("R",))
                stack.append(prefix + ("L",))
            continue
        out.append((prefix, result))
    return out


@pytest.mark.parametrize("seed", range(12))
def test_guess_outcomes_walk_matches_push_down_per_prefix(seed):
    rng = random.Random(seed)
    m = 1 + seed % 3
    inst = random_instance(rng.randrange(5, 11), m, 0.35, seed)
    params = compute_params(16, m, Fraction(1, 2), overrides={"h": 1, "hp": 1, "p": 2})
    tree = tree_for(params)
    for level in range(tree.L):
        for iv in range(1 << level, 2 << level):
            jobs = mask_from(j for j in range(inst.n) if rng.random() < 0.8)
            for max_len in (0, 1, 2, 4):
                assert solver._guess_outcomes(inst, iv, jobs, params, max_len) == (
                    without_vectors(_guess_outcomes_by_prefix(inst, iv, jobs, params, max_len)))


# (T, h, hp, p) of the trees whose top and middle intervals the memoized
# walk is checked on; middle intervals walk up to m * |I| guesses, 24 at
# m = 3 on the h = 2 middle level
SPLIT_GRID = [(16, 1, 1, 2), (32, 2, 1, 3), (32, 1, 2, 2), (64, 2, 1, 3)]


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("family", DEEP_FAMILIES)
def test_memoized_walk_matches_the_walk_of_every_prefix(family, m):
    # the same outcomes in the same order as the walk that visits every
    # prefix, no outcome twice, and its states tick the walk's counter,
    # not the nodes
    longest = 0
    for (T, h, hp, p), n in product(SPLIT_GRID, (6, 9, 12)):
        inst, _ = gen_instance(family, n, m, 0.3, 31 * n + T + h + m)
        params = compute_params(T, m, Fraction(1, 2), overrides={"h": h, "hp": hp, "p": p})
        tree = tree_for(params)
        rng = random.Random(n + T)
        for iv in range(1, 1 << tree.L):
            length = T >> (iv.bit_length() - 1)
            max_len = p if tree.kinds[iv] == "top" else m * length
            jobs = mask_from(j for j in range(inst.n) if rng.random() < 0.7)
            budget = Budget()
            got = solver._guess_outcomes(inst, iv, jobs, params, max_len, budget)
            walk = reference_guess_outcomes(inst, iv, jobs, params, max_len)
            assert got == without_vectors(walk), (T, h, n, iv)
            assert len(set(got)) == len(got)
            assert budget.walk_states > 0 and budget.nodes == 0
            longest = max(longest, max_len)
    assert longest == 8 * m


def test_split_walk_states_exhaust_the_budget_before_the_nodes():
    # a chain of 12 jobs on a middle interval, where no chain fits: each
    # pivot is the chain's first job, sent left alone or right with the
    # rest, so the walk steps 12 residual sets and 12 empty ones, and 13
    # vectors end (a right turn after each of 0-11 left ones, or 12 left)
    inst = build_instance(12, 3, [(j, j + 1) for j in range(11)])
    params = compute_params(16, 3, Fraction(1, 2), overrides={"h": 2, "hp": 1, "p": 2})
    assert tree_for(params).kinds[2] == "mid"
    states = Budget()
    outcomes = solver._guess_outcomes(inst, 2, inst.all_jobs, params, 12, states)
    assert (states.nodes, states.walk_states, len(outcomes)) == (0, 37, 13)
    assert outcomes == without_vectors(
        reference_guess_outcomes(inst, 2, inst.all_jobs, params, 12))
    budget = Budget(limit=36)
    with pytest.raises(BudgetExceeded, match="37 split-walk states > limit 36") as exc:
        solver._guess_outcomes(inst, 2, inst.all_jobs, params, 12, budget)
    assert exc.value.nodes == 37 and budget.nodes == 0
    # under any smaller limit the walk stops at the state that runs over,
    # whether it steps a set or ends a vector
    for limit in range(36):
        budget = Budget(limit=limit)
        with pytest.raises(BudgetExceeded, match=f"^search budget exceeded: {limit + 1} "
                                                 f"split-walk states > limit {limit}$"):
            solver._guess_outcomes(inst, 2, inst.all_jobs, params, 12, budget)
        assert budget.walk_states == limit + 1
    # in a solve: the root's split walk runs out with two nodes spent, the
    # outer cascades' one state and the root's subproblem
    params = compute_params(16, 3, Fraction(1, 2), overrides={"h": 1, "hp": 3, "p": 2})
    assert tree_for(params).kinds[1] == "mid"
    budget = Budget(limit=3)
    with pytest.raises(BudgetExceeded, match="4 split-walk states > limit 3"):
        main_solve(inst, params, budget=budget)
    assert budget.nodes == 2


def test_split_walk_is_bounded_however_many_vectors_end():
    # 40 independent jobs on a middle interval: every pivot goes left or
    # right alone, so 41 residual sets reach 2**40 outcomes; the budget
    # stops the listing, as it does the stepping
    inst = build_instance(40, 2, [])
    params = compute_params(64, 2, Fraction(1, 2), overrides={"h": 1, "hp": 5, "p": 2})
    assert tree_for(params).kinds[1] == "mid"
    budget = Budget(limit=1000)
    with pytest.raises(BudgetExceeded, match="split-walk states"):
        solver._guess_outcomes(inst, 1, inst.all_jobs, params, 128, budget)
    assert budget.walk_states == 1001


def test_split_walk_deeper_than_the_recursion_limit():
    # a chain longer than the recursion limit on a middle interval: one
    # step per job down the all-left branch, with no recursion
    n = sys.getrecursionlimit() + 50
    inst = build_instance(n, 2, [(j, j + 1) for j in range(n - 1)])
    params = compute_params(2048, 2, Fraction(1, 2), overrides={"h": 1, "hp": 10, "p": 2})
    assert tree_for(params).kinds[1] == "mid"
    got = solver._guess_outcomes(inst, 1, inst.all_jobs, params, 2 * n)
    assert got == without_vectors(reference_guess_outcomes(inst, 1, inst.all_jobs, params, 2 * n))
    assert len(got) == n + 1


class _NoStore(dict):
    """A memo table that forgets everything: every subproblem is solved again."""

    def __setitem__(self, key, value):
        pass


class _Snapshots(dict):
    """A memo table that also keeps a deep copy of every value stored."""

    def __init__(self):
        super().__init__()
        self.copies = {}

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.copies[key] = copy.deepcopy(value)


# (T, h, p, n, seed, root fails, repeats); p=3 gives the h=2 root split
# outcomes within p.  In the fifth case no guess vector of p entries splits
# the seven jobs at the root, so the enumeration finds no schedule there.
# Only the last case meets a subproblem holding jobs twice on one
# interval, so only there does the memo save nodes (30 against 126 at both
# m): at T=32, h=2, p=2 it is the first (n, seed), n from 5 and seed from
# 0, n first, where the memo saves nodes at both m.
MEMO_GRID = [
    (16, 1, 2, 5, 0, False, False),
    (16, 1, 2, 6, 1, False, False),
    (16, 2, 3, 5, 0, False, False),
    (16, 2, 3, 6, 1, False, False),
    (8, 1, 2, 7, 0, True, False),
    (32, 2, 2, 5, 0, False, True),
]


@pytest.mark.parametrize("hinted", [False, True], ids=["enum", "hinted"])
@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("T, h, p, n, seed, root_fails, repeats", MEMO_GRID,
                         ids=[f"T{g[0]}-h{g[1]}-n{g[3]}-s{g[4]}" for g in MEMO_GRID])
def test_memo_matches_solving_every_repeat(monkeypatch, T, h, p, n, seed, root_fails, repeats,
                                           m, hinted):
    inst = random_instance(n, m, 0.3, seed)
    params = compute_params(T, m, Fraction(1, 2), overrides={"h": h, "hp": 1, "p": p})
    reference = Schedule(T=T, assign=exact_opt(inst)[1].assign) if hinted else None
    memos = []

    def run(make_memo):
        monkeypatch.setattr(solver, "SolveMemo", make_memo)
        budget = Budget()
        if hinted:
            sys_out, sched = solve_hinted(inst, reference, params)
        else:
            sys_out, sched = main_solve(inst, params, budget=budget)
        return (sys_out.assign, sched), budget.nodes

    def recording():
        memo = SolveMemo(subtrees=_Snapshots(), splits=_Snapshots())
        memos.append(memo)
        return memo

    got, nodes = run(recording)
    plain, plain_nodes = run(lambda: SolveMemo(subtrees=_NoStore(), splits=_NoStore()))
    assert got == plain
    assert nodes <= plain_nodes
    assert run(recording) == (got, nodes)

    if hinted:
        # a hinted solve answers with the reference's conversion: it
        # enters no subproblem, builds no memo and counts no node
        monkeypatch.setattr(solver, "_solve_subtree", _unused)
        assert run(recording) == (got, nodes)
        assert nodes == plain_nodes == 0 and not memos
        return
    memo = memos[0]
    assert memo.subtrees == memo.subtrees.copies  # no caller mutated a shared result
    assert memo.splits == memo.splits.copies
    at_root = [got for key, got in memo.subtrees.items() if key[0] == 1]
    if not root_fails:
        assert any(v is not None for v in at_root)
    else:
        assert at_root and all(v is None for v in at_root)
        assert got[1].scheduled_count == 0
        return
    assert (nodes < plain_nodes) == repeats
    if h == 2:  # the recursion passes fixed and pending job sets down: a
        # set at a subproblem's root is fixed, one on the level below pending
        assert any(i == key[0] for key in memo.subtrees for i, _ in key[2])
        assert any(i != key[0] for key in memo.subtrees for i, _ in key[2])


# (T, h, p) of the deep trees on which the memo must give what solving
# every subproblem afresh gives
TRANSLATION_GRID = [(8, 1, 2), (16, 1, 2), (16, 2, 3), (32, 1, 2), (32, 2, 2)]


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("family", ["random-dag", "layered", "forest"])
def test_memo_matches_solving_afresh(monkeypatch, family, m):
    lower = False
    for (T, h, p), n in product(TRANSLATION_GRID, (5, 7, 9)):
        inst, _ = gen_instance(family, n, m, 0.3, n)
        params = compute_params(T, m, Fraction(1, 2), overrides={"h": h, "hp": 1, "p": p})
        runs = []
        for make_memo in (SolveMemo, lambda: SolveMemo(subtrees=_NoStore(), splits=_NoStore())):
            monkeypatch.setattr(solver, "SolveMemo", make_memo)
            budget = Budget()
            sys_out, sched = main_solve(inst, params, budget=budget)
            runs.append((sys_out, sched, budget.nodes))
        (sys_memo, sched_memo, nodes), (sys_plain, sched_plain, plain_nodes) = runs
        assert (sys_memo, sched_memo) == (sys_plain, sched_plain), (T, h, p, n)
        assert nodes <= plain_nodes
        lower = lower or nodes < plain_nodes
    assert lower


# the systems (key order included) and schedules of the deep-live rule's
# pool: random-dag n=16 m=2 at T = 16, h=2 hp=1 p=6, generator seeds 0-7,
# where the memo answers many repeats; recorded as 54e4d24b... while it
# also answered subproblems moved along their level, in 6,609 nodes, and
# re-recorded when systems dropped their empty entries, after the earlier
# records with those entries dropped were shown to hash to it
DEEP_LIVE_OUTPUTS = "25b3bb8f0c92ff831ba7af02044d46b5844129c2d3cee5ad2849e66892958fb6"


def test_deep_live_pool_keeps_its_outputs_and_counts():
    outputs = hashlib.sha256()
    nodes = walk_states = 0
    params = compute_params(16, 2, Fraction(1, 2), overrides={"h": 2, "hp": 1, "p": 6})
    for seed in range(8):
        inst, _ = gen_instance("random-dag", 16, 2, 0.3, seed)
        budget = Budget()
        sys_out, sched = main_solve(inst, params, budget)
        assert sched.scheduled_count == 16, seed
        outputs.update(repr((list(sys_out.assign.items()), sched.assign)).encode())
        nodes += budget.nodes
        walk_states += budget.walk_states
    assert outputs.hexdigest() == DEEP_LIVE_OUTPUTS
    assert (nodes, walk_states) == (6610, 3074)


# the deep-enum pool's instances (random-dag m=2, n=5 generator seeds 0-19
# and n=6 seeds 0-7, not relabeled) at T = 16, h=1 hp=1 p=2, and the
# deep-live rule's: (n, seeds, p, h)
SUBPROBLEM_POOLS = {"deep-enum": [(5, range(20), 2, 1), (6, range(8), 2, 1)],
                    "deep-live": [(16, range(8), 6, 2)]}


@pytest.mark.parametrize("pool", SUBPROBLEM_POOLS)
def test_no_subproblem_lists_an_empty_set(monkeypatch, pool):
    # every subproblem the solver builds lists only sets that hold jobs,
    # each under its root and no deeper than its frontier level, h - 1
    # levels below it
    built = []
    schedule = solver.schedule_subtree

    def spy(inst, sub, params, budget, memo):
        built.append(sub)
        return schedule(inst, sub, params, budget, memo)

    monkeypatch.setattr(solver, "schedule_subtree", spy)
    for n, seeds, p, h in SUBPROBLEM_POOLS[pool]:
        params = compute_params(16, 2, Fraction(1, 2), overrides={"h": h, "hp": 1, "p": p})
        for seed in seeds:
            main_solve(gen_instance("random-dag", n, 2, 0.3, seed)[0], params)
            for sub in built:
                depth = sub.root.bit_length()
                assert 0 not in sub.sets.values(), (n, seed, sub)
                assert all(k >> (k.bit_length() - depth) == sub.root
                           and k.bit_length() - depth < h for k in sub.sets), (n, seed, sub)
            assert built, (n, seed)
            built.clear()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(DEEP_FAMILIES), n=st.integers(0, 9), m=st.sampled_from([2, 3]),
       T=st.sampled_from([8, 16, 32]), h=st.sampled_from([1, 2]), p=st.sampled_from([2, 3]),
       seed=st.integers(0, 1000))
def test_memo_never_changes_a_result(family, n, m, T, h, p, seed):
    inst, _ = gen_instance(family, n, m, 0.3, seed)
    params = compute_params(T, m, Fraction(1, 2), overrides={"h": h, "hp": 1, "p": p})
    runs = []
    with pytest.MonkeyPatch.context() as patch:
        for make_memo in (SolveMemo, lambda: SolveMemo(subtrees=_NoStore(), splits=_NoStore())):
            patch.setattr(solver, "SolveMemo", make_memo)
            budget = Budget()
            runs.append((*main_solve(inst, params, budget), budget.nodes))
    (sys_memo, sched_memo, nodes), (sys_plain, sched_plain, plain_nodes) = runs
    assert (list(sys_memo.assign.items()), sched_memo) == (
        list(sys_plain.assign.items()), sched_plain)
    assert nodes <= plain_nodes


def _in_preorder(keys, L: int) -> bool:
    """Whether the heap indices ``keys`` ascend in a depth-``L`` tree's
    preorder: by the first leaf below each, an interval before the ones
    under it."""
    order = [(i << (L + 1 - i.bit_length()), i.bit_length()) for i in keys]
    return all(a < b for a, b in zip(order, order[1:]))


def _holds_only_what_is_there(assign, L: int, root: int = 1) -> bool:
    """No empty entry, keys in preorder, each under ``root``."""
    depth = root.bit_length()
    return (0 not in assign.values() and _in_preorder(assign, L)
            and all(i >> (i.bit_length() - depth) == root for i in assign))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(DEEP_FAMILIES), n=st.integers(0, 9), m=st.sampled_from([2, 3]),
       T=st.sampled_from([8, 16, 32]), h=st.sampled_from([1, 2]), p=st.sampled_from([2, 3]),
       seed=st.integers(0, 1000))
def test_records_hold_only_what_is_there(family, n, m, T, h, p, seed):
    # every system lists only intervals that hold jobs, in preorder; every
    # subtree answer's assignment lists placed jobs only, each of its
    # system or its ancestors; every subproblem lists no empty set; and a
    # subproblem's key is a function of its windows and sets, so two
    # inputs with equal windows and sets have equal keys
    inst, _ = gen_instance(family, n, m, 0.3, seed)
    params = compute_params(T, m, Fraction(1, 2), overrides={"h": h, "hp": 1, "p": p})
    L = params.L
    answers = []
    schedule = solver.schedule_subtree

    def spy(inst, sub, params, budget, memo):
        got = schedule(inst, sub, params, budget, memo)
        answers.append((sub, got))
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "schedule_subtree", spy)
        sys_out, _ = main_solve(inst, params)
    assert _holds_only_what_is_there(sys_out.assign, L)
    for sub, got in answers:
        same = SubproblemInput(sub.root, dict(reversed(sub.anc_windows.items())),
                               dict(reversed(sub.sets.items())))
        assert same.key() == sub.key() and 0 not in sub.sets.values()
        if got is None:
            continue
        system, assign = got
        assert _holds_only_what_is_there(system, L, sub.root)
        assert DISC not in assign.values()
        assert mask_from(assign) & ~(full_system(system).jobs_assigned()
                                     | mask_from(sub.anc_windows)) == 0
    opt, best = exact_opt(inst)
    if opt <= T:
        reference = Schedule(T=T, assign=best.assign)
        assert _holds_only_what_is_there(solve_hinted(inst, reference, params)[0].assign, L)
        recorded, covered, guesses = system_from_schedule(inst, reference, params)
        assert _holds_only_what_is_there(recorded.assign, L)
        assert _holds_only_what_is_there(covered, L) and _in_preorder(guesses, L)
        assert set(guesses) <= set(covered)


def test_memo_solves_a_translate_afresh():
    # the halves (0, 8] and (8, 16] of a T = 16 tree get the same jobs and
    # ancestor windows 8 apart: the second is the first moved by 8, but
    # the memo answers only the subproblem it stored, so the second is
    # searched as the first was, in as many nodes
    inst = random_instance(6, 2, 0.3, 1)
    params = compute_params(16, 2, Fraction(1, 2), overrides={"h": 1, "hp": 1, "p": 2})
    jobs = 0b011111
    left = SubproblemInput(root=2, anc_windows={5: (2, 6)}, sets={2: jobs})
    right = SubproblemInput(root=3, anc_windows={5: (10, 14)}, sets={3: jobs})
    memo = SolveMemo()
    budget = Budget()
    first = schedule_subtree(inst, left, params, budget, memo=memo)
    spent, stored = budget.nodes, len(memo.subtrees)
    second = schedule_subtree(inst, right, params, budget, memo=memo)
    assert budget.nodes == 2 * spent
    assert len(first[1]) == len(second[1]) > 0 and DISC not in second[1].values()
    fresh_budget = Budget()
    assert schedule_subtree(inst, right, params, fresh_budget) == second  # a fresh memo
    assert fresh_budget.nodes == spent
    # each half's search stored its own entries, the halves' two among them
    assert len(memo.subtrees) == 2 * stored
    assert memo.subtrees[left.key()] is first and memo.subtrees[right.key()] is second


@pytest.mark.parametrize("hinted", [False, True], ids=["enum", "hinted"])
def test_main_solve_frees_its_memo_on_return(monkeypatch, hinted):
    # no reference cycle may hold the memo: with the cycle collector off,
    # its results must go as soon as the solve returns.  A hinted solve
    # builds none
    inst = random_instance(6, 2, 0.3, 1)
    params = compute_params(16, 2, Fraction(1, 2), overrides={"h": 1, "hp": 1, "p": 2})
    refs = []

    def recording():
        memo = SolveMemo()
        refs.append(weakref.ref(memo))
        return memo

    monkeypatch.setattr(solver, "SolveMemo", recording)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        if hinted:
            solve_hinted(inst, Schedule(T=16, assign=exact_opt(inst)[1].assign), params)
        else:
            main_solve(inst, params)
        assert bool(refs) != hinted and all(ref() is None for ref in refs)
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize(
    "call", ["bottom_solve", "guess_outcomes", "main_solve", "hinted", "exact_opt"]
)
def test_solver_calls_leave_no_reference_cycles(call):
    # a recursive helper that refers to itself must not outlive its call:
    # with the cycle collector off, nothing is left for it to collect
    inst = random_instance(8, 2, 0.3, 1)
    deep = compute_params(16, 2, Fraction(1, 2), overrides={"h": 1, "hp": 1, "p": 2})
    reference = Schedule(T=16, assign=exact_opt(inst)[1].assign)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        if call == "bottom_solve":
            bottom_solve(inst, Interval(0, 8), inst.all_jobs, {})
        elif call == "guess_outcomes":
            assert solver._guess_outcomes(inst, 1, inst.all_jobs, deep, 2)  # (0,16]
        elif call == "main_solve":
            main_solve(inst, deep)
        elif call == "hinted":
            solve_hinted(inst, reference, deep)
        else:
            exact_opt(inst)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
