"""List scheduling, capacity-constrained scheduling, makespan bounds,
exact oracle."""

import random
import sys
import tempfile
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings

from psched import baselines, io, pipeline
from psched.baselines import (
    CapacityProfile,
    bound_sandwich,
    capacity_list_schedule,
    exact_opt,
    graham_list,
    tail_heights,
)
from psched.cli import run_command
from psched.core import Interval, build_instance, iter_jobs, job_count, longest_chain, mask_from, verify_valid
from psched.errors import BudgetExceeded, CapacityDeficit
from psched.generators import gen_instance
from psched.solver import Budget

from conftest import (
    assert_no_violations,
    brute_longest_chain,
    instances,
    permutation_opt,
    random_instance,
)
from bound_reference import critical_path_list, level_bound
from exact_reference import reference_exact_dp
from system_reference import jobs_at, uniform_profile


def test_graham_chain():
    inst = build_instance(5, 2, [(i, i + 1) for i in range(4)])
    sched = graham_list(inst)
    assert_no_violations(verify_valid(inst, sched))
    assert sched.discard_count == 0 and sched.makespan == 5


def test_graham_antichain():
    inst = build_instance(7, 3, [])
    sched = graham_list(inst)
    assert sched.makespan == 3  # ceil(7/3)


def test_graham_bound_random():
    for seed in range(60):
        m = 2 + seed % 2
        inst = random_instance(9, m, 0.3, seed)
        sched = graham_list(inst)
        assert_no_violations(verify_valid(inst, sched))
        assert sched.discard_count == 0
        chain = longest_chain(inst, inst.all_jobs)
        assert sched.makespan <= chain + -(-inst.n // m)


def test_graham_within_two_minus_one_over_m_of_opt():
    for seed in range(40):
        m = 2 + seed % 2
        inst = random_instance(7, m, 0.35, seed)
        opt, _ = exact_opt(inst)
        got = graham_list(inst).makespan
        assert m * got <= (2 * m - 1) * opt


def test_capacity_schedule_empty_set():
    inst = random_instance(4, 2, 0.5, 0)
    profile = uniform_profile(Interval(0, 2), 2)
    sched = capacity_list_schedule(inst, 0, profile)
    assert sched.scheduled_count == 0


def test_capacity_schedule_antichain_packs_fully():
    inst = build_instance(6, 2, [])
    profile = uniform_profile(Interval(0, 3), 2)
    sched = capacity_list_schedule(inst, inst.all_jobs, profile)
    assert sched.discard_count == 0
    assert_no_violations(verify_valid(inst, sched))


def test_capacity_deficit_raises():
    inst = build_instance(5, 2, [])
    with pytest.raises(CapacityDeficit):
        capacity_list_schedule(inst, inst.all_jobs, uniform_profile(Interval(0, 2), 2))


@pytest.mark.parametrize("cap, message", [
    ((2, 2), "capacity vector length must match interval length"),
    ((2, 2, 2, 2), "capacity vector length must match interval length"),
    ((2, -1, 2), "capacities must be nonnegative"),
])
def test_capacity_profile_rejects_a_bad_vector(cap, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        CapacityProfile(Interval(0, 3), cap)


def test_capacity_schedule_respects_untrimmed_caps_and_discard_bound():
    checked = 0
    seed = 0
    while checked < 300:
        seed += 1
        rng = random.Random(seed)
        m = rng.randrange(1, 4)
        inst = random_instance(8, m, 0.3, seed)
        jobs = mask_from(j for j in range(8) if rng.random() < 0.8)
        begin = rng.randrange(0, 3)
        length = rng.randrange(1, 7)
        iv = Interval(begin, begin + length)
        cap = tuple(rng.randrange(0, m + 1) for _ in range(length))
        profile = CapacityProfile(iv, cap)
        if profile.total() < job_count(jobs):
            continue
        sched = capacity_list_schedule(inst, jobs, profile)
        # capacity per slot, only inside the interval
        for idx, t in enumerate(iv.slots()):
            assert job_count(jobs_at(sched, t)) <= cap[idx]
        for j in iter_jobs(jobs):
            t = sched.assign[j]
            assert t is None or t in iv
        # precedence within the job set
        for a in iter_jobs(jobs):
            ta = sched.assign[a]
            if ta is None:
                continue
            for b in iter_jobs(inst.succ[a] & jobs):
                tb = sched.assign[b]
                assert tb is None or ta < tb
        assert sched.discard_count - (inst.n - job_count(jobs)) <= m * longest_chain(inst, jobs)
        # per slot: either every (trimmed-capacity) seat is used or every
        # job that was ready going into the slot got scheduled
        trimmed = list(cap)
        surplus = profile.total() - job_count(jobs)
        for i in range(len(trimmed) - 1, -1, -1):
            take = min(trimmed[i], surplus)
            trimmed[i] -= take
            surplus -= take
        done_before = 0
        for idx, t in enumerate(iv.slots()):
            ready = [
                j for j in iter_jobs(jobs & ~done_before)
                if inst.pred[j] & jobs & ~done_before == 0
            ]
            batch = jobs_at(sched, t) & jobs
            assert job_count(batch) == min(len(ready), trimmed[idx])
            done_before |= batch
        checked += 1


def test_exact_opt_chain():
    inst = build_instance(4, 2, [(i, i + 1) for i in range(3)])
    opt, sched = exact_opt(inst)
    assert opt == 4
    assert_no_violations(verify_valid(inst, sched))


def test_exact_opt_antichain():
    inst = build_instance(5, 2, [])
    assert exact_opt(inst)[0] == 3


@pytest.mark.parametrize("n", [17, 40])
def test_exact_opt_certifies_antichains_of_any_size(n):
    # no job limit: the sandwich certifies an antichain at ceil(n/m)
    inst = build_instance(n, 2, [])
    lower, upper = bound_sandwich(inst)
    assert lower == upper.makespan == -(-n // 2)
    assert exact_opt(inst) == (lower, upper)


# random-dag d=0.3 instances, (n, m, generator seed), whose level bound
# is below both list schedules; a horizon search in max-count mode takes
# 133,465 nodes on n=32 m=3 seed 0 and exhausts 3,000,000 on n=48 m=3
# seed 13
UNCERTIFIED = [(32, 2, 15), (32, 3, 0), (32, 3, 18), (48, 2, 10), (48, 2, 16), (48, 3, 1),
               (48, 3, 13), (48, 3, 14)]


@pytest.mark.parametrize("n, m, seed", UNCERTIFIED,
                         ids=[f"n{n}-m{m}-s{seed}" for n, m, seed in UNCERTIFIED])
def test_exact_opt_decides_uncertified_instances_in_few_nodes(n, m, seed):
    inst, _ = gen_instance("random-dag", n, m, 0.3, seed)
    lower, upper = bound_sandwich(inst)
    assert lower < upper.makespan
    opt, sched = exact_opt(inst, budget=Budget(2_000))
    assert_no_violations(verify_valid(inst, sched))
    assert sched.discard_count == 0 and sched.makespan == sched.T == opt
    # one slot fewer admits no schedule of every job
    assert baselines._fits(inst, opt - 1, Budget()) is None


# (m, density, seed, optimum, nodes) of random-dag n=64 instances the
# sandwich leaves open: the slice of the n 64-128 pool that is decided in a
# few dozen nodes
HARD_POOL = [
    (3, 0.2, 27, 23, 35),
    (3, 0.3, 0, 23, 142),
    (3, 0.3, 1, 23, 27),
    (3, 0.3, 2, 24, 137),
    (3, 0.3, 18, 27, 41),
    (3, 0.5, 19, 34, 53),
    (3, 0.5, 28, 37, 51),
    (4, 0.2, 27, 21, 28),
]


@pytest.mark.parametrize("m, density, seed, opt, nodes", HARD_POOL,
                         ids=[f"m{g[0]}-d{g[1]}-s{g[2]}" for g in HARD_POOL])
def test_exact_opt_decides_the_open_n64_pool(m, density, seed, opt, nodes):
    inst, _ = gen_instance("random-dag", 64, m, density, seed)
    lower, upper = bound_sandwich(inst)
    assert lower < opt <= upper.makespan
    budget = Budget(1_000)
    got, sched = exact_opt(inst, budget=budget)
    assert got == opt
    assert_no_violations(verify_valid(inst, sched))
    assert sched.discard_count == 0 and sched.makespan == opt
    assert budget.nodes == nodes
    if seed == 18:  # both bounds strict: 26 < 27 < 28
        assert (lower, upper.makespan) == (26, 28)


def _fits_the_oracle_nodes(inst, **flags) -> int:
    """The nodes of ``exact_opt(inst)``, after checking that a hinted
    ``pipeline.solve`` run with ``flags`` fits in that budget and runs out
    of one node fewer."""
    oracle = Budget()
    exact_opt(inst, budget=oracle)
    limit = oracle.nodes
    assert pipeline.solve(inst, hinted=True, budget=limit, **flags).nodes == limit
    if limit > 0:
        with pytest.raises(BudgetExceeded):
            pipeline.solve(inst, hinted=True, budget=limit - 1, **flags)
    return limit


@pytest.mark.parametrize("m, density, seed, opt, nodes", HARD_POOL,
                         ids=[f"m{g[0]}-d{g[1]}-s{g[2]}" for g in HARD_POOL])
def test_solve_counts_the_oracle_nodes_on_the_open_n64_pool(tmp_path, capsys, m, density,
                                                            seed, opt, nodes):
    # a searched run whose tree collapses is exact_opt's search and one
    # attempt at its optimum, answered from its schedule with no search,
    # and so is a hinted run: both spend exactly the oracle's nodes
    inst, edges = gen_instance("random-dag", 64, m, density, seed)
    inst_path = tmp_path / "i.psched"
    inst_path.write_text(io.format_instance(inst, edges), encoding="utf-8")
    assert run_command(["solve", str(inst_path), "--out", str(tmp_path / "s.sched")]) == 0
    assert capsys.readouterr().err == (f"horizon {opt} padded {1 << (opt - 1).bit_length()}: "
                                       f"64 scheduled, 0 discarded, {nodes} nodes\n")
    assert _fits_the_oracle_nodes(inst) == nodes


def test_deep_hinted_runs_spend_only_the_oracle_nodes():
    # the deep half of the benchmark's hinted-replay pool, unrelabeled, at
    # its horizon and overrides: the hinted solve enters no search state,
    # so each run fits in its oracle's nodes, none when the sandwich
    # certifies the optimum
    deep = {"h": 1, "hp": 1, "p": 2}
    spent = []
    for family, m in product(("random-dag", "layered", "forest"), (2, 3)):
        for seed in range(8):
            inst, _ = gen_instance(family, 16, m, 0.3, seed)
            spent.append(_fits_the_oracle_nodes(inst, overrides=deep, horizon=32))
    assert len(spent) == 48 and any(spent) and not all(spent)


def test_exact_opt_is_bounded_by_its_budget(tmp_path, capsys):
    inst, edges = gen_instance("random-dag", 48, 3, 0.3, 13)
    with pytest.raises(BudgetExceeded):
        exact_opt(inst, budget=Budget(limit=5))
    inst_path = tmp_path / "i.psched"
    inst_path.write_text(io.format_instance(inst, edges), encoding="utf-8")
    assert run_command(["solve", str(inst_path), "--budget", "10000",
                        "--out", str(tmp_path / "s.sched")]) == 0
    assert capsys.readouterr().err.startswith("horizon 20 padded 32: 48 scheduled, 0 discarded")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(inst=instances())
# level bound 7 below the list schedules' 8 = optimum: the search decides
@example(inst=gen_instance("random-dag", 12, 2, 0.3, 162)[0])
def test_exact_opt_is_certified_by_the_sandwich_or_searched(inst):
    lower, upper = bound_sandwich(inst)
    opt, sched = exact_opt(inst)
    dp_opt, dp_sched = reference_exact_dp(inst)
    assert opt == dp_opt
    assert_no_violations(verify_valid(inst, sched))
    assert sched.discard_count == 0 and sched.makespan == sched.T == opt
    if upper.makespan == lower:
        assert sched == upper
    else:
        assert sched == dp_sched
    assert exact_opt(inst, bounds=(lower, upper)) == (opt, sched)


def test_exact_opt_sandwich():
    for seed in range(30):
        m = 2 + seed % 2
        inst = random_instance(8, m, 0.3, seed)
        opt, sched = exact_opt(inst)
        assert sched.discard_count == 0 and sched.makespan == opt
        assert_no_violations(verify_valid(inst, sched))
        assert opt >= max(longest_chain(inst, inst.all_jobs), -(-inst.n // m))
        assert opt <= graham_list(inst).makespan


def test_exact_opt_matches_permutation_oracle():
    for seed in range(25):
        m = 2 + seed % 2
        inst = random_instance(7, m, 0.4, seed)
        assert exact_opt(inst)[0] == permutation_opt(inst)


def test_exact_opt_refuses_a_search_as_deep_as_the_recursion_limit(monkeypatch):
    # n=12 m=2 seed 162: level bound 7, list schedules 8, so the oracle
    # searches horizon 7, which fails, then 8; a search recurses once per
    # slot, min(T, n) levels, and is refused after its root is entered
    inst, _ = gen_instance("random-dag", 12, 2, 0.3, 162)
    lower, upper = bound_sandwich(inst)
    assert (lower, upper.makespan) == (7, 8)
    nodes = {}
    for limit in (7, 8):
        budget = Budget()
        with monkeypatch.context() as patch:
            patch.setattr(sys, "getrecursionlimit", lambda: limit)
            with pytest.raises(ValueError, match=(
                    f"^horizon {limit} is too long to search: it recurses once per slot, "
                    f"{limit} levels, and the recursion limit is {limit}$")):
                exact_opt(inst, budget=budget)
        nodes[limit] = budget.nodes
    # horizon 7's search enters its root alone: every child breaks the level
    # bound; so at 8 the guard stops the search after horizon 8's root
    assert nodes == {7: 1, 8: 2}
    assert exact_opt(inst)[0] == 8


def test_exact_opt_one_machine_runs_every_job_in_turn():
    inst = build_instance(4, 1, [(0, 1)])
    opt, sched = exact_opt(inst)
    assert opt == 4 and sched.T == 4 and sched.makespan == 4
    assert sorted(sched.assign) == [1, 2, 3, 4] and sched.assign[0] < sched.assign[1]


def test_tail_heights_are_longest_chains_from_each_job():
    for seed in range(20):
        inst = random_instance(9, 2, 0.3, seed)
        heights = tail_heights(inst)
        for j in range(inst.n):
            assert heights[j] == brute_longest_chain(inst, inst.succ[j]) + 1


def test_level_bound_counts_jobs_above_a_height():
    # one source before six middle jobs before one sink, on two machines:
    # the source and the middle jobs all run before the sink's slot, so
    # 1 + ceil(7/2) = 5 slots, more than max(chain 3, ceil(8/2) = 4)
    inst = build_instance(8, 2, [(0, j) for j in range(1, 7)] + [(j, 7) for j in range(1, 7)])
    assert bound_sandwich(inst)[0] == level_bound(inst) == 5 == exact_opt(inst)[0]
    # read from the other end: the middle jobs and the sink all come after
    # the source's slot
    flipped = build_instance(8, 2, [(7 - b, 7 - a) for a, b in inst.edges()])
    assert bound_sandwich(flipped)[0] == level_bound(flipped) == 5


def test_critical_path_list_runs_longest_tails_first():
    # six free jobs listed before a six-job chain: Graham's id order runs
    # the free jobs first and ends at 9, longest tail first ends at 6
    inst = build_instance(12, 2, [(j, j + 1) for j in range(6, 11)])
    cp = critical_path_list(inst)
    assert cp.assign[6:] == (1, 2, 3, 4, 5, 6)
    assert (graham_list(inst).makespan, cp.makespan) == (9, 6)
    assert bound_sandwich(inst) == (6, cp)


def test_bound_sandwich_prefers_graham_on_a_tie():
    # one machine: both run three slots, Graham's as 0, 1, 2 and the
    # critical-path list as 1, 0, 2
    inst = build_instance(3, 1, [(1, 2)])
    assert critical_path_list(inst).assign == (2, 1, 3)
    assert bound_sandwich(inst)[1] == graham_list(inst)
    assert graham_list(inst).assign == (1, 2, 3)


@pytest.mark.parametrize("seed, lists", [(1, 1), (162, 2)])
def test_bound_sandwich_builds_the_critical_path_list_only_past_the_bound(monkeypatch,
                                                                          seed, lists):
    # random-dag n=12 m=2: at seed 1 Graham's schedule meets the level
    # bound, so nothing can be shorter; at seed 162 it does not (level
    # bound 7, both lists 8) and the critical-path list is built too
    built = []
    list_schedule = baselines._list_schedule

    def spy(inst, priority):
        built.append(priority)
        return list_schedule(inst, priority)

    monkeypatch.setattr(baselines, "_list_schedule", spy)
    inst, _ = gen_instance("random-dag", 12, 2, 0.3, seed)
    lower, upper = bound_sandwich(inst)
    assert len(built) == lists
    assert upper == graham_list(inst)
    assert (upper.makespan == lower) == (lists == 1)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(inst=instances())
def test_bound_sandwich_brackets_the_optimum_and_pipeline_finds_it(inst):
    opt, _ = exact_opt(inst)
    graham, cp = graham_list(inst), critical_path_list(inst)
    assert bound_sandwich(inst)[0] == level_bound(inst) <= opt <= cp.makespan
    for sched in (graham, cp):
        assert_no_violations(verify_valid(inst, sched))
        assert sched.discard_count == 0
    assert bound_sandwich(inst)[1].makespan == min(graham.makespan, cp.makespan)
    with tempfile.TemporaryDirectory() as tmp:
        inst_path, out_path = Path(tmp, "i.psched"), Path(tmp, "o.sched")
        inst_path.write_text(io.format_instance(inst), encoding="utf-8")
        assert run_command(["pipeline", str(inst_path), "--out", str(out_path)]) == 0
        final = io.read_schedule(str(out_path))
    assert_no_violations(verify_valid(inst, final))
    assert final.discard_count == 0 and final.makespan == opt
