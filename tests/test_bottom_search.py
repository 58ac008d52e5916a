"""The lazy bottom search against its earlier eager form, its batch
order, and the exact oracle's search against it."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from psched import baselines
from psched.baselines import bound_sandwich, exact_opt
from psched.core import Interval, iter_jobs, job_count, mask_from
from psched.dyadic import compute_params, tree_for
from psched.generators import gen_instance
from psched.solver import Budget, antichains, bottom_solve
from psched.transform import pad_to_power_of_two

from bottom_reference import reference_bottom_solve
from conftest import random_instance
from record_forms import placed


def _comparable(inst):
    return [s | p for s, p in zip(inst.succ, inst.pred)]


def _windowed_cases():
    """Random bottom/ancestor splits on the two bottoms of a T=8 tree.

    Windows may be empty (b == e), end before the interval or start
    after it."""
    rng = random.Random(11)
    for seed in range(36):
        m = 1 + seed % 3
        params = compute_params(8, m, Fraction(1, 2), overrides={"h": 2, "hp": 0, "p": 1})
        inst = random_instance(6 + seed % 4, m, 0.4, seed)
        iv = Interval(4, 8) if seed % 2 else Interval(0, 4)
        bottom = mask_from(j for j in range(inst.n) if rng.random() < 0.6)
        ancestors = inst.all_jobs & ~bottom
        anc_windows = {}
        for j in iter_jobs(ancestors):
            b = rng.choice([0, 2, 4, 6])
            anc_windows[j] = (b, rng.choice([x for x in (0, 2, 4, 6, 8) if x >= b]))
        yield f"windowed-{seed}", inst, iv, bottom, ancestors, anc_windows, params


def _padded_cases():
    """Whole padded instances on one collapsed bottom, as the horizon search
    solves them: at one below the optimum (the search fails and runs to
    the end), at it and one above."""
    for seed in range(18):
        m = 2 + seed % 2
        n = (10, 11, 12)[seed % 3] if m == 2 else (7, 8, 9)[seed % 3]
        inst0 = random_instance(n, m, 0.3, 100 + seed)
        opt, _ = exact_opt(inst0)
        horizon = opt - 1 + seed % 3
        inst, T2, _ = pad_to_power_of_two(inst0, horizon)
        params = compute_params(T2, m, Fraction(1, 2))
        iv = Interval(0, T2)
        yield f"padded-{seed}", inst, iv, inst.all_jobs, 0, {}, params
    # denser posets whose optimum is set by precedence, not by capacity,
    # one below it: the search must exhaust before it gives up a job
    for seed, m, n in ((4, 3, 10), (14, 2, 12), (14, 3, 10), (18, 2, 12), (28, 3, 10)):
        inst0 = random_instance(n, m, 0.5, 100 + seed)
        opt, _ = exact_opt(inst0)
        inst, T2, _ = pad_to_power_of_two(inst0, opt - 1)
        params = compute_params(T2, m, Fraction(1, 2))
        yield f"dense-{seed}-m{m}", inst, Interval(0, T2), inst.all_jobs, 0, {}, params


CASES = list(_windowed_cases()) + list(_padded_cases())


@pytest.mark.parametrize(
    "inst, iv, bottom, ancestors, anc_windows, params",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_bottom_solve_matches_reference(inst, iv, bottom, ancestors, anc_windows, params):
    tree = tree_for(params)
    assert iv in tree.interval[1 << tree.L :]  # a bottom interval
    ref_budget, new_budget = Budget(), Budget()
    want = reference_bottom_solve(
        inst, iv, bottom, ancestors, anc_windows, params, budget=ref_budget)
    got = bottom_solve(inst, iv, bottom, anc_windows, budget=new_budget)
    assert got == placed(want)
    # every node entered now was entered by the eager search too
    assert 1 <= new_budget.nodes <= ref_budget.nodes


def test_bottom_solve_node_total_over_the_grid():
    # nodes are deterministic: entering a child whose bound only ties the
    # incumbent, which leaves every result unchanged, moves this total
    total = 0
    for _, inst, iv, bottom, ancestors, anc_windows, params in CASES:
        budget = Budget()
        bottom_solve(inst, iv, bottom, anc_windows, budget=budget)
        total += budget.nodes
    assert total == 7126


def _brute_antichains(inst, alive, cap):
    jobs = list(iter_jobs(alive))
    return [
        list(batch)
        for size in range(min(cap, len(jobs)) + 1)
        for batch in combinations(jobs, size)
        if not any(inst.precedes(a, b) or inst.precedes(b, a) for a, b in combinations(batch, 2))
    ]


def test_antichains_come_in_bottom_solve_order():
    rng = random.Random(3)
    for trial in range(60):
        m = 1 + trial % 4
        inst = random_instance(4 + trial % 7, m, rng.choice([0.0, 0.2, 0.5, 0.9]), trial)
        if trial % 3 == 0:  # padding sinks: pairwise incomparable
            inst, _, _ = pad_to_power_of_two(inst, 3)
        comparable = _comparable(inst)
        alive = mask_from(j for j in range(inst.n) if rng.random() < 0.7)
        n_alive = job_count(alive)
        for cap in range(n_alive + 3):
            got = []
            for size in range(min(cap, n_alive), -1, -1):
                for members, left in antichains(comparable, inst.pred, alive, size, [0]):
                    killed = mask_from(i for j in members for i in iter_jobs(inst.pred[j]))
                    assert left == alive & ~(mask_from(members) | killed)
                    got.append(list(members))
            want = sorted(_brute_antichains(inst, alive, cap), key=lambda b: (-len(b), b))
            assert got == want
        for size in (n_alive + 1, n_alive + 2):
            assert list(antichains(comparable, inst.pred, alive, size, [0])) == []


def test_antichains_keep_filters_without_reordering():
    rng = random.Random(4)
    for trial in range(40):
        inst = random_instance(5 + trial % 6, 3, rng.choice([0.2, 0.5]), 50 + trial)
        if trial % 2:
            inst, _, _ = pad_to_power_of_two(inst, 2)
        comparable = _comparable(inst)
        alive = mask_from(j for j in range(inst.n) if rng.random() < 0.8)
        for size in range(4):
            every = list(antichains(comparable, inst.pred, alive, size, [0]))
            for keep in range(-1, job_count(alive) + 2):
                want = [b for b in every if job_count(b[1]) >= keep]
                assert list(antichains(comparable, inst.pred, alive, size, [keep])) == want
                if not every:
                    continue
                # raised after the first batch, it filters the rest alike
                raised = [0]
                gen = antichains(comparable, inst.pred, alive, size, raised)
                got = [next(gen)]
                raised[0] = keep
                got.extend(gen)
                assert got == every[:1] + [b for b in every[1:] if job_count(b[1]) >= keep]


def _grid():
    for family in ("random-dag", "layered", "forest"):
        for n in (10, 12, 14):
            for m in (2, 3, 4):
                for seed in range(20):
                    yield family, n, m, seed


def test_complete_mode_agrees_with_max_count_mode_on_a_seeded_grid():
    # at every horizon the sandwich leaves open, and one below it, the
    # oracle's search returns the bottom search's assignment when that
    # schedules every job and nothing when it does not, entering no more
    # nodes
    decided = failed = 0
    for family, n, m, seed in _grid():
        inst, _ = gen_instance(family, n, m, 0.3, seed)
        lower, upper = bound_sandwich(inst)
        for T in range(max(lower - 1, 1), upper.makespan + 1):
            most, exact = Budget(), Budget()
            want = bottom_solve(inst, Interval(0, T), inst.all_jobs, {}, budget=most)
            got = baselines._fits(inst, T, exact)
            if len(want) < inst.n:
                assert got is None
                failed += 1
            else:
                assert got.assign == tuple(want[j] for j in range(inst.n))
                decided += 1
            assert exact.nodes <= most.nodes
    assert (decided, failed) == (542, 541)
