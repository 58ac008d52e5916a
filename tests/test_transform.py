"""Padding, discard re-insertion, and the outer horizon search."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psched.baselines import bound_sandwich, exact_opt, graham_list
from psched.core import (
    DISC,
    Schedule,
    build_instance,
    iter_jobs,
    job_count,
    longest_chain,
    verify_valid,
)
from psched.errors import InvalidInput, NoSolution
from psched.transform import (
    binary_search_makespan,
    insert_discarded,
    next_power_of_two,
    pad_to_power_of_two,
)

from conftest import assert_no_violations, instances, random_instance


def test_pad_noop_when_already_power_of_two():
    inst = random_instance(6, 2, 0.3, 0)
    padded, T2, extra = pad_to_power_of_two(inst, 8)
    assert T2 == 8 and extra == 0 and padded is inst


def test_pad_adds_m_times_gap_jobs():
    inst = random_instance(5, 2, 0.3, 1)
    padded, T2, extra = pad_to_power_of_two(inst, 3)
    assert T2 == 4
    assert job_count(extra) == 2 * (4 - 3)
    for j in iter_jobs(extra):
        assert padded.pred[j] == inst.all_jobs
        assert padded.succ[j] == 0
    for j in range(inst.n):
        assert padded.pred[j] == inst.pred[j]
        assert padded.succ[j] & inst.all_jobs == inst.succ[j]


def test_padded_optimum_is_next_power_of_two():
    for seed in range(12):
        inst = random_instance(6, 2, 0.4, seed)
        opt, _ = exact_opt(inst)
        padded, T2, _ = pad_to_power_of_two(inst, opt)
        assert exact_opt(padded)[0] == T2


def test_truncating_a_padded_schedule_recovers_the_original_slack():
    # a complete schedule of the padded instance keeps the original jobs
    # within makespan - (T2 - T): the added jobs occupy the tail slots
    for seed in range(12):
        inst = random_instance(6, 2, 0.4, seed)
        opt, _ = exact_opt(inst)
        padded, T2, extra = pad_to_power_of_two(inst, opt)
        if not extra:
            continue
        full = graham_list(padded)
        assert full.discard_count == 0
        original = Schedule(T=full.T, assign=full.assign[: inst.n])
        assert_no_violations(verify_valid(inst, original))
        assert original.makespan <= full.makespan - (T2 - opt)


def test_insert_no_discards_is_identity():
    inst = random_instance(6, 2, 0.4, 3)
    _, sched = exact_opt(inst)
    assert insert_discarded(inst, sched) == sched


def test_insert_single_free_job_goes_first():
    inst = build_instance(3, 1, [(1, 2)])
    sched = Schedule(T=2, assign=(DISC, 1, 2))
    out = insert_discarded(inst, sched)
    assert out.assign == (1, 2, 3) and out.makespan == 3


def test_insert_respects_predecessors():
    inst = build_instance(3, 1, [(0, 1), (1, 2)])
    sched = Schedule(T=2, assign=(1, DISC, 2))
    out = insert_discarded(inst, sched)
    assert out.assign == (1, 2, 3)


def test_insert_random_discards():
    for seed in range(25):
        rng = random.Random(seed)
        inst = random_instance(8, 2, 0.35, seed)
        _, sched = exact_opt(inst)
        dropped = rng.sample(range(8), 3)
        weakened = sched.replace({j: DISC for j in dropped})
        out = insert_discarded(inst, weakened)
        assert_no_violations(verify_valid(inst, out))
        assert out.discard_count == 0
        assert out.makespan <= sched.T + 3


def test_insert_whole_discarded_chain():
    inst = build_instance(4, 2, [(i, i + 1) for i in range(3)])
    sched = Schedule(T=3, assign=(DISC,) * 4)
    out = insert_discarded(inst, sched)
    assert_no_violations(verify_valid(inst, out))
    assert out.discard_count == 0 and out.makespan <= 3 + 4


def test_insert_rejects_invalid_input():
    inst = build_instance(2, 1, [])
    with pytest.raises(InvalidInput):
        insert_discarded(inst, Schedule(T=1, assign=(1, 1)))


def test_next_power_of_two():
    assert [next_power_of_two(x) for x in (1, 2, 3, 4, 5, 8, 9)] == [1, 2, 4, 4, 8, 8, 16]


def test_binary_search_chain():
    inst = build_instance(5, 3, [(i, i + 1) for i in range(4)])
    opt, best = exact_opt(inst)
    T, sched = binary_search_makespan(inst, lambda t: best if opt <= t else None)
    assert T == 5 and sched.makespan == 5


def test_binary_search_antichain():
    inst = build_instance(6, 2, [])
    opt, best = exact_opt(inst)
    T, _ = binary_search_makespan(inst, lambda t: best if opt <= t else None)
    assert T == 3


def test_binary_search_matches_oracle():
    for seed in range(20):
        inst = random_instance(8, 2, 0.3, seed)
        opt, best = exact_opt(inst)
        T, sched = binary_search_makespan(inst, lambda t: best if opt <= t else None)
        assert T == opt
        assert_no_violations(verify_valid(inst, sched))


def recording(succeeds):
    """A solver that succeeds iff ``succeeds(T)``, logging every horizon asked."""
    calls = []

    def solve(T):
        calls.append(T)
        return Schedule(T=T, assign=()) if succeeds(T) else None

    return solve, calls


def bounds_of(inst):
    """(level bound, upper-bound makespan): the first two horizons probed."""
    lower, upper = bound_sandwich(inst)
    return lower, upper.makespan


# six free jobs listed before a six-job chain: lower bound 6; Graham runs
# the free jobs first and ends at 9, the critical-path list reaches 6
GRAHAM_GAP = build_instance(12, 2, [(j, j + 1) for j in range(6, 11)])
# five layers of four jobs, each job before every job of the next layer:
# on three machines a layer takes two slots, so every list schedule ends
# at 10, and the level bound is ceil(20 / 3) = 7
LAYERED = build_instance(
    20, 3, [(4 * k + a, 4 * k + 4 + b) for k in range(4) for a in range(4) for b in range(4)])


def test_binary_search_success_at_lower_bound_is_one_call():
    assert bounds_of(GRAHAM_GAP) == (6, 6)
    solve, calls = recording(lambda T: True)
    T, sched = binary_search_makespan(GRAHAM_GAP, solve)
    assert (T, sched.T) == (6, 6)
    assert calls == [6]


def test_binary_search_probes_level_bound_then_upper_bound_then_bisects():
    assert bounds_of(LAYERED) == (7, 10)
    solve, calls = recording(lambda T: T >= 8)
    T, sched = binary_search_makespan(LAYERED, solve)
    assert (T, sched.T) == (8, 8)
    assert calls == [7, 10, 9, 8]


def test_binary_search_falls_back_to_n_when_upper_bound_fails():
    solve, calls = recording(lambda T: T >= 13)
    T, _ = binary_search_makespan(LAYERED, solve)
    assert T == 13
    assert calls == [7, 10, 20, 15, 13, 12]


def test_binary_search_no_solution():
    inst = build_instance(3, 2, [])
    with pytest.raises(NoSolution):
        binary_search_makespan(inst, lambda t: None)
    solve, calls = recording(lambda T: False)
    with pytest.raises(NoSolution):
        binary_search_makespan(LAYERED, solve)
    assert calls == [7, 10, 20]


def test_binary_search_asks_an_empty_instance_at_horizon_0():
    # level bound and list schedule are both 0, so horizon 0 is the one
    # probe, and its answer is passed through or its failure raised
    empty = build_instance(0, 2, [])
    solve, calls = recording(lambda T: True)
    assert binary_search_makespan(empty, solve) == (0, Schedule(T=0, assign=()))
    assert calls == [0]
    assert binary_search_makespan(empty, lambda T: "answer") == (0, "answer")
    solve, calls = recording(lambda T: False)
    with pytest.raises(NoSolution, match="solver failed at horizon n=0"):
        binary_search_makespan(empty, solve)
    assert calls == [0]


def test_binary_search_probes_the_bounds_it_is_given():
    # the caller's sandwich is used as is, not recomputed
    given_bounds = (8, graham_list(LAYERED))
    solve, calls = recording(lambda T: T >= 9)
    T, _ = binary_search_makespan(LAYERED, solve, given_bounds)
    assert T == 9
    assert calls == [8, 10, 9]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(inst=instances(), data=st.data())
def test_binary_search_finds_threshold_within_upper_bound(inst, data):
    lo, upper = bounds_of(inst)
    assert max(longest_chain(inst, inst.all_jobs), -(-inst.n // inst.m)) <= lo <= upper
    threshold = data.draw(st.integers(1, upper), label="threshold")
    solve, calls = recording(lambda T: T >= threshold)
    T, sched = binary_search_makespan(inst, solve)
    assert T == sched.T == max(threshold, lo)
    assert all(lo <= c <= upper for c in calls)
    assert len(calls) <= 2 + math.ceil(math.log2(upper - lo + 1))
