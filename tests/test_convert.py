"""Valid <-> virtually-valid conversions and the canonical swap loop."""

from fractions import Fraction

import pytest

from psched import convert
from psched.convert import (
    _canonicalize,
    canonical_violations,
    canonicalize,
    valid_to_virtually_valid,
    virtually_valid_to_valid,
)
from psched.core import (
    Schedule,
    build_instance,
    iter_jobs,
    job_count,
    longest_chain,
    mask_from,
    verify_valid,
)
from psched.dyadic import (
    check_valid_for_system,
    check_virtually_valid,
    compute_params,
    full_system,
    system_from_schedule,
    tree_for,
    window_step,
    windows,
)
from psched.errors import InvalidInput, PrecongruenceViolated
from psched.solver import main_solve

from conftest import assert_no_violations
from system_reference import discarded

from test_dyadic import desk_params, reference_pair
from test_solver import COLLAPSED_GRID, collapsed_case


def _pipeline_inputs(seed, T=16, m=2, n=8):
    inst, sched = reference_pair(seed, T=T, m=m, n=n)
    params = desk_params(T=T, m=m)
    sys, _, _ = system_from_schedule(inst, sched, params)
    return inst, params, sys, sched


def test_all_bottom_jobs_pass_through():
    params = compute_params(8, 2, Fraction(1, 2), overrides={"h": 3, "hp": 0, "p": 1})
    inst, sched = reference_pair(3, T=8, m=2, n=6)
    sys, _, _ = system_from_schedule(inst, sched, params)
    out = valid_to_virtually_valid(inst, sys, sched, params)
    assert out == sched


def test_single_block_load_is_discarded():
    params = desk_params(T=16, m=2)
    inst = build_instance(8, 2, [])
    sys = full_system({1: inst.all_jobs})  # (0,16]
    slots = [1, 1, 2, 2, 3, 3, 4, 4]  # all of block (0,4]
    sched = Schedule(T=16, assign=tuple(slots))
    assert_no_violations(check_valid_for_system(inst, sys, params, sched))
    out = valid_to_virtually_valid(inst, sys, sched, params)
    assert out.discard_count == 8  # final backlog equals the block's occupancy


def test_spread_out_jobs_survive():
    params = desk_params(T=16, m=2)
    inst = build_instance(4, 2, [])
    sys = full_system({1: inst.all_jobs})  # (0,16]
    sched = Schedule(T=16, assign=(1, 5, 9, 13))  # one job per block
    out = valid_to_virtually_valid(inst, sys, sched, params)
    # left-half jobs shift one block right, right-half jobs one block left
    assert out.discard_count == 2
    assert_no_violations(check_virtually_valid(inst, sys, params, out))


@pytest.mark.parametrize("T", [8, 16])
def test_h0_conversions_stay_inside_each_half(T):
    # with h = 0 the alignment unit is a whole top interval, longer than
    # either half: each half is one block, so its top jobs are discarded
    # and the result is virtually valid
    params = compute_params(T, 2, Fraction(1, 2), overrides={"h": 0, "hp": 0, "p": 2})
    assert window_step(params, T) == T
    converted = 0
    for seed in range(12):
        inst, sched = reference_pair(seed, T=T, m=2, n=T // 2 + seed % 4)
        sys, _, _ = system_from_schedule(inst, sched, params)
        out = valid_to_virtually_valid(inst, sys, sched, params)
        assert_no_violations(check_virtually_valid(inst, sys, params, out))
        top = mask_from(j for j, i in sys.owner_of().items() if tree_for(params).kinds[i] == "top")
        assert discarded(out) == top
        converted += top != 0
    assert converted > 0


def test_conversion_rejects_invalid_input():
    params = desk_params(T=16, m=2)
    inst = build_instance(2, 2, [(0, 1)])
    sys = full_system({1: inst.all_jobs})  # (0,16]
    backwards = Schedule(T=16, assign=(2, 1))
    with pytest.raises(InvalidInput):
        valid_to_virtually_valid(inst, sys, backwards, params)


def test_pipeline_virtual_validity_and_per_interval_bound():
    for seed in range(60):
        inst, params, sys, sched = _pipeline_inputs(seed, m=2 + seed % 2, n=7 + seed % 3)
        out = valid_to_virtually_valid(inst, sys, sched, params)
        assert_no_violations(check_virtually_valid(inst, sys, params, out))
        tree = tree_for(params)
        for i, jobs in sys.assign.items():
            if tree.kinds[i] != "top" or not jobs:
                continue
            lost = job_count(jobs & discarded(out)) - job_count(jobs & discarded(sched))
            assert lost <= 2 * window_step(params, tree.interval[i].length) * params.m
        # sides never change
        win_jobs = [j for j in iter_jobs(sys.jobs_assigned())]
        owner = sys.owner_of()
        for j in win_jobs:
            told, tnew = sched.assign[j], out.assign[j]
            if told is not None and tnew is not None and tree.kinds[owner[j]] == "top":
                left = tree.interval[owner[j]].left
                assert (told in left) == (tnew in left)


def test_canonicalize_fixpoint_is_stable():
    for seed in range(20):
        inst, params, sys, sched = _pipeline_inputs(seed)
        vv = valid_to_virtually_valid(inst, sys, sched, params)
        canon, swaps = _canonicalize(inst, sys, vv, params)
        assert canonical_violations(inst, sys, canon, params) == []
        again, swaps2 = _canonicalize(inst, sys, canon, params)
        assert swaps2 == 0 and again == canon
        assert swaps <= inst.n * inst.n * sched.T * sched.T


def test_canonicalize_single_inversion():
    params = desk_params(T=16, m=2)
    inst = build_instance(2, 2, [(0, 1)])
    sys = full_system({1: inst.all_jobs})  # (0,16]
    win = windows(inst, sys, params)
    assert win[0] == win[1] == (4, 12)
    crossed = Schedule(T=16, assign=(6, 5))  # both left, precedence inverted
    out = canonicalize(inst, sys, crossed, params)
    assert out.assign == (5, 6)


def test_canonicalize_preserves_discards_bottoms_and_windows():
    for seed in range(30):
        inst, params, sys, sched = _pipeline_inputs(seed, m=2, n=8)
        vv = valid_to_virtually_valid(inst, sys, sched, params)
        canon = canonicalize(inst, sys, vv, params)
        assert discarded(canon) == discarded(vv)
        assert_no_violations(check_virtually_valid(inst, sys, params, canon))
        tree = tree_for(params)
        for i, jobs in sys.assign.items():
            if tree.kinds[i] == "bot":
                for j in iter_jobs(jobs):
                    assert canon.assign[j] == vv.assign[j]


def test_canonicalize_handles_shuffled_schedules():
    # scramble scheduled top jobs by random window-respecting transpositions,
    # then check the swap loop still reaches a clean fixpoint
    import random as _random

    for seed in range(25):
        inst, params, sys, sched = _pipeline_inputs(seed, m=2, n=9)
        vv = valid_to_virtually_valid(inst, sys, sched, params)
        win = windows(inst, sys, params)
        rng = _random.Random(seed)
        slots = {j: vv.assign[j] for j in win if vv.assign[j] is not None}
        jobs = sorted(slots)
        for _ in range(20):
            if len(jobs) < 2:
                break
            a, b = rng.sample(jobs, 2)
            ba, ea = win[a]
            bb, eb = win[b]
            if ba < slots[b] <= ea and bb < slots[a] <= eb:
                slots[a], slots[b] = slots[b], slots[a]
        shuffled = vv.replace(slots)
        assert check_virtually_valid(inst, sys, params, shuffled).ok
        canon, swaps = _canonicalize(inst, sys, shuffled, params)
        # both read the same canonical order: a swap happens iff a pair is out of it
        assert bool(canonical_violations(inst, sys, shuffled, params)) == (swaps > 0)
        assert canonical_violations(inst, sys, canon, params) == []
        assert check_virtually_valid(inst, sys, params, canon).ok


def test_vv_to_valid_no_top_jobs_is_identity():
    params = compute_params(8, 2, Fraction(1, 2), overrides={"h": 3, "hp": 0, "p": 1})
    inst, sched = reference_pair(5, T=8, m=2, n=6)
    sys, _, _ = system_from_schedule(inst, sched, params)
    out = virtually_valid_to_valid(inst, sys, sched, params)
    assert out == sched


@pytest.mark.parametrize("seed, m, offset, hinted", COLLAPSED_GRID)
def test_conversions_are_the_identity_when_collapsed(seed, m, offset, hinted):
    # with L = 0 there are no top jobs, so the pipeline may skip both
    # steps, after main_solve and after a hinted solve, which returns the
    # reference as it is
    inst, params, hints = collapsed_case(seed, m, offset, hinted)
    sys, sched = main_solve(inst, params)
    if hints is not None:
        sched = hints.virtual
    assert windows(inst, sys, params) == {}
    canon = canonicalize(inst, sys, sched, params)
    assert canon == sched
    assert virtually_valid_to_valid(inst, sys, canon, params) == sched


def test_vv_to_valid_distinct_bottoms_lose_nothing():
    params = desk_params(T=16, m=2)
    inst = build_instance(2, 2, [])
    sys = full_system({1: inst.all_jobs})  # (0,16]
    sched = Schedule(T=16, assign=(5, 9))
    out = virtually_valid_to_valid(inst, sys, sched, params)
    assert out.discard_count == 0
    assert out.assign == (5, 9)


def test_vv_to_valid_detects_order_violation():
    params = desk_params(T=16, m=2)
    inst = build_instance(2, 2, [(0, 1)])
    sys = full_system({1: inst.all_jobs})  # (0,16]
    crossed = Schedule(T=16, assign=(6, 5))
    with pytest.raises(PrecongruenceViolated, match=(
            r"^precedence pair \(0, 1\) out of order; side pair \(0, 1\) out of order$")):
        virtually_valid_to_valid(inst, sys, crossed, params)


def test_vv_to_valid_computes_the_windows_once(monkeypatch):
    # the canonical-order check and the regroup loop read one set of windows
    calls = []
    real = convert.windows

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(convert, "windows", counted)
    for seed in range(10):
        inst, params, sys, sched = _pipeline_inputs(seed)
        canon = canonicalize(inst, sys, valid_to_virtually_valid(inst, sys, sched, params),
                             params)
        calls.clear()
        virtually_valid_to_valid(inst, sys, canon, params)
        assert len(calls) == 1


def test_full_conversion_chain():
    for seed in range(60):
        inst, params, sys, sched = _pipeline_inputs(seed, m=2 + seed % 2, n=7 + seed % 3)
        vv = valid_to_virtually_valid(inst, sys, sched, params)
        canon = canonicalize(inst, sys, vv, params)
        out = virtually_valid_to_valid(inst, sys, canon, params)
        assert_no_violations(verify_valid(inst, out))
        assert_no_violations(check_valid_for_system(inst, sys, params, out))
        # the independently recomputed per-bottom-interval chain bound
        tree = tree_for(params)
        win = windows(inst, sys, params)
        budget = 0
        for iv in tree.interval[1 << tree.L :]:  # the bottom level
            group = mask_from(
                j for j in win
                if canon.assign[j] is not None and canon.assign[j] in iv
            )
            budget += params.m * longest_chain(inst, group)
        extra = out.discard_count - canon.discard_count
        assert 0 <= extra <= budget
        # end-to-end sandwich against the virtually-valid stage
        assert out.discard_count <= vv.discard_count + budget
