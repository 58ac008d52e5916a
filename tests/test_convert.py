"""Valid <-> virtually-valid conversions and the canonical swap loop."""

import random
from fractions import Fraction
from itertools import product

import pytest

from psched import convert
from psched.baselines import exact_opt
from psched.convert import (
    _TopOrder,
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
from psched.errors import InvalidInput
from psched.generators import gen_instance
from psched.pipeline import _places_top_job, _with_sinks
from psched.solver import main_solve, solve_hinted
from psched.transform import pad_to_power_of_two

from conftest import assert_no_violations
from convert_reference import reference_convert
from system_reference import discarded

from test_dyadic import desk_params, reference_pair
from test_solver import COLLAPSED_GRID, DEEP_FAMILIES, collapsed_case


def _pipeline_inputs(seed, T=16, m=2, n=8):
    inst, sched = reference_pair(seed, T=T, m=m, n=n)
    params = desk_params(T=T, m=m)
    sys, _, _ = system_from_schedule(inst, sched, params)
    return inst, params, sys, sched


def _shuffled(inst, sys, vv, params, seed):
    """``vv`` with its scheduled top jobs scrambled by 20 random
    transpositions, each kept only when both jobs stay in their windows."""
    win = windows(inst, sys, params)
    rng = random.Random(seed)
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
    return vv.replace(slots)


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


def _canonicalize(inst, sys, sched, params):
    """What ``canonicalize`` returns, and the number of swaps it made."""
    order = _TopOrder(inst, sys, sched, params)
    swaps = order.swap_to_fixpoint()
    return sched.replace(order.slot), swaps


def test_canonicalize_fixpoint_is_stable():
    for seed in range(20):
        inst, params, sys, sched = _pipeline_inputs(seed)
        vv = valid_to_virtually_valid(inst, sys, sched, params)
        canon, swaps = _canonicalize(inst, sys, vv, params)
        assert canon == canonicalize(inst, sys, vv, params)
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
    for seed in range(25):
        inst, params, sys, sched = _pipeline_inputs(seed, m=2, n=9)
        vv = valid_to_virtually_valid(inst, sys, sched, params)
        shuffled = _shuffled(inst, sys, vv, params, seed)
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
    inst, params, reference = collapsed_case(seed, m, offset, hinted)
    sys, sched = main_solve(inst, params)
    if reference is not None:
        sched = reference
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


def test_vv_to_valid_canonicalizes_a_crossed_schedule():
    # the pair is out of both orders; the conversion swaps it back before
    # regrouping, so the result is valid with the canonical slots
    params = desk_params(T=16, m=2)
    inst = build_instance(2, 2, [(0, 1)])
    sys = full_system({1: inst.all_jobs})  # (0,16]
    crossed = Schedule(T=16, assign=(6, 5))
    assert canonical_violations(inst, sys, crossed, params) == [
        "precedence pair (0, 1) out of order", "side pair (0, 1) out of order"]
    out = virtually_valid_to_valid(inst, sys, crossed, params)
    assert out.assign == (5, 6)
    assert_no_violations(verify_valid(inst, out))


def test_vv_to_valid_computes_the_windows_once(monkeypatch):
    # the input check, the swap loop and the regroup read one set of windows
    calls = []
    real = convert.windows

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(convert, "windows", counted)
    for seed in range(10):
        inst, params, sys, sched = _pipeline_inputs(seed)
        vv = valid_to_virtually_valid(inst, sys, sched, params)
        calls.clear()
        virtually_valid_to_valid(inst, sys, vv, params)
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


def _grid_inputs():
    """(case, inst, sys, sched, params): the virtually-valid schedule made
    of an optimal one, and a shuffle of it, per family, m in 2-3, h in 1-3
    and T in 16-64, on instances of min(T, 32) jobs, generator seeds 0-1
    (the swap loop rescans every pair after each swap, so 64 jobs would
    take seconds a case)."""
    for family, m, h, T, seed in product(DEEP_FAMILIES, (2, 3), (1, 2, 3), (16, 32, 64),
                                         (0, 1)):
        params = desk_params(T=T, m=m, h=h)
        inst, _ = gen_instance(family, min(T, 32), m, 0.3, seed)
        reference = Schedule(T=T, assign=exact_opt(inst)[1].assign)
        sys, _, _ = system_from_schedule(inst, reference, params)
        vv = valid_to_virtually_valid(inst, sys, reference, params)
        case = (family, m, h, T, seed)
        yield case, inst, sys, vv, params
        yield case + ("shuffled",), inst, sys, _shuffled(inst, sys, vv, params, seed), params


def test_one_step_conversion_matches_the_two_step_chain():
    # canonicalizing and regrouping on one set of windows gives the
    # schedule that canonicalize followed by the canonical-checked regroup
    # gave, both when top jobs are placed, canonical or crossed, and when
    # none is
    placed = crossed = 0
    for case, inst, sys, sched, params in _grid_inputs():
        out = virtually_valid_to_valid(inst, sys, sched, params)
        assert out == reference_convert(inst, sys, sched, params), case
        assert_no_violations(check_valid_for_system(inst, sys, params, out))
        placed += _places_top_job(sys, sched, params)
        crossed += bool(canonical_violations(inst, sys, sched, params))
    assert placed > 0 and crossed > 0


@pytest.mark.parametrize("family", ["layered", "forest"])
@pytest.mark.parametrize("seed", [0, 1])
def test_one_step_conversion_matches_the_chain_on_hinted_solves(family, seed):
    # a deep hinted attempt at the optimum, h = 2, which places top jobs
    inst0, _ = gen_instance(family, 128, 3, 0.3, seed)
    opt, best = exact_opt(inst0)
    inst, T2, _ = pad_to_power_of_two(inst0, opt)
    params = compute_params(T2, 3, Fraction(1, 2), overrides={"h": 2, "hp": 1, "p": 2})
    sys, virtual = solve_hinted(inst, _with_sinks(inst0, inst, best, opt), params)
    assert _places_top_job(sys, virtual, params)
    out = virtually_valid_to_valid(inst, sys, virtual, params)
    assert out == reference_convert(inst, sys, virtual, params)
    assert_no_violations(check_valid_for_system(inst, sys, params, out))


def _solver_outputs():
    """(case, inst, sys, sched, params) from the solver at h = 1: the
    enumeration on the deep-enum pool and hinted replays on the deep half
    of the hinted-replay pool, both unrelabeled."""
    params = compute_params(16, 2, Fraction(1, 2), overrides={"h": 1, "hp": 1, "p": 2})
    for n, count in ((5, 20), (6, 8)):
        for seed in range(count):
            inst, _ = gen_instance("random-dag", n, 2, 0.3, seed)
            yield ("enum", n, seed), inst, *main_solve(inst, params), params
    for family, m in product(DEEP_FAMILIES, (2, 3)):
        params = compute_params(32, m, Fraction(1, 2), overrides={"h": 1, "hp": 1, "p": 2})
        for seed in range(8):
            inst, _ = gen_instance(family, 16, m, 0.3, seed)
            reference = Schedule(T=32, assign=exact_opt(inst)[1].assign)
            yield (family, m, seed), inst, *solve_hinted(inst, reference, params), params


def test_skipping_the_conversion_is_exact():
    # the pipeline converts only when a top job is placed: otherwise the
    # two-step chain accepts the schedule as virtually valid and returns
    # it.  At h = 1 every top window is empty, so the solver never places
    # a top job
    skipped = 0
    for case, inst, sys, sched, params in [*_grid_inputs(), *_solver_outputs()]:
        if _places_top_job(sys, sched, params):
            assert params.h > 1, case
            continue
        assert_no_violations(check_virtually_valid(inst, sys, params, sched))
        assert reference_convert(inst, sys, sched, params) == sched, case
        skipped += 1
    assert skipped > 0
