"""Parameters, tree structure, systems, windows, and the split procedures."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psched.baselines import exact_opt
from psched.core import (
    Interval,
    Schedule,
    build_instance,
    iter_jobs,
    job_count,
    longest_chain,
    mask_from,
    verify_valid,
)
from psched.dyadic import (
    BOT,
    MID,
    TOP,
    DyadicTree,
    PartialDyadicSystem,
    check_valid_for_system,
    check_virtually_valid,
    compute_params,
    full_system,
    push_down,
    split_budget,
    split_step,
    system_from_schedule,
    tree_for,
    window_step,
    windows,
)
from psched.errors import GuessExhausted, InvalidInput, InvalidOverride
from subtree_reference import _restrict

from bottom_reference import reference_warm_check
from conftest import assert_no_violations, instances, random_instance
from system_reference import check_system

DESK = dict(h=1, hp=1, p=4, delta=Fraction(1, 4), deltap=Fraction(1, 8))
DESK16 = dict(h=2, hp=1, p=8, delta=Fraction(1, 4), deltap=Fraction(1, 8))


def desk_params(T=8, m=2, **kw):
    ov = dict(DESK if T <= 8 else DESK16)
    ov.update(kw)
    return compute_params(T, m, Fraction(1, 2), overrides=ov)


def reference_pair(seed, T=16, m=2, n=8, density=0.35):
    """Random instance plus an optimal schedule re-hosted on horizon T."""
    inst = random_instance(n, m, density, seed)
    opt, sched = exact_opt(inst)
    assert opt <= T
    return inst, Schedule(T=T, assign=sched.assign)


def test_default_params_match_formulas():
    p = compute_params(2**20, 2, Fraction(1, 2))
    assert p.h == 10  # ceil(log2(8*2*20 / 0.5)) = ceil(log2 640)
    assert p.deltap == Fraction(1, 2**21)
    assert p.delta == Fraction(1, 2) / (16 * 2**10 * 4)
    assert p.L == 10 and not p.overridden


def test_override_accepted_and_flagged():
    p = desk_params(T=8, m=2)
    assert set(p.overridden) == {"h", "hp", "p", "delta", "deltap"}
    assert p.h == 1 and p.hp == 1 and p.p == 4 and p.L == 2
    loose = compute_params(
        8, 2, Fraction(1, 2),
        overrides={"h": 1, "hp": 1, "p": 4, "delta": 1, "deltap": 1},
    )
    assert loose.delta == 1 and loose.deltap == 1 and loose.overridden


def test_override_validation():
    with pytest.raises(InvalidOverride):
        compute_params(8, 2, Fraction(1, 2), overrides={"h": 4})  # h > log T
    with pytest.raises(InvalidOverride):
        compute_params(8, 2, Fraction(1, 2), overrides={"h": 1, "p": 0})
    with pytest.raises(InvalidOverride):
        compute_params(8, 2, Fraction(1, 2), overrides={"bogus": 1})
    with pytest.raises(InvalidOverride):
        compute_params(6, 2, Fraction(1, 2))  # not a power of two


@pytest.mark.parametrize("key, value, message", [
    ("h", -1, "need 0 <= h <= log2(T)=3, got h=-1"),
    ("h", -5, "need 0 <= h <= log2(T)=3, got h=-5"),
    ("hp", -1, "need hp >= 0, got -1"),
])
def test_negative_h_and_hp_are_rejected_before_use(key, value, message):
    # delta and deltap shift by h, so h is checked before they are derived
    with pytest.raises(InvalidOverride) as exc:
        compute_params(8, 2, Fraction(1, 2), overrides={key: value})
    assert str(exc.value) == message


def test_tree_for_depends_on_t_l_and_hp_alone():
    a = compute_params(16, 2, Fraction(1, 2), overrides={"h": 1, "hp": 1, "p": 2})
    b = compute_params(16, 3, Fraction(1, 3), overrides={"h": 1, "hp": 1, "p": 5})
    c = compute_params(16, 2, Fraction(1, 2), overrides={"h": 1, "hp": 2, "p": 2})
    assert tree_for(a) is tree_for(b)
    assert tree_for(a) == DyadicTree(T=16, L=3, hp=1)
    assert tree_for(c) == DyadicTree(T=16, L=3, hp=2)


def test_tree_levels_structure():
    params = desk_params()
    tree = tree_for(params)
    levels = [tuple(tree.interval[i] for i in tree.below(1, l)) for l in range(tree.L + 1)]
    assert levels == [
        (Interval(0, 8),),
        (Interval(0, 4), Interval(4, 8)),
        (Interval(0, 2), Interval(2, 4), Interval(4, 6), Interval(6, 8)),
    ]
    # heap indices name the same intervals, level by level
    assert tree.interval[1:] == sum(levels, ())
    assert tree.kinds[1:] == (TOP, MID, MID, BOT, BOT, BOT, BOT)
    assert len(levels[-1]) == params.T // 2**params.h
    assert tree.below(1, 5) == range(0)


def test_tree_under_and_rel_level():
    # the intervals under a heap index, and those k levels below it
    params = desk_params()
    tree = tree_for(params)
    iv = tree.interval
    assert [iv[i] for i in _restrict(dict.fromkeys(range(1, 8), 0), 2)] == [
        Interval(0, 4), Interval(0, 2), Interval(2, 4)]
    assert [iv[i] for i in tree.below(1, 1)] == [Interval(0, 4), Interval(4, 8)]
    assert iv[4] == Interval(0, 2) and tree.below(4, 1) == range(0)


def _old_level_of(tree, iv):
    """A tree interval's level from the interval arithmetic alone."""
    l = tree.T.bit_length() - iv.length.bit_length()
    if not (0 <= l <= tree.L and tree.T >> l == iv.length and iv.begin % iv.length == 0
            and 0 <= iv.begin < iv.end <= tree.T):
        raise ValueError(f"{iv} is not a tree interval")
    return l


def _old_kind(tree, iv):
    l = _old_level_of(tree, iv)
    return BOT if l == tree.L else MID if l >= tree.L - tree.hp else TOP


@pytest.mark.parametrize("T", [2, 4, 8, 16, 32, 64])
def test_level_of_and_kind_match_the_arithmetic_on_every_interval(T):
    # every (b, e] with e <= T + 2, so out-of-range, misaligned and
    # wrong-length intervals are all among them: the heap tables name
    # exactly the tree intervals, each with its level and kind
    log_T = T.bit_length() - 1
    for L in range(log_T + 1):
        for hp in range(L + 2):
            tree = DyadicTree(T=T, L=L, hp=hp)
            index = {iv: i for i, iv in enumerate(tree.interval) if i}
            tree_ivs = 0
            for e in range(1, T + 3):
                for b in range(e):
                    iv = Interval(b, e)
                    try:
                        want = _old_level_of(tree, iv), _old_kind(tree, iv)
                    except ValueError:
                        assert iv not in index
                        continue
                    tree_ivs += 1
                    i = index[iv]
                    assert (i.bit_length() - 1, tree.kinds[i]) == want
            assert tree_ivs == len(index) == (2 << L) - 1


def _old_rel_level(tree, root, k):
    """The tree intervals of length |root| / 2**k inside ``root``, none
    below the leaves."""
    if k < 0:
        return ()
    l = _old_level_of(tree, root) + k
    if l > tree.L:
        return ()
    size = tree.T >> l
    return tuple(Interval(b, b + size) for b in range(root.begin, root.end, size))


@pytest.mark.parametrize("T", [2, 4, 8, 16, 32, 64])
def test_heap_indices_name_the_tree_intervals(T):
    # level, begin and end, children, parent, "under" (``_restrict``),
    # ``below`` and kind of every heap index, against the Interval arithmetic
    for L in range(T.bit_length()):
        for hp in range(L + 1):
            tree = DyadicTree(T=T, L=L, hp=hp)
            every = dict.fromkeys(range(1, 2 << L), 0)
            assert len(tree.interval) == len(tree.span) == len(tree.kinds) == 2 << L
            for i in every:
                l = i.bit_length() - 1
                size = T >> l
                iv = tree.interval[i]
                assert iv == Interval((i - (1 << l)) * size, (i - (1 << l) + 1) * size)
                assert tree.span[i] == (iv.begin, iv.end)
                assert _old_level_of(tree, iv) == l
                assert tree.kinds[i] == _old_kind(tree, iv)
                if l < L:
                    assert (tree.interval[2 * i], tree.interval[2 * i + 1]) == (
                        iv.left, iv.right)
                if i > 1:
                    assert iv in (tree.interval[i >> 1].left, tree.interval[i >> 1].right)
                inside = [j for j in every
                          if iv.begin <= tree.interval[j].begin
                          and tree.interval[j].end <= iv.end]
                assert list(_restrict(every, i)) == inside
                for k in range(-1, L - l + 2):
                    assert tuple(tree.interval[j] for j in tree.below(i, k)) == (
                        _old_rel_level(tree, iv, k))


def _old_split_step(inst, stay, params, kind, length):
    """``split_step`` as computed with ``Fraction`` budgets."""
    count = job_count(stay)
    bound = params.delta * count + params.deltap * length if kind == TOP else Fraction(0)
    if longest_chain(inst, stay) <= bound:
        return None
    threshold = bound / 2 - 1
    for j in iter_jobs(stay):
        if (job_count(inst.pred[j] & stay) >= threshold
                and job_count(inst.succ[j] & stay) >= threshold):
            return j
    raise AssertionError("no pivot")


@pytest.mark.parametrize("delta, deltap", [
    ("1/4", "1/8"), ("1/3", "1/12"), ("2/7", "3/10"), ("0", "5/6"), ("1/64", "0"),
    ("0", "0"), ("3/2", "1/5"),
])
def test_integer_budgets_match_the_fraction_arithmetic(delta, deltap):
    params = compute_params(16, 2, Fraction(1, 2), overrides={
        "h": 1, "hp": 1, "p": 2, "delta": Fraction(delta), "deltap": Fraction(deltap)})
    assert Fraction(params.A, params.D) == params.delta
    assert Fraction(params.B, params.D) == params.deltap
    tree = tree_for(params)
    rng = random.Random(delta + deltap)
    for seed in range(25):
        inst = random_instance(rng.randrange(4, 13), 2, rng.choice([0.2, 0.5, 0.9]), seed)
        stay = mask_from(j for j in range(inst.n) if rng.random() < 0.8)
        for i in range(1, 8):  # the top and middle intervals
            begin, end = tree.span[i]
            a, b = split_budget(params, i)
            assert split_step(inst, stay, a, b, params.D) == _old_split_step(
                inst, stay, params, tree.kinds[i], end - begin)
    with pytest.raises(ValueError, match="top and middle intervals only"):
        split_budget(params, 8)  # a bottom interval


def test_compute_params_is_memoized_and_still_validates():
    ov = {"h": 1, "hp": 1, "p": 2, "delta": Fraction(1, 4)}
    first = compute_params(16, 2, Fraction(1, 2), overrides=ov)
    # the same inputs, spelled differently, give the same (equal) params
    assert compute_params(16, 2, "1/2", overrides=dict(reversed(ov.items()))) == first
    assert compute_params(16, 2, 0.5, overrides={**ov, "delta": "1/4"}) == first
    assert compute_params(16, 2, Fraction(1, 2), overrides={}) == compute_params(
        16, 2, Fraction(1, 2))
    # invalid inputs raise on every call, never from a cached result
    for _ in range(3):
        with pytest.raises(InvalidOverride, match="need p >= 1"):
            compute_params(16, 2, Fraction(1, 2), overrides={**ov, "p": 0})
        with pytest.raises(InvalidOverride, match="eps must be in"):
            compute_params(16, 2, Fraction(3, 2))
        with pytest.raises(InvalidOverride, match="power of two"):
            compute_params(12, 2, Fraction(1, 2))


def test_check_system_single_bottom_interval_is_valid():
    params = desk_params()
    inst = random_instance(5, 2, 0.6, 2)
    sys = PartialDyadicSystem(assign={4: inst.all_jobs})  # (0,2]
    assert_no_violations(check_system(inst, sys, params))


def test_check_system_reports_keys_outside_the_tree():
    params = desk_params()  # heap indices 1..7
    inst = build_instance(2, 2, [])
    sys = PartialDyadicSystem(assign={0: mask_from([0]), 1: 0, 8: mask_from([1])})
    assert [str(v) for v in check_system(inst, sys, params).violations] == [
        "system-key: key 0 is not a tree interval (heap indices 1..7)",
        "system-key: key 8 is not a tree interval (heap indices 1..7)",
    ]


def test_check_system_orders_a_parent_between_its_children():
    # with h = 0 a leaf (k+1, k+2] and its parent (k, k+2] share the
    # rounded-down center k+1; the split sends a successor of a job staying
    # at the parent to the right leaf, which is in-order after the parent
    params = compute_params(8, 2, Fraction(1, 2), overrides={"h": 0, "hp": 0, "p": 2})
    inst = build_instance(2, 2, [(0, 1)])
    sys = PartialDyadicSystem(assign={5: mask_from([0]), 11: mask_from([1])})  # (2,4], (3,4]
    assert_no_violations(check_system(inst, sys, params))
    back = PartialDyadicSystem(assign={5: mask_from([1]), 11: mask_from([0])})
    assert [str(v) for v in check_system(inst, back, params).violations] == [
        "system-order: precedence from jobs of (3,4] back to jobs of (2,4]"]
    for seed in range(40):
        inst, sched = reference_pair(seed, T=16, m=2, n=8)
        params = compute_params(16, 2, Fraction(1, 2), overrides={"h": 0, "hp": 0, "p": 2})
        sys, _, _ = system_from_schedule(inst, sched, params)
        assert_no_violations(check_system(inst, sys, params, require_full=True))


def test_check_system_reports_chain_violation():
    params = desk_params(T=16, m=2, delta=Fraction(0), deltap=Fraction(0))
    inst = build_instance(4, 2, [(0, 1), (1, 2), (2, 3)])
    sys = full_system({1: inst.all_jobs})  # (0,16]
    report = check_system(inst, sys, params)
    assert "system-chain" in report.kinds()
    assert "system-chain: chain 4 > budget 0 on top (0,16]" in str(report)
    # the budget prints as the Fraction delta * count + deltap * length
    params = desk_params(T=16, m=2, delta=Fraction(1, 3), deltap=Fraction(1, 12))
    report = check_system(inst, full_system({1: inst.all_jobs}), params)
    assert "system-chain: chain 4 > budget 8/3 on top (0,16]" in str(report)


def test_check_system_reports_middle_and_order_violations():
    params = desk_params()
    inst = build_instance(2, 2, [(0, 1)])
    sys = PartialDyadicSystem(assign={2: mask_from([1]), 3: mask_from([0])})  # (0,4], (4,8]
    report = check_system(inst, sys, params)
    assert {"system-middle", "system-order"} <= report.kinds()


def test_check_system_disjointness_and_full_cover():
    params = desk_params()
    inst = build_instance(3, 2, [])
    dup = PartialDyadicSystem(assign={4: mask_from([0, 1]), 5: mask_from([1])})  # (0,2], (2,4]
    assert "system-disjoint" in check_system(inst, dup, params).kinds()
    partial = full_system({4: mask_from([0, 1])})
    assert "system-cover" in check_system(inst, partial, params, require_full=True).kinds()


def test_windows_unconstrained_job_is_extremal():
    params = desk_params(T=16, m=2)
    inst = build_instance(3, 2, [])
    sys = full_system({1: mask_from([0]), 4: mask_from([1, 2])})  # (0,16], (0,4]
    step = window_step(params, 16)
    assert step == 4
    assert windows(inst, sys, params)[0] == (4, 12)


def test_windows_predecessor_in_last_block_forces_center():
    params = desk_params(T=16, m=2)
    inst = build_instance(2, 2, [(0, 1)])
    sys = full_system({1: mask_from([1]), 5: mask_from([0])})  # (0,16], (4,8]
    assert windows(inst, sys, params)[1] == (8, 12)


def test_windows_successor_clips_right_end():
    params = desk_params(T=16, m=2)
    inst = build_instance(2, 2, [(0, 1)])
    sys = full_system({1: mask_from([0]), 6: mask_from([1])})  # (0,16], (8,12]
    assert windows(inst, sys, params)[0] == (4, 8)


def _random_system(seed, T=16, m=2, n=8):
    inst, sched = reference_pair(seed, T=T, m=m, n=n)
    params = desk_params(T=T, m=m)
    sys, covered, guesses = system_from_schedule(inst, sched, params)
    return inst, sched, params, sys, covered, guesses


def test_windows_bounds_alignment_and_monotonicity():
    for seed in range(40):
        inst, _, params, sys, _, _ = _random_system(seed)
        tree = tree_for(params)
        win = windows(inst, sys, params)
        owner = sys.owner_of()

        def inside(begin, end):
            out = 0
            for i, jobs in sys.assign.items():
                if begin <= tree.span[i][0] and tree.span[i][1] <= end:
                    out |= jobs
            return out

        for j, (b, e) in win.items():
            iv = tree.interval[owner[j]]
            step = window_step(params, iv.length)
            assert iv.begin < b <= iv.center <= e < iv.end
            assert b % step == 0 and e % step == 0
            # no precedence out of j into the left prefix, none into j from the right suffix
            assert inst.no_prec_between(1 << j, inside(0, e))
            assert inst.no_prec_between(inside(b, params.T), 1 << j)
        for j, (bj, ej) in win.items():
            for k in iter_jobs(inst.succ[j]):
                if k in win:
                    bk, ek = win[k]
                    assert bj <= bk and ej <= ek


def test_extended_window_contains_any_valid_slot():
    # a schedule that is valid for the system keeps every top job within
    # one alignment unit of its window, on both sides
    for seed in range(40):
        inst, sched, params, sys, _, _ = _random_system(seed, m=2 + seed % 2)
        win = windows(inst, sys, params)
        owner = sys.owner_of()
        for j, (b, e) in win.items():
            t = sched.assign[j]
            if t is None:
                continue
            begin, end = tree_for(params).span[owner[j]]
            step = window_step(params, end - begin)
            assert b - step < t <= e + step


def test_check_virtually_valid_all_disc():
    inst, _, params, sys, _, _ = _random_system(1)
    sched = {j: None for j in iter_jobs(inst.all_jobs)}
    report = check_virtually_valid(inst, sys, params, sched)
    assert report.ok and report.discards == inst.n


def test_check_virtually_valid_window_boundary_is_exclusive():
    params = desk_params(T=16, m=2)
    inst = build_instance(1, 2, [])
    sys = full_system({1: mask_from([0])})  # (0,16]
    b, e = windows(inst, sys, params)[0]
    assert not check_virtually_valid(inst, sys, params, {0: b}).ok
    assert check_virtually_valid(inst, sys, params, {0: b + 1}).ok
    assert check_virtually_valid(inst, sys, params, {0: e}).ok
    assert not check_virtually_valid(inst, sys, params, {0: e + 1}).ok


def test_check_virtually_valid_ancestor_windows():
    # a bottom interval's warm start as the hinted reference recursion
    # checks it: the clauses of the one-interval check, written out
    inst = build_instance(3, 2, [])
    iv, bottom, ancestors = Interval(0, 8), mask_from([0]), mask_from([1, 2])
    anc_windows = {1: (4, 8), 2: (0, 16)}
    for warm, ok in (
        ({0: 1, 1: 5, 2: 3}, True),
        ({0: 1, 1: 4, 2: 3}, False),  # ancestor 1 at its exclusive left boundary
        ({0: 1, 1: 5, 2: 12}, False),  # slot 12 outside the interval
        ({0: 1, 1: 5}, False),  # ancestor 2 missing
    ):
        assert reference_warm_check(inst, iv, bottom, ancestors, anc_windows, warm) is ok


def test_check_virtually_valid_flags_bottom_and_capacity():
    params = desk_params(T=8, m=1)
    inst = build_instance(3, 1, [(0, 1)])
    sys = full_system({4: mask_from([0, 1]), 5: mask_from([2])})  # (0,2], (2,4]
    bad_interval = {0: 1, 1: 2, 2: 1}  # job 2 outside (2,4], capacity breach at slot 1
    report = check_virtually_valid(inst, sys, params, bad_interval)
    assert {"interval", "capacity"} <= report.kinds()
    bad_prec = {0: 2, 1: 1, 2: 3}
    assert "precedence" in check_virtually_valid(inst, sys, params, bad_prec).kinds()


def test_check_valid_for_system_flags_a_job_outside_its_owning_interval():
    params = desk_params(T=8, m=1)
    inst = build_instance(3, 1, [(0, 1)])
    sys = full_system({4: mask_from([0, 1]), 5: mask_from([2])})  # (0,2], (2,4]
    ok = Schedule(T=8, assign=(1, 2, 3))
    assert check_valid_for_system(inst, sys, params, ok).ok
    report = check_valid_for_system(inst, sys, params, Schedule(T=8, assign=(1, 2, 5)))
    assert [str(v) for v in report.violations] == ["interval: job 2 at 5 outside owning (2,4]"]


@pytest.mark.parametrize("sched, expect", [
    ({0: 1, 1: 2}, ["domain: schedule covers 2 jobs, system has 3"]),
    ({0: 1, 1: 2, 2: 3, 3: 4}, ["domain: schedule covers 4 jobs, system has 3"]),
    ({0: 1, 1: 2, 2: 9}, ["domain: job 2 at 9 outside root (0,8]",
                          "interval: bottom job 2 at 9 outside (2,4]"]),
], ids=["missing-job", "extra-job", "past-the-root"])
def test_check_virtually_valid_flags_the_schedule_domain(sched, expect):
    params = desk_params(T=8, m=1)
    inst = build_instance(4, 1, [(0, 1)])
    sys = full_system({4: mask_from([0, 1]), 5: mask_from([2])})  # (0,2], (2,4]
    report = check_virtually_valid(inst, sys, params, sched)
    assert [str(v) for v in report.violations] == expect


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(inst=instances(), data=st.data())
def test_check_virtually_valid_shares_verify_valids_slot_checks(inst, data):
    # on the one-interval system at L = 0 every job is a bottom job on the
    # root, so no interval, domain or window clause can fail, and the
    # capacity and precedence violations are verify_valid's, in its order
    T = data.draw(st.sampled_from([2, 4, 8]))
    params = compute_params(T, inst.m, Fraction(1, 2))
    assert params.L == 0
    slots = st.one_of(st.none(), st.integers(1, T))
    sched = Schedule(T=T, assign=tuple(data.draw(
        st.lists(slots, min_size=inst.n, max_size=inst.n))))
    report = check_virtually_valid(inst, full_system({1: inst.all_jobs}), params, sched)
    assert report.violations == verify_valid(inst, sched).violations


def test_check_virtually_valid_lists_precedence_clashes_pair_by_pair():
    # every clashing comparable pair of placed bottom jobs once, in
    # verify_valid's wording and order: by the earlier job's id, then by
    # the later one's
    for seed in range(40):
        rng = random.Random(seed)
        inst = random_instance(10, 3, 0.4, seed)
        params = compute_params(8, 3, Fraction(1, 2))
        assert params.L == 0
        sys = full_system({1: inst.all_jobs})
        sched = {j: rng.choice([None, *range(1, 9)]) for j in range(inst.n)}
        expect = [
            f"precedence: job {x} at {sched[x]} not before job {y} at {sched[y]}"
            for x in range(inst.n) for y in range(inst.n)
            if sched[x] is not None and sched[y] is not None
            and inst.precedes(x, y) and sched[x] >= sched[y]
        ]
        report = check_virtually_valid(inst, sys, params, sched)
        assert [str(v) for v in report.violations if v.kind == "precedence"] == expect


def test_construct_single_bottom_short_circuit():
    params = compute_params(8, 2, Fraction(1, 2), overrides={"h": 3, "hp": 0, "p": 1})
    inst, sched = reference_pair(0, T=8, m=2, n=6)
    sys, covered, guesses = system_from_schedule(inst, sched, params)
    assert sys.assign == {1: inst.all_jobs}
    assert covered[1] == inst.all_jobs
    assert guesses == {}


def test_construct_output_is_consistent():
    for seed in range(50):
        inst, sched, params, sys, covered, guesses = _random_system(seed)
        tree = tree_for(params)
        assert_no_violations(check_system(inst, sys, params, require_full=True))
        assert_no_violations(check_valid_for_system(inst, sys, params, sched))
        # covered sets aggregate assignments over subtrees
        spans = list(enumerate(tree.span))[1:]
        for outer, (ob, oe) in spans:
            agg = 0
            for i, (b, e) in spans:
                if ob <= b and e <= oe:
                    agg |= sys.assign.get(i, 0)
            assert covered.get(outer, 0) == agg
        for i, trace in guesses.items():
            kind = tree.kinds[i]
            assert kind in (TOP, MID)
            if kind == MID:
                assert len(trace) <= params.m * tree.interval[i].length


def test_construct_rejects_discards_and_overruns():
    inst = build_instance(2, 2, [])
    params = desk_params(T=8, m=2)
    with pytest.raises(InvalidInput):
        system_from_schedule(inst, Schedule(T=8, assign=(1, None)), params)
    with pytest.raises(InvalidInput):
        bad = Schedule(T=16, assign=(9, 10))
        system_from_schedule(inst, bad, desk_params(T=8, m=2))


def test_guess_bound_under_default_parameters():
    # Defaults with a real top layer: T=2^14, m=1 -> h=8, L=6, hp=3.
    params = compute_params(2**14, 1, Fraction(1, 2))
    assert params.L - params.hp - 1 >= 0
    inst = random_instance(60, 1, 0.1, 9)
    topo_sched = Schedule(
        T=params.T,
        assign=tuple(inst.topo.index(j) + 1 for j in range(inst.n)),
    )
    assert_no_violations(verify_valid(inst, topo_sched))
    sys, covered, guesses = system_from_schedule(inst, topo_sched, params)
    tree = tree_for(params)
    assert_no_violations(check_system(inst, sys, params, require_full=True))
    for i, trace in guesses.items():
        if tree.kinds[i] == TOP:
            assert len(trace) <= params.p
        else:
            assert len(trace) <= params.m * tree.interval[i].length


def test_push_down_small_set_is_noop():
    params = desk_params(T=16, m=2)
    inst = build_instance(4, 2, [])
    jobs = inst.all_jobs
    for g in ((), ("L", "R"), ("R",) * 4):
        assert push_down(inst, 1, jobs, g, params) == (jobs, 0, 0)


def test_push_down_chain_on_middle_interval():
    params = desk_params(T=16, m=2)
    inst = build_instance(4, 2, [(i, i + 1) for i in range(3)])
    mid = 2
    assert tree_for(params).interval[mid] == Interval(0, 8)
    assert tree_for(params).kinds[mid] == MID
    stay, left, right = push_down(inst, mid, inst.all_jobs, ("L",) * 4, params)
    assert (stay, left, right) == (0, inst.all_jobs, 0)
    stay, left, right = push_down(inst, mid, inst.all_jobs, ("R",) * 4, params)
    assert (stay, left, right) == (0, 0, inst.all_jobs)
    stay, left, right = push_down(inst, mid, inst.all_jobs, ("L", "R", "L", "R"), params)
    assert stay == 0 and left | right == inst.all_jobs


def test_push_down_guess_exhaustion():
    params = desk_params(T=16, m=2)
    inst = build_instance(4, 2, [(i, i + 1) for i in range(3)])
    with pytest.raises(GuessExhausted, match=r"at \(0,8\]"):
        push_down(inst, 2, inst.all_jobs, (), params)
    with pytest.raises(GuessExhausted):
        push_down(inst, 2, inst.all_jobs, ("L",), params)


def test_push_down_partition_and_order_properties():
    for seed in range(40):
        rng = random.Random(seed)
        params = desk_params(T=16, m=2)
        inst = random_instance(9, 2, 0.4, seed)
        iv = 1 if seed % 2 else 2  # (0,16] or (0,8]
        jobs = mask_from(j for j in range(9) if rng.random() < 0.8)
        g = tuple(rng.choice("LR") for _ in range(2 * job_count(jobs) + 1))
        stay, left, right = push_down(inst, iv, jobs, g, params)
        assert stay | left | right == jobs
        assert stay & left == stay & right == left & right == 0
        # the sequence left, stay, right respects precedence
        assert inst.no_prec_between(stay, left)
        assert inst.no_prec_between(right, left)
        assert inst.no_prec_between(right, stay)


def test_push_down_replays_construction(subsets=200):
    done = 0
    seed = 0
    while done < subsets:
        seed += 1
        try:
            inst, sched, params, sys, covered, guesses = _random_system(
                seed, m=2 + seed % 2, n=6 + seed % 4
            )
        except AssertionError:
            continue
        for i, trace in guesses.items():
            for pad in (("L",) * 6, ("R",) * 6):
                stay, left, right = push_down(inst, i, covered[i], trace + pad, params)
                assert stay == sys.assign.get(i, 0)
                assert left == covered.get(2 * i, 0)
                assert right == covered.get(2 * i + 1, 0)
                done += 1
