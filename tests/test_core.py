"""Instance construction, chain primitives, validity checks, inversions."""

import random

import pytest

from psched.baselines import graham_list
from psched.core import (
    DISC,
    Schedule,
    ValidityReport,
    Violation,
    build_instance,
    chain_depths,
    count_inversions,
    iter_jobs,
    longest_chain,
    mask_from,
    verify_valid,
)
from psched.errors import CycleError

from conftest import (
    brute_depth,
    brute_longest_chain,
    dfs_reachable,
    random_edges,
    random_instance,
)


def test_chain_closure():
    inst = build_instance(3, 1, [(0, 1), (1, 2)])
    assert set(inst.edges()) == {(0, 1), (1, 2), (0, 2)}


def test_two_cycle_rejected():
    with pytest.raises(CycleError):
        build_instance(2, 1, [(0, 1), (1, 0)])


def test_self_loop_rejected():
    with pytest.raises(CycleError):
        build_instance(2, 1, [(1, 1)])


def test_out_of_range_edge():
    with pytest.raises(IndexError):
        build_instance(3, 1, [(0, 3)])


def test_closure_matches_dfs_reachability():
    rng = random.Random(7)
    edges = random_edges(6, 0.4, rng)
    inst = build_instance(6, 2, edges)
    assert set(inst.edges()) == dfs_reachable(6, edges)


def test_closure_idempotent():
    for seed in range(20):
        inst = random_instance(8, 2, 0.3, seed)
        again = build_instance(inst.n, inst.m, list(inst.edges()))
        assert again.succ == inst.succ and again.pred == inst.pred


def test_longest_chain_basics():
    inst = build_instance(3, 1, [(0, 1), (1, 2)])
    assert longest_chain(inst, 0) == 0
    assert longest_chain(inst, inst.all_jobs) == 3
    assert longest_chain(inst, mask_from([0, 2])) == 2


def test_longest_chain_matches_brute_force():
    for seed in range(25):
        inst = random_instance(8, 2, 0.35, seed)
        rng = random.Random(seed + 100)
        jobs = mask_from(j for j in range(8) if rng.random() < 0.7)
        assert longest_chain(inst, jobs) == brute_longest_chain(inst, jobs)


def test_chain_subadditive():
    rng = random.Random(3)
    for seed in range(30):
        inst = random_instance(9, 2, 0.3, seed)
        parts = [0, 0, 0]
        for j in range(9):
            parts[rng.randrange(3)] |= 1 << j
        whole = longest_chain(inst, inst.all_jobs)
        assert whole <= sum(longest_chain(inst, p) for p in parts)


def test_depth_basics():
    inst = build_instance(4, 1, [(0, 1), (1, 2)])
    depths = chain_depths(inst, inst.all_jobs)
    assert depths[3] == 1
    assert depths[2] == 3
    assert chain_depths(inst, mask_from([0, 1])) == {0: 1, 1: 2}  # only members


def test_depth_matches_brute_force():
    for seed in range(20):
        inst = random_instance(8, 2, 0.35, seed)
        jobs = mask_from(range(8))
        depths = chain_depths(inst, jobs)
        for j in range(8):
            assert depths[j] == brute_depth(inst, jobs, j)


def test_depth_strictly_increases_along_chains():
    for seed in range(20):
        inst = random_instance(9, 2, 0.4, seed)
        rng = random.Random(seed)
        jobs = mask_from(j for j in range(9) if rng.random() < 0.8)
        depths = chain_depths(inst, jobs)
        for a in iter_jobs(jobs):
            for b in iter_jobs(inst.succ[a] & jobs):
                assert depths[a] < depths[b]


def test_preds_and_succs():
    inst = build_instance(3, 1, [(0, 1), (1, 2)])
    assert (inst.pred[1], inst.succ[1]) == (mask_from([0]), mask_from([2]))
    assert (inst.pred[1] & mask_from([1, 2]), inst.succ[1] & mask_from([1, 2])) == (
        0, mask_from([2]))
    lonely = build_instance(2, 1, [])
    assert (lonely.pred[0], lonely.succ[0]) == (0, 0)


def test_preds_and_succs_matches_closure_rows():
    for seed in range(15):
        rng = random.Random(seed)
        edges = random_edges(8, 0.3, rng)
        inst = build_instance(8, 2, edges)
        reach = dfs_reachable(8, edges)
        jobs = mask_from(j for j in range(8) if rng.random() < 0.7)
        for j in iter_jobs(jobs):
            preds, succs = inst.pred[j] & jobs, inst.succ[j] & jobs
            assert preds == mask_from(i for i in iter_jobs(jobs) if (i, j) in reach)
            assert succs == mask_from(k for k in iter_jobs(jobs) if (j, k) in reach)
            assert preds & succs == 0 and not (preds | succs) >> j & 1


def test_verify_all_discarded_is_valid():
    inst = random_instance(5, 2, 0.5, 1)
    report = verify_valid(inst, Schedule(T=4, assign=(DISC,) * 5))
    assert report.ok and report.discards == 5


def test_verify_capacity_violation():
    inst = build_instance(2, 1, [])
    report = verify_valid(inst, Schedule(T=2, assign=(1, 1)))
    assert not report.ok
    assert report.kinds() == {"capacity"}


def test_verify_precedence_violation():
    inst = build_instance(2, 2, [(0, 1)])
    report = verify_valid(inst, Schedule(T=2, assign=(2, 1)))
    assert not report.ok and report.kinds() == {"precedence"}
    same_slot = verify_valid(inst, Schedule(T=2, assign=(1, 1)))
    assert not same_slot.ok


def _pairwise_verify(inst, sched):
    """The earlier ``verify_valid``: every closure pair checked one by one."""
    out = []
    if sched.n != inst.n:
        out.append(Violation("domain", f"schedule covers {sched.n} jobs, instance has {inst.n}"))
    counts = {}
    for t in sched.assign:
        if t is not None:
            counts[t] = counts.get(t, 0) + 1
    for t in sorted(counts):
        if counts[t] > inst.m:
            out.append(Violation("capacity", f"{counts[t]} jobs at slot {t} > m={inst.m}"))
    for a in range(min(sched.n, inst.n)):
        ta = sched.assign[a]
        if ta is None:
            continue
        for b in iter_jobs(inst.succ[a]):
            tb = sched.assign[b]
            if tb is not None and ta >= tb:
                out.append(Violation("precedence", f"job {a} at {ta} not before job {b} at {tb}"))
    return ValidityReport(violations=tuple(out), discards=sched.discard_count)


def test_verify_matches_the_pairwise_check():
    # valid schedules, and random ones with precedence and capacity
    # breaks, discards and extra jobs: the same violations in the same
    # order, and the same discard count
    rng = random.Random(11)
    invalid = 0
    for seed in range(200):
        n, m = rng.randrange(1, 14), rng.randrange(1, 4)
        inst = random_instance(n, m, rng.choice((0.1, 0.3, 0.6)), seed)
        T = rng.randrange(1, n + 2)
        assign = [rng.choice([DISC, *range(1, T + 1)]) for _ in range(n + seed % 3)]
        for sched in (Schedule(T=T, assign=tuple(assign)), graham_list(inst)):
            report = verify_valid(inst, sched)
            assert report == _pairwise_verify(inst, sched), seed
            invalid += not report.ok
    assert invalid > 100


def test_verify_reports_a_short_schedule_as_domain():
    inst = build_instance(3, 2, [(0, 2), (1, 2), (0, 1)])
    report = verify_valid(inst, Schedule(T=2, assign=(2, 1)))
    assert [str(v) for v in report.violations] == [
        "domain: schedule covers 2 jobs, instance has 3",
        "precedence: job 0 at 2 not before job 1 at 1",
    ]


def test_inversions_constant_values():
    inst = build_instance(4, 1, [(0, 1), (2, 3)])
    items = list(range(4))
    assert count_inversions(items, inst.precedes, {j: 5 for j in items}) == 0


def test_inversions_single_pair():
    inst = build_instance(2, 1, [(0, 1)])
    assert count_inversions([0, 1], inst.precedes, {0: 2, 1: 1}) == 1


def test_inversions_match_definition_scan():
    for seed in range(30):
        inst = random_instance(7, 2, 0.4, seed)
        rng = random.Random(seed + 7)
        values = {j: rng.randrange(5) for j in range(7)}
        expected = 0
        for a in range(7):
            for b in range(a + 1, 7):
                if inst.precedes(a, b) and values[b] < values[a]:
                    expected += 1
                if inst.precedes(b, a) and values[a] < values[b]:
                    expected += 1
        assert count_inversions(list(range(7)), inst.precedes, values) == expected


def test_swapping_an_inversion_strictly_decreases_count():
    # 1000 random labelings across seeds
    checked = 0
    seed = 0
    while checked < 1000:
        seed += 1
        inst = random_instance(8, 2, 0.35, seed)
        rng = random.Random(seed)
        values = {j: rng.randrange(6) for j in range(8)}
        items = list(range(8))
        inversions = [
            (a, b)
            for a in items
            for b in items
            if a < b
            and (
                (inst.precedes(a, b) and values[b] < values[a])
                or (inst.precedes(b, a) and values[a] < values[b])
            )
        ]
        before = count_inversions(items, inst.precedes, values)
        for a, b in inversions:
            swapped = dict(values)
            swapped[a], swapped[b] = values[b], values[a]
            after = count_inversions(items, inst.precedes, swapped)
            assert after < before
            checked += 1


def test_length_add_up_inequality():
    # consistent consecutive groups under the (label, depth) order
    checked = 0
    seed = 0
    while checked < 1000:
        seed += 1
        rng = random.Random(seed)
        inst = random_instance(9, 2, 0.35, seed)
        jobs = mask_from(j for j in range(9) if rng.random() < 0.85)
        if not jobs:
            continue
        z = rng.randrange(1, 4)
        labels = {j: rng.randrange(z) for j in iter_jobs(jobs)}
        depths = chain_depths(inst, jobs)
        ordered = sorted(iter_jobs(jobs), key=lambda j: (labels[j], depths[j]))
        k = rng.randrange(1, 5)
        cuts = sorted(rng.randrange(len(ordered) + 1) for _ in range(k - 1))
        groups = []
        prev = 0
        for c in [*cuts, len(ordered)]:
            group = [j for j in ordered[prev:c] if rng.random() < 0.9]
            groups.append(mask_from(group))
            prev = c
        total = sum(longest_chain(inst, g) for g in groups)
        used = len({labels[j] for j in iter_jobs(jobs)})
        assert total <= used * longest_chain(inst, jobs) + len(groups) - 1
        checked += 1


def test_no_prec_between():
    inst = build_instance(4, 1, [(0, 2), (1, 3)])
    assert inst.no_prec_between(mask_from([2, 3]), mask_from([0, 1]))
    assert not inst.no_prec_between(mask_from([0]), mask_from([2]))
    assert inst.no_prec_between(0, inst.all_jobs)
