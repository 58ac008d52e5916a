"""Acceptance suite: one test per criterion, one pass/fail line each.

All checks are exact (no tolerances); sweeps are seeded and sized to run
at desk scale.  Criterion sweeps share the 200 reference pairs built by
the module-level fixture.
"""

import random
from fractions import Fraction

import pytest

from psched.baselines import (
    CapacityProfile,
    capacity_list_schedule,
    exact_opt,
    graham_list,
)
from psched.cli import run_command
from psched.convert import (
    canonical_violations,
    canonicalize,
    valid_to_virtually_valid,
    virtually_valid_to_valid,
)
from psched.core import (
    Interval,
    Schedule,
    build_instance,
    chain_depths,
    count_inversions,
    iter_jobs,
    job_count,
    longest_chain,
    mask_from,
    verify_valid,
)
from psched.dyadic import (
    TOP,
    check_valid_for_system,
    check_virtually_valid,
    compute_params,
    push_down,
    system_from_schedule,
    tree_for,
    window_step,
    windows,
)
from psched.solver import Budget, main_solve, solve_hinted
from psched.transform import insert_discarded

from conftest import max_scheduled_oracle, random_edges, random_instance
from system_reference import check_system, discarded, jobs_at
from posets import all_posets, closure_edges
from test_dyadic import desk_params
from test_solver import micro_params, padded_reference, single_bottom_params

POSET_COUNTS = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318, 7: 2045}


def _report(num: int, desc: str):
    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if exc_type is None else "FAIL"
            print(f"\n[{status}] criterion {num}: {desc}")
            return False

    return _Ctx()


@pytest.fixture(scope="module")
def reference_pairs():
    """200 (instance, params, zero-discard schedule) triples, mixed shapes."""
    pairs = []
    seed = 0
    while len(pairs) < 90:  # horizon 16, two non-bottom levels
        seed += 1
        m = 2 + seed % 2
        inst = random_instance(7 + seed % 4, m, 0.2 + 0.06 * (seed % 5), seed)
        opt, sched = exact_opt(inst)
        if opt > 16:
            continue
        pairs.append((inst, desk_params(T=16, m=m), Schedule(T=16, assign=sched.assign)))
    while len(pairs) < 180:  # horizon 8, single split level
        seed += 1
        m = 2 + seed % 2
        inst = random_instance(5 + seed % 4, m, 0.3 + 0.08 * (seed % 4), seed)
        opt, sched = exact_opt(inst)
        if opt > 8:
            continue
        pairs.append((inst, desk_params(T=8, m=m), Schedule(T=8, assign=sched.assign)))
    probe = 0
    while len(pairs) < 198:  # padded so the optimum fills the horizon
        probe += 1
        got = padded_reference(probe, m=2, n=11, density=0.5)
        if got is None:
            continue
        inst, ref = got
        pairs.append((inst, desk_params(T=16, m=2), ref))
    for seed in (9, 10):  # default parameters with a genuine top layer
        params = compute_params(2**14, 1, Fraction(1, 2))
        assert not params.overridden and params.L - params.hp - 1 >= 0
        inst = random_instance(60, 1, 0.1, seed)
        sched = Schedule(
            T=params.T, assign=tuple(inst.topo.index(j) + 1 for j in range(inst.n))
        )
        pairs.append((inst, params, sched))
    assert len(pairs) == 200
    return pairs


@pytest.fixture(scope="module")
def constructed(reference_pairs):
    out = []
    for inst, params, sched in reference_pairs:
        sys, covered, guesses = system_from_schedule(inst, sched, params)
        out.append((inst, params, sched, sys, covered, guesses))
    return out


def test_criterion_1_graham_ratio():
    with _report(1, "Graham within (2 - 1/m) of optimum and within chain + ceil(n/m)"):
        for n in range(1, 8):
            posets = all_posets(n)
            assert len(posets) == POSET_COUNTS[n]
            for succ in posets:
                for m in (2, 3):
                    inst = build_instance(n, m, closure_edges(succ))
                    opt, _ = exact_opt(inst)
                    sched = graham_list(inst)
                    report = verify_valid(inst, sched)
                    assert report.ok and sched.discard_count == 0
                    assert m * sched.makespan <= (2 * m - 1) * opt
                    chain = longest_chain(inst, inst.all_jobs)
                    assert sched.makespan <= chain + -(-n // m)
        rng = random.Random(2024)
        for case in range(500):
            n = rng.randrange(4, 13)
            m = rng.choice((2, 3))
            inst = build_instance(n, m, random_edges(n, rng.uniform(0.1, 0.7), rng))
            opt, _ = exact_opt(inst)
            got = graham_list(inst).makespan
            assert m * got <= (2 * m - 1) * opt
            assert got <= longest_chain(inst, inst.all_jobs) + -(-n // m)


def test_criterion_2_capacity_list_scheduling():
    with _report(2, "capacity-constrained list scheduling: discard, capacity, precedence"):
        rng = random.Random(7)
        done = 0
        while done < 1000:
            m = rng.randrange(1, 4)
            n = rng.randrange(1, 11)
            inst = build_instance(n, m, random_edges(n, rng.uniform(0.1, 0.7), rng))
            jobs = mask_from(j for j in range(n) if rng.random() < 0.8)
            begin = rng.randrange(0, 4)
            iv = Interval(begin, begin + rng.randrange(1, 9))
            cap = tuple(rng.randrange(0, m + 1) for _ in range(iv.length))
            profile = CapacityProfile(iv, cap)
            if profile.total() < job_count(jobs):
                continue
            sched = capacity_list_schedule(inst, jobs, profile)
            for idx, t in enumerate(iv.slots()):
                assert job_count(jobs_at(sched, t)) <= cap[idx]
            discards = sum(1 for j in iter_jobs(jobs) if sched.assign[j] is None)
            assert discards <= m * longest_chain(inst, jobs)
            for a in iter_jobs(jobs):
                ta = sched.assign[a]
                if ta is None:
                    continue
                assert ta in iv
                for b in iter_jobs(inst.succ[a] & jobs):
                    tb = sched.assign[b]
                    assert tb is None or ta < tb
            done += 1


def test_criterion_3_order_properties():
    with _report(3, "chain-sum inequality and strict inversion decrease, 1000 cases each"):
        rng = random.Random(99)
        done = 0
        while done < 1000:
            n = rng.randrange(2, 10)
            inst = build_instance(n, 2, random_edges(n, rng.uniform(0.2, 0.7), rng))
            jobs = mask_from(j for j in range(n) if rng.random() < 0.9)
            if not jobs:
                continue
            labels = {j: rng.randrange(1, 4) for j in iter_jobs(jobs)}
            depths = chain_depths(inst, jobs)
            ordered = sorted(iter_jobs(jobs), key=lambda j: (labels[j], depths[j]))
            k = rng.randrange(1, 5)
            cuts = sorted(rng.randrange(len(ordered) + 1) for _ in range(k - 1))
            groups, prev = [], 0
            for c in [*cuts, len(ordered)]:
                groups.append(mask_from(j for j in ordered[prev:c] if rng.random() < 0.9))
                prev = c
            total = sum(longest_chain(inst, g) for g in groups)
            used = len({labels[j] for j in iter_jobs(jobs)})
            assert total <= used * longest_chain(inst, jobs) + len(groups) - 1
            done += 1
        done = 0
        while done < 1000:
            n = rng.randrange(2, 10)
            inst = build_instance(n, 2, random_edges(n, rng.uniform(0.2, 0.7), rng))
            values = {j: rng.randrange(5) for j in range(n)}
            items = list(range(n))
            pairs = [
                (a, b)
                for a in items
                for b in items
                if a < b
                and (
                    (inst.precedes(a, b) and values[b] < values[a])
                    or (inst.precedes(b, a) and values[a] < values[b])
                )
            ]
            if not pairs:
                continue
            before = count_inversions(items, inst.precedes, values)
            a, b = pairs[rng.randrange(len(pairs))]
            swapped = dict(values)
            swapped[a], swapped[b] = values[b], values[a]
            assert count_inversions(items, inst.precedes, swapped) < before
            done += 1


def test_criterion_4_construction_and_replay(constructed):
    with _report(4, "system construction checks out and guess replay reproduces it"):
        for inst, params, sched, sys, covered, guesses in constructed:
            tree = tree_for(params)
            assert check_system(inst, sys, params, require_full=True).ok
            assert check_valid_for_system(inst, sys, params, sched).ok
            defaults = not params.overridden
            for i, trace in guesses.items():
                if tree.kinds[i] == TOP:
                    if defaults:
                        assert len(trace) <= params.p
                else:
                    assert len(trace) <= params.m * tree.interval[i].length
                for pad in (("L",) * 3, ("R",) * 3):
                    stay, left, right = push_down(inst, i, covered[i], trace + pad, params)
                    assert stay == sys.assign.get(i, 0)
                    assert left == covered.get(2 * i, 0)
                    assert right == covered.get(2 * i + 1, 0)


def test_criterion_5_conversion_chain(constructed):
    with _report(5, "conversion chain: window sweep, canonical swaps, re-validation"):
        for inst, params, sched, sys, covered, guesses in constructed:
            tree = tree_for(params)
            vv = valid_to_virtually_valid(inst, sys, sched, params)
            assert check_virtually_valid(inst, sys, params, vv).ok
            for i, jobs in sys.assign.items():
                if not jobs or tree.kinds[i] != TOP:
                    continue
                lost = job_count(jobs & discarded(vv)) - job_count(jobs & discarded(sched))
                assert lost <= 2 * window_step(params, tree.interval[i].length) * params.m
            canon = canonicalize(inst, sys, vv, params)  # per-swap asserts inside
            assert canonical_violations(inst, sys, canon, params) == []
            out = virtually_valid_to_valid(inst, sys, canon, params)
            assert verify_valid(inst, out).ok
            assert check_valid_for_system(inst, sys, params, out).ok
            win = windows(inst, sys, params)
            budget = 0
            for iv in tree.interval[1 << tree.L :]:  # the bottom level
                group = mask_from(
                    j for j in win
                    if canon.assign[j] is not None and canon.assign[j] in iv
                )
                budget += params.m * longest_chain(inst, group)
            assert out.discard_count - canon.discard_count <= budget
            assert out.discard_count <= vv.discard_count + budget


def _hinted_cases():
    cases = []
    for seed in range(40):  # single-bottom trees: solver is exact there
        inst = random_instance(5 + seed % 4, 2 + seed % 2, 0.35, 1000 + seed)
        opt, sched = exact_opt(inst)
        if opt <= 8:
            cases.append((inst, single_bottom_params(m=inst.m), Schedule(T=8, assign=sched.assign)))
    for seed in range(40):  # shallow split trees
        inst = random_instance(5 + seed % 3, 2, 0.4, 2000 + seed)
        opt, sched = exact_opt(inst)
        if opt <= 8:
            cases.append((inst, micro_params(), Schedule(T=8, assign=sched.assign)))
    probe = 0
    while len(cases) < 100 and probe < 400:  # deep trees with padded horizons
        probe += 1
        got = padded_reference(probe, m=2, n=11, density=0.5)
        if got is not None:
            cases.append((got[0], desk_params(T=16, m=2), got[1]))
    return cases[:100]


def test_criterion_6_solver_realizes_reference():
    with _report(6, "hinted solver matches the reference bound; enumeration beats it"):
        cases = _hinted_cases()
        assert len(cases) == 100
        for inst, params, ref in cases:
            sys_ref, _, _ = system_from_schedule(inst, ref, params)
            virt = valid_to_virtually_valid(inst, sys_ref, ref, params)
            out_sys, out = solve_hinted(inst, ref, params)
            assert out.scheduled_count >= virt.scheduled_count
            assert check_virtually_valid(inst, out_sys, params, out).ok
            assert check_system(inst, out_sys, params, require_full=True).ok
        # full enumeration on micro trees at p <= 3, budget capped
        for seed in range(6):
            inst = random_instance(6, 2, 0.35, seed)
            params = micro_params(p=3)
            opt, opt_sched = exact_opt(inst)
            ref = Schedule(T=8, assign=opt_sched.assign)
            _, _, guesses = system_from_schedule(inst, ref, params)
            tree = tree_for(params)
            in_space = all(
                len(g) <= (params.p if tree.kinds[i] == TOP else params.m * tree.interval[i].length)
                for i, g in guesses.items()
            )
            _, hinted = solve_hinted(inst, ref, params)
            sys_full, full = main_solve(inst, params, budget=Budget(5_000_000))
            assert check_virtually_valid(inst, sys_full, params, full).ok
            if in_space:
                assert full.scheduled_count >= hinted.scheduled_count


def test_criterion_7_pipeline_end_to_end():
    with _report(7, "pipeline emits complete valid schedules within the insertion bound"):
        for seed in range(6):
            inst = random_instance(6, 2, 0.35, seed)
            for params in (micro_params(p=3), single_bottom_params()):
                sys_out, vv = main_solve(inst, params, budget=Budget(5_000_000))
                valid = virtually_valid_to_valid(inst, sys_out, vv, params)
                final = insert_discarded(inst, valid)
                assert final.discard_count == 0
                assert verify_valid(inst, final).ok
                assert final.makespan <= params.T + valid.discard_count
                if params.h >= params.log_T:  # single bottom interval: exact
                    assert vv.scheduled_count == max_scheduled_oracle(inst, params.T)


def test_criterion_8_determinism(tmp_path):
    with _report(8, "identical inputs and seeds produce byte-identical outputs"):
        outputs = []
        for run in range(2):
            base = tmp_path / f"run{run}"
            base.mkdir()
            inst = base / "i.psched"
            assert run_command([
                "gen", "--family", "random-dag", "--n", "8", "--m", "2",
                "--density", "0.35", "--seed", "13", "--out", str(inst),
            ]) == 0
            files = {"gen": inst}
            for name, extra in (
                ("graham", []),
                ("oracle", []),
                ("solve", ["--horizon", "8", "--param-override", "h=1",
                           "--param-override", "hp=1", "--param-override", "p=2"]),
                ("pipeline", ["--hinted"]),
            ):
                path = base / f"{name}.out"
                assert run_command([name, str(inst), *extra, "--out", str(path)]) == 0
                files[name] = path
            bench = base / "bench.csv"
            assert run_command([
                "bench", "--family", "layered", "--count", "3", "--n", "7",
                "--m", "2", "--seed", "4", "--format", "csv", "--out", str(bench),
            ]) == 0
            files["bench"] = bench
            outputs.append(files)
        for key in outputs[0]:
            a, b = outputs[0][key].read_bytes(), outputs[1][key].read_bytes()
            if key == "bench":  # wall-time column is the one sanctioned difference
                strip = lambda raw: [
                    line.rsplit(b",", 1)[0] for line in raw.splitlines()
                ]
                assert strip(a) == strip(b)
            else:
                assert a == b
