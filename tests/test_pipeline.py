"""The library pipeline: ``psched.pipeline.solve`` and ``pipeline`` give
what the ``psched solve`` and ``psched pipeline`` commands write."""

from fractions import Fraction

import pytest

from psched import io
from psched.cli import run_command
from psched.core import DISC, Interval, verify_valid
from psched.errors import NoSolution
from psched.generators import gen_instance
from psched.pipeline import pipeline, solve
from psched.solver import Budget, bottom_solve
from psched.transform import pad_to_power_of_two

DEEP = {"h": 1, "hp": 1, "p": 2}


def _flags(overrides, horizon, hinted):
    out = [f"--param-override={k}={v}" for k, v in overrides.items()]
    if horizon is not None:
        out += ["--horizon", str(horizon)]
    return out + ["--hinted"] * hinted


# (family, n, m, seed, overrides, horizon, hinted)
CASES = [
    ("random-dag", 12, 2, 162, {}, None, False),
    ("layered", 10, 3, 1, {}, None, False),
    ("random-dag", 9, 3, 5, {}, None, True),
    ("forest", 14, 2, 3, {}, None, True),
    ("random-dag", 12, 2, 4, {}, 9, False),
    ("layered", 9, 2, 2, {}, 12, True),
    ("random-dag", 6, 2, 1, DEEP, 16, False),
    ("random-dag", 5, 2, 0, DEEP, None, False),
    ("forest", 8, 2, 0, DEEP, None, True),
    ("layered", 8, 3, 1, DEEP, 16, True),
]


@pytest.mark.parametrize("family, n, m, seed, overrides, horizon, hinted", CASES, ids=[
    f"{c[0]}-n{c[1]}-m{c[2]}-s{c[3]}{'-deep' if c[4] else ''}"
    f"{f'-T{c[5]}' if c[5] else ''}{'-hinted' if c[6] else ''}" for c in CASES
])
def test_library_matches_the_commands(tmp_path, capsys, family, n, m, seed, overrides,
                                      horizon, hinted):
    inst, edges = gen_instance(family, n, m, 0.3, seed)
    inst_path = tmp_path / "i.psched"
    inst_path.write_text(io.format_instance(inst, edges), encoding="utf-8")
    flags = _flags(overrides, horizon, hinted)
    for command in ("solve", "pipeline"):
        assert run_command([command, str(inst_path), *flags,
                            "--out", str(tmp_path / f"{command}.sched")]) == 0
    err = capsys.readouterr().err.splitlines()

    # the default eps and budget are the commands' defaults
    got = solve(inst, overrides=overrides, horizon=horizon, hinted=hinted)
    assert io.format_schedule(got.virtual) == (tmp_path / "solve.sched").read_text()
    assert err[0] == (f"horizon {got.horizon} padded {got.padded_T}: "
                      f"{got.virtual.scheduled_count} scheduled, "
                      f"{got.virtual.discard_count} discarded, {got.nodes} nodes")
    again, final = pipeline(inst, Fraction(1, 2), overrides, horizon, hinted)
    assert again == got
    assert io.format_schedule(final) == (tmp_path / "pipeline.sched").read_text()
    assert err[1].startswith(f"horizon {got.horizon} padded {got.padded_T}: "
                             f"solver discarded {got.discards}, final makespan {final.makespan}")
    assert final.discard_count == 0


@pytest.mark.parametrize("kwargs, error, message", [
    ({"horizon": 0}, ValueError, "need --horizon >= 1, got 0"),
    ({"budget": -1}, ValueError, "need --budget >= 0, got -1"),
    ({"horizon": 3, "hinted": True}, NoSolution, "no zero-discard reference at horizon 3"),
])
def test_library_input_errors(kwargs, error, message):
    inst, _ = gen_instance("random-dag", 12, 2, 0.3, 4)
    with pytest.raises(error, match=message):
        pipeline(inst, **kwargs)


@pytest.mark.parametrize("overrides, horizon, padded", [
    ({}, 9, False),  # collapsed: the oracle's schedule on the instance itself
    (DEEP, 12, True),  # deep: the reference is replayed on the padded instance
], ids=["collapsed", "deep"])
def test_an_attempt_with_an_oracle_pads_only_a_deep_tree(monkeypatch, overrides, horizon,
                                                         padded):
    from psched import pipeline as pipeline_module

    calls = []
    pad = pipeline_module.pad_to_power_of_two

    def spy(inst, T):
        calls.append(T)
        return pad(inst, T)

    monkeypatch.setattr(pipeline_module, "pad_to_power_of_two", spy)
    inst, _ = gen_instance("layered", 9, 2, 0.3, 2)
    got = solve(inst, overrides=overrides, horizon=horizon, hinted=True)
    assert got.padded_T == 16
    assert calls == ([horizon] if padded else [])


def test_searched_deep_run_returns_the_attempt_it_settles_on(monkeypatch):
    # random-dag n=9 m=2 seed 5 with no horizon: the attempt at the level
    # bound 5 discards, so the search goes on to 9 (fits), 7 (discards) and
    # 8 (fits).  The run is the outcome of the attempt at 8, with the nodes
    # of all four attempts, which share one budget
    from psched import pipeline as pipeline_module

    attempts = []
    solve_at = pipeline_module.solve_at_horizon

    def spy(inst, horizon, *args):
        got = solve_at(inst, horizon, *args)
        attempts.append((horizon, got))
        return got

    monkeypatch.setattr(pipeline_module, "solve_at_horizon", spy)
    inst, _ = gen_instance("random-dag", 9, 2, 0.3, 5)
    got = solve(inst, overrides=DEEP)
    assert [(T, a.discards) for T, a in attempts] == [(5, 9), (9, 0), (7, 2), (8, 0)]
    assert got == attempts[3][1]
    alone = [solve_at(inst, T, Fraction(1, 2), DEEP, Budget(), None).nodes for T, _ in attempts]
    assert got.nodes == sum(alone) > alone[3]


def _unused(*args, **kwargs):
    raise AssertionError("called")


@pytest.mark.parametrize("family, n, m, seed, horizon", [
    # more jobs than the m * horizon slots
    ("random-dag", 12, 2, 4, 5),
    ("layered", 10, 3, 1, 3),
    ("forest", 9, 2, 3, 4),
    ("random-dag", 8, 3, 2, 2),
    # jobs that fit in the slots, below, at and above the optimum
    ("random-dag", 9, 2, 4, 5),
    ("layered", 10, 3, 1, 4),
    ("forest", 9, 2, 3, 6),
    ("random-dag", 8, 3, 2, 7),
    ("random-dag", 6, 4, 1, 300),
])
def test_a_collapsed_attempt_searches_the_originals_alone(
        monkeypatch, family, n, m, seed, horizon):
    # a collapsed tree is one bottom interval, so the attempt searches the
    # original jobs alone on (0, horizon] and pads nothing: no sink takes a
    # slot, and it keeps as many jobs as fit there.  The padded route,
    # one bottom search of the originals and their sinks on the padded
    # horizon read on the first n jobs, finds the same schedule in at least
    # as many nodes
    from psched import pipeline as pipeline_module

    from conftest import max_scheduled_oracle

    inst, _ = gen_instance(family, n, m, 0.3, seed)
    for name in ("main_solve", "pad_to_power_of_two"):
        monkeypatch.setattr(pipeline_module, name, _unused)
    got = solve(inst, horizon=horizon)
    monkeypatch.undo()
    T2 = 1 << (horizon - 1).bit_length()
    assert got.padded_T == T2 and got.virtual == got.valid
    assert got.virtual.makespan <= horizon
    assert verify_valid(inst, got.valid).ok
    assert got.virtual.scheduled_count == max_scheduled_oracle(inst, horizon) > 0
    budget = Budget()
    assign = bottom_solve(inst, Interval(0, horizon), inst.all_jobs, {}, budget)
    assert got.valid.assign == tuple(assign.get(j, DISC) for j in range(n))
    assert got.nodes == budget.nodes and got.discards == got.valid.discard_count
    padded = pad_to_power_of_two(inst, horizon)[0]
    padded_budget = Budget()
    padded_assign = bottom_solve(padded, Interval(0, T2), padded.all_jobs, {}, padded_budget)
    assert got.valid.assign == tuple(padded_assign.get(j, DISC) for j in range(n))
    assert got.nodes <= padded_budget.nodes
    final = pipeline(inst, horizon=horizon)[1]
    assert final.discard_count == 0 and verify_valid(inst, final).ok
