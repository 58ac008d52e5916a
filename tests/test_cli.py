"""File formats, generators, and the command-line surface."""

import argparse
import gc
import os
import random
import re
import stat
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from psched import baselines, cli, io, pipeline, solver, transform
from psched.cli import BENCH_COLUMNS, COMMANDS, run_command
from psched.core import DISC, Schedule, verify_valid
from psched.errors import BadParams, InvalidInput
from psched.generators import FAMILIES, gen_instance
from psched.solver import Budget

from conftest import assert_no_violations, random_instance
from horizon_reference import reference_solve_at_horizon


def test_instance_round_trip():
    for seed in range(10):
        inst = random_instance(8, 2, 0.35, seed)
        text = io.format_instance(inst)
        again = io.parse_instance(text)
        assert again.n == inst.n and again.m == inst.m
        assert again.succ == inst.succ
        assert io.format_instance(again) == text


def test_instance_comments_and_blanks():
    inst = io.parse_instance("# header\npsched 1 3 2\n\n0 1  # edge\n1 2\n")
    assert set(inst.edges()) == {(0, 1), (1, 2), (0, 2)}


def test_instance_parse_errors():
    with pytest.raises(ValueError):
        io.parse_instance("nope 1 3 2\n")
    with pytest.raises(ValueError):
        io.parse_instance("psched 1 3 2\n0\n")
    with pytest.raises(ValueError):
        io.parse_instance("")
    with pytest.raises(ValueError, match="out of range"):
        io.parse_instance("psched 1 2 2\n0 5\n")


def test_schedule_round_trip():
    rng = random.Random(4)
    for _ in range(10):
        assign = tuple(rng.choice([DISC, 1, 2, 3]) for _ in range(6))
        sched = Schedule(T=3, assign=assign)
        text = io.format_schedule(sched)
        assert io.parse_schedule(text) == sched
        assert io.format_schedule(io.parse_schedule(text)) == text


def test_schedule_parse_errors():
    # one input per error the parser raises, each with its message
    for text, message in (
        ("# only a comment\n\n", "empty schedule file"),
        ("sched 1 2\n0 1\n", "bad schedule header: 'sched 1 2'"),
        ("psched 1 2 3\n0 1\n1 1\n", "bad schedule header: 'psched 1 2 3'"),
        ("sched 2 2 3\n0 1\n1 1\n", "bad schedule header: 'sched 2 2 3'"),
        ("sched 1 2 3\n0 1 2\n1 1\n", "bad schedule line: '0 1 2'"),
        ("sched 1 2 3\n0 1\n2 1\n", "job 2 out of range"),
        ("sched 1 2 3\n0 1\n0 2\n1 1\n", "job 0 assigned twice"),
        ("sched 1 2 3\n0 1\n", "schedule covers 1 of 2 jobs"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            io.parse_schedule(text)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_files_read_as_text_mode_read_them(tmp_path, capsys, newline):
    # the readers decode bytes; lines, comments and blanks come out as the
    # universal-newline text mode they replaced gives them
    inst_path, sched_path = tmp_path / "i.psched", tmp_path / "s.sched"
    inst_path.write_bytes("# header\npsched 1 3 2\n\n0 1  # edge\n1 2\n"
                          .replace("\n", newline).encode())
    sched_path.write_bytes("sched 1 3 4  # T\n# note\n0 1\n\n1 2\n2 disc\n"
                           .replace("\n", newline).encode())
    with open(inst_path, encoding="utf-8") as fh:
        assert io.read_instance(str(inst_path)) == io.parse_instance(fh.read())
    with open(sched_path, encoding="utf-8") as fh:
        assert io.read_schedule(str(sched_path)) == io.parse_schedule(fh.read())
    assert io.read_schedule(str(sched_path)) == Schedule(T=4, assign=(1, 2, DISC))
    assert run_command(["verify", str(inst_path), str(sched_path)]) == 0
    assert capsys.readouterr().err == ""


def test_unreadable_files_exit_1_with_their_error_line(tmp_path, capsys):
    good = tmp_path / "i.psched"
    good.write_bytes(b"psched 1 3 2\n0 1\n")
    bad = tmp_path / "bad.psched"
    bad.write_bytes(b"psched 1 3 2\r\n0 1\xff\n")
    decode = "error: 'utf-8' codec can't decode byte 0xff in position 17: invalid start byte"
    is_dir = f"error: [Errno 21] Is a directory: '{tmp_path}'"
    missing = tmp_path / "nope" / "o.sched"
    for argv, line in (
        (["pipeline", str(bad)], decode),
        (["verify", str(good), str(bad)], decode),
        (["verify", str(tmp_path), str(good)], is_dir),
        (["oracle", str(tmp_path)], is_dir),
        (["graham", str(good), "--out", str(tmp_path)], is_dir),
        (["graham", str(good), "--out", str(missing)],
         f"error: [Errno 2] No such file or directory: '{missing}'"),
    ):
        assert run_command(argv) == 1
        assert capsys.readouterr().err == line + "\n"


def test_output_over_a_mebibyte_is_written_in_full_through_short_writes(tmp_path,
                                                                        monkeypatch):
    path, write, sizes = tmp_path / "big.psched", os.write, []

    def short_write(fd, data):
        sizes.append(write(fd, data[:100_000]))
        return sizes[-1]

    with monkeypatch.context() as patch:
        patch.setattr(os, "write", short_write)
        assert run_command(["gen", "--family", "random-dag", "--n", "540", "--m", "2",
                            "--density", "1", "--out", str(path)]) == 0
    want = io.format_instance(*gen_instance("random-dag", 540, 2, 1.0, 0)).encode()
    assert len(want) > 1 << 20 and len(sizes) == -(-len(want) // 100_000)
    assert path.read_bytes() == want


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_output_file_gets_the_mode_text_mode_gives(tmp_path, umask):
    by_open, by_emit = tmp_path / "open.sched", tmp_path / "emit.sched"
    old = os.umask(umask)
    try:
        with open(by_open, "w", encoding="utf-8"):
            pass
        for n in ("30", "3"):  # created, then overwritten by a shorter file
            assert run_command(["gen", "--family", "chain", "--n", n, "--m", "1",
                                "--out", str(by_emit)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(by_emit.stat().st_mode) == stat.S_IMODE(by_open.stat().st_mode)
    assert by_emit.read_bytes() == b"psched 1 3 1\n0 1\n1 2\n"


def test_generators_deterministic_and_valid():
    for family in FAMILIES:
        a, ea = gen_instance(family, 8, 2, 0.3, 1)
        b, eb = gen_instance(family, 8, 2, 0.3, 1)
        assert ea == eb and a.succ == b.succ
    _, e1 = gen_instance("random-dag", 10, 2, 0.4, 1)
    _, e2 = gen_instance("random-dag", 10, 2, 0.4, 2)
    assert e1 != e2


def test_generator_families_shape():
    chain, edges = gen_instance("chain", 5, 2)
    assert edges == [(0, 1), (1, 2), (2, 3), (3, 4)]
    anti, edges = gen_instance("antichain", 5, 2)
    assert edges == []
    forest, edges = gen_instance("forest", 8, 2, 0.9, 3)
    kids = [v for _, v in edges]
    assert len(kids) == len(set(kids))  # at most one parent each
    with pytest.raises(BadParams):
        gen_instance("ring", 5, 2)
    with pytest.raises(BadParams):
        gen_instance("chain", 5, 2, density=1.5)


def test_cli_gen_verify_pipeline(tmp_path):
    inst_path = tmp_path / "i.psched"
    sched_path = tmp_path / "s.sched"
    assert run_command([
        "gen", "--family", "random-dag", "--n", "7", "--m", "2",
        "--density", "0.35", "--seed", "3", "--out", str(inst_path),
    ]) == 0
    assert run_command([
        "pipeline", str(inst_path), "--hinted", "--out", str(sched_path),
    ]) == 0
    inst = io.read_instance(str(inst_path))
    final = io.read_schedule(str(sched_path))
    assert final.discard_count == 0
    assert verify_valid(inst, final).ok
    assert run_command(["verify", str(inst_path), str(sched_path)]) == 0


def test_cli_verify_reports_a_short_schedule(tmp_path, capsys):
    # a schedule of fewer jobs than the instance is a domain violation,
    # and the precedence check reads only the jobs it has
    inst_path = tmp_path / "i.psched"
    short_path = tmp_path / "short.sched"
    inst_path.write_text("psched 1 3 2\n0 2\n1 2\n")
    short_path.write_text("sched 1 2 2\n0 2\n1 1\n")
    assert run_command(["verify", str(inst_path), str(short_path)]) == 1
    out = capsys.readouterr().out
    assert "domain: schedule covers 2 jobs, instance has 3" in out
    assert "precedence" not in out


def test_cli_hinted_pipeline_with_h0(tmp_path):
    # h = 0 makes the alignment unit a whole top interval; the block
    # sweep of the reference conversion used to run past the half
    inst_path, out_path = tmp_path / "i.psched", tmp_path / "o.sched"
    assert run_command(["gen", "--family", "random-dag", "--n", "12", "--m", "2",
                        "--seed", "3", "--out", str(inst_path)]) == 0
    assert run_command(["pipeline", str(inst_path), "--hinted", "--horizon", "8",
                        "--param-override", "h=0", "--param-override", "hp=0",
                        "--param-override", "p=2", "--out", str(out_path)]) == 0
    final = io.read_schedule(str(out_path))
    assert_no_violations(verify_valid(io.read_instance(str(inst_path)), final))
    assert final.discard_count == 0


def test_cli_verify_rejects_capacity_breach(tmp_path, capsys):
    inst_path = tmp_path / "i.psched"
    bad_path = tmp_path / "bad.sched"
    (inst_path).write_text("psched 1 2 1\n")
    (bad_path).write_text("sched 1 2 1\n0 1\n1 1\n")
    assert run_command(["verify", str(inst_path), str(bad_path)]) == 1
    out = capsys.readouterr().out
    assert "capacity" in out


def test_cli_solver_flags_and_exit_codes(tmp_path):
    inst_path = tmp_path / "i.psched"
    run_command(["gen", "--family", "random-dag", "--n", "6", "--m", "2",
                 "--seed", "5", "--out", str(inst_path)])
    out_path = tmp_path / "o.sched"
    code = run_command([
        "pipeline", str(inst_path), "--horizon", "8",
        "--param-override", "h=1", "--param-override", "hp=1",
        "--param-override", "p=2", "--param-override", "delta=1/4",
        "--param-override", "deltap=1/8", "--out", str(out_path),
    ])
    assert code == 0
    inst = io.read_instance(str(inst_path))
    final = io.read_schedule(str(out_path))
    assert verify_valid(inst, final).ok and final.discard_count == 0
    # the list schedule certifies the optimum here, so the run enters no
    # search state and a budget of none is enough; the deep run above
    # searches and runs out of it
    assert run_command(["pipeline", str(inst_path), "--budget", "0"]) == 0
    assert run_command(["pipeline", str(inst_path), "--horizon", "8",
                        "--param-override", "h=1", "--param-override", "hp=1",
                        "--param-override", "p=2", "--budget", "0"]) == 2
    assert run_command(["gen", "--family", "nope", "--n", "3", "--m", "1"]) == 1
    assert run_command(["solve", str(inst_path), "--param-override", "zz=1"]) == 1
    assert run_command(["verify", str(tmp_path / "missing"), str(out_path)]) == 1


def test_cli_outputs_are_deterministic(tmp_path):
    paths = []
    for run in range(2):
        base = tmp_path / f"run{run}"
        base.mkdir()
        inst = base / "i.psched"
        run_command(["gen", "--family", "layered", "--n", "8", "--m", "2",
                     "--density", "0.4", "--seed", "11", "--out", str(inst)])
        graham = base / "g.sched"
        run_command(["graham", str(inst), "--out", str(graham)])
        oracle = base / "o.sched"
        run_command(["oracle", str(inst), "--out", str(oracle)])
        pipe = base / "p.sched"
        run_command(["pipeline", str(inst), "--hinted", "--out", str(pipe)])
        solve = base / "s.sched"
        run_command(["solve", str(inst), "--horizon", "8",
                     "--param-override", "h=1", "--param-override", "hp=1",
                     "--param-override", "p=2", "--out", str(solve)])
        paths.append([inst, graham, oracle, pipe, solve])
    for a, b in zip(*paths):
        assert a.read_bytes() == b.read_bytes()


def test_cli_bench_graham_stays_within_guarantee(tmp_path):
    out = tmp_path / "bench50.csv"
    assert run_command([
        "bench", "--family", "random-dag", "--count", "50", "--n", "8",
        "--m", "2", "--density", "0.35", "--seed", "7",
        "--format", "csv", "--out", str(out),
    ]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 51
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        m, opt = int(row["m"]), int(row["opt"])
        assert m * int(row["graham"]) <= (2 * m - 1) * opt
        assert float(row["ratio"]) >= 1.0
        assert int(row["final_makespan"]) <= opt + int(row["solver_discards"])


def test_cli_bench_csv_schema(tmp_path):
    out = tmp_path / "bench.csv"
    assert run_command([
        "bench", "--family", "random-dag", "--count", "3", "--n", "7",
        "--m", "2", "--seed", "1", "--format", "csv", "--out", str(out),
    ]) == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == [
        "instance", "family", "n", "m", "opt", "graham",
        "solver_discards", "final_makespan", "ratio", "wall_time_ms",
    ]
    assert len(lines) == 4
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        assert int(row["graham"]) * row_m(row) <= (2 * row_m(row) - 1) * int(row["opt"])
        assert float(row["ratio"]) >= 1.0


def row_m(row):
    return int(row["m"])


DEEP = ["--horizon", "16", "--param-override", "h=1", "--param-override", "hp=1",
        "--param-override", "p=2"]


# (n, m, generator seed, flags, schedule file, stderr line); the horizons
# 6, 5 and 7 pad to 8.  With no flags the level bound meets a list
# schedule's makespan on all four, so that list schedule is the output.
GOLDEN = [
    (9, 3, 4, [],
     "sched 1 9 8\n0 6\n1 1\n2 2\n3 5\n4 1\n5 1\n6 3\n7 4\n8 5\n",
     "horizon 6 padded 8: solver discarded 0, final makespan 6 (valid, 0 discarded)\n"),
    (9, 3, 5, [],
     "sched 1 9 8\n0 2\n1 2\n2 1\n3 1\n4 5\n5 3\n6 4\n7 3\n8 3\n",
     "horizon 5 padded 8: solver discarded 0, final makespan 5 (valid, 0 discarded)\n"),
    (12, 2, 3, [],
     "sched 1 12 8\n0 1\n1 1\n2 5\n3 7\n4 3\n5 3\n6 4\n7 2\n8 5\n9 6\n10 4\n11 2\n",
     "horizon 7 padded 8: solver discarded 0, final makespan 7 (valid, 0 discarded)\n"),
    (12, 2, 4, [],
     "sched 1 12 8\n0 3\n1 5\n2 3\n3 7\n4 6\n5 2\n6 4\n7 4\n8 1\n9 2\n10 5\n11 1\n",
     "horizon 7 padded 8: solver discarded 0, final makespan 7 (valid, 0 discarded)\n"),
    (6, 2, 1, DEEP,
     "sched 1 6 19\n0 5\n1 2\n2 1\n3 3\n4 6\n5 4\n",
     "horizon 16 padded 16: solver discarded 3, final makespan 6 (valid, 0 discarded)\n"),
    (6, 2, 2, DEEP,
     "sched 1 6 22\n0 2\n1 6\n2 5\n3 3\n4 4\n5 1\n",
     "horizon 16 padded 16: solver discarded 6, final makespan 6 (valid, 0 discarded)\n"),
    (9, 3, 5, ["--hinted"],
     "sched 1 9 8\n0 2\n1 2\n2 1\n3 1\n4 5\n5 3\n6 4\n7 3\n8 3\n",
     "horizon 5 padded 8: solver discarded 0, final makespan 5 (valid, 0 discarded)\n"),
]


@pytest.mark.parametrize(
    "n, m, seed, flags, schedule, summary", GOLDEN,
    ids=[f"n{g[0]}-m{g[1]}-s{g[2]}{'-' + g[3][0].strip('-') if g[3] else ''}" for g in GOLDEN],
)
def test_pipeline_outputs_match_recorded_bytes(tmp_path, capsys, n, m, seed, flags,
                                               schedule, summary):
    inst_path = tmp_path / "i.psched"
    out_path = tmp_path / "o.sched"
    assert run_command(["gen", "--family", "random-dag", "--n", str(n), "--m", str(m),
                        "--seed", str(seed), "--out", str(inst_path)]) == 0
    capsys.readouterr()
    assert run_command(["pipeline", str(inst_path), *flags, "--out", str(out_path)]) == 0
    assert out_path.read_bytes() == schedule.encode()
    assert capsys.readouterr().err == summary


def test_solve_reports_nodes_of_every_horizon_attempt(tmp_path, capsys):
    # the run's one budget counts the exact oracle's search (the level
    # bound 7 fails, then the list schedule's makespan 8 fits: 10 nodes)
    # and the one attempt at 8, answered from its schedule with no search:
    # 10 nodes, which is the smallest budget the run fits in
    inst_path = tmp_path / "i.psched"
    assert run_command(["gen", "--family", "random-dag", "--n", "12", "--m", "2",
                        "--seed", "162", "--out", str(inst_path)]) == 0
    capsys.readouterr()
    assert run_command(["solve", str(inst_path), "--out", str(tmp_path / "s.sched")]) == 0
    err = capsys.readouterr().err
    assert err.startswith("horizon 8 padded 8: ")
    nodes = int(err.split(", ")[-1].removesuffix(" nodes\n"))
    assert nodes == 10
    assert run_command(["solve", str(inst_path), "--budget", str(nodes),
                        "--out", str(tmp_path / "t.sched")]) == 0
    assert run_command(["solve", str(inst_path), "--budget", str(nodes - 1),
                        "--out", str(tmp_path / "u.sched")]) == 2


@pytest.mark.parametrize("n, m, horizon", [(32, 2, 17), (48, 3, 19)])
def test_list_schedule_certifies_the_optimum_in_one_attempt(tmp_path, capsys, monkeypatch,
                                                             n, m, horizon):
    # the level bound meets the critical-path list schedule's makespan, so
    # the oracle returns that schedule and the run makes one attempt,
    # answered from it with no search; started from max(chain, ceil(n/m))
    # these searches entered 89,226 and 385,743 nodes
    inst_path = tmp_path / "i.psched"
    assert run_command(["gen", "--family", "random-dag", "--n", str(n), "--m", str(m),
                        "--seed", "5", "--out", str(inst_path)]) == 0
    capsys.readouterr()
    attempts = []
    solve_at = pipeline.solve_at_horizon

    def spy(inst, T, *args):
        attempts.append(T)
        return solve_at(inst, T, *args)

    monkeypatch.setattr(pipeline, "solve_at_horizon", spy)
    assert run_command(["solve", str(inst_path), "--out", str(tmp_path / "s.sched")]) == 0
    assert capsys.readouterr().err == (
        f"horizon {horizon} padded 32: {n} scheduled, 0 discarded, 0 nodes\n")
    assert attempts == [horizon]


@pytest.mark.parametrize("flags, calls", [
    (["--hinted"], 1),
    (["--hinted", "--horizon", "8"], 1),
    ([], 1),
    (["--horizon", "8"], 0),
    ([*DEEP, "--horizon", "16"], 0),
], ids=["hinted", "hinted-horizon", "searched", "horizon", "deep-horizon"])
def test_pipeline_computes_the_bound_sandwich_at_most_once(tmp_path, capsys, monkeypatch,
                                                           flags, calls):
    # the oracle and the horizon search share one sandwich, and a run with
    # neither computes none; at seed 162 the sandwich leaves the optimum
    # open (level bound 7, list schedules 8), so the oracle searches
    inst_path = tmp_path / "i.psched"
    assert run_command(["gen", "--family", "random-dag", "--n", "12", "--m", "2",
                        "--seed", "162", "--out", str(inst_path)]) == 0
    seen = []
    sandwich = baselines.bound_sandwich

    def counted(inst):
        seen.append(inst.n)
        return sandwich(inst)

    for mod in (baselines, pipeline, transform):
        monkeypatch.setattr(mod, "bound_sandwich", counted)
    assert run_command(["pipeline", str(inst_path), *flags,
                        "--out", str(tmp_path / "o.sched")]) == 0
    assert seen == [12] * calls
    assert "(valid, 0 discarded)" in capsys.readouterr().err


def test_pipeline_without_horizon_finds_a_deep_tree_horizon(tmp_path, capsys):
    # deep-tree success is not monotone in the horizon: here it fails at
    # n = 5 but succeeds at the lower bound 3, which the search tries first
    inst_path = tmp_path / "i.psched"
    out_path = tmp_path / "o.sched"
    assert run_command(["gen", "--family", "random-dag", "--n", "5", "--m", "2",
                        "--seed", "0", "--out", str(inst_path)]) == 0
    capsys.readouterr()
    assert run_command(["pipeline", str(inst_path), *DEEP[2:], "--out", str(out_path)]) == 0
    assert capsys.readouterr().err.startswith("horizon 3 padded 4: ")
    inst = io.read_instance(str(inst_path))
    final = io.read_schedule(str(out_path))
    assert_no_violations(verify_valid(inst, final))
    assert final.discard_count == 0


GOLDEN_DIR = Path(__file__).parent / "golden"

# deep-tree solves (random-dag, m = 2, h=1 hp=1 p=2): (n, horizon, generator
# seed, scheduled, nodes); the schedules were recorded when the enumeration
# still tried unplaceable partitions, which took 2499, 694, 3148, 3762, 1578
# and 1578 nodes, while a subproblem was solved again at each position,
# which took 82, 24, 197, 222, 48 and 48, and while every partition was
# solved even when its job counts could not beat the incumbent, which took
# 34, 6, 155, 119, 7 and 7, and while a subproblem with no job counted the
# search it skipped, which took 17, 6, 34, 48, 7 and 7
GOLDEN_DEEP_SOLVE = [
    (8, 16, 0, 2, 13),
    (8, 16, 1, 0, 2),
    (10, 16, 0, 6, 30),
    (10, 16, 1, 7, 44),
    (8, 32, 0, 0, 2),
    (8, 32, 1, 0, 2),
]


@pytest.mark.parametrize(
    "n, horizon, seed, scheduled, nodes", GOLDEN_DEEP_SOLVE,
    ids=[f"n{n}-T{t}-s{s}" for n, t, s, _, _ in GOLDEN_DEEP_SOLVE],
)
def test_deep_tree_solve_matches_recorded_bytes(tmp_path, capsys, n, horizon, seed,
                                                scheduled, nodes):
    inst_path = tmp_path / "i.psched"
    assert run_command(["gen", "--family", "random-dag", "--n", str(n), "--m", "2",
                        "--seed", str(seed), "--out", str(inst_path)]) == 0
    capsys.readouterr()
    assert run_command(["solve", str(inst_path), "--horizon", str(horizon), *DEEP[2:]]) == 0
    out, err = capsys.readouterr()
    golden = GOLDEN_DIR / f"solve_deep_n{n}_T{horizon}_s{seed}.sched"
    assert out == golden.read_text(encoding="utf-8")
    assert err == (f"horizon {horizon} padded {horizon}: {scheduled} scheduled, "
                   f"{n - scheduled} discarded, {nodes} nodes\n")


@pytest.fixture
def fresh_parsers(monkeypatch):
    """Empty run_command's parser cache, as in a new process; returns a
    function that empties it again."""
    def empty():
        monkeypatch.setattr(cli, "_PARSERS", {})
    empty()
    return empty


@pytest.mark.parametrize("command", [None, *COMMANDS])
def test_help_text_is_unchanged(monkeypatch, capsys, fresh_parsers, command):
    # a call registers only the subparser it names, and the next call
    # reuses that parser; the help reads the same both times
    monkeypatch.setenv("COLUMNS", "80")
    golden = (GOLDEN_DIR / f"help_{command or 'psched'}.txt").read_text(encoding="utf-8")
    for _ in range(2):
        assert run_command([command, "--help"] if command else ["--help"]) == 0
        assert capsys.readouterr().out == golden


@pytest.mark.parametrize("argv", [[], ["bogus"], ["--bogus"], ["solve", "x", "--bogus"]])
def test_usage_errors_exit_1_with_the_full_usage(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_command(argv) == 1
    assert capsys.readouterr().err.startswith(
        "usage: psched [-h] {gen,verify,graham,oracle,solve,pipeline,bench} ...\n")


PARSE_TABLE = [
    ["gen", "--family", "layered", "--n", "9", "--m", "3", "--seed", "5"],
    ["verify", "i.psched", "s.sched"],
    ["graham", "i.psched", "--out", "g.sched"],
    ["oracle", "i.psched"],
    ["solve", "i.psched", "--horizon", "8", "--epsilon", "1/4"],
    ["pipeline", "i.psched", "--hinted", "--budget", "7", "--out", "o.sched"],
    ["pipeline", "i.psched", "--param-override", "h=1", "--param-override", "hp=1",
     "--param-override", "p=2", "--param-override", "h=2"],
    ["pipeline", "i.psched", "--hor", "16"],
    ["pipeline", "--", "i.psched"],
    ["bench", "--count", "2", "--format", "text"],
    *([command, "--help"] for command in COMMANDS),
    ["--help"],
    [],
    ["bogus"],
    ["pipeline"],
    ["verify", "i.psched"],
    ["gen", "--n", "3"],
    ["pipeline", "i.psched", "--horizon", "q"],
    ["solve", "i.psched", "--bogus"],
    ["solve", "i.psched", "--bogus", "extra", "--horizon", "4"],
    ["pipeline", "i.psched", "--h"],
    ["bench", "--format", "xml"],
    # the table's edges: argparse reads each of these
    ["pipeline", "i.psched", "--horizon", "-3"],
    ["graham", "i.psched", "--out=o"],
    ["pipeline", "i.psched", "--out", "o.sched", "--hinted"],
    ["pipeline", "--horizon", "16", "--hinted", "--out", "o.sched", "i.psched"],
    ["oracle", "i.psched", "--out", "a.sched", "--out", "b.sched"],
]


def _parsed(parse, argv, capsys):
    """``(exit code, the parsed namespace's items with each value's type,
    stdout, stderr)``; a parse that does not exit has code None."""
    try:
        code, items = None, {k: (type(v), v) for k, v in vars(parse(argv)).items()}
    except SystemExit as exc:
        code, items = exc.code, None
    out, err = capsys.readouterr()
    return code, items, out, err


@pytest.mark.parametrize("argv", PARSE_TABLE, ids=" ".join)
def test_one_level_parse_matches_the_full_parser(monkeypatch, capsys, fresh_parsers, argv):
    # run_command hands the arguments after a subcommand's name to that
    # subcommand's parser alone; what comes back, printed help and usage
    # errors included, is what the full two-level parser gives
    monkeypatch.setenv("COLUMNS", "80")
    want = _parsed(cli.build_parser(None).parse_args, argv, capsys)
    for _ in range(2):  # the first call builds the parser, the second reuses it
        assert _parsed(cli._parse_args, argv, capsys) == want


# each subcommand's option strings but help's and its positional count,
# values to give them (one starts with "-"), and words only argparse reads
OPTION_STRINGS, POSITIONALS = {}, {}
for _command in COMMANDS:
    _sub = cli.build_parser(_command).commands[_command]
    OPTION_STRINGS[_command] = sorted(set(_sub._option_string_actions) - {"-h", "--help"})
    POSITIONALS[_command] = len(_sub._get_positional_actions())
VALUES = ["16", "8", "-3", "", "q", "h=1", "1/4", "i.psched"]
ODD_WORDS = ["--", "--out=o", "--hor", "-h", "--help", "-"]


@st.composite
def _argvs(draw):
    """A subcommand's argv: its options, most with a value, among its
    positionals; repeated options, odd words, a trailing option with no
    value and one positional too many or too few all occur."""
    command = draw(st.sampled_from(COMMANDS))
    option = st.sampled_from(OPTION_STRINGS[command] or ODD_WORDS)
    value = st.sampled_from(VALUES)
    chunk = st.sampled_from(["pair"] * 6 + ["option", "odd"]).flatmap(
        lambda kind: st.tuples(option, value) if kind == "pair"
        else st.tuples(option) if kind == "option" else st.tuples(st.sampled_from(ODD_WORDS)))
    chunks = st.lists(chunk, max_size=5 if OPTION_STRINGS[command] else 1)
    argv = [w for c in draw(chunks) for w in c]
    want = POSITIONALS[command]
    count = draw(st.sampled_from([want] * 4 + [max(want - 1, 0), want + 1]))
    for word in draw(st.lists(value, min_size=count, max_size=count)):
        argv.insert(draw(st.integers(0, len(argv))), word)
    return [command, *argv]


@settings(max_examples=600, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argvs())
def test_table_parse_matches_argparse(monkeypatch, capsys, fresh_parsers, argv):
    monkeypatch.setenv("COLUMNS", "80")
    want = _parsed(cli.build_parser(None).parse_args, argv, capsys)
    assert _parsed(cli._parse_args, argv, capsys) == want


def test_table_reads_a_parser_as_argparse_does():
    # what no psched subcommand has yet: a required option, an append
    # without a default, a typed positional and a set_defaults key
    parser = argparse.ArgumentParser(prog="t")
    parser.add_argument("count", type=int)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--tag", action="append")
    parser.add_argument("--dry", action="store_true")
    parser.set_defaults(func=len, dry="unset")
    table = cli._argv_table(parser)
    for argv in (["3", "--n", "4"], ["--tag", "a", "3", "--n", "4", "--tag", "b", "--dry"],
                 ["3"], ["x", "--n", "4"], ["3", "--n", "4", "5"], ["--n", "4"]):
        try:
            want, extras = parser.parse_known_args(argv, argparse.Namespace(command="t"))
        except SystemExit:
            want, extras = None, []
        got = cli._read_argv(table, "t", argv)
        assert got is None if want is None or extras else vars(got) == vars(want), argv
    parser.add_argument("--size", type=int, default="5")  # argparse converts "5"
    assert cli._argv_table(parser) is None


# the argv shapes the benchmark times, and one per other tabled subcommand
HOT_ARGVS = [
    ["pipeline", "i.psched", "--out", "o.sched"],
    ["pipeline", "i.psched", *DEEP[2:], "--horizon", "16", "--out", "o.sched"],
    ["pipeline", "i.psched", "--hinted", "--out", "o.sched"],
    ["pipeline", "i.psched", "--hinted", *DEEP[2:], "--horizon", "32", "--out", "o.sched"],
    ["verify", "i.psched", "s.sched"],
    ["graham", "i.psched", "--out", "g.sched"],
    ["oracle", "i.psched", "--out", "o.sched"],
    ["solve", "i.psched", "--horizon", "8", "--epsilon", "1/4", "--budget", "7"],
]
# the subcommands argparse reads every argv of (a choices= or another action
# the table does not read); any other subcommand must have a table
ARGPARSE_ONLY = ("gen", "bench")


class _ReachedArgparse(Exception):
    pass


def _spy(*args, **kwargs):
    raise _ReachedArgparse


def test_hot_argvs_never_reach_argparse(monkeypatch, fresh_parsers):
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", _spy)
    for argv in HOT_ARGVS:
        assert cli._parse_args(argv).command == argv[0]
    for argv in (["gen", "--family", "chain", "--n", "3", "--m", "1"], ["bench"]):
        with pytest.raises(_ReachedArgparse):
            cli._parse_args(argv)


def test_every_command_has_a_table_or_is_argparse_only():
    for command in COMMANDS:
        table = cli.build_parser(command).commands[command].argv_table
        assert (table is None) == (command in ARGPARSE_ONLY), command


@pytest.mark.parametrize("command", ["solve", "pipeline"])
@pytest.mark.parametrize("flags", [[], ["--hinted"]], ids=["enum", "hinted"])
def test_empty_instance_without_horizon(tmp_path, capsys, command, flags):
    inst_path = tmp_path / "i.psched"
    out_path = tmp_path / "o.sched"
    inst_path.write_text("psched 1 0 2\n")
    assert run_command([command, str(inst_path), *flags, "--out", str(out_path)]) == 0
    assert out_path.read_text() == "sched 1 0 0\n"
    assert capsys.readouterr().err.startswith("horizon 0 padded 0: ")


@pytest.mark.parametrize("flags", [[], ["--hinted"], DEEP[2:], ["--hinted", *DEEP[2:]]],
                         ids=["enum", "hinted", "deep", "deep-hinted"])
def test_empty_instance_at_a_horizon_searches_nothing(tmp_path, capsys, flags):
    # no job, so the attempt is answered with the empty schedule before
    # padding or searching, and no state is entered, which a zero budget
    # allows
    inst_path = tmp_path / "i.psched"
    out_path = tmp_path / "o.sched"
    inst_path.write_text("psched 1 0 2\n")
    argv = ["solve", str(inst_path), "--horizon", "3", "--budget", "0", *flags]
    assert run_command([*argv, "--out", str(out_path)]) == 0
    assert out_path.read_text() == "sched 1 0 4\n"
    assert capsys.readouterr().err == "horizon 3 padded 4: 0 scheduled, 0 discarded, 0 nodes\n"


def test_out_of_range_edge_is_an_input_error(tmp_path, capsys):
    inst_path = tmp_path / "i.psched"
    inst_path.write_text("psched 1 2 2\n0 5\n")
    assert run_command(["pipeline", str(inst_path)]) == 1
    assert capsys.readouterr().err == "error: edge (0, 5) out of range for n=2\n"


def test_bench_text_with_no_rows_prints_the_header(tmp_path, capsys):
    out = tmp_path / "bench.txt"
    assert run_command(["bench", "--count", "0", "--format", "text", "--out", str(out)]) == 0
    assert out.read_text() == "  ".join(BENCH_COLUMNS) + "\n"
    assert capsys.readouterr().err == ""


# bench rows of random-dag n=8 m=2 seeds 0-5 with h=1 hp=1 p=2, recorded
# when every row went through insert_discarded, wall_time_ms left out;
# only seed 4's solver discards jobs
BENCH_DEEP_ROWS = [
    "random-dag-n8-m2-s0,random-dag,8,2,4,5,0,4,1.000",
    "random-dag-n8-m2-s1,random-dag,8,2,4,4,0,4,1.000",
    "random-dag-n8-m2-s2,random-dag,8,2,4,4,0,4,1.000",
    "random-dag-n8-m2-s3,random-dag,8,2,4,5,0,4,1.000",
    "random-dag-n8-m2-s4,random-dag,8,2,6,6,2,8,1.333",
    "random-dag-n8-m2-s5,random-dag,8,2,5,5,0,5,1.000",
]


def test_bench_reinserts_only_rows_that_discarded(monkeypatch, tmp_path):
    calls = []

    def spy(inst, sched):
        calls.append(sched.discard_count)
        return transform.insert_discarded(inst, sched)

    monkeypatch.setattr(cli, "insert_discarded", spy)
    out = tmp_path / "bench.csv"
    assert run_command(["bench", "--n", "8", "--count", "6", *DEEP[2:],
                        "--out", str(out)]) == 0
    header, *rows = out.read_text().splitlines()
    assert header == ",".join(BENCH_COLUMNS)
    assert [row.rsplit(",", 1)[0] for row in rows] == BENCH_DEEP_ROWS
    assert calls == [2]  # seed 4 alone; no zero-discard row calls it


@pytest.mark.parametrize("command", ["solve", "pipeline"])
@pytest.mark.parametrize("horizon", ["0", "-3"])
def test_horizon_below_one_is_rejected(tmp_path, capsys, command, horizon):
    inst_path = tmp_path / "i.psched"
    out_path = tmp_path / "o.sched"
    inst_path.write_text("psched 1 2 2\n0 1\n")
    assert run_command([command, str(inst_path), "--horizon", horizon,
                        "--out", str(out_path)]) == 1
    assert capsys.readouterr().err == f"error: need --horizon >= 1, got {horizon}\n"
    assert not out_path.exists()


def test_negative_h_override_is_an_input_error(tmp_path, capsys):
    inst_path = tmp_path / "i.psched"
    inst_path.write_text("psched 1 2 2\n0 1\n")
    assert run_command(["solve", str(inst_path), "--horizon", "4",
                        "--param-override", "h=-1"]) == 1
    assert capsys.readouterr().err == "error: need 0 <= h <= log2(T)=2, got h=-1\n"


@pytest.mark.parametrize("command", ["solve", "pipeline"])
@pytest.mark.parametrize("m, horizon, slots", [(4, "1000", 1000), (3, "2048", 1024)],
                         ids=["4-1000", "3-2048"])
def test_bottom_interval_past_the_recursion_limit_is_an_input_error(tmp_path, capsys,
                                                                     command, m, horizon, slots):
    # with the default h, a collapsed attempt (m = 4) searches its own
    # (0, horizon] and a deep tree (m = 3) the left half of its padded
    # horizon: one bottom interval of 1000 or 1024 slots, as many levels
    # as the bottom search may recurse or more
    inst_path = tmp_path / "i.psched"
    out_path = tmp_path / "o.sched"
    assert run_command(["gen", "--family", "random-dag", "--n", "6", "--m", str(m),
                        "--seed", "1", "--out", str(inst_path)]) == 0
    capsys.readouterr()
    assert run_command([command, str(inst_path), "--horizon", horizon,
                        "--out", str(out_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: bottom interval (0,{slots}] is too long to search: it recurses once per "
        f"slot, {slots} levels, and the recursion limit is {sys.getrecursionlimit()}\n")
    assert not out_path.exists()


@pytest.mark.parametrize("flags, line", [
    # a collapsed attempt: the bottom search recurses once per slot of
    # (0, horizon], not of the padded horizon, and searches no sink
    (["--horizon", "300"], "horizon 300 padded 512: 6 scheduled, 0 discarded, 1201 nodes"),
    # bottom intervals of 1024 slots: the hinted solve answers with the
    # virtually-valid reference, so no search starts
    (["--hinted", "--horizon", "1500"],
     "horizon 1500 padded 2048: 6 scheduled, 0 discarded, 0 nodes"),
    # a collapsed attempt at 600 slots, which it searches: padded to 1024
    # it was past the recursion limit
    (["--horizon", "600"], "horizon 600 padded 1024: 6 scheduled, 0 discarded, 2401 nodes"),
])
def test_long_bottom_intervals_below_the_recursion_limit_still_run(tmp_path, capsys, flags,
                                                                     line):
    inst_path = tmp_path / "i.psched"
    assert run_command(["gen", "--family", "random-dag", "--n", "6", "--m", "4",
                        "--seed", "1", "--out", str(inst_path)]) == 0
    capsys.readouterr()
    assert run_command(["solve", str(inst_path), *flags,
                        "--out", str(tmp_path / "o.sched")]) == 0
    assert capsys.readouterr().err == line + "\n"


@pytest.mark.parametrize("n", ["0", "-3"])
def test_bench_rejects_fewer_than_one_job(tmp_path, capsys, n):
    out = tmp_path / "bench.csv"
    assert run_command(["bench", "--n", n, "--count", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: bench needs --n >= 1, got {n}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "pipeline", "bench"])
def test_negative_budget_is_rejected(tmp_path, capsys, command):
    inst_path = tmp_path / "i.psched"
    out_path = tmp_path / "o.out"
    inst_path.write_text("psched 1 2 2\n0 1\n")
    target = ["--count", "1"] if command == "bench" else [str(inst_path)]
    assert run_command([command, *target, "--budget", "-5", "--out", str(out_path)]) == 1
    assert capsys.readouterr().err == "error: need --budget >= 0, got -5\n"
    assert not out_path.exists()
    # a budget of none is a valid limit: a run whose optimum the bound
    # sandwich certifies enters no search state and fits in it, while a
    # search at a given horizon runs past it
    assert run_command([command, *target, "--budget", "0", "--out", str(out_path)]) == 0
    if command != "bench":
        assert run_command([command, *target, "--horizon", "2", "--budget", "0",
                            "--out", str(out_path)]) == 2


def test_bench_rejects_a_negative_count(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert run_command(["bench", "--count", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: bench needs --count >= 0, got -1\n"
    assert not out.exists()


# parser reuse: run_command builds each subcommand's parser once per process


def _gen(tmp_path, n, m, seed):
    inst_path = tmp_path / f"i-n{n}-m{m}-s{seed}.psched"
    assert run_command(["gen", "--family", "random-dag", "--n", str(n), "--m", str(m),
                        "--seed", str(seed), "--out", str(inst_path)]) == 0
    return inst_path


def _pipeline(tmp_path, capsys, inst_path, flags):
    """Exit code, schedule bytes and stderr of one ``pipeline`` run."""
    out_path = tmp_path / "o.sched"
    capsys.readouterr()
    code = run_command(["pipeline", str(inst_path), *flags, "--out", str(out_path)])
    return code, out_path.read_bytes(), capsys.readouterr().err


def test_reused_parser_carries_no_overrides_into_the_next_run(tmp_path, capsys,
                                                              fresh_parsers):
    # here an h=1 override alone changes the default run's schedule
    inst_path = _gen(tmp_path, 6, 2, 2)
    runs = [[], DEEP, []]
    alone = []
    for flags in runs:
        fresh_parsers()
        alone.append(_pipeline(tmp_path, capsys, inst_path, flags))
    fresh_parsers()
    assert [_pipeline(tmp_path, capsys, inst_path, flags) for flags in runs] == alone
    assert alone[0] != alone[1] and all(code == 0 for code, _, _ in alone)
    # argparse copies the default list before appending: it is still empty
    assert cli._PARSERS["pipeline"].parse_args(["pipeline", "x"]).param_override == []


@pytest.mark.parametrize("bad", [["solve", "x", "--bogus"], ["pipeline", "x", "--bogus"],
                                 ["pipeline", "x", "--horizon", "q"]])
def test_usage_error_leaves_the_reused_parser_working(tmp_path, capsys, fresh_parsers,
                                                      bad):
    inst_path = _gen(tmp_path, 9, 3, 5)
    fresh_parsers()
    first = _pipeline(tmp_path, capsys, inst_path, [])
    assert first[0] == 0
    assert run_command(bad) == 1
    assert capsys.readouterr().err.startswith("usage: psched ")
    assert _pipeline(tmp_path, capsys, inst_path, []) == first


def test_parser_cache_holds_one_parser_per_command_and_one_full(capsys, fresh_parsers):
    for argv in (["bogus"], ["--bogus"], *([f"x{i}"] for i in range(1, 21)),
                 *([command, "--help"] for command in COMMANDS), []):
        run_command(argv)
    capsys.readouterr()
    # len(COMMANDS) + 1 parsers, whatever else argv[0] held
    assert set(cli._PARSERS) == {None, *COMMANDS}


@pytest.mark.parametrize("flags", [[], ["--hinted"], ["--hinted", *DEEP]],
                         ids=["default", "hinted-collapsed", "hinted-deep"])
def test_pipeline_calls_leave_no_reference_cycles(tmp_path, capsys, flags):
    # the CLI counterpart of test_solver_calls_leave_no_reference_cycles:
    # after a warm-up call has built the parser, a run leaves nothing for
    # the cycle collector
    inst_path = _gen(tmp_path, 8, 2, 3)
    argv = ["pipeline", str(inst_path), *flags, "--out", str(tmp_path / "o.sched")]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        assert run_command(argv) == 0
        gc.collect()
        for _ in range(5):
            assert run_command(argv) == 0
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
    assert capsys.readouterr().err.count("(valid, 0 discarded)") == 6


def test_oracle_hinted_and_bench_run_above_sixteen_jobs(tmp_path, capsys):
    # the exact oracle has no job limit; n=20 is above 16
    inst_path = tmp_path / "i.psched"
    assert run_command(["gen", "--family", "random-dag", "--n", "20", "--m", "2",
                        "--seed", "0", "--out", str(inst_path)]) == 0
    inst = io.read_instance(str(inst_path))
    for argv in (["oracle", str(inst_path)], ["pipeline", str(inst_path), "--hinted"]):
        out_path = tmp_path / "o.sched"
        assert run_command([*argv, "--out", str(out_path)]) == 0
        sched = io.read_schedule(str(out_path))
        assert_no_violations(verify_valid(inst, sched))
        assert sched.discard_count == 0 and sched.makespan == 10
    capsys.readouterr()
    csv_path = tmp_path / "bench.csv"
    assert run_command(["bench", "--n", "20", "--m", "2", "--count", "1",
                        "--out", str(csv_path)]) == 0
    row = dict(zip(BENCH_COLUMNS, csv_path.read_text().splitlines()[1].split(",")))
    assert (row["n"], row["opt"], row["solver_discards"], row["final_makespan"]) == (
        "20", "10", "0", "10")


def test_oracle_limit_flag_is_gone(tmp_path, capsys):
    inst_path = tmp_path / "i.psched"
    inst_path.write_text("psched 1 3 2\n0 1\n")
    assert run_command(["oracle", str(inst_path), "--limit", "5"]) == 1
    assert "unrecognized arguments: --limit 5" in capsys.readouterr().err


def test_bench_budget_bounds_the_oracle(tmp_path, capsys):
    # n=12 m=2 seed 162 is the first bench row the sandwich leaves open
    # (level bound 7, list schedules 8), so the oracle searches and spends
    # the row's nodes
    out = tmp_path / "bench.csv"
    argv = ["bench", "--n", "12", "--m", "2", "--count", "1", "--seed", "162",
            "--out", str(out)]
    assert run_command([*argv, "--budget", "3"]) == 2
    assert capsys.readouterr().err.startswith("error: search budget exceeded: 4 nodes > limit 3")
    assert run_command(argv) == 0


def test_budget_bounds_the_hinted_oracle(tmp_path, capsys):
    # the oracle of a --hinted run spends the run's --budget: at n=12 m=2
    # seed 162 the sandwich leaves it open (level bound 7, list schedules
    # 8), so it searches, and `solve` reports its nodes with the solver's
    inst_path = tmp_path / "i.psched"
    assert run_command(["gen", "--family", "random-dag", "--n", "12", "--m", "2",
                        "--seed", "162", "--out", str(inst_path)]) == 0
    capsys.readouterr()
    out = str(tmp_path / "o.sched")
    assert run_command(["pipeline", str(inst_path), "--hinted", "--budget", "3",
                        "--out", out]) == 2
    assert capsys.readouterr().err == "error: search budget exceeded: 4 nodes > limit 3\n"
    oracle = Budget()
    baselines.exact_opt(io.read_instance(str(inst_path)), budget=oracle)
    assert oracle.nodes == 10
    assert run_command(["solve", str(inst_path), "--hinted", "--out", out]) == 0
    assert capsys.readouterr().err == (
        "horizon 8 padded 8: 12 scheduled, 0 discarded, 10 nodes\n")
    assert run_command(["solve", str(inst_path), "--hinted", "--budget", "10",
                        "--out", out]) == 0
    assert run_command(["solve", str(inst_path), "--hinted", "--budget", "9",
                        "--out", out]) == 2


# -- collapsed runs: one exact search ---------------------------------------


def _attempts_beside_reference(monkeypatch):
    """Run every horizon attempt through ``reference_solve_at_horizon`` on a
    copy of the run's budget, then for real; returns the (reference, real)
    outcome pairs, one per attempt."""
    pairs = []
    solve_at = pipeline.solve_at_horizon

    def both(inst, horizon, eps, overrides, budget, oracle):
        copy = Budget(limit=budget.limit, nodes=budget.nodes)
        want = reference_solve_at_horizon(inst, horizon, eps, overrides, copy, oracle)
        got = solve_at(inst, horizon, eps, overrides, budget, oracle)
        pairs.append((want, got))
        return got

    monkeypatch.setattr(pipeline, "solve_at_horizon", both)
    return pairs


def _searches(monkeypatch):
    """Record ``(padded T, L, "main")`` of every ``main_solve`` call,
    ``(padded T, L, "hinted")`` of every ``solve_hinted`` call and
    ``(padded T, L, "oracle")`` of every ``check_reference`` call that the
    pipeline makes, the last when it answers a collapsed attempt with the
    oracle's schedule (the reference's calls are not seen)."""
    calls = []
    main, hinted, check = pipeline.main_solve, pipeline.solve_hinted, pipeline.check_reference

    def main_spy(inst, params, budget=None):
        calls.append((params.T, params.L, "main"))
        return main(inst, params, budget)

    def hinted_spy(inst, reference, params):
        calls.append((params.T, params.L, "hinted"))
        return hinted(inst, reference, params)

    def check_spy(inst, sched, params):
        calls.append((params.T, params.L, "oracle"))
        return check(inst, sched, params)

    monkeypatch.setattr(pipeline, "main_solve", main_spy)
    monkeypatch.setattr(pipeline, "solve_hinted", hinted_spy)
    monkeypatch.setattr(pipeline, "check_reference", check_spy)
    return calls


@pytest.mark.parametrize("family", ["random-dag", "layered", "forest"])
@pytest.mark.parametrize("flags", [[], ["--hinted"]], ids=["plain", "hinted"])
def test_collapsed_attempts_match_the_padded_search(monkeypatch, family, flags):
    # every default run here collapses: it makes no binary search and one
    # attempt, at exact_opt's optimum, answered by exact_opt's schedule
    # once check_reference passes it, with no hinted solve and no search,
    # so the run counts only the oracle's nodes.  The padded search agrees
    # that the optimum is the smallest horizon that fits: it keeps every
    # job there and discards some one below, wherever the level bound
    # leaves that horizon open
    searched = _searches(monkeypatch)

    def bisect(*args):
        raise AssertionError("a collapsed run bisected")

    monkeypatch.setattr(pipeline, "binary_search_makespan", bisect)
    eps, open_below = Fraction(1, 2), 0
    for n in range(6, 17):
        for m in (2, 3, 4):
            for seed in range(10):
                inst, _ = gen_instance(family, n, m, 0.3, seed)
                oracle = Budget()
                opt, best = baselines.exact_opt(inst, budget=oracle)
                searched.clear()
                got = pipeline.solve(inst, eps, hinted=flags == ["--hinted"])
                assert (got.horizon, got.discards, got.nodes) == (opt, 0, oracle.nodes)
                T2 = transform.next_power_of_two(max(opt, 2))
                assert searched == [(T2, 0, "oracle")]
                assert got.virtual == got.valid == Schedule(T=T2, assign=best.assign)
                at = reference_solve_at_horizon(inst, opt, eps, {}, Budget(), None)
                assert at.discards == 0
                if opt > baselines.bound_sandwich(inst)[0]:
                    below = reference_solve_at_horizon(inst, opt - 1, eps, {}, Budget(), None)
                    assert below.discards > 0
                    open_below += 1
    assert open_below > 0 or family != "random-dag"  # the others meet the level bound


@pytest.mark.parametrize("flags", [[], ["--hinted"], ["--hinted", "--horizon", "9"]],
                         ids=["searched", "hinted", "hinted-horizon"])
def test_certified_pipeline_runs_no_search(tmp_path, capsys, monkeypatch, flags):
    # n=9 m=3 seed 5: the level bound meets a list schedule's makespan
    inst_path = _gen(tmp_path, 9, 3, 5)
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "solve_at_horizon", reference_solve_at_horizon)
        want = _pipeline(tmp_path, capsys, inst_path, flags)
    assert want[0] == 0

    def forbidden(*args, **kwargs):
        raise AssertionError("a certified run searched")

    for mod, name in ((pipeline, "main_solve"), (solver, "main_solve"),
                      (solver, "bottom_solve"), (baselines, "_fits")):
        monkeypatch.setattr(mod, name, forbidden)
    assert _pipeline(tmp_path, capsys, inst_path, flags) == want


def test_open_sandwich_still_searches_below_the_list_schedule(tmp_path, capsys, monkeypatch):
    # n=12 m=2 seed 162: level bound 7, list schedules 8.  exact_opt's
    # search fails at 7 and fits 8 (10 nodes); the one
    # attempt, at 8, is answered by its schedule with no search and no
    # node, and so is the reference's replay
    inst_path = _gen(tmp_path, 12, 2, 162)
    pairs = _attempts_beside_reference(monkeypatch)
    searched = _searches(monkeypatch)
    horizons = []
    fits = baselines._fits

    def fits_spy(inst, T, budget):
        horizons.append(T)
        return fits(inst, T, budget)

    monkeypatch.setattr(baselines, "_fits", fits_spy)
    capsys.readouterr()
    assert run_command(["solve", str(inst_path), "--out", str(tmp_path / "s.sched")]) == 0
    assert capsys.readouterr().err == "horizon 8 padded 8: 12 scheduled, 0 discarded, 10 nodes\n"
    assert horizons == [7, 8]
    assert searched == [(8, 0, "oracle")]
    (want, got), = pairs
    assert (got.horizon, got.discards) == (8, 0)
    assert (want.horizon, want.valid) == (got.horizon, got.valid)


@pytest.mark.parametrize("flags", [DEEP[2:], ["--hinted", *DEEP]],
                         ids=["searched", "hinted-horizon"])
def test_deep_tree_attempts_still_search(tmp_path, capsys, monkeypatch, flags):
    # with h=1 hp=1 p=2 the tree has levels, so a schedule in hand that
    # fits answers nothing: every attempt runs the solver
    inst_path = _gen(tmp_path, 5, 2, 0)
    pairs = _attempts_beside_reference(monkeypatch)
    searched = _searches(monkeypatch)
    code, _, err = _pipeline(tmp_path, capsys, inst_path, flags)
    assert code == 0 and err.endswith("(valid, 0 discarded)\n")
    assert len(searched) == len(pairs) >= 1
    assert all(L > 0 for _, L, _ in searched)
    for want, got in pairs:
        assert got == want


def _broken(inst, sched, how):
    """``sched`` with a precedence pair put in one slot, or with a discard."""
    assign = list(sched.assign)
    if how == "precedence":
        a = next(j for j in range(inst.n) if inst.succ[j])
        b = (inst.succ[a] & -inst.succ[a]).bit_length() - 1
        assign[b] = assign[a]
    else:
        assign[0] = DISC
    return Schedule(T=sched.T, assign=tuple(assign))


@pytest.mark.parametrize("how, message", [
    ("precedence", "reference schedule invalid"),
    ("discard", "reference schedule must have zero discards"),
], ids=["precedence", "discard"])
def test_broken_oracle_schedule_is_rejected_by_check_reference(monkeypatch, how, message):
    # a collapsed attempt checks the oracle's schedule on the instance
    # itself with check_reference, which rejects a broken one: there is no
    # hinted solve, no system, no padded replay and no search
    inst, _ = gen_instance("random-dag", 9, 3, 0.3, 5)
    lo, upper = baselines.bound_sandwich(inst)
    held = _broken(inst, upper, how)
    assert held.makespan <= lo and not (verify_valid(inst, held).ok and not held.discard_count)
    searched = _searches(monkeypatch)
    seen = []
    check = pipeline.check_reference

    def check_spy(inst, sched, params):
        seen.append((inst.n, sched))
        return check(inst, sched, params)

    def forbidden(*args, **kwargs):
        raise AssertionError("a broken oracle schedule was searched")

    monkeypatch.setattr(pipeline, "check_reference", check_spy)
    for name in ("main_solve", "bottom_solve", "system_from_schedule"):
        monkeypatch.setattr(solver, name, forbidden)
    for name in ("_places_top_job", "_originals", "pad_to_power_of_two"):
        monkeypatch.setattr(pipeline, name, forbidden)
    with pytest.raises(InvalidInput, match=message):
        pipeline.solve_at_horizon(inst, lo, Fraction(1, 2), {}, Budget(), (lo, held))
    assert searched == [(8, 0, "oracle")]
    assert seen == [(9, held)]


@pytest.mark.parametrize("text, horizon, line, assign", [
    ("psched 1 2 2\n0 1\n", 1, "horizon 1 padded 2: 1 scheduled, 1 discarded, 2 nodes",
     [1, None]),
    ("psched 1 4 2\n", 1, "horizon 1 padded 2: 2 scheduled, 2 discarded, 2 nodes",
     [1, 1, None, None]),
    ("psched 1 4 1\n0 1\n1 2\n2 3\n", 3, "horizon 3 padded 4: 3 scheduled, 1 discarded, 4 nodes",
     [1, 2, 3, None]),
], ids=["chain", "antichain", "long-chain"])
def test_a_collapsed_attempt_keeps_only_what_its_own_slots_hold(tmp_path, capsys, text,
                                                                horizon, line, assign):
    # a collapsed attempt searches the original jobs alone on
    # (0, horizon], not on the padded horizon, so no job runs after the
    # horizon: of a chain of two at horizon 1 only the first job runs, m of
    # four jobs at horizon 1, and three of a chain of four on one machine
    # at horizon 3, each in a root and a node per slot
    inst_path = tmp_path / "i.psched"
    inst_path.write_text(text)
    out_path = tmp_path / "s.sched"
    assert run_command(["solve", str(inst_path), "--horizon", str(horizon), "--out",
                        str(out_path)]) == 0
    assert capsys.readouterr().err == f"{line}\n"
    assert list(io.read_schedule(str(out_path)).assign) == assign


@pytest.mark.parametrize("command", ["solve", "pipeline", "bench"])
@pytest.mark.parametrize("flag, value, message", [
    ("--epsilon", "1/0", "bad --epsilon '1/0': zero denominator"),
    ("--param-override", "delta=1/0", "bad override 'delta=1/0': zero denominator"),
    ("--param-override", "deltap=0/0", "bad override 'deltap=0/0': zero denominator"),
    ("--epsilon", "abc", "bad --epsilon 'abc': Invalid literal for Fraction: 'abc'"),
    ("--param-override", "h=1.5",
     "bad override 'h=1.5': invalid literal for int() with base 10: '1.5'"),
    ("--param-override", "delta=x", "bad override 'delta=x': Invalid literal for Fraction: 'x'"),
], ids=["epsilon", "delta", "deltap", "epsilon-malformed", "h-malformed", "delta-malformed"])
def test_zero_denominator_is_an_input_error(tmp_path, capsys, command, flag, value, message):
    # a malformed number in a flag is an input error that names the flag,
    # a zero denominator as any other
    inst_path = tmp_path / "i.psched"
    out_path = tmp_path / "o.out"
    inst_path.write_text("psched 1 2 2\n0 1\n")
    target = ["--count", "1"] if command == "bench" else [str(inst_path)]
    assert run_command([command, *target, flag, value, "--out", str(out_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_path.exists()
