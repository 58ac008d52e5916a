"""Seeded, layered benchmark of ``psched pipeline``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload exact-collapse --seed 1 --seconds 30 --trace 0

Each run times the user-facing ``pipeline`` command in-process through
``psched.cli.run_command`` (argument parsing and file I/O included) over a
pool of instance files, in closed loop: one invocation at a time, the next
starting when the previous one returns.  The pool is run in passes; every
pass runs each instance once, in the same order.  Passes repeat until
``--seconds`` is used up, so every pass is a repeat of the same inputs and the
benchmark checks that the deterministic results (output digest, makespan
ratios and, when traced, every call count and counter) are identical across
them.  Every output is parsed back and checked to be a complete, valid
schedule; a nonzero exit status or a failed check counts as a failed run.

Instance draw.  Each workload lists groups of (family, n, m, generator seeds
0..count-1, flags).  The structures come from ``psched.generators`` with
density 0.3 and those fixed generator seeds; ``--seed`` relabels the jobs of
every instance with a seeded permutation and shuffles the run order.  Keeping
the structures fixed keeps the mix of easy instances and slow ones (whose
optimum exceeds the lower bound, so an infeasible search runs to the end) the
same for every seed: with independent draws at n=14-16, m=2 one instance's
run time varies with a coefficient of variation of 1.4-1.8, and the share of
slow instances a seed happens to draw would dominate the run-to-run spread.

Timing.  Only the ``run_command`` call is timed; output checks, file
clean-up and a short reference loop run between calls.  Each run's wall time
is calibrated by the reference loop measured just before it (see
``REFERENCE_S``), so a change of host speed between or within runs cancels
out; the as-measured figures are printed alongside.  ``instances_per_s`` is
one pass of work over the sum of each instance's median time across passes;
``latency_ms_p50`` and ``latency_ms_tail`` are nearest-rank percentiles over
every timed run.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the pool
untraced for half of the time, then traced (see ``tracing.py``) and prints the
per-layer metrics (self times as measured, not calibrated), including the
tracing overhead against the untraced half.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status is 1 when any run
failed or a deterministic result changed between passes, 2 when the
``psched`` sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io as textio
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

DENSITY = 0.3
SETUP_ROUNDS = 11
MIN_PASSES = 2  # repeats needed to check that results are deterministic
# Calibration: every timed interval is scaled by REFERENCE_S / (time of the
# reference loop measured just before it).  On a shared 2-vCPU VM the speed of
# the interpreter drifted by up to 1.7x between runs and switched within
# seconds (this loop read 1.35-2.35 ms), which put raw run-to-run spreads at
# 20-40%; calibrated times read as the wall time on a machine where the loop
# takes REFERENCE_S.
REFERENCE_S = 1.5e-3
DEEP = ("--param-override", "h=1", "--param-override", "hp=1", "--param-override", "p=2")


@dataclass(frozen=True)
class Group:
    """``count`` instances of one family and size, run with the same flags."""

    family: str
    n: int
    m: int
    count: int  # generator seeds 0..count-1
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    groups: tuple[Group, ...]
    # Nearest-rank percentile reported as latency_ms_tail: the highest with at
    # least ten runs beyond it, counting distinct instances where a seed's
    # relabeling moves an instance's cost (repeats of one instance are not
    # independent samples).
    tail_pct: float


WORKLOADS = {
    # Default params, no horizon: every instance collapses to L = 0, so the
    # time is the horizon search around the exact bottom_solve.
    "exact-collapse": Workload(
        groups=(
            Group("random-dag", 12, 2, 60),
            Group("random-dag", 9, 3, 40),
        ),
        tail_pct=90,
    ),
    # Deep tree at a fixed horizon: the paper's split enumeration, window
    # partitions and subtree recursion run.
    "deep-enum": Workload(
        groups=(
            Group("random-dag", 5, 2, 20, DEEP + ("--horizon", "16")),
            Group("random-dag", 6, 2, 8, DEEP + ("--horizon", "16")),
        ),
        tail_pct=85,
    ),
    # Many short hinted runs: recorded splits are replayed, exact_opt is the
    # oracle, all three conversions run; per-invocation costs weigh heavily.
    "hinted-replay": Workload(
        groups=tuple(
            Group(family, 16, m, 8, ("--hinted",) + extra)
            for family in ("random-dag", "layered", "forest")
            for m in (2, 3)
            for extra in ((), DEEP + ("--horizon", "32"))
        ),
        tail_pct=90,
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "makespan_ratio_lb": "ratio",
    "makespan_ratio_graham": "ratio",
    "peak_rss_mb": "MB",
}

# Per-layer metrics reported by a traced run: name -> unit.
PER_LAYER_UNITS = {
    "solver.bottom_solve.calls": "count",
    "solver.bottom_solve.self_s": "s",
    "solver.nodes": "count",
    "transform.attempts": "count",
    "transform.attempts_failed_share": "share",
    "transform.binary_search_makespan.self_s": "s",
    "solver.schedule_subtree.calls": "count",
    "solver.schedule_subtree.self_s": "s",
    "solver.schedule_subtree.none_share": "share",
    "solver.partitions_yielded": "count",
    "solver.main_solve.self_s": "s",
    "dyadic.push_down.calls": "count",
    "dyadic.push_down.self_s": "s",
    "dyadic.windows.self_s": "s",
    "dyadic.compute_params.calls": "count",
    "dyadic.collapsed_share": "share",
    "baselines.exact_opt.calls": "count",
    "baselines.exact_opt.self_s": "s",
    "baselines.graham_list.self_s": "s",
    "baselines.capacity_list_schedule.calls": "count",
    "baselines.capacity_list_schedule.self_s": "s",
    "dyadic.system_from_schedule.self_s": "s",
    "convert.valid_to_virtually_valid.self_s": "s",
    "convert.canonicalize.self_s": "s",
    "convert.virtually_valid_to_valid.self_s": "s",
    "cli.build_parser.self_s": "s",
    "io.read_instance.calls": "count",
    "io.read_instance.self_s": "s",
    "io.format_schedule.self_s": "s",
    "core.verify_valid.calls": "count",
    "core.verify_valid.self_s": "s",
    "convert.discards_added": "count",
    "transform.jobs_reinserted": "count",
    "transform.insert_discarded.self_s": "s",
    "trace.overhead_share": "share",
}


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop (no ``psched`` code) right now."""
    t0 = perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    return perf_counter() - t0


@dataclass(frozen=True)
class Program:
    """The freshly imported package: the command to time and the output checks.

    The checks are bound before any tracer is installed, so the benchmark's
    own verification calls are not traced as the program's.
    """

    cli: object  # module; ``run_command`` is looked up per call
    parse_schedule: object
    verify_valid: object


@dataclass
class Case:
    name: str
    argv: list[str]
    out: Path
    inst: object  # psched.core.Instance
    lb: int = 0
    graham: int = 0


@dataclass
class Pass:
    latencies: list[float] = field(default_factory=list)  # calibrated, per case
    wall: list[float] = field(default_factory=list)  # as measured, per case
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    digest: str = ""
    ratio_lb: float = 0.0
    ratio_graham: float = 0.0
    worse_than_graham: int = 0
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return math.fsum(self.latencies)

    @property
    def deterministic(self) -> dict:
        out = {
            "digest": self.digest,
            "makespan_ratio_lb": self.ratio_lb,
            "makespan_ratio_graham": self.ratio_graham,
            "worse_than_graham": self.worse_than_graham,
            "failed": self.failed,
        }
        for key, value in self.layers.items():
            if not key.endswith("_s"):
                out[key] = value
        return out


def load_psched():
    """Import ``psched`` afresh from the checkout's ``src``; return its modules."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [k for k in sys.modules if k == "psched" or k.startswith("psched.")]:
        del sys.modules[name]
    cli = importlib.import_module("psched.cli")
    if Path(cli.__file__).resolve().parents[1] != SRC:
        raise ImportError(f"psched imported from {cli.__file__}, not {SRC}")
    return {name: sys.modules[f"psched.{name}"] for name in
            ("cli", "io", "core", "baselines", "generators")}


def build_pool(mods, workload: Workload, seed: int, work: Path) -> list[Case]:
    """Write the seeded instance files; return one case per instance, in run order."""
    gen_instance = mods["generators"].gen_instance
    build_instance = mods["core"].build_instance
    format_instance = mods["io"].format_instance
    rng = random.Random(seed)
    cases = []
    for group in workload.groups:
        for gseed in range(group.count):
            _, edges = gen_instance(group.family, group.n, group.m, DENSITY, gseed)
            perm = list(range(group.n))
            rng.shuffle(perm)
            edges = [(perm[u], perm[v]) for u, v in edges]
            inst = build_instance(group.n, group.m, edges)
            name = f"{group.family}-n{group.n}-m{group.m}-g{gseed}-{len(cases)}"
            path = work / f"{name}.psched"
            path.write_text(format_instance(inst, edges), encoding="utf-8")
            out = work / f"{name}.sched"
            argv = ["pipeline", str(path), *group.flags, "--out", str(out)]
            cases.append(Case(name=name, argv=argv, out=out, inst=inst))
    rng.shuffle(cases)
    return cases


def setup(workload: Workload, seed: int, work: Path):
    """Import, generate and write the pool ``SETUP_ROUNDS`` times; median calibrated time."""
    times = []
    for _ in range(SETUP_ROUNDS):
        shutil.rmtree(work, ignore_errors=True)
        scale = REFERENCE_S / reference_s()
        t0 = perf_counter()
        work.mkdir(parents=True)
        mods = load_psched()
        cases = build_pool(mods, workload, seed, work)
        times.append((perf_counter() - t0) * scale)
    longest_chain = mods["core"].longest_chain
    graham_list = mods["baselines"].graham_list
    for case in cases:
        inst = case.inst
        case.lb = max(longest_chain(inst, inst.all_jobs), -(-inst.n // inst.m))
        case.graham = graham_list(inst).makespan
    program = Program(mods["cli"], mods["io"].parse_schedule, mods["core"].verify_valid)
    return statistics.median(times), program, cases


def run_pass(program: Program, cases: list[Case], tracer=None) -> Pass:
    """Run every case once, timing only the ``run_command`` call, then check it."""
    cli, parse_schedule, verify_valid = program.cli, program.parse_schedule, program.verify_valid
    digest = hashlib.sha256()
    result = Pass()
    ratios_lb, ratios_graham = [], []
    mark = tracer.mark() if tracer else None
    for case in cases:
        with contextlib.suppress(FileNotFoundError):
            case.out.unlink()
        stderr = textio.StringIO()
        scale = REFERENCE_S / reference_s()
        with contextlib.redirect_stderr(stderr):
            t0 = perf_counter()
            code = cli.run_command(case.argv)
            wall = perf_counter() - t0
        result.wall.append(wall)
        result.latencies.append(wall * scale)
        problem = None
        try:
            data = case.out.read_bytes()
        except OSError as exc:
            data, problem = b"", f"no output ({exc})"
        digest.update(case.name.encode() + b"\0" + data + b"\0")
        if code != 0:
            problem = f"exit {code}: {stderr.getvalue().strip()}"
        elif problem is None:
            try:
                sched = parse_schedule(data.decode("utf-8"))
            except ValueError as exc:
                problem = f"unparseable output: {exc}"
            else:
                report = verify_valid(case.inst, sched)
                if sched.n != case.inst.n or sched.discard_count or not report.ok:
                    problem = f"invalid schedule ({sched.discard_count} discarded): {report}"
                else:
                    ratios_lb.append(sched.makespan / case.lb)
                    ratios_graham.append(sched.makespan / case.graham)
                    result.worse_than_graham += sched.makespan > case.graham
        if problem:
            result.failed += 1
            result.errors.append(f"{case.name}: {problem}")
    result.digest = digest.hexdigest()
    result.ratio_lb = math.fsum(ratios_lb) / len(ratios_lb) if ratios_lb else math.nan
    result.ratio_graham = (
        math.fsum(ratios_graham) / len(ratios_graham) if ratios_graham else math.nan)
    if tracer:
        result.layers = tracer.window(mark)
    return result


def run_passes(program: Program, cases: list[Case], budget_s: float, min_passes: int,
               deadline: float, tracer=None) -> list[Pass]:
    """Passes until ``budget_s`` is spent (at least ``min_passes`` before ``deadline``)."""
    passes: list[Pass] = []
    start = perf_counter()
    while True:
        passes.append(run_pass(program, cases, tracer))
        now = perf_counter()
        per_pass = (now - start) / len(passes)
        if now + per_pass > deadline:
            break
        if len(passes) >= min_passes and now - start + per_pass > budget_s:
            break
    return passes


def repeat_mismatches(passes: list[Pass]) -> list[str]:
    """Deterministic results (that both passes have) differing from the first pass."""
    first = passes[0].deterministic
    out = []
    for k, p in enumerate(passes[1:], start=2):
        got = p.deterministic
        diff = sorted(key for key in first.keys() & got.keys()
                      if first[key] != got[key]
                      and not (isinstance(first[key], float) and math.isnan(first[key])
                               and math.isnan(got[key])))
        if diff:
            detail = ", ".join(f"{key}: {first[key]} -> {got[key]}" for key in diff)
            out.append(f"pass {k} differs from pass 1 on the same inputs: {detail}")
    return out


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def end_to_end(workload: Workload, setup_s: float, passes: list[Pass]) -> dict:
    latencies = [t for p in passes for t in p.latencies]
    attempted = len(latencies)
    completed = attempted - sum(p.failed for p in passes)
    # One pass of work over the sum of each instance's median run time: a burst
    # of outside load slows the samples of one pass, not the metric.
    per_case = [statistics.median(case) for case in zip(*(p.latencies for p in passes))]
    first = passes[0]
    return {
        "setup_s": setup_s,
        "instances_per_s": completed / attempted * len(per_case) / math.fsum(per_case),
        "latency_ms_p50": statistics.median(latencies) * 1e3,
        "latency_ms_tail": nearest_rank(latencies, workload.tail_pct) * 1e3,
        "makespan_ratio_lb": first.ratio_lb,
        "makespan_ratio_graham": first.ratio_graham,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(traced: list[Pass], untraced: list[Pass]) -> dict:
    def count(key):
        return traced[0].layers[key]

    def self_s(key):
        return statistics.median(p.layers[key] for p in traced)

    def share(num, den):
        return num / den if den else 0.0

    def ips(passes):
        return sum(len(p.latencies) for p in passes) / math.fsum(p.seconds for p in passes)

    out = {}
    for name in PER_LAYER_UNITS:
        if name.endswith(".self_s"):
            out[name] = self_s(name)
        elif name.endswith(".calls") or name in (
                "solver.nodes", "solver.partitions_yielded",
                "convert.discards_added", "transform.jobs_reinserted"):
            out[name] = count(name)
    attempts = count("transform.pad_to_power_of_two.calls")
    out["transform.attempts"] = attempts
    out["transform.attempts_failed_share"] = share(count("transform.attempts_failed"), attempts)
    out["solver.schedule_subtree.none_share"] = share(
        count("solver.schedule_subtree.none"), count("solver.schedule_subtree.calls"))
    out["dyadic.collapsed_share"] = share(
        count("dyadic.compute_params.collapsed"), count("dyadic.compute_params.calls"))
    out["trace.overhead_share"] = ips(untraced) / ips(traced) - 1
    return {name: out[name] for name in PER_LAYER_UNITS}


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            work: Path, trace_out: Path | None = None) -> dict:
    """One benchmark run; returns the report (metrics, counts, passes, errors)."""
    started = perf_counter()
    deadline = started + 120
    setup_s, program, cases = setup(workload, seed, work)
    report = {"cases": len(cases)}
    if not trace:
        passes = run_passes(program, cases, seconds, MIN_PASSES, deadline)
        report["metrics"] = end_to_end(workload, setup_s, passes)
        report["untraced"], report["traced"] = passes, []
    else:
        untraced = run_passes(program, cases, seconds / 2, 1, deadline)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(program, cases, seconds / 2, MIN_PASSES, deadline,
                                tracer=tracer)
        finally:
            tracer.uninstall()
        report["metrics"] = per_layer(traced, untraced)
        report["untraced"], report["traced"] = untraced, traced
        report["trace_total_s"] = [p.layers["trace.total_s"] for p in traced]
        report["trace_self_sum_s"] = [
            math.fsum(v for k, v in p.layers.items() if k.endswith(".self_s"))
            for p in traced]
        if trace_out is not None:
            report["spans"] = tracer.dump(str(trace_out))
    passes = report["untraced"] + report["traced"]
    report["attempted"] = sum(len(p.latencies) for p in passes)
    report["failed"] = sum(p.failed for p in passes)
    report["errors"] = [e for p in passes for e in p.errors] + repeat_mismatches(passes)
    if report["traced"]:
        report["errors"] += repeat_mismatches(report["traced"])
    first = passes[0]
    report["digest"] = first.digest
    report["worse_than_graham_share"] = first.worse_than_graham / len(cases)
    report["samples"] = len(report["untraced"]) * len(cases)
    return report


def print_report(name: str, workload: Workload, seed: int, trace: bool, report: dict) -> None:
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    print(f"workload {name} seed {seed}: {report['cases']} instances, "
          f"{len(report['untraced'])} untraced + {len(report['traced'])} traced passes")
    print(f"  output digest sha256 {report['digest']}")
    for label in ("untraced", "traced"):
        if report[label]:
            times = " ".join(f"{math.fsum(p.wall):.3f}" for p in report[label])
            print(f"  {label} pass wall seconds: {times}")
    untraced = report["untraced"]
    wall = [t for p in untraced for t in p.wall]
    calibrated = [t for p in untraced for t in p.latencies]
    print(f"  as measured: {len(wall) / math.fsum(wall):.6g} runs/s, p50 "
          f"{statistics.median(wall) * 1e3:.6g} ms; calibration factor "
          f"{math.fsum(calibrated) / math.fsum(wall):.4f}")
    if not trace:
        print(f"  latency_ms_tail is p{workload.tail_pct} of {report['samples']} runs")
    for key, unit in units.items():
        print(f"  {key:42s} {report['metrics'][key]:.6g} {unit}")
    print(f"  {'failed_share':42s} {report['failed'] / report['attempted']:.6g} share")
    print(f"  {'worse_than_graham_share':42s} {report['worse_than_graham_share']:.6g} share")
    for err in report["errors"][:20]:
        print(f"  ERROR {err}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "psched" / "__init__.py").is_file():
        print(f"error: psched sources not found under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    trace_out = WORK / f"trace-{args.workload}-s{args.seed}.tsv.gz" if args.trace else None
    try:
        report = measure(workload, args.seed, args.seconds, bool(args.trace), work, trace_out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print_report(args.workload, workload, args.seed, bool(args.trace), report)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    correct = not report["errors"]
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": report["metrics"][k], "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
