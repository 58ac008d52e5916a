"""Command-line front end.

Subcommands: ``gen`` (instance generators), ``verify`` (schedule checking),
``graham`` (greedy baseline), ``oracle`` (exact optimum), ``solve`` (the
guessing solver; output may ignore precedence among window-constrained
jobs), ``pipeline`` (solve, make the schedule valid, re-insert discarded
jobs), and ``bench`` (CSV comparison rows).

Reports go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 failure or invalid input, 2 search budget exhausted.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction

from . import io
from .baselines import bound_sandwich, exact_opt, graham_list
from .convert import canonicalize, virtually_valid_to_valid
from .core import Instance, Schedule, Slot, iter_jobs, longest_chain, verify_valid
from .dyadic import OVERRIDE_KEYS, compute_params
from .errors import BudgetExceeded, NoSolution
from .generators import FAMILIES, gen_instance
from .solver import DEFAULT_BUDGET, Budget, main_solve, solve_hinted
from .transform import (binary_search_makespan, insert_discarded, next_power_of_two,
                        pad_to_power_of_two)

BENCH_COLUMNS = (
    "instance", "family", "n", "m", "opt", "graham",
    "solver_discards", "final_makespan", "ratio", "wall_time_ms",
)


def _number(text: str, what: str, kind: type = Fraction):
    """``text`` as a ``kind``; a malformed value, a zero denominator
    included, is a ``ValueError`` naming ``what``."""
    try:
        return kind(text)
    except ZeroDivisionError:
        raise ValueError(f"bad {what}: zero denominator") from None
    except ValueError as exc:
        raise ValueError(f"bad {what}: {exc}") from None


def _parse_overrides(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        key, _, value = pair.partition("=")
        if key not in OVERRIDE_KEYS or not value:
            raise ValueError(
                f"bad override {pair!r}; expected k=v with k in {OVERRIDE_KEYS}")
        kind = Fraction if key in ("delta", "deltap") else int
        out[key] = _number(value, f"override {pair!r}", kind)
    return out


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@dataclass
class SolveOutcome:
    horizon: int          # requested horizon (pre-padding)
    padded_T: int         # power-of-two horizon actually solved
    virtual: Schedule     # virtually-valid schedule, original jobs only
    valid: Schedule       # after conversions, original jobs only
    discards: int         # discarded original jobs in `valid`
    nodes: int            # budget nodes spent, every horizon attempt included


def _originals(sched: Schedule, n: int) -> Schedule:
    """The schedule of the first ``n`` jobs, dropping padding jobs."""
    return Schedule(T=sched.T, assign=sched.assign[:n])


def _with_sinks(inst: Instance, padded: Instance, sched: Schedule, after: int) -> Schedule:
    """``sched`` of the original jobs, extended to ``padded``: its sinks
    fill the slots after ``after`` up to the padded horizon, ``m`` per
    slot, in ascending id."""
    assign: list[Slot] = list(sched.assign)
    slot = after
    for k, _ in enumerate(iter_jobs(padded.all_jobs & ~inst.all_jobs)):
        if k % inst.m == 0:
            slot += 1
        assign.append(slot)
    return Schedule(T=slot, assign=tuple(assign))


def _solve_at_horizon(
    inst: Instance,
    horizon: int,
    eps: Fraction,
    overrides: dict,
    budget: Budget,
    oracle: tuple[int, Schedule] | None,
) -> SolveOutcome | None:
    """Solve at one horizon; with ``oracle`` (the result of ``exact_opt``),
    fail when its optimum exceeds ``horizon`` and otherwise replay the
    splits of its schedule instead of enumerating.

    A collapsed (``L = 0``) attempt whose oracle schedule fits ``horizon``
    is answered from it with no search, as the bottom search would answer
    at its root node: it counts one budget node and returns that schedule
    under the padded horizon.  So a collapsed searched run counts the
    oracle's search states plus one node."""
    padded, T2, _pads = pad_to_power_of_two(inst, horizon)
    params = compute_params(T2, inst.m, eps, overrides=overrides or None)
    if oracle is not None:
        opt, held = oracle
        if opt > horizon:
            return None
        if params.L == 0 and held.makespan <= horizon:
            report = verify_valid(inst, held)
            if report.ok and not report.discards:
                budget.tick()  # the root state the bottom search would have entered
                sched = Schedule(T=T2, assign=held.assign)
                return SolveOutcome(horizon=horizon, padded_T=T2, virtual=sched, valid=sched,
                                    discards=0, nodes=budget.nodes)
        reference = _with_sinks(inst, padded, held, horizon)
        sys_out, virtual = solve_hinted(padded, reference, params, budget=budget)
    else:
        sys_out, virtual = main_solve(padded, params, budget)
    valid = virtual
    if params.L > 0:  # with no top jobs both conversions are the identity
        canon = canonicalize(padded, sys_out, virtual, params)
        valid = virtually_valid_to_valid(padded, sys_out, canon, params)
    valid_orig = _originals(valid, inst.n)
    return SolveOutcome(
        horizon=horizon,
        padded_T=T2,
        virtual=_originals(virtual, inst.n),
        valid=valid_orig,
        discards=valid_orig.discard_count,
        nodes=budget.nodes,
    )


def _search_horizon(inst, eps, overrides, budget, oracle, bounds):
    """Minimal horizon whose converted schedule discards nothing.

    ``bounds`` is the run's bound sandwich.  When the tree at its list
    schedule's horizon collapses (``L = 0``), so does every smaller one,
    since ``L = log2 T2 - h`` never falls as ``T2`` grows: the answer is
    the optimum, taken from ``oracle`` or from ``exact_opt``, and one
    attempt there is answered from its schedule.  Such a run counts the
    oracle's search states plus one node.  Deeper trees bisect with
    ``binary_search_makespan``, which probes the lower bound first."""
    if inst.n == 0:  # the search returns horizon 0 without solving
        empty = Schedule(T=0, assign=())
        return SolveOutcome(horizon=0, padded_T=0, virtual=empty, valid=empty, discards=0,
                            nodes=budget.nodes)
    T2 = next_power_of_two(max(bounds[1].makespan, 2))
    if compute_params(T2, inst.m, eps, overrides=overrides or None).L == 0:
        opt, best = oracle or exact_opt(inst, bounds=bounds, budget=budget)
        return _solve_at_horizon(inst, opt, eps, overrides, budget, (opt, best))
    outcomes: dict[int, SolveOutcome] = {}

    def attempt(T0: int) -> Schedule | None:
        got = _solve_at_horizon(inst, T0, eps, overrides, budget, oracle)
        if got is None or got.discards:
            return None
        outcomes[T0] = got
        return got.valid

    T, _ = binary_search_makespan(inst, attempt, bounds)
    return replace(outcomes[T], nodes=budget.nodes)


def cmd_gen(args) -> int:
    inst, edges = gen_instance(args.family, args.n, args.m, args.density, args.seed)
    _emit(io.format_instance(inst, edges), args.out)
    return 0


def cmd_verify(args) -> int:
    inst = io.read_instance(args.instance)
    sched = io.read_schedule(args.schedule)
    report = verify_valid(inst, sched)
    print(report)
    return 0 if report.ok else 1


def cmd_graham(args) -> int:
    inst = io.read_instance(args.instance)
    sched = graham_list(inst)
    _emit(io.format_schedule(sched), args.out)
    chain = longest_chain(inst, inst.all_jobs)
    print(f"graham makespan {sched.makespan} (chain {chain}, jobs {inst.n}, m {inst.m})",
          file=sys.stderr)
    return 0


def cmd_oracle(args) -> int:
    inst = io.read_instance(args.instance)
    opt, sched = exact_opt(inst)
    _emit(io.format_schedule(sched), args.out)
    print(f"optimal makespan {opt}", file=sys.stderr)
    return 0


def _check_budget(args) -> None:
    if args.budget < 0:
        raise ValueError(f"need --budget >= 0, got {args.budget}")


def _common_solve(args, inst: Instance) -> SolveOutcome:
    overrides = _parse_overrides(args.param_override)
    budget = Budget(limit=args.budget)
    eps = _number(args.epsilon, f"--epsilon {args.epsilon!r}")
    if args.horizon is not None and args.horizon < 1:
        raise ValueError(f"need --horizon >= 1, got {args.horizon}")
    _check_budget(args)
    # one sandwich per run, for the oracle and the horizon search; a run
    # with neither needs none
    searched = args.horizon is None
    bounds = bound_sandwich(inst) if args.hinted or searched else None
    oracle = exact_opt(inst, bounds=bounds, budget=budget) if args.hinted else None
    if not searched:
        got = _solve_at_horizon(inst, args.horizon, eps, overrides, budget, oracle)
        if got is None:
            raise NoSolution(f"no zero-discard reference at horizon {args.horizon}")
        return got
    return _search_horizon(inst, eps, overrides, budget, oracle, bounds)


def cmd_solve(args) -> int:
    got = _common_solve(args, io.read_instance(args.instance))
    _emit(io.format_schedule(got.virtual), args.out)
    print(
        f"horizon {got.horizon} padded {got.padded_T}: "
        f"{got.virtual.scheduled_count} scheduled, "
        f"{got.virtual.discard_count} discarded, {got.nodes} nodes",
        file=sys.stderr,
    )
    return 0


def cmd_pipeline(args) -> int:
    inst = io.read_instance(args.instance)
    got = _common_solve(args, inst)
    final = insert_discarded(inst, got.valid)
    _emit(io.format_schedule(final), args.out)
    report = verify_valid(inst, final)
    status = "valid" if report.ok else "INVALID"
    print(
        f"horizon {got.horizon} padded {got.padded_T}: solver discarded {got.discards}, "
        f"final makespan {final.makespan} ({status}, {final.discard_count} discarded)",
        file=sys.stderr,
    )
    return 0 if report.ok else 1


def cmd_bench(args) -> int:
    if args.n < 1:
        raise ValueError(f"bench needs --n >= 1, got {args.n}")
    if args.count < 0:
        raise ValueError(f"bench needs --count >= 0, got {args.count}")
    _check_budget(args)
    eps = _number(args.epsilon, f"--epsilon {args.epsilon!r}")
    overrides = _parse_overrides(args.param_override)
    rows = []
    for i in range(args.count):
        seed = args.seed + i
        inst, edges = gen_instance(args.family, args.n, args.m, args.density, seed)
        name = f"{args.family}-n{args.n}-m{args.m}-s{seed}"
        start = time.perf_counter()
        budget = Budget(limit=args.budget)
        opt, best = exact_opt(inst, budget=budget)
        graham = graham_list(inst).makespan
        got = _solve_at_horizon(inst, opt, eps, overrides, budget, (opt, best))
        final = insert_discarded(inst, got.valid)
        wall_ms = (time.perf_counter() - start) * 1000
        rows.append({
            "instance": name,
            "family": args.family,
            "n": inst.n,
            "m": inst.m,
            "opt": opt,
            "graham": graham,
            "solver_discards": got.discards,
            "final_makespan": final.makespan,
            "ratio": f"{final.makespan / opt:.3f}",
            "wall_time_ms": f"{wall_ms:.1f}",
        })
    rows.sort(key=lambda r: r["instance"])
    if args.format == "csv":
        lines = [",".join(BENCH_COLUMNS)]
        lines += [",".join(str(r[c]) for c in BENCH_COLUMNS) for r in rows]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        widths = {c: max([len(c), *(len(str(r[c])) for r in rows)]) for c in BENCH_COLUMNS}
        lines = ["  ".join(c.ljust(widths[c]) for c in BENCH_COLUMNS)]
        for r in rows:
            lines.append("  ".join(str(r[c]).ljust(widths[c]) for c in BENCH_COLUMNS))
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epsilon", default="1/2", help="accuracy parameter (fraction)")
    p.add_argument("--horizon", type=int, default=None,
                   help="target horizon; searched if omitted")
    p.add_argument("--param-override", action="append", default=[], metavar="K=V",
                   help=f"override a derived parameter; keys: {', '.join(OVERRIDE_KEYS)}")
    p.add_argument("--hinted", action="store_true",
                   help="replay splits recorded from the exact oracle's schedule")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="search node budget: states entered, not children "
                        "cut by a bound or answered from a memo; an L = 0 "
                        "attempt counts only bottom-search states, a searched "
                        "run that collapses to L = 0 the exact oracle's states "
                        "plus one node, and the --hinted oracle's search counts "
                        "too (exit 2 when exhausted)")
    p.add_argument("--out", default=None, help="write the schedule here")


COMMANDS = ("gen", "verify", "graham", "oracle", "solve", "pipeline", "bench")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``psched`` parser with every subcommand, or with ``command``
    alone when it names one; the top-level usage is the same either way.

    Builds a new parser on every call; ``run_command`` keeps the ones it
    builds and reuses them, so callers must not mutate a returned parser."""
    chosen = (command,) if command in COMMANDS else COMMANDS
    parser = argparse.ArgumentParser(
        prog="psched",
        description="Scheduling of precedence-constrained unit jobs on identical machines.",
    )
    subs = parser.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(COMMANDS) + "}" if len(chosen) == 1 else None,
    )

    if "gen" in chosen:
        p = subs.add_parser("gen", help="generate an instance file")
        p.add_argument("--family", choices=FAMILIES, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--density", type=float, default=0.3)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        p.set_defaults(func=cmd_gen)

    if "verify" in chosen:
        p = subs.add_parser("verify", help="check a schedule against an instance")
        p.add_argument("instance")
        p.add_argument("schedule")
        p.set_defaults(func=cmd_verify)

    if "graham" in chosen:
        p = subs.add_parser("graham", help="greedy list schedule")
        p.add_argument("instance")
        p.add_argument("--out", default=None)
        p.set_defaults(func=cmd_graham)

    if "oracle" in chosen:
        p = subs.add_parser("oracle", help="exact optimum")
        p.add_argument("instance")
        p.add_argument("--out", default=None)
        p.set_defaults(func=cmd_oracle)

    if "solve" in chosen:
        p = subs.add_parser(
            "solve",
            help="run the guessing solver; output may place window-constrained "
                 "jobs out of precedence order (see pipeline)",
        )
        p.add_argument("instance")
        _add_solver_flags(p)
        p.set_defaults(func=cmd_solve)

    if "pipeline" in chosen:
        p = subs.add_parser(
            "pipeline",
            help="solve, convert to a valid schedule, re-insert discarded jobs",
        )
        p.add_argument("instance")
        _add_solver_flags(p)
        p.set_defaults(func=cmd_pipeline)

    if "bench" in chosen:
        p = subs.add_parser("bench", help="compare baselines and solver over seeded instances")
        p.add_argument("--family", choices=FAMILIES, default="random-dag")
        p.add_argument("--count", type=int, default=10)
        p.add_argument("--n", type=int, default=8)
        p.add_argument("--m", type=int, default=2)
        p.add_argument("--density", type=float, default=0.3)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--epsilon", default="1/2")
        p.add_argument("--param-override", action="append", default=[], metavar="K=V")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="search node budget per row, shared by the exact "
                            "oracle and the solver (exit 2 when exhausted)")
        p.add_argument("--format", choices=("text", "csv"), default="csv",
                       help=f"csv columns, in order: {', '.join(BENCH_COLUMNS)}")
        p.add_argument("--out", default=None)
        p.set_defaults(func=cmd_bench)
    return parser


# run_command's parsers, one per COMMANDS entry plus None for the full one
_PARSERS: dict[str | None, argparse.ArgumentParser] = {}


def run_command(argv: list[str]) -> int:
    """Run one ``psched`` invocation and return its exit code.

    The parser of ``argv[0]``'s subcommand, or the full parser when it
    names none, is built on first use and reused for the rest of the
    process.  Callers must not mutate it, nor a parsed default: every run
    without ``--param-override`` gets the parser's one default list.
    """
    key = argv[0] if argv and argv[0] in COMMANDS else None
    parser = _PARSERS.get(key)
    if parser is None:
        parser = _PARSERS[key] = build_parser(key)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; keep 2 for budget
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NoSolution, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
