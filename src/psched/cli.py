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
import os
import sys
import time
from fractions import Fraction

from . import io, pipeline
from .baselines import exact_opt, graham_list
from .core import longest_chain, verify_valid
from .dyadic import OVERRIDE_KEYS
from .errors import DEFAULT_BUDGET, Budget, BudgetExceeded, NoSolution
from .generators import FAMILIES, gen_instance
from .transform import insert_discarded

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
    """Write ``text`` to stdout, or as UTF-8 bytes to the file ``out``,
    created with ``open(out, "w")``'s mode: a run writes one small file,
    and a text file object's buffer and encoder cost more than the write."""
    if not out:
        sys.stdout.write(text)
        return
    fd = os.open(out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        data = memoryview(text.encode("utf-8"))
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


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


def _solve_flags(args) -> dict:
    """The keyword arguments of ``pipeline.solve`` that ``args`` holds."""
    overrides = _parse_overrides(args.param_override)
    eps = _number(args.epsilon, f"--epsilon {args.epsilon!r}")
    return dict(eps=eps, overrides=overrides, horizon=args.horizon, hinted=args.hinted,
                budget=args.budget)


def cmd_solve(args) -> int:
    got = pipeline.solve(io.read_instance(args.instance), **_solve_flags(args))
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
    got, final = pipeline.pipeline(inst, **_solve_flags(args))
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
    if args.budget < 0:
        raise ValueError(f"need --budget >= 0, got {args.budget}")
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
        got = pipeline.solve_at_horizon(inst, opt, eps, overrides, budget, (opt, best))
        final = insert_discarded(inst, got.valid) if got.discards else got.valid
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
                        "attempt counts only bottom-search states, and a "
                        "--hinted run or a searched run that collapses to "
                        "L = 0 exactly the exact oracle's own search states; "
                        "the split-outcome walk's steps count apart, against "
                        "the same limit (exit 2 when either runs out)")
    p.add_argument("--out", default=None, help="write the schedule here")


COMMANDS = ("gen", "verify", "graham", "oracle", "solve", "pipeline", "bench")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``psched`` parser with every subcommand, or with ``command``
    alone when it names one (its ``commands`` maps each to its own
    parser); the top-level usage is the same either way.  Each subcommand
    parser keeps the ``_argv_table`` of its own actions as ``argv_table``.

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
                            "oracle's search and the solver's; the split-outcome "
                            "walk's steps count apart, against the same limit "
                            "(exit 2 when either runs out)")
        p.add_argument("--format", choices=("text", "csv"), default="csv",
                       help=f"csv columns, in order: {', '.join(BENCH_COLUMNS)}")
        p.add_argument("--out", default=None)
        p.set_defaults(func=cmd_bench)
    parser.commands = subs.choices
    for p in parser.commands.values():
        p.argv_table = _argv_table(p)
    return parser


# the actions _read_argv reads as argparse does: store, store_true, append
_READ = (argparse._StoreAction, argparse._StoreTrueAction, argparse._AppendAction)


def _argv_table(p: argparse.ArgumentParser) -> tuple | None:
    """``(option string -> action, positional actions, defaults, required
    options)`` from ``p``'s actions and ``set_defaults``, help left out; None
    when an action is not in ``_READ``, takes ``nargs`` or ``choices``, or
    has a string default that argparse would convert."""
    options, positionals, required = {}, [], set()
    defaults = {a.dest: a.default for a in p._actions if a.default is not argparse.SUPPRESS}
    for action in p._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if (type(action) not in _READ or action.nargs not in (None, 0)
                or action.choices is not None
                or (isinstance(action.default, str) and action.type is not None)):
            return None
        options.update(dict.fromkeys(action.option_strings, action))
        if not action.option_strings:
            positionals.append(action)
        elif action.required:
            required.add(action)
    for dest, value in p._defaults.items():
        defaults.setdefault(dest, value)
    return options, positionals, defaults, required


def _value(action: argparse.Action, text: str):
    return text if action.type is None else action.type(text)


def _read_argv(table: tuple, command: str, argv: list[str]) -> argparse.Namespace | None:
    """``parse_known_args(argv, Namespace(command=command))`` with no
    extras, read from ``table`` in one pass; None wherever argparse may read
    ``argv`` otherwise: a word starting with ``-`` that is not a table option
    (help, an abbreviation, ``--opt=value``, ``--``), an option value starting
    with ``-`` or missing, a value its type rejects, a positional too many or
    too few, or a required option left out."""
    options, positionals, defaults, required = table
    args = argparse.Namespace(command=command, **defaults)
    words, seen = [], set()
    rest = iter(argv)
    try:
        for word in rest:
            if word[:1] != "-":
                words.append(word)
                continue
            action = options.get(word)
            if action is None:
                return None
            seen.add(action)
            if action.nargs == 0:
                setattr(args, action.dest, action.const)
                continue
            text = next(rest, None)
            if text is None or text[:1] == "-":
                return None
            value = _value(action, text)
            if type(action) is argparse._AppendAction:
                value = [*(getattr(args, action.dest) or ()), value]
            setattr(args, action.dest, value)
        if len(words) != len(positionals) or not required <= seen:
            return None
        for action, word in zip(positionals, words):
            setattr(args, action.dest, _value(action, word))
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    return args


# run_command's parsers, one per COMMANDS entry plus None for the full one,
# built on first use and reused: mutate none, nor a parsed default (every
# run without --param-override gets the parser's one default list)
_PARSERS: dict[str | None, argparse.ArgumentParser] = {}


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser(None).parse_args(argv)``, help and usage errors
    (``SystemExit``) included, in one level: the rest of a subcommand's
    ``argv`` is read from its parser's ``argv_table``; where there is none or
    ``_read_argv`` cannot read it, the subcommand's parser alone reads it,
    and what that leaves over gets the top-level ``unrecognized arguments``
    error."""
    key = argv[0] if argv and argv[0] in COMMANDS else None
    parser = _PARSERS.get(key)
    if parser is None:
        parser = _PARSERS[key] = build_parser(key)
    if key is None:
        return parser.parse_args(argv)
    sub = parser.commands[key]
    args = None if sub.argv_table is None else _read_argv(sub.argv_table, key, argv[1:])
    if args is None:
        args, extras = sub.parse_known_args(argv[1:], argparse.Namespace(command=key))
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def run_command(argv: list[str]) -> int:
    """Run one ``psched`` invocation and return its exit code: 0 after
    ``--help``, 1 on a usage error, otherwise the subcommand's (2 when the
    budget runs out, 1 on other errors).  ``_parse_args`` reads ``argv``."""
    try:
        args = _parse_args(argv)
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
