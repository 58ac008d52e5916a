"""Per-layer tracing of a ``psched`` process, installed from outside the package.

``Tracer.install`` rebinds each traced public function in every ``psched``
module namespace that holds it, so calls made through a name imported with
``from .x import f`` are traced too.  Each call becomes a span (name, start,
end, parent span, run id) kept in flat arrays and written out by ``dump``.
Counters that only a call's arguments or result reveal (search nodes, failed
horizon attempts, discards) are recorded by per-function hooks at the same
boundaries.  A layer's self time is its span duration minus the durations of
its child spans; calls are strictly nested because the program is
single-threaded and no traced function is a generator.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

# (module, function) pairs wrapped in spans.  `cli.run_command` is the root:
# one span per `psched` invocation.
SPANNED = (
    ("cli", "run_command"),
    ("cli", "build_parser"),
    ("io", "read_instance"),
    ("io", "parse_instance"),
    ("io", "format_schedule"),
    ("core", "verify_valid"),
    ("baselines", "exact_opt"),
    ("baselines", "graham_list"),
    ("baselines", "capacity_list_schedule"),
    ("transform", "pad_to_power_of_two"),
    ("transform", "binary_search_makespan"),
    ("transform", "insert_discarded"),
    ("dyadic", "compute_params"),
    ("dyadic", "push_down"),
    ("dyadic", "windows"),
    ("dyadic", "system_from_schedule"),
    ("dyadic", "check_virtually_valid"),
    ("convert", "valid_to_virtually_valid"),
    ("convert", "canonicalize"),
    ("convert", "canonical_violations"),
    ("convert", "virtually_valid_to_valid"),
    ("solver", "solve_hinted"),
    ("solver", "main_solve"),
    ("solver", "schedule_subtree"),
    ("solver", "_guess_outcomes"),
    ("solver", "bottom_solve"),
)
# Generator functions: only the items they yield are counted, since a span
# around a generator would interleave with its consumer's spans.
YIELD_COUNTED = (("solver", "enumerate_partitions"),)

ROOT = "cli.run_command"

# Counts that must repeat exactly for one seed (besides every `<span>.calls`).
DETERMINISTIC_COUNTERS = (
    "solver.nodes",
    "solver.schedule_subtree.none",
    "solver.partitions_yielded",
    "dyadic.compute_params.collapsed",
    "transform.attempts_failed",
    "transform.jobs_reinserted",
    "convert.discards_added",
)


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


class Tracer:
    """Span recorder for one traced measurement; create one per run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.run_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter[str] = Counter()
        self._stack: list[int] = []
        self._runs = 0
        self._undo: list[tuple[dict, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions in every loaded ``psched`` module binding them."""
        mods = {
            name.removeprefix("psched."): mod
            for name, mod in sys.modules.items()
            if name.startswith("psched.") and mod is not None
        }
        hooks = self._hooks()
        for mod_name, fn_name in SPANNED:
            original = getattr(mods[mod_name], fn_name)
            if inspect.isgeneratorfunction(original):
                raise TypeError(f"{mod_name}.{fn_name} is a generator; count it instead")
            span = f"{mod_name}.{fn_name}"
            self._rebind(mods, original, self._spanned(span, original, hooks.get(span)))
        for mod_name, fn_name in YIELD_COUNTED:
            original = getattr(mods[mod_name], fn_name)
            self._rebind(mods, original, self._yield_counted(original))

    def uninstall(self) -> None:
        """Restore every binding ``install`` replaced."""
        for namespace, name, original in reversed(self._undo):
            namespace[name] = original
        self._undo.clear()

    def _rebind(self, mods: dict, original, wrapper) -> None:
        for mod in mods.values():
            namespace = vars(mod)
            for name, value in list(namespace.items()):
                if value is original:
                    self._undo.append((namespace, name, original))
                    namespace[name] = wrapper

    def _intern(self, name: str) -> int:
        ix = self._name_ix.get(name)
        if ix is None:
            ix = self._name_ix[name] = len(self.names)
            self.names.append(name)
        return ix

    def _spanned(self, span: str, fn, around):
        ix = self._intern(span)
        is_root = span == ROOT
        stack = self._stack

        def traced(*args, **kwargs):
            if is_root:
                self._runs += 1
            sid = len(self.start)
            self.name_of.append(ix)
            self.parent.append(stack[-1] if stack else -1)
            self.run_of.append(self._runs)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                return around(fn, args, kwargs) if around else fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1

        return traced

    def _yield_counted(self, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counters["solver.partitions_yielded"] += 1
                yield item

        return counted

    def _hooks(self) -> dict:
        """Per-span wrappers ``around(fn, args, kwargs)`` that record counters."""
        c = self.counters

        def main_solve(fn, args, kwargs):
            budget = _arg(args, kwargs, 2, "budget")
            before = budget.nodes
            result = fn(*args, **kwargs)
            c["solver.nodes"] += budget.nodes - before
            return result

        def schedule_subtree(fn, args, kwargs):
            result = fn(*args, **kwargs)
            if result is None:
                c["solver.schedule_subtree.none"] += 1
            return result

        def compute_params(fn, args, kwargs):
            result = fn(*args, **kwargs)
            if result.L == 0:
                c["dyadic.compute_params.collapsed"] += 1
            return result

        def insert_discarded(fn, args, kwargs):
            c["transform.jobs_reinserted"] += _arg(args, kwargs, 1, "sched").discard_count
            return fn(*args, **kwargs)

        def conversion(fn, args, kwargs):
            result = fn(*args, **kwargs)
            sched = _arg(args, kwargs, 2, "sched")
            c["convert.discards_added"] += result.discard_count - sched.discard_count
            return result

        def binary_search_makespan(fn, args, kwargs):
            solver = _arg(args, kwargs, 1, "solver")

            def attempt(T):
                got = solver(T)
                if got is None:
                    c["transform.attempts_failed"] += 1
                return got

            return fn(_arg(args, kwargs, 0, "inst"), attempt)

        return {
            "solver.main_solve": main_solve,
            "solver.schedule_subtree": schedule_subtree,
            "dyadic.compute_params": compute_params,
            "transform.insert_discarded": insert_discarded,
            "transform.binary_search_makespan": binary_search_makespan,
            "convert.valid_to_virtually_valid": conversion,
            "convert.virtually_valid_to_valid": conversion,
        }

    # -- results ----------------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        """Position to measure a later window from (see ``window``)."""
        return len(self.start), Counter(self.counters)

    def window(self, since: tuple[int, Counter]) -> dict[str, float]:
        """Calls, self seconds and counters of the spans recorded after ``since``.

        Returns ``<span>.calls``, ``<span>.self_s`` for every spanned name,
        every counter, and ``trace.total_s`` (summed root spans).
        """
        first, counters0 = since
        names = self.names
        calls = [0] * len(names)
        total = [0.0] * len(names)
        child = [0.0] * len(names)
        root_total = 0.0
        root_ix = self._name_ix.get(ROOT, -1)
        start, end, name_of, parent = self.start, self.end, self.name_of, self.parent
        for sid in range(first, len(start)):
            dur = end[sid] - start[sid]
            ix = name_of[sid]
            calls[ix] += 1
            total[ix] += dur
            p = parent[sid]
            if p >= 0:
                child[name_of[p]] += dur
            elif ix == root_ix:
                root_total += dur
        out: dict[str, float] = {}
        for ix, name in enumerate(names):
            out[f"{name}.calls"] = calls[ix]
            out[f"{name}.self_s"] = total[ix] - child[ix]
        for key in DETERMINISTIC_COUNTERS:
            out[key] = self.counters[key] - counters0[key]
        out["trace.total_s"] = root_total
        return out

    def dump(self, path: str) -> int:
        """Write every span as TSV (gzip): run, span, parent, name, start, end."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("run\tspan\tparent\tname\tstart_s\tend_s\n")
            names = self.names
            for sid in range(len(self.start)):
                fh.write(
                    f"{self.run_of[sid]}\t{sid}\t{self.parent[sid]}\t"
                    f"{names[self.name_of[sid]]}\t{self.start[sid]:.9f}\t{self.end[sid]:.9f}\n"
                )
        return len(self.start)
