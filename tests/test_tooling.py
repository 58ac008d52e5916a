"""The traced benchmark's view of the package still resolves.

``perfbench/tracing.py`` wraps package functions looked up by (module,
name) and reads some of their arguments by position; a refactor that
renames, moves or reshapes one of them must fail here, not only in a
benchmark run.  The module is loaded from its file and left unchanged.
"""

import ast
import contextlib
import importlib
import importlib.util
import io as textio
import inspect
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from psched import cli, core, generators, solver
from psched import io as psched_io
from psched.baselines import exact_opt
from psched.core import Schedule
from psched.dyadic import compute_params
from psched.generators import gen_instance

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracing = _load_tracing()


def _resolve(mod_name, fn_name):
    mod = importlib.import_module(f"psched.{mod_name}")
    assert hasattr(mod, fn_name), f"psched.{mod_name}.{fn_name} is gone"
    return getattr(mod, fn_name)


@pytest.mark.parametrize("mod_name, fn_name", tracing.SPANNED)
def test_spanned_functions_resolve_and_return(mod_name, fn_name):
    fn = _resolve(mod_name, fn_name)
    assert callable(fn) and not inspect.isgeneratorfunction(fn)


@pytest.mark.parametrize("mod_name, fn_name", tracing.YIELD_COUNTED)
def test_yield_counted_functions_are_generators(mod_name, fn_name):
    assert inspect.isgeneratorfunction(_resolve(mod_name, fn_name))


@pytest.mark.parametrize("mod_name, fn_name, index, name", [
    ("solver", "main_solve", 2, "budget"),
    ("transform", "insert_discarded", 1, "sched"),
    ("transform", "binary_search_makespan", 0, "inst"),
    ("transform", "binary_search_makespan", 1, "solver"),
    ("convert", "valid_to_virtually_valid", 2, "sched"),
    ("convert", "virtually_valid_to_valid", 2, "sched"),
])
def test_hooked_arguments_keep_their_positions(mod_name, fn_name, index, name):
    params = list(inspect.signature(_resolve(mod_name, fn_name)).parameters)
    assert params[index] == name


def test_tracer_sees_no_search_in_a_deep_hinted_solve():
    # the tracer reads solver.nodes off the budget main_solve gets at
    # index 2; a deep hinted solve answers with the reference's conversion,
    # so it enters no search layer and the tracer counts no node
    inst, _ = gen_instance("random-dag", 16, 2, 0.3, 0)
    params = compute_params(32, 2, Fraction(1, 2), overrides={"h": 1, "hp": 1, "p": 2})
    assert params.L > 0
    reference = Schedule(T=32, assign=exact_opt(inst)[1].assign)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        since = tracer.mark()
        solver.solve_hinted(inst, reference, params)  # the name the tracer rebinds
    finally:
        tracer.uninstall()
    window = tracer.window(since)
    searched = ("solver.main_solve.calls", "solver.schedule_subtree.calls",
                "solver.bottom_solve.calls", "solver.nodes")
    assert window["solver.solve_hinted.calls"] == 1
    assert {key: window[key] for key in searched} == dict.fromkeys(searched, 0)


def test_tracer_sees_one_parser_build_for_repeated_runs(tmp_path, monkeypatch):
    # run_command reuses the parser it builds; the tracer's rebinding of
    # cli.build_parser must still see that one build, so the traced
    # cli.build_parser.self_s measures real builds
    inst_path = tmp_path / "i.psched"
    assert cli.run_command(["gen", "--family", "random-dag", "--n", "9", "--m", "3",
                            "--seed", "5", "--out", str(inst_path)]) == 0
    monkeypatch.setattr(cli, "_PARSERS", {})
    argv = ["pipeline", str(inst_path), "--out", str(tmp_path / "o.sched")]
    build_parser = cli.build_parser
    tracer = tracing.Tracer()
    tracer.install()
    try:
        since = tracer.mark()
        codes = [cli.run_command(argv) for _ in range(3)]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0]
    window = tracer.window(since)
    assert window["cli.run_command.calls"] == 3
    assert window["cli.build_parser.calls"] == 1
    assert cli.build_parser is build_parser


def test_exact_opt_searches_when_baselines_is_imported_first():
    # the oracle's search lives in baselines, which imports no solver
    # module; a fresh interpreter that loads baselines before anything else
    # must still reach the search, here on an instance whose level bound 7
    # is below both list schedules' 8
    code = (
        "import psched.baselines as b\n"
        "from psched.generators import gen_instance\n"
        "inst, _ = gen_instance('random-dag', 12, 2, 0.3, 162)\n"
        "lower, upper = b.bound_sandwich(inst)\n"
        "opt, sched = b.exact_opt(inst)\n"
        "print(lower, upper.makespan, opt, sched.makespan, sched.discard_count)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out == "7 8 8 8 0\n"


def test_package_imports_sit_at_module_level_and_solver_needs_no_baselines():
    # an import inside a function or under TYPE_CHECKING hides an import
    # cycle; the solver and the exact oracle each own their search
    problems = []
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                problems += [f"{path.stem}.{node.name} imports in its body"
                             for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))]
            elif isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
                problems.append(f"{path.stem} has a TYPE_CHECKING block")
            elif path.stem == "solver" and isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
                if any(name.rsplit(".", 1)[-1] == "baselines" for name in names):
                    problems.append("solver imports from baselines")
    assert problems == []


def test_every_top_level_definition_is_named_in_the_package():
    # a top-level function, class or assigned name (``__all__`` aside)
    # that no module of the package reads is code nothing uses, unless
    # the tracer wraps it by name
    traced = {*tracing.SPANNED, *tracing.YIELD_COUNTED}
    defined, named = [], set()
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.stem, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(path.stem, t.id) for t in targets
                            if isinstance(t, ast.Name) and t.id != "__all__"]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    assert [f"{mod}.{name}" for mod, name in defined
            if name not in named and (mod, name) not in traced] == []


@pytest.mark.parametrize("n, m, seed, flags, counts", [
    # certified: the collapsed attempt is the oracle's schedule, so no
    # hinted solve and no system; check_reference and the final status
    # check are the only validity checks, and nothing is discarded, so
    # nothing is re-inserted
    (9, 3, 5, ["--hinted"],
     {"solver.solve_hinted.calls": 0, "dyadic.system_from_schedule.calls": 0,
      "core.verify_valid.calls": 2, "solver.main_solve.calls": 0,
      "transform.insert_discarded.calls": 0}),
    (5, 2, 0, ["--param-override", "h=1", "--param-override", "hp=1",
               "--param-override", "p=2"],
     {"transform.binary_search_makespan.calls": 1}),
    # one deep hinted attempt that keeps jobs: the check of the
    # virtually-valid reference computes the only windows and searches
    # nothing, and at h = 1 it places no top job, so nothing converts
    (16, 2, 0, ["--hinted", "--horizon", "32", "--param-override", "h=1",
                "--param-override", "hp=1", "--param-override", "p=2"],
     {"dyadic.windows.calls": 1, "dyadic.check_virtually_valid.calls": 1,
      "solver.solve_hinted.calls": 1, "solver.main_solve.calls": 0,
      "solver.bottom_solve.calls": 0,
      "convert.canonicalize.calls": 0, "convert.virtually_valid_to_valid.calls": 0}),
    # at h = 2 it places top jobs: after the hinted solve's check, one
    # conversion, which computes its own windows, checks its input with
    # them and canonicalizes in place
    (24, 3, 1, ["--hinted", "--horizon", "32", "--param-override", "h=2",
                "--param-override", "hp=1", "--param-override", "p=2"],
     {"dyadic.windows.calls": 2, "dyadic.check_virtually_valid.calls": 2,
      "solver.solve_hinted.calls": 1, "solver.main_solve.calls": 0,
      "convert.canonicalize.calls": 0, "convert.virtually_valid_to_valid.calls": 1}),
], ids=["certified-hinted", "deep-searched", "deep-hinted", "deep-hinted-converted"])
def test_tracer_sees_the_layers_the_pipeline_module_calls(tmp_path, n, m, seed, flags,
                                                          counts):
    # the solving steps run from psched.pipeline, not from cli; the
    # tracer rebinds the names that module imported, so it still sees them
    inst_path = tmp_path / "i.psched"
    assert cli.run_command(["gen", "--family", "random-dag", "--n", str(n), "--m", str(m),
                            "--seed", str(seed), "--out", str(inst_path)]) == 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        since = tracer.mark()
        code = cli.run_command(["pipeline", str(inst_path), *flags,
                                "--out", str(tmp_path / "o.sched")])
    finally:
        tracer.uninstall()
    assert code == 0
    window = tracer.window(since)
    assert {key: window[key] for key in counts} == counts


def _deep_enum_pool(tmp_path, monkeypatch):
    """The benchmark's deep-enum pool at seed 301, built by the benchmark's
    own code for this process's package."""
    monkeypatch.syspath_prepend(str(TRACING_PATH.parent))
    spec = importlib.util.spec_from_file_location("perfbench_run", TRACING_PATH.parent / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up
    spec.loader.exec_module(run)
    mods = {"core": core, "generators": generators, "io": psched_io}
    return run.build_pool(mods, run.WORKLOADS["deep-enum"], 301, tmp_path)


def test_traced_deep_enum_pass_keeps_its_per_layer_counts(tmp_path, monkeypatch):
    # one traced pass of the deep-enum pool: what a search state costs may
    # change, the states the pass enters may not.  An empty subproblem (no
    # ancestor, no job in any set) is answered at once and enters no node:
    # it makes no subtree call, bottom search or partition below it, which
    # takes 112 subtree calls, 28 bottom searches and 56 partitions off the
    # 356, 71 and 183 of its search, every instance's one descent of an
    # empty chain, and the 112 nodes of those descents off the 436.  A
    # subproblem is answered from the memo only at the interval it was
    # stored for, which took 8 nodes and 2 bottom searches more than
    # answering one moved along its level too: 324 and 43
    cases = _deep_enum_pool(tmp_path, monkeypatch)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        since = tracer.mark()
        with contextlib.redirect_stderr(textio.StringIO()):
            codes = [cli.run_command(case.argv) for case in cases]
    finally:
        tracer.uninstall()
    assert codes == [0] * 28
    window = tracer.window(since)
    counts = ("solver.nodes", "solver.schedule_subtree.calls", "solver.bottom_solve.calls",
              "solver.partitions_yielded")
    assert [window[key] for key in counts] == [332, 244, 45, 127]


def test_deep_enum_pass_searches_no_empty_subproblem(tmp_path, monkeypatch):
    # the same pool: every bottom search and every partition listing runs
    # inside a subproblem that holds a job
    cases = _deep_enum_pool(tmp_path, monkeypatch)
    inside: list[solver.SubproblemInput] = []  # the subproblems being solved
    seen = {"bottom_solve": 0, "enumerate_partitions": 0}
    originals = {name: getattr(solver, name) for name in ("schedule_subtree", *seen)}

    def schedule_subtree(inst, sub, *args):
        inside.append(sub)
        try:
            return originals["schedule_subtree"](inst, sub, *args)
        finally:
            inside.pop()

    def searched(name):
        def spy(*args):
            sub = inside[-1]
            assert sub.anc_windows or sub.sets, (
                name, sub)
            seen[name] += 1
            return originals[name](*args)
        return spy

    monkeypatch.setattr(solver, "schedule_subtree", schedule_subtree)
    for name in seen:
        monkeypatch.setattr(solver, name, searched(name))
    with contextlib.redirect_stderr(textio.StringIO()):
        codes = [cli.run_command(case.argv) for case in cases]
    assert codes == [0] * 28
    assert seen == {"bottom_solve": 45, "enumerate_partitions": 127}
