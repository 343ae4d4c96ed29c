"""The README's library example, the package's exports, the benchmark's
hooks, the value dump, the phase-grid timer and the law-build timer (over
every atom-table part) stay runnable, the README's
descriptor reference lists the descriptor tables, every array
sum in the engine takes one code path, no engine module builds an array
with np.r_ or np.c_, no engine module calls laws.expect
or laws.survival, the criteria compare nothing against the boundary
slack that laws.Levels owns and no other module compares the correlation
check's min_value, no module evaluates a kernel point by point
or walks a law atom by atom, one root-finder serves the quantile and the level sets
without nesting, and building the discrete models imports no
exact-arithmetic or scipy module, no function, method or class of
the package is reached only from tests, every kernel oracle table
belongs to a model kind, no subcommand registers a flag that its
command never reads, the criteria read no descriptor field, and one
table names the criteria for the CLI and the benchmark."""

import ast
import contextlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_readme_library_example_runs():
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    (block,) = re.findall(r"## Library\n\n```python\n(.*?)```", readme, re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[0] == "0.0005282132768118696"
    assert lines[1].startswith("CriterionReport(criterion='RHO_FP'")


def test_readme_lists_every_descriptor_kind_and_field():
    # the README's descriptor reference is the four tables, kind by kind
    from fpsq.kernels import LINK_KINDS, MODEL_KINDS, MU_KINDS
    from fpsq.laws import PRIOR_KINDS

    def entry(field, field_type, *default):
        extra = "" if not default else ", optional" if default[0] is None else f", default {default[0]}"
        return f"`{field}` ({field_type[0]}{extra})"

    want = [f"- `{kind}`: " + (", ".join(entry(field, *e) for field, e in fields.items()) or "no fields")
            for table in (MODEL_KINDS, PRIOR_KINDS, MU_KINDS, LINK_KINDS) for kind, (fields, _) in table.items()]
    with open(os.path.join(ROOT, "README.md")) as fh:
        (section,) = re.findall(r"\n## Model descriptors\n(.*?)\n## ", fh.read(), re.S)
    assert [line for line in section.splitlines() if line.startswith("- `")] == want


def test_benchmark_tracer_finds_every_attribute_it_wraps():
    # the traced benchmark wraps fpsq functions by module attribute;
    # installing it fails if one of them has been renamed or deleted
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import spans; spans.Tracer().install()")
    subprocess.run([sys.executable, "-c", code, os.path.join(ROOT, "src"),
                    os.path.join(ROOT, "perfbench")], check=True, cwd=ROOT, timeout=120)


def test_every_export_resolves():
    # a name left in fpsq.__all__ after its object is gone fails the star import
    code = "import sys; sys.path[:0] = [sys.argv[1]]; from fpsq import *"
    subprocess.run([sys.executable, "-c", code, os.path.join(ROOT, "src")], check=True, cwd=ROOT, timeout=120)


def test_cli_import_leaves_scenarios_and_oracles_unloaded():
    # startup cost guard: only the preset lookup, kernel, reproduce and check
    # import fpsq.scenarios, and fpsq exports the oracles lazily
    code = ("import sys; sys.path[:0] = [sys.argv[1]]; import fpsq.cli; "
            "print(sorted(m for m in sys.modules if m in ('fpsq.scenarios', 'fpsq.oracles')))")
    out = subprocess.run([sys.executable, "-c", code, os.path.join(ROOT, "src")], capture_output=True, text=True,
                         check=True, cwd=ROOT, timeout=120).stdout
    assert out == "[]\n"


def test_sweep_values_dumps_every_benchmark_cell():
    # tests/sweep_values.py prints each workload's cells as exact reprs,
    # for diffing two checkouts
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, os.path.join(ROOT, "tests", "sweep_values.py"), "0"],
                         env=env, cwd=ROOT, capture_output=True, text=True, check=True,
                         timeout=300).stdout
    payload = json.loads(out)
    assert sorted(payload) == ["discrete-large", "discrete-wide", "sphere-sweep"]
    cells = payload["discrete-wide"]["0"]
    assert len(cells) == 945
    gfp = [v for k, v in cells.items() if "|gfp|" in k]
    assert len(gfp) == 135 and all(isinstance(v, list) and len(v) == 3 for v in gfp)


def test_sweep_values_compares_two_outputs(tmp_path):
    # --compare prints each cell that moved, went missing or changed kind,
    # with the relative change of its value, and exits 1 if any did
    old = {"w": {"0": {"a": [1.0, 0.0, False], "b": [2.0, 0.5, False], "c": [3.0, 1.0, False],
                       "d": "ValueError: no"}}}
    new = {"w": {"0": {"a": [1.0, 0.0, False], "b": [2.0 * (1 + 2**-50), 0.5, False],
                       "d": [4.0, 1.5, False]}}}
    paths = []
    for name, payload in (("old", old), ("new", new)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(payload))
    script = os.path.join(ROOT, "tests", "sweep_values.py")
    run = lambda a, b: subprocess.run([sys.executable, script, "--compare", str(a), str(b)],
                                      capture_output=True, text=True, timeout=60)
    moved = run(*paths)
    assert moved.returncode == 1 and moved.stdout.splitlines() == [
        "w 0 b: [2.0, 0.5, false] -> [2.0000000000000018, 0.5, false]  (relative +8.882e-16)",
        "w 0 c: [3.0, 1.0, false] -> missing",
        'w 0 d: "ValueError: no" -> [4.0, 1.5, false]',
        "3 of 4 cells moved",
    ]
    same = run(paths[0], paths[0])
    assert same.returncode == 0 and same.stdout == "0 of 4 cells moved\n"


def test_phase_grid_times_every_criterion():
    # tests/phase_grid.py times a 16 q x 16 m sweep of all seven criteria
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, os.path.join(ROOT, "tests", "phase_grid.py"), "1000"],
                         env=env, cwd=ROOT, capture_output=True, text=True, check=True,
                         timeout=300).stdout
    payload = json.loads(out)
    assert sorted(payload) == ["build_s", "cells", "criteria_s", "gfp_memo_mb", "n", "peak_rss_mb", "sweep_s"]
    assert payload["n"] == 1000 and payload["cells"] == 7 * 16 * 16
    assert sorted(payload["criteria_s"]) == sorted(["fp", "rho_fp", "gfp", "sq", "usq", "chi2", "ld"])
    assert all(t >= 0.0 for t in payload["criteria_s"].values())
    assert math.isclose(payload["sweep_s"], sum(payload["criteria_s"].values()))
    assert payload["build_s"] >= 0.0 and payload["peak_rss_mb"] > 0.0
    assert 0.0 < payload["gfp_memo_mb"] < payload["peak_rss_mb"]


def test_law_build_times_every_law():
    # tests/law_build.py times build_model and the atom table on the largest
    # discrete laws; SCALE = 100 shrinks them
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, os.path.join(ROOT, "tests", "law_build.py"), "100"],
                         env=env, cwd=ROOT, capture_output=True, text=True, check=True,
                         timeout=300).stdout
    payload = json.loads(out)
    assert sorted(payload) == ["laws", "peak_rss_mb", "scale"] and payload["scale"] == 100
    assert [entry["law"] for entry in payload["laws"]] == [
        {"kind": "signed_sparse", "n": 10, "k": 2},
        {"kind": "signed_sparse", "n": 1000, "k": 10},
        {"kind": "rademacher_mean", "n": 10_000},
        {"kind": "hypergeometric", "n": 10**7, "k": 1000},
    ]
    assert [entry["model"] for entry in payload["laws"]] == ["ngca", "ngca", "gam", "mslr"]
    assert [entry["atoms"] for entry in payload["laws"]] == [5, 21, 10_001, 1001]
    assert all(sorted(entry) == ["atom_table_s", "atoms", "build_s", "law", "model"]
               and entry["build_s"] >= 0.0 and entry["atom_table_s"] >= 0.0
               for entry in payload["laws"])
    assert payload["peak_rss_mb"] > 0.0


def test_law_build_reads_every_part_of_the_atom_table():
    # atom_table_s times the whole table: every part the table builds on first
    # read, but log_orbit_mass, which GFP alone reads and was never in it
    from functools import cached_property

    import law_build
    from fpsq.kernels import AtomTable

    parts = {name for name, attr in vars(AtomTable).items() if isinstance(attr, cached_property)}
    assert set(law_build.PARTS) == parts - {"log_orbit_mass"}


def test_array_sums_go_through_exact_sum():
    # numerics.exact_sum is the one code path that sums an array; short
    # Python-level lists may keep math.fsum
    offenders = []
    src = os.path.join(ROOT, "src", "fpsq")
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read(), name)
        exempt = [node for node in ast.walk(tree)  # exact_sum's own hand-over to math.fsum
                  if isinstance(node, ast.FunctionDef) and node.name == "exact_sum"]
        calls = {node for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and ast.unparse(node.func) == "math.fsum"
                 and any(isinstance(inner, ast.Attribute) and inner.attr == "tolist"
                         for inner in ast.walk(node))}
        calls -= {node for func in exempt for node in ast.walk(func)}
        offenders += [f"{name}:{node.lineno}" for node in calls]
    assert sorted(offenders) == []


def test_engine_builds_arrays_without_index_tricks():
    # np.r_ and np.c_ parse their index on every call, about 18% of a
    # sphere sweep's CPU; the engine modules join arrays with
    # np.concatenate and np.column_stack (scenarios.py is off the hot path)
    offenders = []
    for name in ("laws.py", "criteria.py", "kernels.py", "numerics.py"):
        with open(os.path.join(ROOT, "src", "fpsq", name)) as fh:
            tree = ast.parse(fh.read(), name)
        offenders += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr in ("r_", "c_")
                      and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")]
    assert offenders == []


def test_boundary_slack_lives_in_levels():
    # a discrete event's boundary is laws.Levels.cut, which owns the 1e-12
    # slack; the criteria import that one constant and compare nothing
    # against it (GFP's mass slack is arithmetic, not a comparison)
    from fpsq import criteria, laws

    slack = re.compile(r"_?REL(_TOL)?$")
    with open(os.path.join(ROOT, "src", "fpsq", "criteria.py")) as fh:
        tree = ast.parse(fh.read(), "criteria.py")
    compares = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
                and any(isinstance(inner, ast.Name) and slack.match(inner.id) for inner in ast.walk(node))]
    copies = [target.id for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets if isinstance(target, ast.Name) and slack.match(target.id)]
    assert compares == [] and copies == []
    assert criteria.REL_TOL is laws.REL_TOL


def test_the_assumption_tolerance_lives_in_criteria():
    # criteria.assumption_holds owns the correlation check's tolerance and
    # its verdict, report.passed; no other module compares a min_value,
    # in place or through the scenarios' _ge_check and _le_check
    def comparing(node):
        return (isinstance(node, ast.Compare) or isinstance(node, ast.Call)
                and ast.unparse(node.func) in ("_ge_check", "_le_check"))

    offenders = []
    src = os.path.join(ROOT, "src", "fpsq")
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py") or name == "criteria.py":
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read(), name)
        offenders += [f"{name}:{node.lineno}" for node in ast.walk(tree) if comparing(node)
                      and any(isinstance(inner, ast.Attribute) and inner.attr == "min_value"
                              for inner in ast.walk(node))]
    assert offenders == []


def test_engine_calls_neither_expect_nor_survival():
    # every expectation reads a model's table; laws.expect and laws.survival
    # stay only for the package exports and the benchmark's tracer (a
    # method named expect on another object would be a different call)
    offenders = []
    src = os.path.join(ROOT, "src", "fpsq")
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and ast.unparse(func.value) in ("laws", "fpsq.laws"):
                called = func.attr
            else:
                called = func.id if isinstance(func, ast.Name) else None
            if called in ("expect", "survival"):
                offenders.append(f"{name}:{node.lineno}")
    assert offenders == []


def test_no_loop_evaluates_a_kernel_point_by_point():
    # a kernel maps an array of statistics to log K in one call, so no
    # comprehension or for loop in the engine calls it once per point
    kernel_calls = {"log_eval", "log_fn", "minus_one", "truncated_minus_one", "eval"}
    loops = (ast.For, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    offenders = []
    for name in ("criteria.py", "kernels.py", "laws.py"):
        with open(os.path.join(ROOT, "src", "fpsq", name)) as fh:
            tree = ast.parse(fh.read(), name)
        for loop in (node for node in ast.walk(tree) if isinstance(node, loops)):
            for node in ast.walk(loop):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if called in kernel_calls:
                    offenders.append(f"{name}:{node.lineno}")
    assert offenders == []


def test_no_loop_walks_a_law_atom_by_atom():
    # a discrete law is numpy arrays from its construction through the
    # criteria, so no comprehension or for loop in the engine iterates over
    # a law's arrays, read directly or through a local name bound to one
    # (x.values() is a dict's); the functions the benchmark's tracer still
    # wraps keep their per-atom view (laws.expect)
    arrays = {"values", "probs", "log_probs", "atoms", "atom_values"}
    exempt = {"expect"}
    loops = (ast.For, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)

    def law_array(node):
        return isinstance(node, ast.Attribute) and node.attr in arrays

    offenders = set()
    for name in ("criteria.py", "kernels.py", "laws.py"):
        with open(os.path.join(ROOT, "src", "fpsq", name)) as fh:
            tree = ast.parse(fh.read(), name)
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef) or func.name in exempt:
                continue
            bound = set()
            for node in ast.walk(func):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        pairs = (zip(target.elts, node.value.elts)
                                 if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                                 else [(target, node.value)])
                        bound |= {t.id for t, v in pairs if isinstance(t, ast.Name) and law_array(v)}
            for loop in (node for node in ast.walk(func) if isinstance(node, loops)):
                for it in [loop.iter] if isinstance(loop, ast.For) else [g.iter for g in loop.generators]:
                    called = {id(node.func) for node in ast.walk(it) if isinstance(node, ast.Call)}
                    if any(law_array(node) and not (node.attr == "values" and id(node) in called)
                           or isinstance(node, ast.Name) and node.id in bound for node in ast.walk(it)):
                        offenders.add(f"{name}:{it.lineno}")
    assert sorted(offenders) == []


def test_find_root_serves_the_quantile_and_the_level_sets_alone():
    # laws.find_root is called by the sphere quantile and by LevelSets
    # only, and no function handed to it calls it in turn
    callers, nested = set(), []

    def calls_find_root(node):
        return any(isinstance(n, ast.Call) and ast.unparse(n.func).endswith("find_root")
                   for n in ast.walk(node))

    def visit(node, scope, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name], child if isinstance(child, ast.FunctionDef) else function)
                continue
            if isinstance(child, ast.Call) and ast.unparse(child.func).endswith("find_root"):
                callers.add(".".join(scope))
                passed = child.args[0]
                if isinstance(passed, ast.Name):  # a def or a lambda bound in the caller
                    passed = [n for n in ast.walk(function)
                              if isinstance(n, ast.FunctionDef) and n.name == passed.id
                              or isinstance(n, ast.Assign) and ast.unparse(n.targets[0]) == passed.id]
                    passed = passed[0] if passed else None
                if passed is None or calls_find_root(passed):
                    nested.append(f"{'.'.join(scope)}:{child.lineno}")
            visit(child, scope, function)

    src = os.path.join(ROOT, "src", "fpsq")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                visit(ast.parse(fh.read(), name), [name[:-3]], None)
    assert callers == {"laws.SphereLaw.ppf", "laws.LevelSets.threshold"}
    assert nested == []


def test_discrete_models_build_without_exact_arithmetic_modules():
    # every module the cli's import graph or a law's construction pulls in
    # is paid on each start; the discrete laws need math.comb and numpy only
    code = ("import random, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import fpsq.cli, grids; from fpsq.kernels import build_model; "
            "from fpsq.scenarios import BUILTIN_MODEL_DESCRIPTORS as presets; "
            "models = [build_model(d) for d in presets.values()] + "
            "[build_model(b.desc) for b in grids.discrete_large(random.Random(0), False)]; "
            "assert sum(m.is_discrete for m in models) == 14; "
            "print(sorted(m for m in ('fractions', 'decimal', 'mpmath', 'scipy') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, os.path.join(ROOT, "src"),
                          os.path.join(ROOT, "perfbench")], capture_output=True, text=True,
                         check=True, cwd=ROOT, timeout=120).stdout
    assert out == "[]\n"


def test_kernel_oracles_cover_model_kinds_and_the_rest_are_refused():
    # every oracle table belongs to a model kind, and kernel_table refuses
    # each kind that has none
    import pytest

    from fpsq.kernels import MODEL_KINDS
    from fpsq.oracles import KERNEL_ORACLES
    from fpsq.scenarios import kernel_table

    assert set(KERNEL_ORACLES) <= set(MODEL_KINDS)
    without = {
        "si": {"model": "si", "link": {"kind": "sign"}, "prior": {"kind": "sphere", "n": 10}, "max_degree": 8},
        "synthetic": {"model": "synthetic", "values": [0.0], "probs": [1.0], "kernel_values": [1.0]},
    }
    assert set(MODEL_KINDS) - set(KERNEL_ORACLES) == set(without)
    for kind, desc in without.items():
        with pytest.raises(ValueError, match=f"^no oracle-backed kernel table for model '{kind}'$"):
            kernel_table(desc)


def test_every_definition_is_referenced_in_the_package():
    # a function, method or class that nothing in src/fpsq names outside its
    # own definition (fpsq.__init__'s re-exports aside) is reached only from
    # tests; a name counts wherever it appears, as a name, an attribute or
    # an import, so two definitions sharing a name cover each other
    allowed = {
        "rho_g", "survival",  # wrapped by perfbench/spans.py's tracer until the benchmark reads counters
        "tail_bound",  # Kernel.tail_bound, until the kernels give the series tail a bound
        "si_lambda_coeffs",  # exported: the lambda_i of a single-index link
    }
    definitions, references = [], {}

    def visit(node, owners):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((f"{name}:{child.lineno}", child.name, child))
                visit(child, owners + [child])
                continue
            ident = (child.id if isinstance(child, ast.Name) else child.attr if isinstance(child, ast.Attribute)
                     else child.name.split(".")[-1] if isinstance(child, ast.alias) else None)
            if ident is not None:
                references.setdefault(ident, []).append(owners)
            visit(child, owners)

    src = os.path.join(ROOT, "src", "fpsq")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(src, name)) as fh:
                visit(ast.parse(fh.read(), name), [])
    unreferenced = sorted(f"{where} {ident}" for where, ident, node in definitions
                          if not (ident.startswith("__") and ident.endswith("__")) and ident not in allowed
                          and all(any(owner is node for owner in owners) for owners in references.get(ident, [])))
    assert unreferenced == []
    assert allowed <= {ident for _, ident, _ in definitions}  # no stale entry


def test_every_flag_is_read_by_its_command():
    # a flag a command never reads is accepted and silently ignored (kernel
    # --format json printed CSV); a command reads args.<dest> itself or
    # through a function it hands args to (load_config, cmd_criterion)
    from fpsq.cli import build_parser

    with open(os.path.join(ROOT, "src", "fpsq", "cli.py")) as fh:
        tree = ast.parse(fh.read(), "cli.py")
    reads, hands_to = {}, {}
    for func in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
        reads[func.name] = {node.attr for node in ast.walk(func) if isinstance(node, ast.Attribute)
                            and isinstance(node.value, ast.Name) and node.value.id == "args"}
        hands_to[func.name] = {ast.unparse(node.func) for node in ast.walk(func) if isinstance(node, ast.Call)
                               and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args)}

    def read_by(name, seen=()):
        return reads.get(name, set()).union(*(read_by(callee, seen + (name,))
                                              for callee in hands_to.get(name, ()) if callee not in seen))

    (subparsers,) = [a for a in build_parser()._actions if a.dest == "command"]
    unread = sorted(f"{command} --{action.dest}" for command, sp in subparsers.choices.items()
                    for action in sp._actions
                    if action.dest != "help" and action.dest not in read_by(sp.get_default("func").__name__))
    assert unread == []


def test_the_criterion_table_names_every_criterion():
    # fpsq.criteria.CRITERIA is the one list of --criterion names: the
    # benchmark traces the same criteria, and the CLI's help and refusal read
    # the table, so cli.py neither lists the names nor branches on one
    from fpsq.cli import build_parser
    from fpsq.criteria import CRITERIA

    spec = importlib.util.spec_from_file_location("spans", os.path.join(ROOT, "perfbench", "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert list(CRITERIA) == list(spans.CRITERIA_FUNCS)
    (subparsers,) = [a for a in build_parser()._actions if a.dest == "command"]
    for command in ("criterion", "sweep"):
        (flag,) = [a for a in subparsers.choices[command]._actions if a.dest == "criterion"]
        assert flag.help == f"comma list: {','.join(CRITERIA)}"
    with open(os.path.join(ROOT, "src", "fpsq", "cli.py")) as fh:
        tree = ast.parse(fh.read(), "cli.py")
    lists = [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and len(set(re.findall(r"\w+", node.value)) & set(CRITERIA)) > 1]
    branches = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Compare)
                and any(isinstance(c, ast.Constant) and c.value in CRITERIA for c in [node.left, *node.comparators])]
    assert lists == [] and branches == []


def test_criteria_read_no_descriptor_field():
    # only the kernels know what a model's descriptor holds, such as how many
    # degrees its series stores: criteria.py reads no ModelSpec.params
    with open(os.path.join(ROOT, "src", "fpsq", "criteria.py")) as fh:
        tree = ast.parse(fh.read(), "criteria.py")
    reads = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "params"]
    assert reads == []
