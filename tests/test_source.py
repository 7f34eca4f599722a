"""Source hygiene: every name a module of the package, the tests, the
scripts or the demos imports is used, no package module reduces through a
BLAS dot, the self-checks, the diagnostics and the tests' running worst
residuals reduce nothing through the builtin max,
every name the benchmark's tracer wraps is bound where it looks it up, the
two it alone needs are called nowhere in the package, and the benchmark's
own step calls still run."""

import ast
import importlib.util
import pathlib
import sys

import pytest

import flatlora

PACKAGE_DIR = pathlib.Path(flatlora.__file__).parent
REPO_DIR = pathlib.Path(__file__).resolve().parents[1]
TRACER = REPO_DIR / "perfbench" / "tracer.py"
WORKLOADS = REPO_DIR / "perfbench" / "workloads.py"


def load_perfbench_module(name: str, path: pathlib.Path):
    """Import one perfbench file by path, registered under name, as
    dataclasses needs its module in sys.modules."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that nothing else in the module
    reads (``from __future__`` imports excepted)."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_scan_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os\nimport numpy as np\n"
        "from math import pi, tau\n"
        "x = np.zeros(1) + pi\n"
    )
    assert unused_imports(source) == ["os (line 2)", "tau (line 4)"]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_package_modules_import_nothing_unused(path):
    """__init__.py is exempt: its imports are the package's re-exports."""
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "path",
    sorted(p for d in ("tests", "scripts", "demos") for p in (REPO_DIR / d).glob("*.py")),
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_tests_scripts_and_demos_import_nothing_unused(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# Calls that numpy sends to a BLAS dot, which OpenBLAS splits across
# threads past 10,000 elements, so their last bits follow the thread count.
BLAS_REDUCTIONS = ("norm", "vdot", "dot", "inner")


def blas_reductions(source: str) -> list[str]:
    """Calls of a function or method named in BLAS_REDUCTIONS
    (np.linalg.norm, np.vdot, np.dot, np.inner, x.dot, ...)."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in BLAS_REDUCTIONS:
                hits.append(f"{ast.unparse(func)} (line {node.lineno})")
    return hits


def test_blas_reduction_scan_flags_every_dot_call():
    source = (
        "import numpy as np\n"
        "from numpy import vdot\n"
        "a = np.linalg.norm(x)\nb = np.vdot(x, x)\nc = np.dot(x, y)\n"
        "d = np.inner(x, y)\ne = x.dot(y)\nf = vdot(x, x)\n"
        "g = float(np.sum(x * x)) + (x @ y).sum()\n"
    )
    assert blas_reductions(source) == [
        "np.linalg.norm (line 3)", "np.vdot (line 4)", "np.dot (line 5)",
        "np.inner (line 6)", "x.dot (line 7)", "vdot (line 8)",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_package_modules_reduce_through_no_blas_dot(path):
    """Every norm goes through linalg._sq_norm, numpy's pairwise sum, so a
    run's bytes do not depend on the BLAS thread count."""
    assert blas_reductions(path.read_text(encoding="utf-8")) == []


def _builtin_max_nodes(source: str) -> list[ast.Call]:
    return [node for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "max"]


def builtin_max_calls(source: str) -> list[str]:
    """Calls of the builtin max, which keeps a number against a NaN that
    comes after it: max(0.0, nan) is 0.0."""
    return [f"{ast.unparse(node)} (line {node.lineno})"
            for node in _builtin_max_nodes(source)]


def test_builtin_max_scan_flags_only_the_builtin():
    source = (
        "import numpy as np\n"
        "a = max(0.0, x)\nb = np.max(x)\nc = x.max()\n"
        "d = max(v for v in x)\ne = np.maximum(x, y)\nf = min(x, y)\n"
    )
    assert builtin_max_calls(source) == ["max(0.0, x) (line 2)", "max((v for v in x)) (line 5)"]


def test_self_checks_reduce_through_no_builtin_max():
    """Every residual reduction in checks.py and every worst-case estimate
    in diagnostics.py goes through linalg._worst, which keeps a NaN, so a
    NaN residual reads as a failed check and a NaN estimate as NaN.
    optimizers.py is left out: _pinv_factors takes the builtin min and max
    of |diag R| on purpose, so that a non-finite factor fails the switch
    to the SVD and stays on the QR route, where its NaNs reach the loss."""
    for name in ("checks.py", "diagnostics.py"):
        assert builtin_max_calls((PACKAGE_DIR / name).read_text(encoding="utf-8")) == [], name


def builtin_max_of_a_worst(source: str) -> list[str]:
    """Calls of the builtin max whose first argument is a name starting
    with "worst": a running worst residual taken that way keeps a number
    against a NaN residual that comes after it."""
    return [f"{ast.unparse(node)} (line {node.lineno})"
            for node in _builtin_max_nodes(source)
            if node.args and isinstance(node.args[0], ast.Name)
            and node.args[0].id.startswith("worst")]


def test_worst_scan_flags_only_a_running_worst():
    source = (
        "worst = max(worst, np.max(d))\nworst_mp = max(worst_mp, e)\n"
        "best = max(best, e)\nn = max(1, worst)\nworst = _worst(worst, e)\n"
    )
    assert builtin_max_of_a_worst(source) == [
        "max(worst, np.max(d)) (line 1)", "max(worst_mp, e) (line 2)"]


def test_tests_reduce_no_worst_through_the_builtin_max():
    """Every running worst residual in the tests goes through
    linalg._worst or _worst_abs, which keep a NaN, so a NaN residual fails
    its bound."""
    hits = [f"{path.name}: {hit}" for path in sorted((REPO_DIR / "tests").glob("*.py"))
            for hit in builtin_max_of_a_worst(path.read_text(encoding="utf-8"))]
    assert hits == []


TRACER_ONLY = ("cho_factor", "cho_solve")


def calls_of(source: str, names) -> list[str]:
    """Calls of any of names, bare or as an attribute."""
    return [f"{ast.unparse(node)} (line {node.lineno})"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) in names]


def test_package_calls_no_tracer_only_name():
    """optimizers.cho_factor and cho_solve are bound only for perfbench's
    tracer to wrap; nothing in the package calls them, so their traced
    metrics read 0 because nothing runs there.  The scan finds a bare and
    an attribute call, and not the binding."""
    source = (
        "x = cho_factor(g)\ny = scipy.linalg.cho_solve(f, m)\n"
        "cho_factor, cho_solve = s.cho_factor, s.cho_solve\nz = solve(g)\n"
    )
    assert calls_of(source, TRACER_ONLY) == [
        "cho_factor(g) (line 1)", "scipy.linalg.cho_solve(f, m) (line 2)"]
    hits = [f"{path.name}: {hit}" for path in sorted(PACKAGE_DIR.glob("*.py"))
            for hit in calls_of(path.read_text(encoding="utf-8"), TRACER_ONLY)]
    assert hits == []


def test_tracer_patch_targets_are_bound():
    """perfbench/tracer.py looks each wrapped name up with
    vars(owner)[attr]; a name it wraps that a module no longer binds
    would crash a traced benchmark run.  optimizers.cho_factor and
    optimizers.cho_solve are such names, bound for the tracer alone
    (test_package_calls_no_tracer_only_name)."""
    tracer = load_perfbench_module("perfbench_tracer", TRACER)
    unbound = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in tracer.patch_targets(flatlora)
               if not callable(vars(owner).get(attr))]
    assert unbound == []


def test_benchmark_step_calls_run(tmp_path):
    """perfbench/workloads.py calls each step positionally, passing the
    config's direction_variant and svd_tol (Bench._step_args); one
    wide-steps round per kind runs with no failed operation."""
    workloads = load_perfbench_module("perfbench_workloads", WORKLOADS)
    bench = workloads.Bench(flatlora, workloads.WORKLOADS["wide-steps"], 1, tmp_path)
    try:
        bench.setup()
        for kind in workloads.KINDS:
            bench.step_round(kind)
        assert (bench.attempted, bench.failed, bench.failures) == (
            len(workloads.KINDS) * bench.w.round_steps, 0, [])
    finally:
        bench.close()
