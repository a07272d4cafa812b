"""The public surface: every exported name is declared once, in its
module's __all__, the README's list of what the package offers names only
exported functions and classes, the solve-* flags and the bench spec share
one key table, and every entry point that takes a count k checks it by the
one rule."""

import argparse
import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import softkm
from conftest import random_instance
from softkm.cli import _SPEC_KEYS, build_parser
from softkm import (
    InvalidInput,
    KernelMatrix,
    MvskmOptions,
    RotationMatrix,
    accuracy,
    hard_assign,
    in_convex_hull,
    is_skmable,
    is_ti_lsdable,
    nmi,
    nonuniqueness_gap,
    save_matrix_csv,
    simplex_complement_basis,
    solve_am,
    solve_global,
    solve_mvskm,
    truncated_svd,
    two_gaussians,
)

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_import_loads_no_scipy_submodule(tmp_path):
    # a fresh process in which scipy cannot be imported: the scores, every
    # softkm command and in_convex_hull run on numpy alone
    csv = tmp_path / "in.csv"
    csv.write_text("x,y,label\n0,0,0\n0,1,0\n5,5,1\n5,6,1\n9,0,2\n9,1,2\n", encoding="utf-8")
    X = np.loadtxt(csv, delimiter=",", skiprows=1, usecols=(0, 1))
    kernel = tmp_path / "kernel.csv"
    np.savetxt(kernel, X @ X.T, delimiter=",")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"input": str(csv), "out": str(tmp_path / "out"), "runs": [
        {"solver": "global", "k": 3}, {"solver": "am", "k": 3, "seeds": [0]},
        {"solver": "mvskm", "k": 3, "lambda": 1.0, "seeds": [0]}]}), encoding="utf-8")
    data = ["--input", str(csv), "--k", "3"]
    commands = [["bench", "--spec", str(spec)], ["eval", "--pred", str(csv), "--truth", str(csv)],
                ["solve-global", *data, "--out", str(tmp_path / "g")],
                ["solve-am", *data, "--out", str(tmp_path / "a")],
                ["solve-mvskm", *data, "--lambda", "1", "--out", str(tmp_path / "m")],
                ["check-skmable", *data], ["check-tilsdable", *data],
                ["check-tilsdable", "--input", str(kernel), "--k", "3", "--kernel"]]
    code = "\n".join([
        "import contextlib, io, json, sys",
        "sys.modules['scipy'] = None  # importing scipy or any submodule now raises",
        "import numpy as np, softkm",
        "from softkm.cli import main",
        "print(softkm.accuracy([0, 0, 1, 1, 2, 2, 2], [1, 1, 0, 2, 2, 2, 0]))",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    codes = [main(argv) for argv in json.loads({json.dumps(commands)!r})]",
        "print(codes)",
        "print(softkm.in_convex_hull(np.eye(2), [0.5, 0.5]), softkm.in_convex_hull(np.eye(2), [0.5, 0.6]))",
        "print([m for m, module in sys.modules.items() if m.partition('.')[0] == 'scipy' and module])",
    ])
    path = os.pathsep.join(filter(None, (str(Path(softkm.__file__).parents[1]), os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == [f"{5 / 7!r}", str([0] * len(commands)), "True False", "[]"]
    assert len((tmp_path / "out" / "bench.csv").read_text(encoding="utf-8").splitlines()) == 4


def test_exports_resolve_once_and_cover_the_readme():
    assert [name for name in softkm.__all__ if not hasattr(softkm, name)] == []
    assert len(softkm.__all__) == len(set(softkm.__all__))
    box = README.read_text(encoding="utf-8").split("What's in the box:", 1)[1]
    box = box.split("\n## ", 1)[0]
    # backticked identifiers; the package's own name is the CLI, not an export
    names = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", box)) - {"softkm"}
    assert "solve_global" in names
    assert sorted(names - set(softkm.__all__)) == []


def test_each_export_is_declared_once():
    # softkm re-exports its modules' __all__: each name is declared in one
    # module, and softkm.<name> is that module's object
    declared = {}
    for stem in sorted(p.stem for p in (ROOT / "src" / "softkm").glob("*.py")):
        if stem in ("__init__", "cli"):  # the package itself and the front end
            continue
        module = importlib.import_module(f"softkm.{stem}")
        for name in module.__all__:
            declared.setdefault(name, []).append(stem)
            assert getattr(softkm, name) is getattr(module, name), (stem, name)
    assert {name: stems for name, stems in declared.items() if len(stems) > 1} == {}
    assert sorted(declared) == sorted(softkm.__all__)
    assert [n for n in softkm.__all__ if n.startswith("_") or inspect.ismodule(getattr(softkm, n))] == []
    init = (ROOT / "src" / "softkm" / "__init__.py").read_text(encoding="utf-8")
    assert sorted(set(re.findall(r"\w+", init)) & set(softkm.__all__)) == []


def test_no_unused_imports():
    # no linter runs on the package: every imported name must be used in its
    # module, unless its line says that bench/harness.py wraps it there
    wrapped = re.compile(r"# noqa: F401 .*bench/harness\.py")
    unused = []
    for path in sorted((ROOT / "src" / "softkm").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        lines = source.splitlines()
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
        for node in imports:
            if getattr(node, "module", "") == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name != "*" and name not in used and not wrapped.search(lines[alias.lineno - 1]):
                    unused.append(f"{path.name}:{alias.lineno} {name}")
    assert unused == []


def test_numpy_is_the_only_runtime_dependency():
    # scipy is a test oracle only: no module of the package imports it, and
    # the package declares numpy alone
    imports = []
    for path in sorted((ROOT / "src" / "softkm").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imports += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imports.append((path.name, node.module))
    assert [(name, module) for name, module in imports if module.partition(".")[0] == "scipy"] == []
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert [re.match(r"[\w.-]+", dep)[0] for dep in project["dependencies"]] == ["numpy"]


def test_solve_flags_are_the_bench_spec_keys():
    # one table, cli._SPEC_KEYS, maps both onto RunConfig's fields
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("solve-global", "solve-am", "solve-mvskm"):
        dests = {a.dest for a in sub.choices[command]._actions} - {"help", "input", "out"}
        assert dests == set(_SPEC_KEYS) - {"solver"}, command


def test_no_hand_written_k_check():
    # every k goes through core.check_k, which rejects bools
    hand = re.compile(r"isinstance\(k, \(int, np\.integer\)\)")
    sources = sorted((ROOT / "src" / "softkm").rglob("*.py"))
    assert sources
    assert [p.name for p in sources if hand.search(p.read_text(encoding="utf-8"))] == []


X = random_instance(5, 3, 10)  # d = 3, n = 10
# entry point -> (call with the count, the values just outside its bounds)
TAKES_K = {
    "solve_global": (lambda k: solve_global(X, k), (0, 5)),  # k - 1 <= min(d, n)
    "solve_am": (lambda k: solve_am(X, k), (0, 11)),
    "solve_mvskm": (lambda k: solve_mvskm(X, k, MvskmOptions(lam=1.0)), (1, 11)),
    "is_skmable": (lambda k: is_skmable(X, k), (0,)),
    "is_ti_lsdable": (lambda k: is_ti_lsdable(X.T @ X, k), (0,)),
    "nonuniqueness_gap": (lambda k: nonuniqueness_gap(X, k), (1, 5)),
    "simplex_complement_basis": (simplex_complement_basis, (1,)),
    "truncated_svd": (lambda m: truncated_svd(X, m), (0, 4)),
}


# counts of the wrong type, with explicit test ids: positional ids would
# rename the tests of every later TAKES_K row when a row is added or removed
NOT_COUNTS = [(True, "True"), (np.True_, "np.True_"), (2.0, "2.0"), ("3", "3")]


@pytest.mark.parametrize("name, k", [
    pytest.param(name, k, id=f"{name}-{label}") for name, (_, outside) in TAKES_K.items()
    for k, label in (*NOT_COUNTS, *((k, str(k)) for k in outside))])
def test_count_must_be_an_integer_in_range(name, k):
    with pytest.raises(InvalidInput):
        TAKES_K[name][0](k)


# entry point -> a malformed argument that numpy would reject with its own
# ValueError or TypeError
MALFORMED = {
    "hard_assign ragged": lambda tmp: hard_assign([[1.0, 0.0], [1.0]]),
    "accuracy ragged": lambda tmp: accuracy([[0], [1, 2]], [0, 1]),
    "nmi strings": lambda tmp: nmi(["a", "b"], [0, 1]),
    "save_matrix_csv 3-d": lambda tmp: save_matrix_csv(str(tmp / "m.csv"), np.zeros((2, 2, 2))),
    "save_matrix_csv ragged": lambda tmp: save_matrix_csv(str(tmp / "m.csv"), [[1.0, 2.0], [3.0]]),
    "in_convex_hull ragged": lambda tmp: in_convex_hull(np.eye(2), [[1.0], [2.0, 3.0]]),
    "in_convex_hull nan": lambda tmp: in_convex_hull(np.eye(2), [np.nan, 0.0]),
    "two_gaussians fractional n": lambda tmp: two_gaussians(n=2.5),
    "two_gaussians negative seed": lambda tmp: two_gaussians(seed=-1),
    "two_gaussians fractional seed": lambda tmp: two_gaussians(seed=1.5),
    "in_convex_hull no points": lambda tmp: in_convex_hull(np.zeros((2, 0)), [0.0, 0.0]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_invalid_input(case, tmp_path):
    with pytest.raises(InvalidInput):
        MALFORMED[case](tmp_path)


@pytest.mark.parametrize("wrap, field", [(RotationMatrix, "R"), (KernelMatrix, "K")])
def test_wrappers_leave_the_callers_array_writeable(wrap, field):
    A = np.eye(3)
    before = A.tobytes()
    stored = getattr(wrap(A), field)
    assert A.flags.writeable and A.tobytes() == before
    assert not stored.flags.writeable
    np.testing.assert_array_equal(stored, A)
