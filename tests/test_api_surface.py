"""The public surface: every exported name is declared once, in its
module's __all__, the README's list of what the package offers names only
exported functions and classes, the solve-* flags and the bench spec share
one key table, and every entry point that takes a count k checks it by the
one rule."""

import argparse
import importlib
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import softkm
from conftest import random_instance
from softkm.cli import _SPEC_KEYS, build_parser
from softkm import (
    InvalidInput,
    MvskmOptions,
    infinity_bound,
    is_skmable,
    is_ti_lsdable,
    nonuniqueness_gap,
    simplex_complement_basis,
    solve_am,
    solve_global,
    solve_mvskm,
    truncated_svd,
)

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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
    "infinity_bound": (infinity_bound, (1,)),
    "simplex_complement_basis": (simplex_complement_basis, (1,)),
    "truncated_svd": (lambda m: truncated_svd(X, m), (0, 4)),
}


@pytest.mark.parametrize("name, k", [(name, k) for name, (_, outside) in TAKES_K.items()
                                     for k in (True, np.True_, 2.0, "3", *outside)])
def test_count_must_be_an_integer_in_range(name, k):
    with pytest.raises(InvalidInput):
        TAKES_K[name][0](k)
