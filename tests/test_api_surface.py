"""The public surface: every exported name exists once, and the README's
list of what the package offers names only exported functions and classes."""

import re
from pathlib import Path

import softkm

README = Path(__file__).resolve().parents[1] / "README.md"


def test_exports_resolve_once_and_cover_the_readme():
    assert [name for name in softkm.__all__ if not hasattr(softkm, name)] == []
    assert len(softkm.__all__) == len(set(softkm.__all__))
    box = README.read_text(encoding="utf-8").split("What's in the box:", 1)[1]
    box = box.split("\n## ", 1)[0]
    # backticked identifiers; the package's own name is the CLI, not an export
    names = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", box)) - {"softkm"}
    assert "solve_global" in names
    assert sorted(names - set(softkm.__all__)) == []
