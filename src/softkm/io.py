"""CSV ingestion, result persistence, and the run/bench drivers behind the
command-line interface.

On-disk CSV convention: one sample per row, optional header row, optional
final integer column named "label" (recognized only through the header).
Matrices are transposed to the internal d x n layout on load. An input
is read as UTF-8, with or without a byte-order mark. The rows below the
header are streamed from the open file into one `np.loadtxt` call, so
the file's text is never held whole; a file that call rejects (quoted or
blank cells, whitespace-only lines, ragged rows, numbers only `float`
reads, an empty body) is parsed again cell by cell, which gives the same
values and reports a bad cell by row and column. Loading peaks at the
returned arrays plus the parsed table.
All numeric output is written with 12 significant digits (a matrix with
one `%` format per block of rows), and a fixed configuration produces
byte-identical files on every run.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .am import AmOptions, _check_fields, solve_am
from .core import (
    DataMatrix,
    Solution,
    _center_view,
    _finite_matrix,
    as_matrix,
    center,  # noqa: F401  (an attribute bench/harness.py wraps)
)
from .errors import InvalidInput, ParseError
from .global_solver import solve_global
from .metrics import _as_labels, accuracy, hard_assign, nmi, purity
from .mvskm import MvskmOptions, solve_mvskm

__all__ = [
    "RunConfig",
    "RunResult",
    "load_csv",
    "load_labels",
    "save_matrix_csv",
    "run",
    "bench",
]

_NUMBER = "%.12g"


@dataclass(frozen=True)
class RunConfig:
    """One solver invocation: which solver, its parameters, and where the
    input lives and the artifacts go. Construction checks every field,
    whatever the solver, against the table that checks AmOptions and
    MvskmOptions; only mvskm takes lam or an epsilon other than the
    default, and builds its MvskmOptions, whose rules on lam and epsilon it
    thereby keeps. lam and epsilon are stored as floats; the iterative
    defaults are the options'.
    """

    solver: str
    k: int
    input_path: str
    output_dir: str
    lam: float | None = None
    epsilon: float = MvskmOptions.epsilon
    seed: int = AmOptions.seed
    rel_obj_tol: float = AmOptions.rel_obj_tol
    max_outer_iters: int = AmOptions.max_outer_iters

    def __post_init__(self):
        _check_fields(self)
        if self.lam is not None and self.solver != "mvskm":
            raise InvalidInput(f"lambda is read by the mvskm solver only, not by {self.solver}")
        if self.epsilon != MvskmOptions.epsilon and self.solver != "mvskm":
            raise InvalidInput(f"epsilon is read by the mvskm solver only, not by {self.solver}")
        object.__setattr__(self, "epsilon", float(self.epsilon))
        if self.lam is not None:
            object.__setattr__(self, "lam", float(self.lam))
        if self.solver == "mvskm":
            _options(self)


@dataclass(frozen=True)
class RunResult:
    """Outcome of `run`: the reconstruction objective, iteration count,
    wall time, and the per-iteration objective trace. Everything except
    runtime_ms is persisted to result.json."""

    solver: str
    k: int
    seed: int
    lam: float | None
    epsilon: float
    objective: float
    iterations: int
    runtime_ms: float
    objective_trace: list[float] = field(default_factory=list)


def load_csv(path: str) -> tuple[DataMatrix, np.ndarray | None]:
    """Read a samples-as-rows CSV into the internal d x n layout.

    A first row with any non-numeric cell is treated as a header; a header
    whose last column is "label" marks that column as integer ground-truth
    labels. Ragged rows, a header whose width differs from the rows',
    non-numeric cells, and empty files raise ParseError with the offending
    location, as do non-integer labels and labels outside the int64 range.
    """
    values, labels = _load_table(path)
    return _center_view(values), labels


def _load_table(path: str) -> tuple[np.ndarray, np.ndarray | None]:
    """`load_csv` without the centering: the d x n features, a C-ordered
    array of their own, and the labels. The parsed table is dropped before
    the caller centers the features."""
    if not os.path.exists(path):
        raise InvalidInput(f"input file not found: {path}")
    try:
        header, data = _parse_bulk(path)
    except ValueError:  # the per-cell parser decides, with row and column
        header, data = _parse_cells(path)
    if header is not None and len(header) != data.shape[1]:
        raise ParseError(f"{path}: header has {len(header)} columns, rows have {data.shape[1]}")
    labels = None
    if header is not None and header[-1].lower() == "label":
        lab = data[:, -1]
        if not np.all(lab == np.round(lab)):
            raise ParseError(f"{path}: label column must hold integers")
        if not np.all((lab >= -2.0**63) & (lab < 2.0**63)):
            raise ParseError(f"{path}: label column must hold integers in the int64 range")
        labels = lab.astype(np.int64)
        data = data[:, :-1]
        if data.shape[1] == 0:
            raise ParseError(f"{path}: no feature columns besides the labels")
    # centering's own rule, kept for the callers that do not center
    _finite_matrix(data, "data matrix")
    return data.T.copy(), labels


def _blank(row: list[str]) -> bool:
    return not any(cell.strip() for cell in row)


def _header(cells: list[str]) -> list[str] | None:
    """The first nonblank row, stripped, is the header when a cell of it
    is not a number."""
    try:
        [float(cell) for cell in cells]
    except ValueError:
        return cells
    return None


def _parse_bulk(path: str) -> tuple[list[str] | None, np.ndarray]:
    """(header, samples x columns data) with the rows below the header
    streamed from the file into one np.loadtxt call. Where loadtxt parses
    a cell, its value is float(cell.strip()); every input it does not
    parse, and an empty body, raise ValueError, and `_parse_cells` answers
    instead."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        first = next((row for row in csv.reader(fh) if not _blank(row)), None)
        # lines up to the first with a nonblank character, which loadtxt
        # still reads; a body without one would make loadtxt warn
        lead = []
        for line in fh:
            lead.append(line)
            if line.strip():
                break
        else:
            raise ValueError("no rows below the first")
        data = np.loadtxt(itertools.chain(lead, fh), delimiter=",", comments=None,
                          quotechar=None, ndmin=2)
    first = [cell.strip() for cell in first]
    header = _header(first)
    if header is None:
        if data.shape[1] != len(first):
            raise ValueError("ragged rows")
        data = np.vstack([[float(cell) for cell in first], data])
    return header, data


def _parse_cells(path: str) -> tuple[list[str] | None, np.ndarray]:
    """(header, samples x columns data), one float() call per cell; a
    ParseError names the row and column of the first bad cell."""
    rows: list[tuple[int, list[str]]] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not _blank(row):
                rows.append((lineno, [cell.strip() for cell in row]))
    if not rows:
        raise ParseError(f"{path}: no data rows")
    header = _header(rows[0][1])
    if header is not None:
        rows = rows[1:]
    if not rows:
        raise ParseError(f"{path}: header but no data rows")
    ncols = len(rows[0][1])
    data = np.empty((len(rows), ncols))
    for i, (lineno, row) in enumerate(rows):
        if len(row) != ncols:
            raise ParseError(
                f"{path}: row {lineno}: expected {ncols} fields, got {len(row)}"
            )
        for jcol, cell in enumerate(row):
            try:
                data[i, jcol] = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: row {lineno}, column {jcol + 1}: not numeric: {cell!r}"
                ) from None
    return header, data


def load_labels(path: str) -> np.ndarray:
    """Read ground-truth or predicted labels from a CSV.

    Accepts a file with a "label" column, a single integer column, or a
    full membership matrix (hard-assigned by row argmax)."""
    A, labels = _load_table(path)
    if labels is not None:
        return labels
    if A.shape[0] == 1:
        v = A[0]
        if not np.all(v == np.round(v)) or v.min() < 0 or v.max() >= 2.0**63:
            raise ParseError(f"{path}: single-column labels must be nonnegative integers")
        return v.astype(np.int64)
    return hard_assign(A.T)


def save_matrix_csv(path: str, A) -> None:
    """Write a matrix row-wise with 12 significant digits per entry; a
    vector becomes one column."""
    M = as_matrix(A, "matrix")
    if np.ndim(A) == 1:
        M = M.T
    _write_table(path, ",".join([_NUMBER] * M.shape[1]) + "\n", M)


_WRITE_BLOCK = 4096


def _write_table(path: str, fmt: str, table: np.ndarray, header: str = "") -> None:
    """Write header, then each row of the 2-d array table rendered by the
    %-format fmt: one % operation per block of _WRITE_BLOCK rows, so that
    only one block is ever held as Python objects."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for start in range(0, len(table), _WRITE_BLOCK):
            block = table[start:start + _WRITE_BLOCK]
            fh.write((fmt * len(block)) % tuple(block.ravel().tolist()))


def _options(config: RunConfig) -> AmOptions:
    """The AmOptions or MvskmOptions of an am or mvskm config."""
    Opts = AmOptions if config.solver == "am" else MvskmOptions
    return Opts(**{f.name: getattr(config, f.name) for f in fields(Opts) if hasattr(config, f.name)})


def _solve(config: RunConfig, X: DataMatrix) -> tuple[RunResult, Solution]:
    """Run one configured solve on X; nothing is written."""
    t0 = time.perf_counter()
    if config.solver == "global":
        sol, _ = solve_global(X, config.k)
        trace = [sol.objective]
    elif config.solver == "am":
        sol, trace = solve_am(X, config.k, _options(config))
    else:
        sol, state = solve_mvskm(X, config.k, _options(config))
        trace = state.objective_trace
    result = RunResult(
        solver=config.solver,
        k=config.k,
        seed=config.seed,
        lam=config.lam,
        epsilon=config.epsilon,
        objective=sol.objective,
        iterations=max(len(trace) - 1, 1),
        runtime_ms=(time.perf_counter() - t0) * 1e3,
        objective_trace=[float(v) for v in trace],
    )
    return result, sol


def _write_plotdata(path: str, X: DataMatrix, sol) -> None:
    # labels and flags are integer-valued floats, which %.12g prints as integers
    table = np.block([
        [X.values.T, hard_assign(sol.membership)[:, None], np.zeros((X.n, 1))],
        [sol.prototypes.T, np.arange(sol.k)[:, None], np.ones((sol.k, 1))],
    ])
    _write_table(path, ",".join([_NUMBER] * table.shape[1]) + "\n", table,
                 header="x,y,label,is_prototype\n")


def _write(config: RunConfig, X: DataMatrix, result: RunResult, sol: Solution) -> None:
    os.makedirs(config.output_dir, exist_ok=True)
    save_matrix_csv(os.path.join(config.output_dir, "membership.csv"), sol.membership)
    save_matrix_csv(os.path.join(config.output_dir, "prototypes.csv"), sol.prototypes.T)
    payload = {"lambda" if name == "lam" else name: value
               for name, value in asdict(result).items() if name != "runtime_ms"}
    with open(os.path.join(config.output_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    if X.d == 2:
        _write_plotdata(os.path.join(config.output_dir, "plotdata.csv"), X, sol)


def run(config: RunConfig) -> RunResult:
    """Execute one configured solve and persist its artifacts.

    Writes membership.csv (n x k), prototypes.csv (k x d), result.json
    (stable key order, no timing), and for 2-d inputs plotdata.csv with the
    hard-labeled samples plus flagged prototype rows.
    """
    X, _ = load_csv(config.input_path)
    result, sol = _solve(config, X)
    _write(config, X, result, sol)
    return result


_BENCH_COLUMNS = ("solver", "k", "seed", "lambda", "objective", "acc", "nmi", "purity")
_BENCH_ROW = "%s,%d,%d" + f",{_NUMBER}" * 5 + "\n"


def bench(configs) -> list[dict]:
    """Run several configurations on their one shared input file and score
    each against that file's label column with accuracy, NMI, and purity.
    The file is parsed once; an input without a label column, or with
    labels the scorers reject, raises InvalidInput before any solve, and
    every config is solved before the first artifact is written, so a
    failing run leaves no files. Returns one row dict per config."""
    configs = list(configs)
    if not configs:
        raise InvalidInput("bench needs at least one configuration")
    if len({c.input_path for c in configs}) != 1:
        raise InvalidInput("bench configurations must share one input file")
    X, truth = load_csv(configs[0].input_path)
    if truth is None:
        raise InvalidInput("bench input must carry a label column")
    _as_labels(truth, "truth")  # the scorers' rule, before any solve
    solved = [(cfg, *_solve(cfg, X)) for cfg in configs]
    rows = []
    for cfg, res, sol in solved:
        _write(cfg, X, res, sol)
        pred = hard_assign(sol.membership)
        row = {name: getattr(res, name) for name in ("solver", "k", "seed", "objective")}
        rows.append({**row, "lambda": 0.0 if res.lam is None else res.lam,
                     "acc": accuracy(pred, truth), "nmi": nmi(pred, truth),
                     "purity": purity(pred, truth)})
    return rows


def format_bench_table(rows) -> str:
    """Aligned text rendering of bench rows."""
    header = f"{'solver':<8} {'k':>3} {'seed':>5} {'lambda':>10} {'objective':>16} {'ACC':>8} {'NMI':>8} {'Purity':>8}"
    lines = [header]
    for r in rows:
        lines.append(
            f"{r['solver']:<8} {r['k']:>3d} {r['seed']:>5d} {r['lambda']:>10.4g} "
            f"{r['objective']:>16.8e} {r['acc']:>8.4f} {r['nmi']:>8.4f} {r['purity']:>8.4f}"
        )
    return "\n".join(lines)


def write_bench_outputs(rows, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "bench.csv"), "w", encoding="utf-8") as fh:
        fh.write(",".join(_BENCH_COLUMNS) + "\n")
        fh.writelines(_BENCH_ROW % tuple(r[c] for c in _BENCH_COLUMNS) for r in rows)
    with open(os.path.join(out_dir, "bench.txt"), "w", encoding="utf-8") as fh:
        fh.write(format_bench_table(rows) + "\n")
