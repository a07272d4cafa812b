"""CSV ingestion, result persistence, and the run/bench drivers behind the
command-line interface.

On-disk CSV convention: one sample per row, optional header row, optional
final integer column named "label" (recognized only through the header).
Matrices are transposed to the internal d x n layout on load. All numeric
output is written with 12 significant digits, and a fixed configuration
produces byte-identical files on every run.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .am import AmOptions, _check_fields, solve_am
from .core import DataMatrix, center
from .errors import InvalidInput, ParseError
from .global_solver import solve_global
from .metrics import accuracy, hard_assign, nmi, purity
from .mvskm import MvskmOptions, solve_mvskm

__all__ = [
    "RunConfig",
    "RunResult",
    "load_csv",
    "load_labels",
    "save_matrix_csv",
    "run",
    "bench",
    "format_bench_table",
    "write_bench_outputs",
]

@dataclass(frozen=True)
class RunConfig:
    """One solver invocation: which solver, its parameters, and where the
    input lives and the artifacts go. Construction checks every field,
    whatever the solver, against the table that checks AmOptions and
    MvskmOptions; mvskm needs lam. epsilon is stored as a float; the
    iterative defaults are the options'.
    """

    solver: str
    k: int
    input_path: str
    output_dir: str
    lam: float | None = None
    epsilon: float = MvskmOptions.epsilon
    seed: int = AmOptions.seed
    rel_obj_tol: float = AmOptions.rel_obj_tol
    max_iters: int = AmOptions.max_outer_iters

    def __post_init__(self):
        _check_fields(self)
        if self.solver == "mvskm" and self.lam is None:
            raise InvalidInput("mvskm requires a nonnegative lambda")
        object.__setattr__(self, "epsilon", float(self.epsilon))


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
    labels. Ragged rows, non-numeric cells, and empty files raise ParseError
    with the offending location.
    """
    if not os.path.exists(path):
        raise InvalidInput(f"input file not found: {path}")
    rows: list[tuple[int, list[str]]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or not any(cell.strip() for cell in row):
                continue
            rows.append((lineno, [cell.strip() for cell in row]))
    if not rows:
        raise ParseError(f"{path}: no data rows")
    header = None
    try:
        [float(cell) for cell in rows[0][1]]
    except ValueError:
        header = rows[0][1]
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
    labels = None
    if header is not None and header[-1].lower() == "label":
        lab = data[:, -1]
        if not np.all(lab == np.round(lab)):
            raise ParseError(f"{path}: label column must hold integers")
        labels = lab.astype(np.int64)
        data = data[:, :-1]
        if data.shape[1] == 0:
            raise ParseError(f"{path}: no feature columns besides the labels")
    return center(data.T), labels


def load_labels(path: str) -> np.ndarray:
    """Read ground-truth or predicted labels from a CSV.

    Accepts a file with a "label" column, a single integer column, or a
    full membership matrix (hard-assigned by row argmax)."""
    X, labels = load_csv(path)
    if labels is not None:
        return labels
    A = X.values
    if A.shape[0] == 1:
        v = A[0]
        if not np.all(v == np.round(v)) or v.min() < 0:
            raise ParseError(f"{path}: single-column labels must be nonnegative integers")
        return v.astype(np.int64)
    return hard_assign(A.T)


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def save_matrix_csv(path: str, A) -> None:
    """Write a matrix row-wise with 12 significant digits per entry."""
    A = np.asarray(A, dtype=float)
    if A.ndim == 1:
        A = A.reshape(-1, 1)
    with open(path, "w", encoding="utf-8") as fh:
        for row in A:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _solve(config: RunConfig, X: DataMatrix):
    if config.solver == "global":
        sol, _ = solve_global(X, config.k)
        return sol, [sol.objective]
    if config.solver == "am":
        opts = AmOptions(max_outer_iters=config.max_iters,
                         rel_obj_tol=config.rel_obj_tol, seed=config.seed)
        return solve_am(X, config.k, opts)
    opts = MvskmOptions(lam=config.lam, epsilon=config.epsilon,
                        max_outer_iters=config.max_iters,
                        rel_obj_tol=config.rel_obj_tol, seed=config.seed)
    sol, state = solve_mvskm(X, config.k, opts)
    return sol, state.objective_trace


def _write_plotdata(path: str, X: DataMatrix, sol) -> None:
    labels = hard_assign(sol.membership)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y,label,is_prototype\n")
        for i in range(X.n):
            fh.write(f"{_fmt(X.values[0, i])},{_fmt(X.values[1, i])},{labels[i]},0\n")
        for j in range(sol.k):
            fh.write(
                f"{_fmt(sol.prototypes[0, j])},{_fmt(sol.prototypes[1, j])},{j},1\n"
            )


def _execute(config: RunConfig, X: DataMatrix):
    t0 = time.perf_counter()
    sol, trace = _solve(config, X)
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
    return result, sol


def run(config: RunConfig) -> RunResult:
    """Execute one configured solve and persist its artifacts.

    Writes membership.csv (n x k), prototypes.csv (k x d), result.json
    (stable key order, no timing), and for 2-d inputs plotdata.csv with the
    hard-labeled samples plus flagged prototype rows.
    """
    X, _ = load_csv(config.input_path)
    return _execute(config, X)[0]


_BENCH_COLUMNS = ("solver", "k", "seed", "lambda", "objective", "acc", "nmi", "purity")


def bench(configs) -> list[dict]:
    """Run several configurations on their one shared input file and score
    each against that file's label column with accuracy, NMI, and purity.
    The file is parsed once; an input without a label column raises
    InvalidInput before any solve. Returns one row dict per config."""
    configs = list(configs)
    if not configs:
        raise InvalidInput("bench needs at least one configuration")
    if len({c.input_path for c in configs}) != 1:
        raise InvalidInput("bench configurations must share one input file")
    X, truth = load_csv(configs[0].input_path)
    if truth is None:
        raise InvalidInput("bench input must carry a label column")
    rows = []
    for cfg in configs:
        res, sol = _execute(cfg, X)
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
        for r in rows:
            fh.write(",".join(
                _fmt(r[c]) if isinstance(r[c], float) else str(r[c])
                for c in _BENCH_COLUMNS
            ) + "\n")
    with open(os.path.join(out_dir, "bench.txt"), "w", encoding="utf-8") as fh:
        fh.write(format_bench_table(rows) + "\n")
