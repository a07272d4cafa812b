"""Layered benchmark of the softkm package.

Three seeded workloads call the package only through its public entry
points, and each one loads a different layer:

- ``spectral``: solve_global, is_skmable and stability_audit on tall dense
  data, plus is_ti_lsdable on a square kernel. The SVD layer does the work.
- ``mvskm_sweep``: solve_mvskm over the Tier-1 ``mvskm_traces`` grid. The
  simplex layer does the work, as many calls on few rows.
- ``cli_bench``: ``softkm.cli.main(["bench", ...])`` on a labelled CSV. The
  io, metrics and cli layers share the time with the simplex layer, which
  here makes few calls on many rows.

Each workload is a fixed cycle of ops built from the seed; an op is one
public call. A run without tracing times every op and checks every output.
A traced run repeats the cycle once untraced and once with the calls into
each module wrapped where the caller looks them up, and reports self time
and counts per layer plus the tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import softkm  # noqa: E402
import softkm.cli  # noqa: E402

if Path(softkm.__file__).resolve().parent != ROOT / "src" / "softkm":
    raise ImportError(f"softkm was imported from {softkm.__file__}, not from {ROOT / 'src'}")

SETUP_REPEATS = 5

# Input sizes. "toy" exists for the harness self-test only. cycle_s is the
# time one cycle of ops takes on the reference machine (2 vCPUs, one BLAS
# thread); a run times round(seconds / cycle_s) cycles, so it lasts about
# `seconds` there and both sides of a comparison time the same ops.
SIZES = {
    "full": {
        "spectral": {"d": 100, "n": 50_000, "k": 10, "kernel_n": 2000, "cycle_s": 10.4},
        # the Tier-1 grid at init seeds 0-2: two_gaussians() at its default n, k = 3
        "mvskm_sweep": {"n": 140, "k": 3, "lams": (0.01, 0.1, 1.0, 10.0),
                        "init_seeds": 3, "max_outer_iters": 10, "cycle_s": 4.8},
        "cli_bench": {"d": 10, "n": 2000, "k": 3, "ks": (2, 3, 4), "lam": 1.0,
                      "ops": 6, "max_iters": 3, "cycle_s": 6.6},
    },
    "toy": {
        "spectral": {"d": 6, "n": 200, "k": 3, "kernel_n": 30, "cycle_s": 0.01},
        "mvskm_sweep": {"n": 30, "k": 3, "lams": (0.1, 10.0),
                        "init_seeds": 2, "max_outer_iters": 3, "cycle_s": 0.01},
        "cli_bench": {"d": 3, "n": 60, "k": 3, "ks": (2, 3), "lam": 1.0,
                      "ops": 2, "max_iters": 2, "cycle_s": 0.01},
    },
}

# Output checks. Membership tolerances are the ones softkm.Solution enforces.
NEG_TOL = 1e-12
ROWSUM_TOL = 1e-10
RISE_TOL = 1e-9
OBJ_RTOL = 1e-8  # times ||Xc||^2
COLLAPSE_RTOL = 1e-8  # sigma_{k-1}(F) <= COLLAPSE_RTOL * sigma_1(Xc)

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "fit_excess": "1",
    "fail_frac": "1",
    "peak_rss_mb": "MB",
}
# The end-to-end metrics on the result line and in BENCHMARK.json. fail_frac
# (failed / attempted is on the result line already) and fit_excess (there
# are no iterative solves on spectral) can be 0 or missing, so they are only
# printed and written to the report.
RESULT_METRICS = ("setup_s", "ops_per_s", "op_ms.p50", "op_ms.tail", "peak_rss_mb")

PER_LAYER_UNITS = {
    "core.truncated_svd.s": "s",
    "core.truncated_svd.calls": "count",
    "core.truncated_svd.bytes_in": "B",
    "core.numerical_rank.s": "s",
    "core.center.s": "s",
    "global_solver.solve_global.self_s": "s",
    "simplex.solve_membership.s": "s",
    "simplex.solve_membership.calls": "count",
    "simplex.solve_membership.rows": "count",
    "simplex.project_rows.s": "s",
    "simplex.project_rows.calls": "count",
    "simplex.proj_per_outer": "calls/iter",
    "mvskm.solve_mvskm.self_s": "s",
    "mvskm.reweight_matrix.s": "s",
    "mvskm.objective.s": "s",
    "mvskm.outer_iters": "count",
    "mvskm.cap_frac": "1",
    "mvskm.collapsed_frac": "1",
    "am.solve_am.self_s": "s",
    "am.outer_iters": "count",
    "am.cap_frac": "1",
    "audits.is_skmable.s": "s",
    "audits.is_ti_lsdable.s": "s",
    "audits.stability_audit.s": "s",
    "io.load_csv.s": "s",
    "io.load_csv.calls": "count",
    "io.load_csv.bytes": "B",
    "io.save_matrix_csv.s": "s",
    "io.save_matrix_csv.bytes": "B",
    "metrics.score.s": "s",
    "cli.main.self_s": "s",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "1",
}


class CheckFailed(Exception):
    """An op returned an output that fails a correctness check."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# --------------------------------------------------------------------------
# Ops and their checks


@dataclass
class Op:
    """One public call. `check` validates the output and returns the list of
    iterative solves it contains, each a dict with solver, iters, cap_hit,
    collapsed and excess."""

    kind: str
    meta: dict
    call: Callable[[], object]
    check: Callable[[object], list]
    prepare: Callable[[], None] | None = None


@dataclass
class Reference:
    """Closed-form reference for a data matrix: ||Xc||^2, the squared
    singular values of Xc (descending, from the d x d Gram matrix) and the
    tail energy sum_{i >= k} sigma_i^2 for each k."""

    fro2: float
    sq_sigma: np.ndarray
    mean: np.ndarray

    @classmethod
    def of(cls, X: np.ndarray) -> "Reference":
        mean = X.mean(axis=1)
        Xc = X - mean[:, None]
        sq = np.clip(np.linalg.eigvalsh(Xc @ Xc.T)[::-1], 0.0, None)
        return cls(fro2=float(np.sum(Xc * Xc)), sq_sigma=sq, mean=mean)

    def tail(self, k: int) -> float:
        return max(self.fro2 - float(self.sq_sigma[: k - 1].sum()), 0.0)

    @property
    def sigma1(self) -> float:
        return float(np.sqrt(self.sq_sigma[0]))

    def tol(self) -> float:
        return OBJ_RTOL * self.fro2


def check_membership(G, n: int, k: int) -> None:
    G = np.asarray(G, dtype=float)
    require(G.shape == (n, k), f"membership shape {G.shape}, expected {(n, k)}")
    require(np.all(np.isfinite(G)), "membership has non-finite entries")
    require(float(G.min()) >= -NEG_TOL, f"membership entry {float(G.min()):.3e} < 0")
    worst = float(np.abs(G.sum(axis=1) - 1.0).max())
    require(worst <= ROWSUM_TOL, f"membership row sum off by {worst:.3e}")


def check_trace(trace) -> None:
    t = np.asarray(trace, dtype=float)
    require(t.size >= 1 and np.all(np.isfinite(t)), "objective trace empty or non-finite")
    if t.size > 1:
        rise = float(np.diff(t).max())
        require(rise <= RISE_TOL, f"objective trace rises by {rise:.3e}")


def iterative_outcome(solver: str, objective: float, trace, cap: int, ref: Reference,
                      k: int, centered_F=None) -> dict:
    """Check an iterative solve against the closed-form optimum and describe
    how it stopped."""
    check_trace(trace)
    excess = (objective - ref.tail(k)) / ref.fro2
    require(excess >= -OBJ_RTOL, f"{solver} objective below the closed-form optimum ({excess:.3e})")
    iters = max(len(trace) - 1, 1)
    out = {"solver": solver, "iters": iters, "cap_hit": iters >= cap, "excess": excess,
           "collapsed": False}
    if centered_F is not None:
        s = np.zeros(k)
        sv = np.linalg.svd(centered_F, compute_uv=False)
        s[: sv.size] = sv
        out["collapsed"] = bool(s[k - 2] <= COLLAPSE_RTOL * ref.sigma1)
    return out


def check_global(out, ref: Reference, n: int, k: int) -> list:
    sol, _ = out
    check_membership(sol.membership, n, k)
    gap = abs(sol.objective - ref.tail(k))
    require(gap <= ref.tol(), f"global objective misses the tail energy by {gap:.3e}")
    return []


# --------------------------------------------------------------------------
# Workloads


def clustered(rng, d: int, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k Gaussian clusters in d dimensions: centers 3 N(0, 1), unit noise."""
    centers = 3.0 * rng.standard_normal((d, k))
    labels = rng.integers(0, k, n)
    return centers[:, labels] + rng.standard_normal((d, n)), labels


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes() if isinstance(p, np.ndarray)
                 else json.dumps(p, sort_keys=True).encode())
    return h.hexdigest()


def setup_spectral(seed: int, sz: dict, workdir: Path) -> tuple[list[Op], Op, str]:
    rng = np.random.default_rng(seed)
    d, n, k, nk = sz["d"], sz["n"], sz["k"], sz["kernel_n"]
    X, _ = clustered(rng, d, n, k)
    E = 0.1 * rng.standard_normal((d, n))
    # kernel whose doubly centered form has rank exactly k - 1
    Y = rng.standard_normal((k - 1, nk)) + 1.0
    K = Y.T @ Y
    K = 0.5 * (K + K.T)
    ref = Reference.of(X)
    cond = math.sqrt(ref.sq_sigma[-1] / ref.sq_sigma[0])
    require(cond > 1e-3, "spectral data must have full numerical rank")
    e2 = float(np.sum(E * E))

    def check_skmable(expected):
        def check(ok):
            require(ok is expected, f"is_skmable returned {ok}, expected {expected}")
            return []
        return check

    def check_stability(rep):
        require(rep.holds, "stability bound does not hold")
        rhs = 2.0 * e2 + ref.tail(k)
        require(abs(rep.rhs - rhs) <= OBJ_RTOL * rhs, "stability rhs is not 2||E||^2 + optimum")
        require(rep.lhs >= ref.tail(k) - ref.tol(), "perturbed optimum beats the clean optimum")
        return []

    def check_kernel(ok):
        require(ok is True, f"is_ti_lsdable returned {ok} on a rank-{k - 1} kernel")
        return []

    tall = {"shape": [d, n], "k": k}
    solve = Op("solve_global", tall, lambda: softkm.solve_global(X, k),
               lambda out: check_global(out, ref, n, k))
    ops = [
        solve,
        Op("is_skmable", tall, lambda: softkm.is_skmable(X, k), check_skmable(False)),
        solve,
        Op("stability_audit", tall, lambda: softkm.stability_audit(X, E, k), check_stability),
        solve,
        Op("is_skmable", {"shape": [d, n], "k": d + 1},
           lambda: softkm.is_skmable(X, d + 1), check_skmable(True)),
        solve,
        Op("is_ti_lsdable", {"shape": [nk, nk], "k": k},
           lambda: softkm.is_ti_lsdable(K, k), check_kernel),
    ]
    return ops, ops[0], digest(X, E, K)


def setup_mvskm_sweep(seed: int, sz: dict, workdir: Path) -> tuple[list[Op], Op, str]:
    """The Tier-1 mvskm_traces grid at init seeds 0 to init_seeds - 1,
    capped at max_outer_iters. Data and init seeds are the fixture's own;
    the seed sets the order of the grid. The subset is fixed, because one
    solve costs 0.02-1.2 s depending on its init seed and a seed-drawn subset
    made throughput spread by far more than any usable bound; it is small
    enough that a run repeats it several times, so the median latency rests
    on many timings. The warm-up op is the first
    grid point whatever the order, so that set-up costs the same for every
    seed."""
    k, cap = sz["k"], sz["max_outer_iters"]
    X, _ = softkm.two_gaussians(n=sz["n"])
    ref = Reference.of(X)
    grid = [(lam, s) for lam in sz["lams"] for s in range(sz["init_seeds"])]
    order = np.random.default_rng(seed).permutation(len(grid))

    def make(lam, init_seed):
        opts = softkm.MvskmOptions(lam=lam, seed=init_seed, max_outer_iters=cap)

        def check(out):
            sol, state = out
            check_membership(sol.membership, X.shape[1], k)
            return [iterative_outcome("mvskm", sol.objective, state.objective_trace,
                                      cap, ref, k, centered_F=state.F)]
        meta = {"shape": list(X.shape), "k": k, "lam": lam, "init_seed": init_seed,
                "max_outer_iters": cap}
        return Op("solve_mvskm", meta, lambda: softkm.solve_mvskm(X, k, opts), check)

    ops = [make(*grid[i]) for i in order]
    return ops, make(*grid[0]), digest(X, [grid[i] for i in order])


def setup_cli_bench(seed: int, sz: dict, workdir: Path) -> tuple[list[Op], Op, str]:
    """Specs of `softkm bench` on one labelled CSV. The data matrix and the
    init seeds are the same for every seed: the cost of an iterative solve
    moves with both, and drawing them from the seed spread the projection
    count of a cycle by 7% (CV over five seeds), while machine noise alone
    already spreads the timings by 10-15%. The seed draws the truth labels
    the CLI scores against (the cluster labels with 10% replaced at random)
    and the order of the specs; the warm-up op is spec 0 in every order."""
    rng = np.random.default_rng(seed)
    d, n, k, cap = sz["d"], sz["n"], sz["k"], sz["max_iters"]
    X, clusters = clustered(np.random.default_rng(0), d, n, k)
    labels = np.where(rng.random(n) < 0.1, rng.integers(0, k, n), clusters)
    ref = Reference.of(X)
    base = workdir / "cli"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    data = base / "data.csv"
    # %.17g round-trips float64, so the CLI reads back exactly X
    np.savetxt(data, np.column_stack([X.T, labels]), delimiter=",", comments="",
               header=",".join([f"x{i}" for i in range(d)] + ["label"]),
               fmt=["%.17g"] * d + ["%d"])
    out_dir = base / "out"
    ops, specs = [], []
    for i in range(sz["ops"]):
        s = list(range(4 * i, 4 * i + 4))
        runs = [{"solver": "global", "k": kk} for kk in sz["ks"]]
        runs.append({"solver": "am", "k": k, "seeds": s[:2], "max_iters": cap})
        runs.append({"solver": "mvskm", "k": k, "lambda": sz["lam"], "seeds": s[2:],
                     "max_iters": cap})
        spec = {"input": str(data), "out": str(out_dir), "runs": runs}
        spec_path = base / f"spec_{i:02d}.json"
        spec_path.write_text(json.dumps(spec, indent=1), encoding="utf-8")
        configs = [(r["solver"], r["k"], seed_) for r in runs
                   for seed_ in (r.get("seeds", [0])[:1] if r["solver"] == "global" else r["seeds"])]
        specs.append(runs)
        ops.append(Op("cli_bench", {"shape": [d, n], "configs": configs, "lam": sz["lam"],
                                    "max_iters": cap},
                      cli_call(spec_path), cli_check(out_dir, configs, ref, n, cap),
                      prepare=lambda: shutil.rmtree(out_dir, ignore_errors=True)))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order], ops[0], digest(X, labels, [specs[i] for i in order])


def cli_call(spec_path: Path):
    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            return softkm.cli.main(["bench", "--spec", str(spec_path)])
    return call


def cli_check(out_dir: Path, configs, ref: Reference, n: int, cap: int):
    def check(rc):
        require(rc == 0, f"softkm bench exited with {rc}")
        rows = (out_dir / "bench.csv").read_text(encoding="utf-8").splitlines()
        require(len(rows) == 1 + len(configs),
                f"bench.csv has {len(rows) - 1} rows for {len(configs)} configs")
        solves = []
        for idx, (solver, k, _) in enumerate(configs):
            run_dir = out_dir / f"run_{idx:03d}_{solver}"
            res = json.loads((run_dir / "result.json").read_text(encoding="utf-8"))
            G = np.loadtxt(run_dir / "membership.csv", delimiter=",", ndmin=2)
            check_membership(G, n, k)
            if solver == "global":
                gap = abs(res["objective"] - ref.tail(k))
                require(gap <= ref.tol(), f"global objective misses the tail energy by {gap:.3e}")
                continue
            F = None
            if solver == "mvskm":
                P = np.loadtxt(run_dir / "prototypes.csv", delimiter=",", ndmin=2)
                F = P.T - ref.mean[:, None]
            solves.append(iterative_outcome(solver, res["objective"], res["objective_trace"],
                                            cap, ref, k, centered_F=F))
        return solves
    return check


SETUPS = {
    "spectral": setup_spectral,
    "mvskm_sweep": setup_mvskm_sweep,
    "cli_bench": setup_cli_bench,
}
WORKLOADS = tuple(SETUPS)


# --------------------------------------------------------------------------
# Tracing


def _nbytes(args, kwargs, out):
    return {"bytes_in": int(np.asarray(args[0]).nbytes)}


def _rows(args, kwargs, out):
    X = args[1]
    return {"rows": int(X.n if isinstance(X, softkm.DataMatrix) else np.shape(X)[1])}


def _file_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute, span name, attributes): each call site is wrapped where
# its caller looks the function up, so nothing under src/ changes.
HOOKS = [
    ("softkm", "solve_global", "global_solver.solve_global", None),
    ("softkm.audits", "solve_global", "global_solver.solve_global", None),
    ("softkm.io", "solve_global", "global_solver.solve_global", None),
    ("softkm.global_solver", "truncated_svd", "core.truncated_svd", _nbytes),
    ("softkm.audits", "numerical_rank", "core.numerical_rank", None),
    ("softkm.global_solver", "center", "core.center", None),
    ("softkm.audits", "center", "core.center", None),
    ("softkm.am", "center", "core.center", None),
    ("softkm.mvskm", "center", "core.center", None),
    ("softkm.io", "center", "core.center", None),
    ("softkm", "is_skmable", "audits.is_skmable", None),
    ("softkm", "is_ti_lsdable", "audits.is_ti_lsdable", None),
    ("softkm", "stability_audit", "audits.stability_audit", None),
    ("softkm.am", "solve_membership", "simplex.solve_membership", _rows),
    ("softkm.mvskm", "solve_membership", "simplex.solve_membership", _rows),
    ("softkm.simplex", "_project_rows", "simplex.project_rows", None),
    ("softkm", "solve_mvskm", "mvskm.solve_mvskm", None),
    ("softkm.io", "solve_mvskm", "mvskm.solve_mvskm", None),
    ("softkm.mvskm", "reweight_matrix", "mvskm.reweight_matrix", None),
    ("softkm.mvskm", "mvskm_objective", "mvskm.objective", None),
    ("softkm.io", "solve_am", "am.solve_am", None),
    ("softkm.cli", "load_csv", "io.load_csv", _file_bytes),
    ("softkm.io", "load_csv", "io.load_csv", _file_bytes),
    ("softkm.io", "save_matrix_csv", "io.save_matrix_csv", _file_bytes),
    ("softkm.io", "hard_assign", "metrics.score", None),
    ("softkm.io", "accuracy", "metrics.score", None),
    ("softkm.io", "nmi", "metrics.score", None),
    ("softkm.io", "purity", "metrics.score", None),
    ("softkm.cli", "main", "cli.main", None),
]


class Tracer:
    """In-memory spans. Each span is [name, parent index, start, end,
    time covered by child spans, attributes]; calls are synchronous, so
    children never overlap and self time is duration minus child time."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, parent, perf_counter(), 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = perf_counter()
                if parent >= 0:
                    spans[parent][4] += span[3] - span[2]
            if attrs is not None:
                span[5] = attrs(args, kwargs, out)
            return out
        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for mod_name, attr, name, attrs in HOOKS:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(name, fn, attrs))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def summary(self) -> dict:
        agg: dict[str, dict] = {}
        for name, _, t0, t1, child, attrs in self.spans:
            a = agg.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            a["calls"] += 1
            a["s"] += t1 - t0
            a["self_s"] += t1 - t0 - child
            for key, v in (attrs or {}).items():
                a[key] = a.get(key, 0) + v
        return agg

    def write(self, path: Path) -> None:
        """One line per span: id, parent id, name, start and end in
        microseconds from the first span."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_us,end_us\n")
            for i, (name, parent, t0, t1, _, _) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{(t0 - origin) * 1e6:.1f},{(t1 - origin) * 1e6:.1f}\n")


# --------------------------------------------------------------------------
# Running


@dataclass
class Record:
    kind: str
    meta: dict
    ms: float
    ok: bool
    solves: list = field(default_factory=list)
    error: str | None = None


def execute(op: Op, tracer: Tracer | None = None) -> Record:
    """Run one op with the clock around the public call only, then check
    its output. Any exception from the call or the check fails the op."""
    if op.prepare is not None:
        op.prepare()
    with tracer.installed() if tracer else contextlib.nullcontext():
        t0 = perf_counter()
        try:
            out = op.call()
        except Exception:  # the op failed; record it and keep measuring
            ms = (perf_counter() - t0) * 1e3
            return Record(op.kind, op.meta, ms, False, error=traceback.format_exc(limit=3))
        ms = (perf_counter() - t0) * 1e3
    try:
        solves = op.check(out)
    except Exception:  # a failed or crashing check fails the op
        return Record(op.kind, op.meta, ms, False, error=traceback.format_exc(limit=3))
    return Record(op.kind, op.meta, ms, True, solves)


def cycle_count(seconds: float, cycle_s: float) -> int:
    """Whole cycles in a run: fixed by `seconds`, never by the measured
    pace, so every run holds the same ops and the same number of samples."""
    return max(1, round(seconds / cycle_s))


def busy_s(records: list[Record]) -> float:
    return sum(r.ms for r in records) / 1e3


def tail_percentile(values: list[float]) -> tuple[int, float, int]:
    """(p, value, beyond): the highest whole percentile p whose nearest-rank
    value still has at least ten samples beyond it. With fewer than eleven
    samples it falls back to the maximum, with p = 100 and beyond = 0."""
    v = sorted(values)
    n = len(v)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= 10:
            return p, v[rank - 1], n - rank
    return 100, v[-1], 0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metadata(workload: str, seed: int, size: str, inputs_sha256: str) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "size": size,
        "sizes": SIZES[size][workload],
        "inputs_sha256": inputs_sha256,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def setup(workload: str, seed: int, size: str, workdir: Path):
    """Build the inputs and make one untimed warm-up call, SETUP_REPEATS
    times; returns the last op list, its input digest, the median set-up
    time and the warm-up records."""
    times, warm = [], []
    for _ in range(SETUP_REPEATS):
        ops = warm_op = None  # free the previous inputs before building new ones
        t0 = perf_counter()
        ops, warm_op, sha = SETUPS[workload](seed, SIZES[size][workload], workdir)
        warm.append(execute(warm_op))
        times.append(perf_counter() - t0)
    return ops, sha, statistics.median(times), warm


def end_to_end(records: list[Record], setup_s: float) -> dict:
    ok = [r for r in records if r.ok]
    lat = [r.ms if r.ok else math.inf for r in records]
    p, tail, beyond = tail_percentile(lat)
    excess = [s["excess"] for r in ok for s in r.solves]
    return {
        "setup_s": setup_s,
        "ops_per_s": len(ok) / busy_s(records),
        "op_ms.p50": statistics.median(lat),
        "op_ms.tail": tail,
        "op_ms.tail_pct": p,
        "op_ms.tail_beyond": beyond,
        "fit_excess": statistics.fmean(excess) if excess else None,
        "fail_frac": (len(records) - len(ok)) / len(records),
        "peak_rss_mb": peak_rss_mb(),
        "samples": len(records),
    }


def layer_metrics(summary: dict, records: list[Record]) -> dict:
    """Per-layer metrics of one traced pass, all but the trace.* ones."""
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    def solves(solver):
        return [s for r in records for s in r.solves if s["solver"] == solver]

    def frac(items, key):
        return sum(bool(s[key]) for s in items) / len(items) if items else 0.0

    mv, am = solves("mvskm"), solves("am")
    outer = sum(s["iters"] for s in mv + am)
    return {
        "core.truncated_svd.s": get("core.truncated_svd", "s"),
        "core.truncated_svd.calls": get("core.truncated_svd", "calls"),
        "core.truncated_svd.bytes_in": get("core.truncated_svd", "bytes_in"),
        "core.numerical_rank.s": get("core.numerical_rank", "s"),
        "core.center.s": get("core.center", "s"),
        "global_solver.solve_global.self_s": get("global_solver.solve_global", "self_s"),
        "simplex.solve_membership.s": get("simplex.solve_membership", "s"),
        "simplex.solve_membership.calls": get("simplex.solve_membership", "calls"),
        "simplex.solve_membership.rows": get("simplex.solve_membership", "rows"),
        "simplex.project_rows.s": get("simplex.project_rows", "s"),
        "simplex.project_rows.calls": get("simplex.project_rows", "calls"),
        "simplex.proj_per_outer": get("simplex.project_rows", "calls") / outer if outer else 0.0,
        "mvskm.solve_mvskm.self_s": get("mvskm.solve_mvskm", "self_s"),
        "mvskm.reweight_matrix.s": get("mvskm.reweight_matrix", "s"),
        "mvskm.objective.s": get("mvskm.objective", "s"),
        "mvskm.outer_iters": sum(s["iters"] for s in mv),
        "mvskm.cap_frac": frac(mv, "cap_hit"),
        "mvskm.collapsed_frac": frac(mv, "collapsed"),
        "am.solve_am.self_s": get("am.solve_am", "self_s"),
        "am.outer_iters": sum(s["iters"] for s in am),
        "am.cap_frac": frac(am, "cap_hit"),
        "audits.is_skmable.s": get("audits.is_skmable", "s"),
        "audits.is_ti_lsdable.s": get("audits.is_ti_lsdable", "s"),
        "audits.stability_audit.s": get("audits.stability_audit", "s"),
        "io.load_csv.s": get("io.load_csv", "s"),
        "io.load_csv.calls": get("io.load_csv", "calls"),
        "io.load_csv.bytes": get("io.load_csv", "bytes"),
        "io.save_matrix_csv.s": get("io.save_matrix_csv", "s"),
        "io.save_matrix_csv.bytes": get("io.save_matrix_csv", "bytes"),
        "metrics.score.s": get("metrics.score", "s"),
        "cli.main.self_s": get("cli.main", "self_s"),
    }


COUNT_METRICS = [n for n, u in PER_LAYER_UNITS.items() if u in ("count", "B", "calls/iter")] + [
    "mvskm.cap_frac", "mvskm.collapsed_frac", "am.cap_frac"]


def assumptions(workload: str, m: dict) -> list[dict]:
    """The traffic assumptions the workloads were chosen on, as measured."""
    busy = m["trace.pass_s"] + m["trace.overhead_s"]
    simplex = m["simplex.solve_membership.s"] / busy
    core = (m["core.truncated_svd.s"] + m["core.numerical_rank.s"]) / busy
    io_s = m["io.load_csv.s"] + m["io.save_matrix_csv.s"]
    rows = [{"claim": "io time is nonzero only on cli_bench", "value": io_s,
             "holds": (io_s > 0) == (workload == "cli_bench")}]
    if workload == "spectral":
        rows += [{"claim": "simplex does no work on spectral",
                  "value": m["simplex.project_rows.calls"],
                  "holds": m["simplex.project_rows.calls"] == 0},
                 {"claim": "SVD and rank time dominate spectral (share > 0.5)",
                  "value": core, "holds": core > 0.5}]
    if workload == "mvskm_sweep":
        rows += [{"claim": "simplex time is the large majority of mvskm_sweep (share > 0.75)",
                  "value": simplex, "holds": simplex > 0.75},
                 {"claim": "truncated_svd is never called on mvskm_sweep",
                  "value": m["core.truncated_svd.calls"],
                  "holds": m["core.truncated_svd.calls"] == 0}]
    return rows


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", workdir: Path | None = None) -> dict:
    """Set up, measure and check one workload; returns the full report."""
    workdir = Path(workdir or ROOT / ".bench_out")
    workdir.mkdir(parents=True, exist_ok=True)
    ops, sha, setup_s, warm = setup(workload, seed, size, workdir)
    report = {"meta": metadata(workload, seed, size, sha), "cycle_ops": len(ops)}
    cycle_s = SIZES[size][workload]["cycle_s"]
    if not trace:
        records = [execute(op) for _ in range(cycle_count(seconds, cycle_s)) for op in ops]
        report["end_to_end"] = end_to_end(records, setup_s)
        report["metrics"] = {n: report["end_to_end"][n] for n in RESULT_METRICS}
    else:
        records, untraced, traced, summaries = [], [], [], []
        for i in range(cycle_count(seconds, 2 * cycle_s)):
            plain = [execute(op) for op in ops]
            tracer = Tracer()
            with_spans = [execute(op, tracer) for op in ops]
            if i == 0:
                first_tracer = tracer  # its spans are written at the end
            records += plain + with_spans
            untraced.append(busy_s(plain))
            traced.append(busy_s(with_spans))
            summaries.append(layer_metrics(tracer.summary(), with_spans))
        layers = {n: (summaries[0][n] if n in COUNT_METRICS
                      else statistics.median(s[n] for s in summaries))
                  for n in summaries[0]}
        u, t = statistics.median(untraced), statistics.median(traced)
        layers.update({"trace.pass_s": u, "trace.overhead_s": t - u,
                       "trace.overhead_frac": (t - u) / u})
        report["per_layer"] = layers
        report["counts_repeat"] = all(s[n] == summaries[0][n] for s in summaries
                                      for n in COUNT_METRICS)
        report["assumptions"] = assumptions(workload, layers)
        report["metrics"] = layers
        first_tracer.write(workdir / f"{workload}-seed{seed}-spans.csv")
    report["ops"] = [{"op": r.kind, **r.meta, "ms": r.ms, "ok": r.ok,
                      "outer_iters": [s["iters"] for s in r.solves],
                      "cap_hits": sum(s["cap_hit"] for s in r.solves)} for r in records]
    report["warmup_ms"] = [r.ms for r in warm]
    failed = [r for r in warm + records if not r.ok]
    report["attempted"] = len(warm) + len(records)
    report["failed"] = len(failed)
    report["errors"] = [f"{r.kind} {r.meta}: {r.error}" for r in failed[:5]]
    if workload == "cli_bench":
        shutil.rmtree(workdir / "cli", ignore_errors=True)
    return report


def result_line(report: dict, trace: bool) -> dict:
    """The last line of a run: correctness, counts and the metrics named in
    BENCHMARK.json for this mode."""
    units = PER_LAYER_UNITS if trace else {n: END_TO_END_UNITS[n] for n in RESULT_METRICS}
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": report["metrics"][n], "unit": units[n]} for n in units},
    }


def format_report(report: dict, trace: bool) -> str:
    meta = report["meta"]
    lines = [f"workload={meta['workload']} seed={meta['seed']} size={meta['size']} "
             f"trace={int(trace)} ops/cycle={report['cycle_ops']} "
             f"attempted={report['attempted']} failed={report['failed']}",
             "meta " + json.dumps({k: v for k, v in meta.items() if k != "sizes"})]
    if not trace:
        e = report["end_to_end"]
        for name, unit in END_TO_END_UNITS.items():
            v = e[name]
            text = "n/a (no iterative solves)" if v is None else f"{v:.6g} {unit}"
            if name == "op_ms.tail":
                text += f"  (p{e['op_ms.tail_pct']}, {e['op_ms.tail_beyond']} of {e['samples']} samples beyond)"
            lines.append(f"  {name:<14} {text}")
        kinds: dict[str, list] = {}
        for op in report["ops"]:
            kinds.setdefault(op["op"], []).append(op)
        for kind, ops in kinds.items():
            iters = [i for op in ops for i in op["outer_iters"]]
            lines.append(f"  op {kind:<16} n={len(ops):<4} median_ms={statistics.median(o['ms'] for o in ops):.2f} "
                         f"outer_iters={sum(iters)} cap_hits={sum(o['cap_hits'] for o in ops)}")
    else:
        for name, unit in PER_LAYER_UNITS.items():
            lines.append(f"  {name:<34} {report['per_layer'][name]:.6g} {unit}")
        lines.append(f"  counts repeat across passes: {report['counts_repeat']}")
        for a in report["assumptions"]:
            lines.append(f"  assumption {'holds' if a['holds'] else 'FAILS'}: {a['claim']} "
                         f"(measured {a['value']:.4g})")
    for err in report["errors"]:
        lines.append("  error: " + err.strip().replace("\n", " | "))
    return "\n".join(lines)
