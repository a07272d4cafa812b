"""End-to-end acceptance checks.

One test per shipped guarantee, each printing a PASS/FAIL line. The
batteries are shared through module fixtures so the whole file stays well
under the stated time budgets.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import decomposable_instance, random_instance
from softkm import (
    AmOptions,
    MvskmOptions,
    RunConfig,
    SimplexSolveOptions,
    accuracy,
    center,
    is_skmable,
    is_ti_lsdable,
    kernel_embed,
    nmi,
    nonuniqueness_gap,
    project_simplex,
    purity,
    run,
    solve_am,
    solve_global,
    solve_mvskm,
    solve_simplex_ls,
    stability_audit,
)
from softkm.core import double_center
from softkm.synth import in_convex_hull, two_gaussians
from test_metrics import brute_accuracy


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@dataclass
class BatteryRecord:
    X: np.ndarray
    k: int
    obj_global: float
    obj_am: float
    G_global: np.ndarray
    G_am: np.ndarray


@pytest.fixture(scope="module")
def battery():
    """100 seeded instances solved by both solvers, with the wall time of
    the solve loop."""
    combos = [
        (d, n, k)
        for d in (2, 4, 8)
        for n in (50, 300)
        for k in (2, 3, 5)
        if k - 1 <= d
    ]
    assert len(combos) == 16
    records = []
    t0 = time.perf_counter()
    for i in range(100):
        d, n, k = combos[i % len(combos)]
        X = random_instance(1000 + i, d, n)
        solg, _ = solve_global(X, k)
        sola, _ = solve_am(X, k, AmOptions(seed=i, max_outer_iters=20))
        records.append(BatteryRecord(X, k, solg.objective, sola.objective,
                                     solg.membership, sola.membership))
    elapsed = time.perf_counter() - t0
    return records, elapsed


@pytest.fixture(scope="module")
def skmable_runs():
    """50 exactly factorizable instances and their global solves."""
    dims = [(3, 40, 2), (4, 40, 3), (8, 120, 5), (4, 120, 3), (6, 40, 4)]
    out = []
    for i in range(50):
        d, n, k = dims[i % len(dims)]
        X, _, _ = decomposable_instance(2000 + i, d, n, k)
        sol, _ = solve_global(X, k)
        out.append((X, k, sol))
    return out


@pytest.fixture(scope="module")
def gauss():
    X, labels = two_gaussians()
    return X, labels


@pytest.fixture(scope="module")
def mvskm_traces(gauss):
    X, _ = gauss
    traces = {}
    for lam in (0.01, 0.1, 1.0, 10.0):
        for seed in range(10):
            _, state = solve_mvskm(X, 3, MvskmOptions(lam=lam, seed=seed))
            traces[(lam, seed)] = state.objective_trace
    return traces


def test_criterion_01_global_dominates_am(battery):
    records, elapsed = battery
    wins = sum(
        r.obj_global <= r.obj_am + 1e-7 * float(np.sum(r.X ** 2)) for r in records
    )
    ok = wins == 100 and elapsed < 30.0
    report(1, ok, f"global <= am + 1e-7*||X||^2 in {wins}/100, battery took {elapsed:.1f}s (< 30s)")


def test_criterion_02_tail_energy_identity(battery):
    records, _ = battery
    worst = 0.0
    for r in records:
        Xc = center(r.X).centered
        s = np.linalg.svd(Xc, compute_uv=False)
        tail = float(np.sum(s[r.k - 1:] ** 2))
        denom = float(np.sum(Xc * Xc))
        worst = max(worst, abs(r.obj_global - tail) / max(denom, np.finfo(float).tiny))
    ok = worst <= 1e-8
    report(2, ok, f"max |objective - tail energy| / ||Xc||^2 = {worst:.2e} (<= 1e-8)")


def test_criterion_03_exact_recovery_and_rank_test(skmable_runs):
    exact = sum(
        sol.objective <= 1e-10 * float(np.sum(X * X)) and is_skmable(X, k)
        for X, k, sol in skmable_runs
    )
    generic = 0
    for i in range(50):
        d = (4, 6, 8)[i % 3]
        X = random_instance(3000 + i, d, d + 20)
        generic += not is_skmable(X, 3)
    ok = exact == 50 and generic == 50
    report(3, ok, f"factorizable recovered {exact}/50, generic rejected {generic}/50")


def test_criterion_04_membership_feasibility(battery, skmable_runs):
    records, _ = battery
    Gs = [G for r in records for G in (r.G_global, r.G_am)]
    Gs += [sol.membership for _, _, sol in skmable_runs]
    violations = 0
    for G in Gs:
        if float(G.min()) < -1e-12:
            violations += 1
        elif float(np.abs(G.sum(axis=1) - 1.0).max()) > 1e-10:
            violations += 1
    ok = violations == 0
    report(4, ok, f"{violations} feasibility violations across {len(Gs)} memberships")


def test_criterion_05_mvskm_descent(mvskm_traces):
    worst_rise = -math.inf
    worst_len = 0
    for trace in mvskm_traces.values():
        worst_rise = max(worst_rise, float(np.diff(trace).max()))
        worst_len = max(worst_len, len(trace) - 1)
    ok = worst_rise <= 1e-9 and worst_len <= 300
    report(5, ok, f"worst trace rise {worst_rise:.2e} (<= 1e-9), longest run {worst_len} iters (<= 300)")


def test_criterion_06_stability_bound():
    holds = 0
    for i in range(50):
        k = 2 + (i % 2)
        X = random_instance(4000 + i, 3, 40)
        E = np.random.default_rng(9000 + i).standard_normal(X.shape)
        E *= (0.01, 0.1, 1.0)[i % 3] * np.linalg.norm(X) / np.linalg.norm(E)
        holds += stability_audit(X, E, k).holds
    ok = holds == 50
    report(6, ok, f"perturbation bound held in {holds}/50 audits")


def test_criterion_07_nonuniqueness_identity():
    worst_rel = 0.0
    worst_obj = 0.0
    shapes = [(3, 2), (4, 3), (6, 4), (8, 5)]
    for i in range(25):
        d, k = shapes[i % len(shapes)]
        X = random_instance(5000 + i, d, 30 + i)
        _, gf = solve_global(X, k)
        _, _, gap, (o1, o2) = nonuniqueness_gap(X, k)
        expected_sq = 4.0 / (gf.r ** 2 * k * (k - 1)) * float(np.sum(gf.sigma ** 2))
        worst_rel = max(worst_rel, abs(gap ** 2 - expected_sq) / expected_sq)
        worst_obj = max(worst_obj, abs(o1 - o2))
    _, _, gap2, _ = nonuniqueness_gap(np.array([[-1.0, 1.0]]), 2)
    ok = worst_rel <= 1e-7 and worst_obj <= 1e-9 and abs(gap2 - 2.0) <= 1e-12
    report(7, ok, (f"gap identity rel err {worst_rel:.2e} (<= 1e-7), objective diff {worst_obj:.2e}"
                   f" (<= 1e-9), two-point gap |{gap2} - 2| <= 1e-12"))


def test_criterion_08_kernel_side_consistency():
    agree = 0
    for i in range(50):
        if i % 2 == 0:
            X, _, _ = decomposable_instance(6000 + i, 4, 25, 3)
        else:
            X = random_instance(6000 + i, 4, 25)
        k = (2, 3, 4)[i % 3]
        agree += is_ti_lsdable(X.T @ X, k) == is_skmable(X, k)
    worst_rel = 0.0
    for i in range(10):
        r = 2 + (i % 3)
        A = np.random.default_rng(7000 + i).standard_normal((r, 12 + i))
        K = A.T @ A
        Y = kernel_embed(K)
        k = 2
        sol, _ = solve_global(Y, k)
        lam = np.sort(np.linalg.eigvalsh(double_center(K)))[::-1]
        expected = float(np.clip(lam[k - 1:], 0.0, None).sum())
        worst_rel = max(worst_rel, abs(sol.objective - expected) / expected)
    ok = agree == 50 and worst_rel <= 1e-8
    report(8, ok, f"rank-test agreement {agree}/50, embedding objective rel err {worst_rel:.2e} (<= 1e-8)")


def _simplex_grid_3(step=1e-3):
    ij = np.arange(0.0, 1.0 + step / 2, step)
    a, b = np.meshgrid(ij, ij, indexing="ij")
    keep = a + b <= 1.0 + 1e-12
    a, b = a[keep], b[keep]
    return np.column_stack([a, b, 1.0 - a - b])


def test_criterion_09_simplex_solver_correctness():
    grid = _simplex_grid_3()
    sq = np.einsum("ij,ij->i", grid, grid)
    rng = np.random.default_rng(0)
    worst_proj = 0.0
    for _ in range(100):
        v = rng.uniform(-2.0, 2.0, size=3)
        p = project_simplex(v)
        d2 = sq - 2.0 * grid @ v
        g = grid[int(np.argmin(d2))]
        worst_proj = max(worst_proj, float(np.linalg.norm(p - g)))
    worst_kkt = 0.0
    opts = SimplexSolveOptions(max_iters=20000, kkt_tol=1e-9)
    for i in range(100):
        rng_i = np.random.default_rng(100 + i)
        d, k = int(rng_i.integers(2, 7)), int(rng_i.integers(2, 7))
        F = rng_i.standard_normal((d, k))
        x = rng_i.standard_normal(d)
        g = solve_simplex_ls(F, x, opts)
        L = float(np.linalg.svd(F, compute_uv=False)[0] ** 2)
        step = g - F.T @ (F @ g - x) / L
        worst_kkt = max(worst_kkt, float(np.linalg.norm(g - project_simplex(step))))
    ok = worst_proj <= 2e-3 and worst_kkt <= 1e-9
    report(9, ok, f"projection vs grid {worst_proj:.2e} (<= 2e-3), KKT residual {worst_kkt:.2e} (<= 1e-9)")


def test_criterion_10_metric_oracles():
    rng = np.random.default_rng(1)
    matches = 0
    for _ in range(100):
        k1, k2 = rng.integers(1, 6, size=2)
        n = int(rng.integers(5, 30))
        pred = rng.integers(0, k1, size=n)
        truth = rng.integers(0, k2, size=n)
        matches += accuracy(pred, truth) == pytest.approx(brute_accuracy(pred, truth), abs=1e-12)
    mi = (0.5 * math.log(0.5 / 0.375) + 0.25 * math.log(0.25 / 0.375)
          + 0.25 * math.log(0.25 / 0.125))
    hand_nmi = mi / math.sqrt(-(0.75 * math.log(0.75) + 0.25 * math.log(0.25)) * math.log(2.0))
    hand_ok = (
        abs(purity([0, 0, 1, 1], [0, 0, 0, 1]) - 0.75) <= 1e-12
        and abs(nmi([0, 0, 0, 1], [0, 0, 1, 1]) - hand_nmi) <= 1e-12
        and abs(accuracy([0, 0, 1, 1], [0, 1, 0, 1]) - 0.5) <= 1e-12
    )
    ok = matches == 100 and hand_ok
    report(10, ok, f"assignment matches brute force {matches}/100, hand-worked values within 1e-12")


def test_criterion_11_hull_geometry(gauss):
    X, _ = gauss
    k = 3
    solg, _ = solve_global(X, k)
    outside = sum(not in_convex_hull(X, solg.prototypes[:, j]) for j in range(k))
    solm, _ = solve_mvskm(X, k, MvskmOptions(lam=1.0, seed=0))
    inside = sum(in_convex_hull(X, solm.prototypes[:, j]) for j in range(k))
    ok = outside == k and inside == k
    report(11, ok, f"global prototypes outside hull {outside}/{k}, minimal-volume inside {inside}/{k}")


def test_criterion_12_byte_identical_outputs(gauss, tmp_path):
    X, labels = gauss
    rows = np.column_stack([X.T, labels])
    inp = tmp_path / "data.csv"
    with open(inp, "w", encoding="utf-8") as fh:
        fh.write("x,y,label\n")
        for x, y, lab in rows:
            fh.write(f"{float(x)!r},{float(y)!r},{int(lab)}\n")
    identical = True
    for solver, lam in (("global", None), ("am", None), ("mvskm", 1.0)):
        dirs = [tmp_path / f"{solver}_{i}" for i in (0, 1)]
        for d in dirs:
            run(RunConfig(solver=solver, k=3, input_path=str(inp),
                          output_dir=str(d), lam=lam, seed=4))
        for name in ("membership.csv", "result.json"):
            identical &= (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    report(12, identical, "repeated runs produced byte-identical membership.csv and result.json")
