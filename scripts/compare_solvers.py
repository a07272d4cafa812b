"""Run all three solvers on the bundled two-Gaussian set and report where
their prototypes land relative to the data hull.

Writes one artifact directory per solver (membership.csv, prototypes.csv,
result.json, plotdata.csv) so the scatter comparison can be rendered from
plotdata.csv by any plotting tool.

Usage:
    python3 scripts/compare_solvers.py --out /tmp/comparison [--k 3] [--lambda 1.0]
"""

import argparse
import os
import sys

import numpy as np

from softkm import RunConfig, accuracy, hard_assign, run
from softkm.synth import in_convex_hull, two_gaussians

from labelled_csv import write_labelled_csv


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="directory for the per-solver artifacts")
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--lambda", dest="lam", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    X, labels = two_gaussians()
    os.makedirs(args.out, exist_ok=True)
    data_path = os.path.join(args.out, "data.csv")
    write_labelled_csv(data_path, X, labels)

    print(f"{'solver':8s} {'objective':>12s} {'iters':>6s} {'acc':>6s}  prototypes in hull")
    for solver in ("global", "am", "mvskm"):
        cfg = RunConfig(
            solver=solver,
            k=args.k,
            input_path=data_path,
            output_dir=os.path.join(args.out, solver),
            lam=args.lam if solver == "mvskm" else None,
            seed=args.seed,
        )
        result = run(cfg)
        F = np.loadtxt(os.path.join(args.out, solver, "prototypes.csv"), delimiter=",").T
        inside = [in_convex_hull(X, F[:, j]) for j in range(args.k)]
        G = np.loadtxt(os.path.join(args.out, solver, "membership.csv"), delimiter=",")
        acc = accuracy(hard_assign(G), labels)
        marks = " ".join("in" if h else "OUT" for h in inside)
        print(f"{solver:8s} {result.objective:12.4e} {result.iterations:6d} {acc:6.3f}  {marks}")
    print(f"artifacts under {args.out}/<solver>/, scatter data in plotdata.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
