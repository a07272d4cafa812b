"""Sweep the minimal-volume solver over a lambda grid against the global
and alternating baselines on the bundled two-Gaussian set.

Builds a bench spec, hands it to the `softkm bench` machinery, and leaves
bench.csv plus per-run artifact directories under --out.

Usage:
    python3 scripts/bench_sweep.py --out /tmp/sweep [--seeds 5] [--lambdas 0.01 0.1 1 10]
"""

import argparse
import json
import os
import sys

from softkm.cli import main as softkm_main
from softkm.synth import two_gaussians

from labelled_csv import write_labelled_csv


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="directory for bench.csv and run artifacts")
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--seeds", type=int, default=5, help="number of seeds per stochastic solver")
    ap.add_argument("--lambdas", type=float, nargs="+", default=[0.01, 0.1, 1.0, 10.0])
    args = ap.parse_args(argv)

    X, labels = two_gaussians()
    os.makedirs(args.out, exist_ok=True)
    data_path = os.path.join(args.out, "data.csv")
    write_labelled_csv(data_path, X, labels)

    seeds = list(range(args.seeds))
    runs = [
        {"solver": "global", "k": args.k},
        {"solver": "am", "k": args.k, "seeds": seeds},
    ]
    runs += [
        {"solver": "mvskm", "k": args.k, "lambda": lam, "seeds": seeds}
        for lam in args.lambdas
    ]
    spec_path = os.path.join(args.out, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"input": data_path, "out": args.out, "runs": runs}, fh, indent=2)

    return softkm_main(["bench", "--spec", spec_path])


if __name__ == "__main__":
    sys.exit(main())
