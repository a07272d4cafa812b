"""Command-line entry of the softkm layered benchmark.

Run from the repository root:

    python3 bench/run.py --workload spectral --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the full report, with the run
metadata and every op, goes to .bench_out/. "--workload all" runs the three
workloads one after another, each in its own process. Without src/softkm the
import below fails, and the run exits non-zero before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

# One process with one BLAS thread: fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import harness  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="softkm layered benchmark")
    ap.add_argument("--workload", required=True, choices=harness.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        rc = 0
        for w in harness.WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            rc = max(rc, subprocess.run(cmd, check=False).returncode)
        return rc

    trace = bool(args.trace)
    report = harness.run_workload(args.workload, args.seed, args.seconds, trace)
    out = harness.ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1, default=float) + "\n", encoding="utf-8")
    print(harness.format_report(report, trace))
    print(f"report: {out.relative_to(harness.ROOT)}")
    print(json.dumps(harness.result_line(report, trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
