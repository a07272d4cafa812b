"""Command-line interface.

Subcommands: solve-global, solve-am, solve-mvskm, check-skmable,
check-tilsdable, eval, bench. Exit codes: 0 on success, 2 on invalid
input, 3 on numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .audits import is_skmable, is_ti_lsdable, _double_center
from .core import numerical_rank
from .errors import InvalidInput, NumericalFailure, SoftKMError
from .io import (
    RunConfig,
    bench,
    format_bench_table,
    load_csv,
    load_labels,
    run,
    write_bench_outputs,
)
from .metrics import accuracy, nmi, purity

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3


def _add_solver_parser(sub, name: str, blurb: str):
    # flags left out are absent from the namespace, so RunConfig's defaults apply
    p = sub.add_parser(name, help=blurb, argument_default=argparse.SUPPRESS)
    p.add_argument("--input", dest="input_path", required=True, help="samples-as-rows CSV")
    p.add_argument("--k", type=int, required=True, help="number of prototypes")
    p.add_argument("--lambda", dest="lam", type=float,
                   help="volume penalty weight (required for solve-mvskm)")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--tol", dest="rel_obj_tol", type=float,
                   help="relative objective tolerance for iterative solvers")
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--out", dest="output_dir", required=True, help="output directory")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softkm",
        description="Soft k-means solvers, decomposability checks, and scoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_solver_parser(sub, "solve-global", "closed-form global solver")
    _add_solver_parser(sub, "solve-am", "alternating-minimization baseline")
    _add_solver_parser(sub, "solve-mvskm", "minimal-volume solver")

    for name, blurb in (("check-skmable", "exact factorization feasibility"),
                        ("check-tilsdable", "kernel-side feasibility")):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--input", required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--tau", type=float, default=1e-10)
        if name == "check-tilsdable":
            p.add_argument("--kernel", action="store_true",
                           help="treat the input as an n x n kernel instead of data")

    p = sub.add_parser("eval", help="score predicted labels against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)

    p = sub.add_parser("bench", help="run a JSON-described sweep on labeled data")
    p.add_argument("--spec", required=True)
    return parser


def _cmd_solve(args) -> int:
    fields = vars(args).copy()
    cfg = RunConfig(solver=fields.pop("command").removeprefix("solve-"), **fields)
    res = run(cfg)
    print(f"solver={res.solver} k={res.k} objective={res.objective:.12g} "
          f"iterations={res.iterations} out={cfg.output_dir}")
    return EXIT_OK


def _cmd_check(args) -> int:
    X, _ = load_csv(args.input)
    if args.command == "check-skmable":
        ok = is_skmable(X, args.k, args.tau)
        rank = numerical_rank(X.centered, args.tau)
    else:
        if getattr(args, "kernel", False):
            K = X.values
            if K.shape[0] != K.shape[1]:
                raise InvalidInput("--kernel input must be a square matrix")
        else:
            K = X.values.T @ X.values
        ok = is_ti_lsdable(K, args.k, args.tau)
        rank = numerical_rank(_double_center(np.asarray(K, dtype=float)), args.tau)
    print("true" if ok else "false")
    print(f"numerical_rank={rank}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    pred = load_labels(args.pred)
    truth = load_labels(args.truth)
    print(f"ACC {accuracy(pred, truth):.6f}")
    print(f"NMI {nmi(pred, truth):.6f}")
    print(f"Purity {purity(pred, truth):.6f}")
    return EXIT_OK


# optional bench spec key -> (RunConfig field, type); absent keys keep RunConfig's defaults
_SPEC_FIELDS = {
    "epsilon": ("epsilon", float),
    "tol": ("rel_obj_tol", float),
    "max_iters": ("max_iters", int),
}


def _expand_bench_spec(spec: dict) -> tuple[list[RunConfig], str, str]:
    for key in ("input", "out", "runs"):
        if key not in spec:
            raise InvalidInput(f"bench spec is missing {key!r}")
    input_path, out_dir, runs = spec["input"], spec["out"], spec["runs"]
    if not isinstance(runs, list):
        raise InvalidInput(f"bench spec runs must be a list of objects, got {runs!r}")
    configs = []
    for i, entry in enumerate(runs):
        try:
            if not isinstance(entry, dict):
                raise InvalidInput(f"expected an object, got {entry!r}")
            solver = entry.get("solver")
            k = int(entry.get("k", 0))  # 0 is rejected by RunConfig: k is required
            seeds = entry.get("seeds", [entry.get("seed", 0)])
            if solver == "global":
                seeds = seeds[:1]  # deterministic: one row regardless of seeds
            fields = {name: cast(entry[key]) for key, (name, cast) in _SPEC_FIELDS.items()
                      if key in entry}
            for seed in seeds:
                configs.append(RunConfig(
                    solver=solver,
                    k=k,
                    input_path=input_path,
                    output_dir=f"{out_dir}/run_{len(configs):03d}_{solver}",
                    lam=entry.get("lambda"),
                    seed=int(seed),
                    **fields,
                ))
        except (InvalidInput, TypeError, ValueError) as exc:
            raise InvalidInput(f"runs[{i}]: {exc}") from None
    return configs, input_path, out_dir


def _cmd_bench(args) -> int:
    try:
        with open(args.spec, encoding="utf-8") as fh:
            spec = json.load(fh)
    except FileNotFoundError:
        raise InvalidInput(f"bench spec not found: {args.spec}") from None
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"bench spec is not valid JSON: {exc}") from None
    configs, input_path, out_dir = _expand_bench_spec(spec)
    _, truth = load_csv(input_path)
    if truth is None:
        raise InvalidInput("bench input must carry a label column")
    rows = bench(configs, truth)
    write_bench_outputs(rows, out_dir)
    print(format_bench_table(rows))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command.startswith("solve-"):
            return _cmd_solve(args)
        if args.command.startswith("check-"):
            return _cmd_check(args)
        if args.command == "eval":
            return _cmd_eval(args)
        return _cmd_bench(args)
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (InvalidInput, SoftKMError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
