"""Command-line interface.

Subcommands: solve-global, solve-am, solve-mvskm, check-skmable,
check-tilsdable, eval, bench. Exit codes: 0 on success, 2 on invalid
input, 3 on numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .audits import KernelMatrix
from .core import RANK_TAU, check_k, double_center, numerical_rank
from .errors import InvalidInput, NumericalFailure, SoftKMError
from .io import (
    RunConfig,
    _load_table,
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
    # flags left out are absent from the namespace, so RunConfig's defaults
    # apply; the others keep their bench spec key names, mapped by _SPEC_KEYS
    p = sub.add_parser(name, help=blurb, argument_default=argparse.SUPPRESS)
    p.add_argument("--input", required=True, help="samples-as-rows CSV")
    p.add_argument("--k", type=int, required=True, help="number of prototypes")
    p.add_argument("--lambda", type=float, help="volume penalty weight (solve-mvskm only; required there)")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--tol", type=float, help="relative objective tolerance for iterative solvers")
    p.add_argument("--max-iters", type=int)
    p.add_argument("--out", required=True, help="output directory")
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
        p.add_argument("--tau", type=float, default=RANK_TAU)
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
    paths = {"input_path": fields.pop("input"), "output_dir": fields.pop("out")}
    fields["solver"] = fields.pop("command").removeprefix("solve-")
    cfg = RunConfig(**paths, **{_SPEC_KEYS[key]: value for key, value in fields.items()})
    res = run(cfg)
    print(f"solver={res.solver} k={res.k} objective={res.objective:.12g} "
          f"iterations={res.iterations} out={cfg.output_dir}")
    return EXIT_OK


def _cmd_check(args) -> int:
    # a kernel is read as it is; only the data paths center the input
    kernel = args.command == "check-tilsdable" and args.kernel
    A = _load_table(args.input)[0] if kernel else load_csv(args.input)[0].centered
    check_k(args.k, 1)
    tau = args.tau
    if kernel:
        A = double_center(KernelMatrix(A).K)
    elif args.command == "check-tilsdable":
        # the linear kernel's double-centered form H X^T X H has the singular
        # values sigma(Xc)^2, so its relative threshold tau is sqrt(tau) on Xc;
        # a tau <= 0 maps to 0, which numerical_rank rejects
        tau = math.sqrt(max(tau, 0.0))
    # the audit's own test (is_skmable, is_ti_lsdable), from the one rank computed here
    rank = numerical_rank(A, tau)
    print("true" if rank <= args.k - 1 else "false")
    print(f"numerical_rank={rank}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    pred = load_labels(args.pred)
    truth = load_labels(args.truth)
    print(f"ACC {accuracy(pred, truth):.6f}")
    print(f"NMI {nmi(pred, truth):.6f}")
    print(f"Purity {purity(pred, truth):.6f}")
    return EXIT_OK


# bench spec key and solve-* flag -> RunConfig field; absent keys keep
# RunConfig's defaults, and RunConfig checks every value
_SPEC_KEYS = {"solver": "solver", "k": "k", "lambda": "lam", "seed": "seed",
              "epsilon": "epsilon", "tol": "rel_obj_tol", "max_iters": "max_outer_iters"}


def _expand_bench_spec(spec: dict) -> tuple[list[RunConfig], str]:
    if not isinstance(spec, dict):
        raise InvalidInput(f"bench spec must be a JSON object, got {spec!r}")
    for key in ("input", "out", "runs"):
        if key not in spec:
            raise InvalidInput(f"bench spec is missing {key!r}")
    for key in ("input", "out"):
        if not isinstance(spec[key], str) or not spec[key]:
            raise InvalidInput(f"bench spec {key} must be a nonempty string, got {spec[key]!r}")
    input_path, out_dir, runs = spec["input"], spec["out"], spec["runs"]
    if not isinstance(runs, list):
        raise InvalidInput(f"bench spec runs must be a list of objects, got {runs!r}")
    configs = []
    for i, entry in enumerate(runs):
        try:
            if not isinstance(entry, dict):
                raise InvalidInput(f"expected an object, got {entry!r}")
            unknown = sorted(set(entry) - set(_SPEC_KEYS) - {"seeds"})
            if unknown:
                raise InvalidInput(f"unknown keys {unknown}")
            fields = {_SPEC_KEYS[key]: value for key, value in entry.items() if key != "seeds"}
            per_seed = [{}]  # one config, with the entry's seed or the default
            if "seeds" in entry:
                seeds = entry["seeds"]
                if "seed" in entry:
                    raise InvalidInput("give seeds or seed, not both")
                if not isinstance(seeds, list) or not seeds:
                    raise InvalidInput(f"seeds must be a nonempty list, got {seeds!r}")
                per_seed = [{"seed": seed} for seed in seeds]
            if fields.get("solver") == "global":
                per_seed = per_seed[:1]  # deterministic: one row regardless of seeds
            for extra in per_seed:
                configs.append(RunConfig(
                    input_path=input_path,
                    output_dir=f"{out_dir}/run_{len(configs):03d}_{fields.get('solver')}",
                    **fields,
                    **extra,
                ))
        except (InvalidInput, TypeError) as exc:
            raise InvalidInput(f"runs[{i}]: {exc}") from None
    return configs, out_dir


def _cmd_bench(args) -> int:
    try:
        with open(args.spec, encoding="utf-8") as fh:
            spec = json.load(fh)
    except FileNotFoundError:
        raise InvalidInput(f"bench spec not found: {args.spec}") from None
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"bench spec is not valid JSON: {exc}") from None
    configs, out_dir = _expand_bench_spec(spec)
    rows = bench(configs)
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
    except SoftKMError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
