"""Command-line interface: tensor, solve, study, check-operators.

Exit codes: 0 all checks passed, 1 runtime error, 2 a rate or operator check
failed, 3 rate fits inconclusive.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .harness import ConfigError, StudyConfig, _dump_field, compute_tensor, load_config, run_operator_checks, run_study
from .solve import solve_fine

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FAILED = 2
EXIT_INCONCLUSIVE = 3


def _parse_epsilon(text: str) -> int:
    if "/" in text:
        num, den = text.split("/")
        if int(num) != 1:
            raise ValueError("epsilon must be of the form 1/N")
        return int(den)
    return int(text)


def _cmd_tensor(args) -> int:
    config = load_config(args.config)
    if args.cell_divisions is not None:
        config = StudyConfig.from_dict({**config.to_dict(), "cell_divisions": args.cell_divisions})
    tensor, correctors = compute_tensor(config)
    print(json.dumps({"tensor": tensor.matrix.tolist(),
                      "ellipticity": list(correctors.ellipticity)}, indent=2))
    return EXIT_OK


def _cmd_solve(args) -> int:
    config = load_config(args.config)
    n_eps = _parse_epsilon(args.epsilon)
    u = solve_fine(config.instance(n_eps), rel_tol=config.cg_tol)
    _dump_field(u, args.out, f"solution_eps_1_{n_eps}", {"epsilon": 1.0 / n_eps})
    print(f"wrote {Path(args.out) / 'fields' / f'solution_eps_1_{n_eps}.bin'} ({u.mesh.n_nodes} nodes)")
    return EXIT_OK


def _cmd_study(args) -> int:
    config = load_config(args.config)
    result = run_study(config, out_dir=args.out, progress=lambda m: print(f"  {m}", flush=True),
                       dump_fields=args.dump_fields)
    for name, entry in sorted(result.rates_json().items()):
        slope = entry["slope"]
        slope_text = "n/a" if slope is None else f"{slope:+.3f}"
        print(f"{name:12s} slope {slope_text}  [{entry['status']}]")
    print(f"study status: {result.status}")
    if result.status == "failed":
        return EXIT_FAILED
    if result.status == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_check_operators(args) -> int:
    report = run_operator_checks(divisions=args.divisions)
    print(json.dumps(report.as_dict(), indent=2))
    return EXIT_OK if report.all_passed else EXIT_FAILED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="homog",
                                     description="periodic homogenization studies")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tensor = sub.add_parser("tensor", help="print the homogenized tensor as JSON")
    p_tensor.add_argument("--config", required=True)
    p_tensor.add_argument("--cell-divisions", type=int, default=None)
    p_tensor.set_defaults(func=_cmd_tensor)

    p_solve = sub.add_parser("solve", help="solve the fine problem at one epsilon")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--epsilon", required=True, help="1/N or N")
    p_solve.add_argument("--out", default="fields")
    p_solve.set_defaults(func=_cmd_solve)

    p_study = sub.add_parser("study", help="run the epsilon sweep and rate checks")
    p_study.add_argument("--config", required=True)
    p_study.add_argument("--out", default=None)
    p_study.add_argument("--dump-fields", action="store_true",
                         help="also write per-epsilon solution fields under out/fields/ (needs --out)")
    p_study.set_defaults(func=_cmd_study)

    p_check = sub.add_parser("check-operators", help="run the operator invariant suite")
    p_check.add_argument("--divisions", type=int, default=256,
                         help="divisions per axis: a multiple of 32, so that every checked "
                              "epsilon from 1/4 to 1/32 is aligned")
    p_check.set_defaults(func=_cmd_check_operators)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError, RuntimeError) as exc:
        # RuntimeError covers SolverError and the per-solve residual and
        # energy checks
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
