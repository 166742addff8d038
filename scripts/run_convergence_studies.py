#!/usr/bin/env python3
"""Run the shipped epsilon-sweep studies and write results under results/.

Each study runs as ``homog study``: it solves the cell problems once, sweeps
the epsilon ladder, writes errors.csv (plot-ready) plus rates.json with the
fitted slopes, and prints its rate table and status.  The script exits
with 1 when a study stopped on an error, and with 0 otherwise, whatever the
studies' statuses.
"""

import argparse
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from homog import cli  # noqa: E402

STUDIES = ["constant_2d", "cosine_1d", "convex_square", "lshape"]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(REPO / "results"))
    parser.add_argument("--only", choices=STUDIES, default=None)
    args = parser.parse_args()

    names = [args.only] if args.only else STUDIES
    errors = 0
    for name in names:
        out_dir = Path(args.out) / name
        t0 = time.perf_counter()
        print(f"== {name}", flush=True)
        code = cli.main(["study", "--config", str(REPO / "configs" / f"{name}.json"),
                         "--out", str(out_dir)])
        print(f"   ({time.perf_counter() - t0:.1f}s) -> {out_dir}")
        errors += code == cli.EXIT_ERROR
    return cli.EXIT_ERROR if errors else cli.EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
