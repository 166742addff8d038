#!/usr/bin/env python3
"""Time each stage of one 256^2 ladder rung of the shipped box and L-shape
configs and print the best of k calls per stage as JSON.

The rung is epsilon = 1/16 at 16 points per period, with the configs'
coefficient, right-hand side and boundary condition.  The stages are the
fine stiffness assembly (multigrid levels included), the multigrid levels
alone, the load, the solve, the H1 guard of the solve, the reconstruction
and the error report.  Each rung also reports the dofs of the coarsest
multigrid level and the V-cycles of one solve, counted by wrapping
``sparse._vcycle`` outside the timed calls.  BLAS and OpenMP threads are
pinned to 1 before numpy is imported.

    python3 scripts/stage_times.py [--repeats K]
"""

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # noqa: E402

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from homog import sparse  # noqa: E402
from homog.coeff import from_config as coeff_from_config  # noqa: E402
from homog.grid import ScalarField, h1_seminorm_sq  # noqa: E402
from homog.harness import StudyConfig, _rhs_for, compute_tensor, load_config  # noqa: E402
from homog.metrics import error_report  # noqa: E402
from homog.solve import BoundaryCondition, _constraint_for, reconstruct, solve_homogenized  # noqa: E402
from homog.unfold import build_cell_map  # noqa: E402

CONFIGS = {"box": "convex_square.json", "l_shape": "lshape.json"}
N_EPS, POINTS_PER_PERIOD = 16, 16  # a 256^2 fine mesh


def best_of(repeats, call):
    """The fastest of ``repeats`` calls, in seconds, and the last result."""
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - start)
    return best, result


def count_vcycles(system, call):
    """The V-cycles over the whole hierarchy of ``system`` made by ``call()``,
    not counting the cycle's own recursion onto the coarser levels."""
    vcycle, count = sparse._vcycle, 0

    def counted(matrix, levels, *args):
        nonlocal count
        count += levels is system.hierarchy
        return vcycle(matrix, levels, *args)

    sparse._vcycle = counted
    try:
        call()
    finally:
        sparse._vcycle = vcycle
    return count


def rung_stages(name, repeats):
    config = load_config(REPO / "configs" / CONFIGS[name])
    config = StudyConfig.from_dict({**config.to_dict(), "epsilons": [N_EPS // 4, N_EPS // 2, N_EPS],
                                    "points_per_period": POINTS_PER_PERIOD,
                                    "cell_divisions": POINTS_PER_PERIOD})
    field = coeff_from_config(config.coefficient)
    rhs = _rhs_for(config.rhs, config.dim)
    bc = BoundaryCondition(config.bc)
    mesh = config.fine_mesh(N_EPS)
    cmap = build_cell_map(mesh, N_EPS)
    constraint = _constraint_for(bc)

    def sampler(pts):
        return field.sample_batch(pts * N_EPS)

    times = {}
    times["assembly"], system = best_of(
        repeats, lambda: sparse.assemble_stiffness(mesh, sampler, constraint))
    periodic = isinstance(constraint, sparse.Periodic)
    stencil, dofs, shared, _ = sparse._nodal_stencil(mesh, sampler, constraint, system.node_to_dof)
    matrix = sparse._read_csr(stencil, dofs, periodic, shared)
    times["hierarchy"], _ = best_of(repeats, lambda: sparse._build_hierarchy(
        matrix, stencil, dofs, periodic, system.needs_projection))
    times["load"], b = best_of(repeats, lambda: system.reduce(sparse.assemble_load(mesh, rhs)))
    times["solve"], x = best_of(repeats, lambda: sparse.cg_solve(system, b, rel_tol=config.cg_tol))
    vcycles = count_vcycles(system, lambda: sparse.cg_solve(system, b, rel_tol=config.cg_tol))
    coarsest = system.hierarchy[-2].coarse.shape[0] if len(system.hierarchy) > 1 else system.dimension
    fine = ScalarField(mesh, system.expand(x))
    times["h1_guard"], _ = best_of(repeats, lambda: h1_seminorm_sq(fine))
    tensor, correctors = compute_tensor(config)
    phi = solve_homogenized(tensor, rhs, bc, mesh, rel_tol=config.cg_tol)
    times["reconstruct"], recon = best_of(repeats, lambda: reconstruct(phi, correctors, cmap))
    times["error_report"], _ = best_of(
        repeats, lambda: error_report(fine, recon, cmap, config.interior_box))
    return {"dofs": system.dimension, "nnz": int(system.matrix.nnz),
            "levels": len(system.hierarchy), "coarsest_dofs": coarsest, "vcycles": vcycles,
            "seconds": times}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5, help="calls per stage (best is kept)")
    args = parser.parse_args()
    report = {
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "machine": platform.machine(), "cpus": os.cpu_count(), "blas_threads": 1,
                "repeats": args.repeats},
        "rungs": {name: rung_stages(name, args.repeats) for name in CONFIGS},
    }
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
