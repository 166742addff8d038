#!/usr/bin/env python3
"""Time each stage of one 256^2 ladder rung of the shipped box and L-shape
configs and print the best of k calls per stage as JSON.

The rung is epsilon = 1/16 at 16 points per period, with the configs'
coefficient, right-hand side and boundary condition.  The stages are the
cell problems with the effective tensor on a 128^2 cell mesh, the fine
stiffness assembly as ``solve_fine`` makes it, from one period of element
matrices (multigrid levels included), the stored matrix and multigrid levels
built from a given stencil, the load, the solve, the H1 guard of the solve,
the homogenized solve with the rung's tensor (its assembly included), the
reconstruction and the error report.  Each rung also reports the unknowns,
the stored diagonal entries of the fine matrix, the unknowns of the coarsest
multigrid level, the V-cycles of one solve, the corrector solves and
coefficient samplings of one cell stage, the corrector terms that the
reconstruction's walk evaluates (a zero corrector adds none), and the
levels of the homogenized system (one, the transform solve) with the nodes
of its capacitance correction (none on the box, the removed quadrant's two
inner edges on the L-shape), counted by wrapping
``sparse._vcycle``, ``cell.cg_solve``, the coefficient's ``sample_batch``
and ``solve.assemble_stiffness`` outside the timed calls, and, per stage,
the tracemalloc peak and the bytes still held when the call returns, both
above the call's start and per fine-mesh node, from one more call that is
not timed.  The hierarchy build takes its stencil, whose memory becomes the
fine matrix, so each of its calls is given a copy made before the call is
timed or traced.
BLAS and OpenMP threads are pinned to 1 before numpy is imported.

    python3 scripts/stage_times.py [--repeats K]
"""

import argparse
import json
import os
import platform
import sys
import time
import tracemalloc
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # noqa: E402

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from homog import cell, solve, sparse  # noqa: E402
from homog.grid import ScalarField, gauss_rule, h1_seminorm_sq  # noqa: E402
from homog.harness import StudyConfig, compute_tensor, load_config  # noqa: E402
from homog.metrics import error_report  # noqa: E402
from homog.solve import reconstruct, solve_homogenized  # noqa: E402
from homog.unfold import build_cell_map  # noqa: E402

CONFIGS = {"box": "convex_square.json", "l_shape": "lshape.json"}
N_EPS, POINTS_PER_PERIOD = 16, 16  # a 256^2 fine mesh
CELL_DIVISIONS = 128


def best_of(repeats, call, arguments=tuple):
    """The fastest of ``repeats`` calls, in seconds, and the last result;
    each call gets the arguments that ``arguments()`` makes before it."""
    best = np.inf
    for _ in range(repeats):
        args = arguments()
        start = time.perf_counter()
        result = call(*args)
        best = min(best, time.perf_counter() - start)
    return best, result


def traced_bytes(call, nodes, arguments=tuple):
    """The tracemalloc peak and kept bytes per node of one call, above its
    start; the call's arguments are made before tracing starts."""
    args = arguments()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return {"peak": (peak - start) / nodes, "kept": (kept - start) / nodes}


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


def returns(owner, name, call):
    """What each call of ``owner.name`` that ``call()`` makes returns."""
    function, results = getattr(owner, name), []

    def recorded(*args, **kwargs):
        results.append(function(*args, **kwargs))
        return results[-1]

    setattr(owner, name, recorded)
    try:
        call()
    finally:
        setattr(owner, name, function)
    return results


def rung_stages(name, repeats):
    config = load_config(REPO / "configs" / CONFIGS[name])
    config = StudyConfig.from_dict({**config.to_dict(), "epsilons": [N_EPS // 4, N_EPS // 2, N_EPS],
                                    "points_per_period": POINTS_PER_PERIOD,
                                    "cell_divisions": POINTS_PER_PERIOD})
    field, rhs, bc, mesh = config.field, config.source, config.constraint, config.fine_mesh(N_EPS)
    cmap = build_cell_map(mesh, N_EPS)

    def sampler(pts):
        return field.sample_batch(pts * N_EPS)

    times, memory = {}, {}

    def stage(name, call, arguments=tuple):
        times[name], result = best_of(repeats, call, arguments)
        memory[name] = traced_bytes(call, mesh.n_nodes, arguments)
        return result

    cell_config = StudyConfig.from_dict({**config.to_dict(), "cell_divisions": CELL_DIVISIONS})
    stage("cell", lambda: compute_tensor(cell_config))
    corrector_solves = len(returns(cell, "cg_solve", lambda: compute_tensor(cell_config)))
    cell_samplings = len(returns(type(field), "sample_batch", lambda: compute_tensor(cell_config)))
    system = stage("assembly", lambda: sparse.assemble_stiffness(mesh, sampler, bc, cmap.m))
    stencil, _ = sparse._nodal_stencil(mesh, sampler, bc, cmap.m)
    stage("hierarchy", lambda fine: sparse._build_hierarchy(
        fine, system.unknowns, isinstance(bc, sparse.Periodic), system.needs_projection),
        lambda: (stencil.copy(),))
    b = stage("load", lambda: system.reduce(sparse.assemble_load(mesh, rhs)[0]))
    x = stage("solve", lambda: sparse.cg_solve(system, b, rel_tol=config.cg_tol))
    vcycles = count_vcycles(system, lambda: sparse.cg_solve(system, b, rel_tol=config.cg_tol))
    # a coarse node is an unknown when the fine node it coincides with is one
    coarsest = system.unknowns[(slice(None, None, 2 ** (len(system.hierarchy) - 1)),) * mesh.dim]
    fine = ScalarField(mesh, system.expand(x))
    stage("h1_guard", lambda: h1_seminorm_sq(fine))
    tensor, correctors = compute_tensor(config)

    def homogenize():
        return solve_homogenized(tensor, rhs, bc, mesh, rel_tol=config.cg_tol)

    phi = stage("homogenized", homogenize)
    [homogenized] = returns(solve, "assemble_stiffness", homogenize)
    capacitance = homogenized.hierarchy[0].capacitance
    recon = stage("reconstruct", lambda: reconstruct(phi, correctors, cmap))
    reconstruction_terms = len(recon._corrector_terms(gauss_rule(mesh.dim)))
    stage("error_report", lambda: error_report(fine, recon, config.interior_box))
    return {"dofs": system.dimension, "nnz": int(system.matrix.nnz),
            "levels": len(system.hierarchy), "coarsest_dofs": int(coarsest.sum()), "vcycles": vcycles,
            "corrector_solves": corrector_solves, "cell_samplings": cell_samplings,
            "reconstruction_terms": reconstruction_terms,
            "homogenized_levels": len(homogenized.hierarchy),
            "homogenized_gamma": 0 if capacitance is None else len(capacitance),
            "seconds": times, "bytes_per_node": memory}


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
