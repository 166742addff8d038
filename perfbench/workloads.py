"""Seeded workloads, stored references and the correctness gate of the homog
benchmark.

A workload is a fixed round of operations, each one pipeline call in a fresh
process.  An *operation* in the sense of the counts is one effective tensor
or one ladder rung, so a study call attempts ``1 + len(epsilons)`` of them
and a ``compute_tensor`` call one.  A call that raises fails all of its
operations.

Some operations probe defects documented in ROADMAP.md (the skew defect loop
and non-symmetric fine solves).  Each names the exception it raises today.
When it raises exactly that, its operations count as *known failures*: they
lower ``solved_frac`` but leave the run correct.  Any other exception, and
any output that fails its check, is an unexpected failure and makes the run
incorrect.  A probe that starts to succeed has its output checked like any
other.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"

FUNCTIONALS = ("e_l2", "e_h1_corr", "e_weighted", "e_interior", "e_layer")
STUDY_CONFIGS = {"convex_study": "convex_square.json", "lshape_study": "lshape.json"}
WORKLOADS = (*STUDY_CONFIGS, "cell_tensor")

SCALE_RANGE = (0.5, 2.0)  # the cosine coefficient is multiplied by a draw from here
FUNCTIONAL_RTOL = 1e-6  # functionals and table tensors against the stored references
DUALITY_TOL = 1e-9  # relative gap in A*(A^T) = A*(A)^T
SKEW_RANGE = (1.0, 2.0)  # [[1, s], [-s, 1]] blocks: the defect loop diverges


@dataclass(frozen=True)
class Size:
    name: str
    epsilons: tuple  # ladder denominators of the study workloads
    points_per_period: int
    cell_divisions: int  # cell mesh of the cosine studies
    table_divisions: int  # cell mesh of the grid-table tensors
    tables: int  # well-posed non-symmetric base tables per cell_tensor round


FULL = Size("full", (4, 8, 16), 16, 128, 64, 3)
TINY = Size("tiny", (2, 4, 8), 8, 16, 16, 1)

# the non-symmetric study probe has the same size at FULL and TINY
PROBE_STUDY = {"epsilons": [2, 4, 8], "points_per_period": 16, "cell_divisions": 16}


def shipped_config(name: str) -> dict:
    with open(ROOT / "configs" / name) as fh:
        return json.load(fh)


def _grid_table(rng: random.Random) -> list:
    """4x4 cells, diagonal in [1, 4], off-diagonal entries drawn
    independently in [-0.3, 0.3] (so non-symmetric, skew below the
    symmetric part)."""
    cells = []
    for _ in range(4):
        row = []
        for _ in range(4):
            a11, a22 = rng.uniform(1.0, 4.0), rng.uniform(1.0, 4.0)
            a12, a21 = rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)
            row.append([[a11, a12], [a21, a22]])
        cells.append(row)
    return cells


def _skew_table(s: float) -> list:
    block = [[1.0, s], [-s, 1.0]]
    flipped = [[1.0, -s], [s, 1.0]]
    return [[block, flipped], [flipped, block]]


ROTATE = ((0.0, -1.0), (1.0, 0.0))  # y -> (-y2, y1)
SWAP = ((0.0, 1.0), (1.0, 0.0))  # y -> (y2, y1)


def _matmul(a, b) -> list:
    return [[sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)] for i in range(2)]


def _transpose(a) -> list:
    return [list(row) for row in zip(*a)]


def _conjugate(q, a) -> list:
    return _matmul(_matmul(q, a), _transpose(q))


def draw_symmetry(rng: random.Random) -> dict:
    return {"shift": [rng.randrange(4), rng.randrange(4)], "quarter_turns": rng.randrange(4),
            "swap": rng.random() < 0.5, "transpose": rng.random() < 0.5}


IDENTITY = {"shift": [0, 0], "quarter_turns": 0, "swap": False, "transpose": False}


def apply_symmetry(table: list, sym: dict) -> list:
    """Move a k x k table through a periodic shift, a transpose of every
    cell, quarter turns and an axis swap.  On a cell mesh aligned with the
    table these map the discrete cell problem onto itself, so the solver does
    the same work and the tensor follows ``transform_tensor``."""
    k = len(table)
    a, b = sym["shift"]
    out = [[table[(i - a) % k][(j - b) % k] for j in range(k)] for i in range(k)]
    if sym["transpose"]:
        out = [[_transpose(c) for c in row] for row in out]
    for _ in range(sym["quarter_turns"]):
        turned = [[None] * k for _ in range(k)]
        for i in range(k):
            for j in range(k):
                turned[k - 1 - j][i] = _conjugate(ROTATE, out[i][j])
        out = turned
    if sym["swap"]:
        out = [[_conjugate(SWAP, out[j][i]) for j in range(k)] for i in range(k)]
    return out


def transform_tensor(tensor: list, sym: dict) -> list:
    """The effective tensor of ``apply_symmetry(table, sym)`` from that of
    ``table``: shifts leave it alone, the rest conjugate or transpose it."""
    if sym["transpose"]:
        tensor = _transpose(tensor)
    for _ in range(sym["quarter_turns"]):
        tensor = _conjugate(ROTATE, tensor)
    if sym["swap"]:
        tensor = _conjugate(SWAP, tensor)
    return tensor


def base_tables(count: int) -> list:
    rng = random.Random("cell_tensor/base")
    return [_grid_table(rng) for _ in range(count)]


def round_ops(workload: str, seed: int, size: Size = FULL) -> list:
    """The operations of one round, generated from the seed alone.

    The study workloads run the shipped config with the ladder cut to
    ``size`` and the cosine's ``a0`` and ``a1`` multiplied by one factor drawn
    from ``SCALE_RANGE`` (1 at seed 0, which gives the shipped values).  The
    contrast, and so the solver work, stays that of the shipped config, and
    every functional scales exactly as 1/factor, which lets one stored
    reference check every seed.

    ``cell_tensor`` moves each of its base tables through a symmetry drawn
    from the seed (the identity at seed 0), for the same reasons: the work is
    the same for every seed and the stored base tensors check every output.
    Random tables would vary the defect-loop work from seed to seed by about
    6%, on top of the host's own noise.  The skew ratio of the known-defect
    table and the probe study's table are drawn afresh.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}")
    if workload in STUDY_CONFIGS:
        config = shipped_config(STUDY_CONFIGS[workload])
        lo, hi = SCALE_RANGE
        scale = 1.0 if seed == 0 else math.exp(rng.uniform(math.log(lo), math.log(hi)))
        config["coefficient"]["a0"] *= scale
        config["coefficient"]["a1"] *= scale
        config["epsilons"] = list(size.epsilons)
        config["points_per_period"] = size.points_per_period
        config["cell_divisions"] = size.cell_divisions
        return [{"name": workload, "kind": "study", "config": config,
                 "check": "cosine", "scale": scale, "reference": f"{workload}/{size.name}"}]

    base = shipped_config(STUDY_CONFIGS["convex_study"])
    base.update(epsilons=list(size.epsilons), points_per_period=size.points_per_period,
                cell_divisions=size.table_divisions)
    ops = []
    for i, table in enumerate(base_tables(size.tables)):
        sym = IDENTITY if seed == 0 else draw_symmetry(rng)
        coefficient = {"kind": "grid_table", "values": apply_symmetry(table, sym)}
        ops.append({"name": f"table{i}", "kind": "tensor", "config": dict(base, coefficient=coefficient),
                    "check": "table", "reference": f"cell_tensor/{size.name}", "index": i,
                    "symmetry": sym})
    skew = rng.uniform(*SKEW_RANGE)
    ops.append({"name": "skew", "kind": "tensor", "check": "duality", "known_defect": "SolverError",
                "config": dict(base, coefficient={"kind": "grid_table", "values": _skew_table(skew)})})
    probe = dict(base, coefficient={"kind": "grid_table", "values": _grid_table(rng)}, **PROBE_STUDY)
    ops.append({"name": "nonsym_study", "kind": "study", "check": "finite", "config": probe,
                "known_defect": "AssemblyError"})
    return ops


def attempted(op: dict) -> int:
    return 1 + len(op["config"]["epsilons"]) if op["kind"] == "study" else 1


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def _rel_gap(got, want) -> float:
    flat_got = [x for row in got for x in row]
    flat_want = [x for row in want for x in row]
    return max(abs(a - b) for a, b in zip(flat_got, flat_want)) / max(abs(b) for b in flat_want)


def _check_cosine(op, result, references) -> list:
    """Closed-form tensor, per-rung functionals and rate statuses."""
    problems = []
    coeff = op["config"]["coefficient"]
    a0, a1 = coeff["a0"], coeff["a1"]
    axis = coeff.get("axis", 0)
    exact = [[a0, 0.0], [0.0, a0]]
    exact[axis][axis] = math.sqrt(a0 * a0 - a1 * a1)  # harmonic mean across the layers
    gap = _rel_gap(result["tensor"], exact)
    bound = op["config"]["cell_divisions"] ** -2.0  # second-order Q1 error on the cell mesh
    if not gap <= bound:
        problems.append(f"tensor off the closed form by {gap:.3e} (bound {bound:.1e})")
    ref = references[op["reference"]]
    if len(result["reports"]) != len(ref["reports"]):
        return problems + ["number of ladder rungs differs from the reference"]
    for got, want in zip(result["reports"], ref["reports"]):
        for name in FUNCTIONALS:
            expected = want[name] / op["scale"]
            if not math.isclose(got[name], expected, rel_tol=FUNCTIONAL_RTOL, abs_tol=1e-14):
                problems.append(
                    f"{name} at eps={got['epsilon']}: {got[name]!r}, reference {expected!r}"
                )
    if result["statuses"] != ref["statuses"]:
        problems.append(f"rate statuses {result['statuses']} differ from {ref['statuses']}")
    return problems


def _check_duality(op, result, references) -> list:
    problems = []
    t = result["tensor"]
    if not all(math.isfinite(x) for row in t for x in row):
        return ["tensor is not finite"]
    mid = 0.5 * (t[0][0] + t[1][1])
    rad = math.hypot(0.5 * (t[0][0] - t[1][1]), 0.5 * (t[0][1] + t[1][0]))
    if not mid - rad > 0:
        problems.append("symmetric part of the tensor is not positive definite")
    if not result["duality"] <= DUALITY_TOL:
        problems.append(f"duality gap {result['duality']:.3e} above {DUALITY_TOL:.0e}")
    return problems


def _check_table(op, result, references) -> list:
    """Duality, and the stored base tensor carried through the symmetry."""
    problems = _check_duality(op, result, references)
    base = references[op["reference"]]["tensors"][op["index"]]
    expected = transform_tensor(base, op["symmetry"])
    gap = _rel_gap(result["tensor"], expected)
    if not gap <= FUNCTIONAL_RTOL:
        problems.append(f"tensor {result['tensor']} off the reference {expected} by {gap:.3e}")
    return problems


def _check_finite(op, result, references) -> list:
    values = [r[name] for r in result["reports"] for name in FUNCTIONALS]
    if all(math.isfinite(v) and v >= 0 for v in values):
        return []
    return ["study functionals are not finite and non-negative"]


CHECKS = {"cosine": _check_cosine, "table": _check_table, "duality": _check_duality,
          "finite": _check_finite}


def judge(op: dict, outcome: dict, references: dict) -> tuple[str, list]:
    """Classify one call: ``solved``, ``known`` (the documented defect) or
    ``failed``, with the reasons for a failure."""
    error = outcome.get("error")
    if error is not None:
        if error["type"] == op.get("known_defect"):
            return "known", []
        return "failed", [f"{error['type']}: {error['message']}"]
    if "result" not in outcome:
        return "failed", ["no result"]
    problems = CHECKS[op["check"]](op, outcome["result"], references)
    return ("failed" if problems else "solved"), problems


# the wrapped functions each workload must reach in a traced run
STUDY_REACHES = (
    "sparse.cg_solve", "sparse.assemble_stiffness", "sparse.assemble_load",
    "cell.solve_correctors", "cell.homogenized_tensor", "solve.solve_fine",
    "solve.solve_homogenized", "solve.reconstruct", "unfold.scale_split",
    "unfold.build_cell_map", "metrics.error_report", "metrics.fit_rate",
    "coeff.validate_ellipticity", "harness.run_study", "harness.compute_tensor",
)
REACHES = {
    "convex_study": STUDY_REACHES,
    "lshape_study": STUDY_REACHES,
    "cell_tensor": (
        "sparse.cg_solve", "sparse.assemble_stiffness", "cell.solve_correctors",
        "cell.homogenized_tensor", "coeff.validate_ellipticity", "harness.compute_tensor",
        "harness.run_study", "solve.solve_fine", "unfold.build_cell_map",
    ),
}
