#!/usr/bin/env python3
"""Tabulate effective tensors for the bundled microstructures against their
analytic references (harmonic/arithmetic means, geometric mean, and
sqrt(1 + s^2) I for the skew checkerboard, which takes the non-symmetric
path)."""

import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from homog.cell import homogenized_tensor, solve_correctors, unit_cell_mesh  # noqa: E402
from homog.coeff import Checkerboard, GridTable, Laminate, ScalarCosine  # noqa: E402

# blocks I + 2J and I - 2J in a 2x2 checkerboard, J the rotation by 90 degrees
SKEW, FLIPPED = [[1.0, 2.0], [-2.0, 1.0]], [[1.0, -2.0], [2.0, 1.0]]

CASES = [
    ("laminate(1,4) across/along", Laminate(0, 1.0, 4.0, 0.5), 64,
     np.diag([1.6, 2.5])),
    ("checkerboard(1,4)", Checkerboard(1.0, 4.0), 128, 2.0 * np.eye(2)),
    ("cosine a0=2 a1=1 axis 0", ScalarCosine(2.0, 1.0, 0), 256,
     np.diag([np.sqrt(3.0), 2.0])),
    ("skew checkerboard s=2", GridTable(np.array([[SKEW, FLIPPED], [FLIPPED, SKEW]])), 128,
     np.sqrt(5.0) * np.eye(2)),
]


def main():
    for name, field, divisions, reference in CASES:
        correctors = solve_correctors(field, unit_cell_mesh(field.dim, divisions))
        tensor = homogenized_tensor(field, correctors)
        dev = np.abs(tensor.matrix - reference).max()
        print(f"{name:28s} divisions {divisions:4d}  max dev from reference {dev:.3e}")
        for row in tensor.matrix:
            print("    ", "  ".join(f"{v:+.8f}" for v in row))


if __name__ == "__main__":
    main()
