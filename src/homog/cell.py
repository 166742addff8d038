"""Corrector cell problems on the periodic unit cell and the homogenized
tensor.

For each direction i the corrector solves, in the discrete periodic space
with zero mean,

    integral over Y of  A grad(chi_i + y_i) . grad(psi)  =  0   for all psi.

Adjoint correctors solve the same problem with the coefficient transposed.
The homogenized tensor is the cell quadrature of

    A_ij = integral over Y of  grad(y_i + chi_i) . A grad(y_j + chi_j).

The stiffness K comes from one assembly call, which measures whether the
coefficient's samples are symmetric; no field declares it.  A symmetric K is
solved by CG.  Otherwise the correctors solve K and the adjoints K^T by
GMRES, both preconditioned by the one V-cycle of K's symmetric part.  The
load of chi_i is -a(y_i, psi), K applied to the coordinate y_i, and is read
off K (K^T for the adjoints) with no walk of its own, so the cell problems
sample the coefficient once, by assembly.  A load within ``rel_tol`` of the
largest of its family is rounding noise (chi_2's, where A varies along y_1
alone) and gets the zero corrector, which meets the family's tolerance;
every other solve meets it on the true residual of the full system.  The
tensor samples the coefficient again: it takes any correctors of the field,
the adjoints of A as the correctors of A^T too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeff import CoefficientField
from .grid import ScalarField, StructuredMesh, element_blocks
from .sparse import Periodic, SparseSystem, assemble_stiffness, cg_solve


@dataclass(frozen=True, eq=False)
class CorrectorSet:
    """Zero-mean periodic correctors (and adjoints) on the cell mesh, and
    the (min, max) eigenvalues of the symmetric part of the coefficient over
    the cell assembly's quadrature samples."""

    cell_mesh: StructuredMesh
    chi: tuple[ScalarField, ...]
    chi_adjoint: tuple[ScalarField, ...]
    coefficient: CoefficientField
    ellipticity: tuple[float, float] | None = None


@dataclass(frozen=True, eq=False)
class HomogenizedTensor:
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.atleast_2d(np.asarray(self.matrix, dtype=float)))


def unit_cell_mesh(dim: int, divisions: int) -> StructuredMesh:
    """The reference cell (0,1)^dim with uniform divisions."""
    return StructuredMesh((0.0,) * dim, (1.0,) * dim, (divisions,) * dim)


def _check_cell_mesh(field: CoefficientField, cell_mesh: StructuredMesh) -> None:
    if cell_mesh.dim != field.dim:
        raise ValueError("cell mesh and coefficient dimensions differ")
    if cell_mesh.shape != "box":
        raise ValueError("cell problems require a full box mesh on the unit cell")
    if not np.allclose(cell_mesh.origin, 0.0) or not np.allclose(cell_mesh.extent, 1.0):
        raise ValueError("cell mesh must cover the unit cell (0,1)^n")


def solve_correctors(
    field: CoefficientField,
    cell_mesh: StructuredMesh,
    rel_tol: float = 1e-10,
) -> CorrectorSet:
    """Solve the n periodic cell problems and their adjoints; a load within
    ``rel_tol`` of the largest of its family gets the zero corrector."""
    _check_cell_mesh(field, cell_mesh)
    system = assemble_stiffness(cell_mesh, field.sample_batch, Periodic())
    symmetric = system.symmetric_part is None

    def solve_family(stiffness: SparseSystem) -> tuple[ScalarField, ...]:
        # the load of chi_i is -K y_i, on the masters already
        loads = -stiffness.coordinate_products(cell_mesh.h)
        noise = rel_tol * max(np.linalg.norm(b) for b in loads)
        out = []
        for b in loads:
            if np.linalg.norm(b) <= noise:
                x = np.zeros_like(b)
            else:
                x = cg_solve(stiffness, b, rel_tol=rel_tol)
                x = x - x.mean()  # zero mean over the periodic torus
            out.append(ScalarField(cell_mesh, stiffness.expand(x)))
        return tuple(out)

    chi = solve_family(system)
    # the adjoints solve K^T, preconditioned by the hierarchy of K's symmetric part
    chi_adj = chi if symmetric else solve_family(system.transposed())
    return CorrectorSet(cell_mesh, chi, chi_adj, field, system.ellipticity)


def homogenized_tensor(field: CoefficientField, correctors: CorrectorSet) -> HomogenizedTensor:
    """Quadrature evaluation of the effective tensor from the correctors."""
    if correctors.coefficient is not field and correctors.coefficient != field:
        raise ValueError("correctors were computed for a different coefficient field")
    mesh = correctors.cell_mesh
    if mesh.dim != field.dim:
        raise ValueError("mesh dimension mismatch between correctors and coefficient")
    n = field.dim
    mat = np.zeros((n, n))
    for block in element_blocks(mesh):
        a = block.sample(field.sample_batch)  # (E, Q, n, n)
        # grads[i] = e_i + grad chi_i and flux[i] = A grads[i], both (n, E, Q, n)
        grads = np.stack([block.gradients(chi.values) for chi in correctors.chi])
        for i in range(n):
            grads[i, :, :, i] += 1.0
        flux = np.zeros_like(grads)
        for k, l in np.ndindex(n, n):
            flux[..., k] += a[:, :, k, l] * grads[..., l]
        flux *= block.rule.weights[:, None]
        mat += grads.reshape(n, -1) @ flux.reshape(n, -1).T
    mat *= float(np.prod(mesh.h))
    return HomogenizedTensor(mat)
