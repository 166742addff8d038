"""Corrector cell problems on the periodic unit cell and the homogenized
tensor.

For each direction i the corrector solves, in the discrete periodic space
with zero mean,

    integral over Y of  A grad(chi_i + y_i) . grad(psi)  =  0   for all psi.

Adjoint correctors solve the same problem with the coefficient transposed.
The homogenized tensor is the cell quadrature of

    A_ij = integral over Y of  grad(y_i + chi_i) . A grad(y_j + chi_j).

The stiffness is assembled as its symmetric part S, from a symmetric field's
raw samples, which assembly checks, plus, for a non-symmetric coefficient,
its skew part N.  A symmetric coefficient is solved by CG on S.  Otherwise the
correctors solve K = S + N and the adjoints K^T = S - N, each with GMRES
preconditioned by the V-cycle of S; both families share that one multigrid
hierarchy.  Every solve meets the requested tolerance on the true residual of
the full system.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .coeff import CoefficientField
from .grid import ScalarField, StructuredMesh, element_blocks
from .sparse import (
    Periodic,
    SparseSystem,
    _assemble_matrix,
    assemble_gradient_load,
    assemble_stiffness,
    cg_solve,
)


@dataclass(frozen=True, eq=False)
class CorrectorSet:
    """Zero-mean periodic correctors (and adjoints) on the cell mesh."""

    cell_mesh: StructuredMesh
    chi: tuple[ScalarField, ...]
    chi_adjoint: tuple[ScalarField, ...]
    coefficient: CoefficientField


@dataclass(frozen=True, eq=False)
class HomogenizedTensor:
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.atleast_2d(np.asarray(self.matrix, dtype=float)))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def unit_cell_mesh(dim: int, divisions: int = 64) -> StructuredMesh:
    """The reference cell (0,1)^dim with uniform divisions."""
    return StructuredMesh((0.0,) * dim, (1.0,) * dim, (divisions,) * dim)


def _check_cell_mesh(field: CoefficientField, cell_mesh: StructuredMesh) -> None:
    if cell_mesh.dim != field.dim:
        raise ValueError("cell mesh and coefficient dimensions differ")
    if cell_mesh.active_mask is not None:
        raise ValueError("cell problems require a full box mesh on the unit cell")
    if not np.allclose(cell_mesh.origin, 0.0) or not np.allclose(cell_mesh.extent, 1.0):
        raise ValueError("cell mesh must cover the unit cell (0,1)^n")


def solve_correctors(
    field: CoefficientField,
    cell_mesh: StructuredMesh,
    rel_tol: float = 1e-10,
) -> CorrectorSet:
    """Solve the n periodic cell problems and their adjoints."""
    _check_cell_mesh(field, cell_mesh)
    n = field.dim

    def sym_sampler(pts):
        a = field.sample_batch(pts)
        return 0.5 * (a + np.swapaxes(a, 1, 2))

    # a symmetric field's samples go raw, so assembly rejects any that are not
    system = assemble_stiffness(cell_mesh, field.sample_batch if field.symmetric else sym_sampler,
                                Periodic())

    def solve_family(coeff: CoefficientField, stiffness: SparseSystem) -> tuple[ScalarField, ...]:
        out = []
        for i in range(n):

            def rhs_sampler(pts, i=i):
                return -coeff.sample_batch(pts)[:, :, i]

            b = stiffness.reduce(assemble_gradient_load(cell_mesh, rhs_sampler))
            x = cg_solve(stiffness, b, rel_tol=rel_tol)
            x = x - x.mean()  # zero mean over the periodic torus
            out.append(ScalarField(cell_mesh, stiffness.expand(x)))
        return tuple(out)

    if field.symmetric:
        chi = solve_family(field, system)
        return CorrectorSet(cell_mesh, chi, chi, field)

    def skew_sampler(pts):
        a = field.sample_batch(pts)
        return 0.5 * (a - np.swapaxes(a, 1, 2))

    s = system.matrix
    skew = _assemble_matrix(cell_mesh, skew_sampler, system.constraint, system.node_to_dof)
    # S^T = S and N^T = -N, so S - N is the adjoint matrix; replace() keeps the
    # multigrid levels that assembly built from S, for both families
    chi = solve_family(field, replace(system, matrix=s + skew, symmetric_part=s))
    chi_adj = solve_family(field.transposed(), replace(system, matrix=s - skew, symmetric_part=s))
    return CorrectorSet(cell_mesh, chi, chi_adj, field)


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
        rule = block.rule
        pts = block.points().reshape(-1, n)
        a = field.sample_batch(pts).reshape(block.size, len(rule.weights), n, n)
        grads = np.stack([block.gradients(chi.values) for chi in correctors.chi])
        for i in range(n):
            grads[i, :, :, i] += 1.0
        mat += np.einsum("ieqk,eqkl,jeql,q->ij", grads, a, grads, rule.weights, optimize=True)
    mat *= float(np.prod(mesh.h))
    return HomogenizedTensor(mat)
