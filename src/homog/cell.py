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
solved by CG, and its adjoints are its correctors.  Otherwise the correctors
solve K by GMRES, preconditioned by the one V-cycle of K's symmetric part.
Only the correctors enter the tensor and the reconstruction, so the adjoints
of a non-symmetric field are solved when first read, as the correctors of
A^T: the duality A*(A^T) = A*(A)^T checks them.  The load of chi_i is
-a(y_i, psi), K applied to the coordinate y_i, and is read off K with no walk
of its own, so the cell problems sample the coefficient once, by assembly.
A load within ``rel_tol`` of the largest of its family is rounding noise
(chi_2's, where A varies along y_1 alone) and gets the zero corrector, which
meets the family's tolerance; every other solve meets it on the true residual
of the full system.  The tensor samples the coefficient again: it takes any
correctors of the field, the adjoints of A as the correctors of A^T too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeff import CoefficientField
from .grid import ScalarField, StructuredMesh, element_blocks
from .sparse import Periodic, assemble_stiffness, cg_solve


@dataclass(frozen=True, eq=False)
class CorrectorSet:
    """Zero-mean periodic correctors on the cell mesh, solved to ``rel_tol``,
    and the (min, max) eigenvalues of the symmetric part of the coefficient
    over the cell assembly's quadrature samples.

    The adjoint family is the third argument when one is given (``chi``
    itself for a symmetric stiffness); None leaves it to ``chi_adjoint``."""

    cell_mesh: StructuredMesh
    chi: tuple[ScalarField, ...]
    _chi_adjoint: tuple[ScalarField, ...] | None
    coefficient: CoefficientField
    ellipticity: tuple[float, float] | None = None
    rel_tol: float = 1e-10

    @property
    def chi_adjoint(self) -> tuple[ScalarField, ...]:
        """The adjoint correctors, those of A^T: solved on the first read
        when the set was built without them, and kept for the next."""
        if self._chi_adjoint is None:
            adjoint = solve_correctors(self.coefficient.transposed(), self.cell_mesh, self.rel_tol).chi
            object.__setattr__(self, "_chi_adjoint", adjoint)
        return self._chi_adjoint


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
    """Solve the n periodic cell problems; a load within ``rel_tol`` of the
    largest gets the zero corrector.  The set's adjoints are the correctors
    for a symmetric stiffness, else solved when ``chi_adjoint`` is read."""
    _check_cell_mesh(field, cell_mesh)
    system = assemble_stiffness(cell_mesh, field.sample_batch, Periodic())
    # the load of chi_i is -K y_i, on the masters already
    loads = -system.coordinate_products(cell_mesh.h)
    noise = rel_tol * max(np.linalg.norm(b) for b in loads)
    chi = []
    for b in loads:
        if np.linalg.norm(b) <= noise:
            x = np.zeros_like(b)
        else:
            x = cg_solve(system, b, rel_tol=rel_tol)
            x = x - x.mean()  # zero mean over the periodic torus
        chi.append(ScalarField(cell_mesh, system.expand(x)))
    chi = tuple(chi)
    adjoint = chi if system.symmetric_part is None else None
    return CorrectorSet(cell_mesh, chi, adjoint, field, system.ellipticity, rel_tol)


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
