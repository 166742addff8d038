"""Fine-scale oscillating solves, homogenized solves, and the first-order
two-scale reconstruction.

The fine problem finds u in the Q1 space with the chosen boundary condition
such that ``integral of A({x/eps}) grad u . grad v = integral of f v``.  The
homogenized problem replaces the oscillating coefficient by the constant
effective tensor.  The reconstruction augments the homogenized solution with
cell-scale detail:

    value(x)    = Phi(x) + eps * sum_i Q_i(x) * chi_i({x/eps})
    gradient(x) = grad Phi(x) + sum_i Q_i(x) * grad chi_i({x/eps})

where Q_i is the slow part of the recovered derivative dPhi/dx_i.  The
gradient surrogate deliberately omits the eps * grad(Q_i) * chi_i terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable

import numpy as np

from .cell import CorrectorSet, HomogenizedTensor
from .coeff import CoefficientField
from .grid import (
    ScalarField,
    StructuredMesh,
    ElementBlock,
    element_blocks,
    element_counts,
    eval_field_batch,
    h1_seminorm_sq,
    integrate,
    integrate_field,
    l2_norm_sq,
    same_mesh,
    shape_gradients,
)
from .sparse import Dirichlet, ZeroMean, assemble_load, assemble_stiffness, cg_solve
from .unfold import CellIndexMap, build_cell_map, scale_split

RhsLike = Callable[[np.ndarray], np.ndarray] | ScalarField

DIRICHLET_FULL = "dirichlet_full"
NEUMANN_FULL = "neumann_full"


@dataclass(frozen=True)
class BoundaryCondition:
    kind: str

    def __post_init__(self):
        if self.kind not in (DIRICHLET_FULL, NEUMANN_FULL):
            raise ValueError(f"unsupported boundary condition {self.kind!r}")


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """An oscillating diffusion problem on an epsilon-aligned fine mesh."""

    domain_mesh: StructuredMesh
    coefficient: CoefficientField
    rhs: RhsLike
    bc: BoundaryCondition
    n_per_unit: int  # epsilon = 1 / n_per_unit
    cell_map: CellIndexMap = dataclass_field(init=False)  # also the alignment check

    def __post_init__(self):
        object.__setattr__(self, "cell_map", build_cell_map(self.domain_mesh, self.n_per_unit))

    @property
    def epsilon(self) -> float:
        return 1.0 / self.n_per_unit


def _constraint_for(bc: BoundaryCondition):
    return Dirichlet() if bc.kind == DIRICHLET_FULL else ZeroMean()


def _rhs_values(rhs: RhsLike):
    if isinstance(rhs, ScalarField):
        return lambda pts: eval_field_batch(rhs, pts)
    return rhs


def _check_solution(system, x, b, field_norms, c_ell, rel_tol):
    """Galerkin residual and discrete energy bounds, asserted per solve;
    ``c_ell`` is the least eigenvalue of the assembled coefficient samples."""
    bnorm = np.linalg.norm(b)
    if bnorm > 0:
        res = np.linalg.norm(b - system.matrix @ x) / bnorm
        allowed = max(1e-9, 10.0 * rel_tol)
        if res > allowed:
            raise RuntimeError(f"Galerkin residual {res:.3e} exceeds {allowed:.1e}")
    energy = float(x @ (system.matrix @ x))
    load = float(b @ x)
    grad_norm2, u_norm, f_norm = field_norms
    slack = 1e-8 * max(1.0, energy, abs(load))
    if c_ell * grad_norm2 > energy + slack:
        raise RuntimeError("ellipticity energy bound violated")
    if load > u_norm * f_norm + slack:
        raise RuntimeError("Cauchy-Schwarz load bound violated")


def _solve(mesh, sampler, rhs, bc, rel_tol):
    system = assemble_stiffness(mesh, sampler, _constraint_for(bc))
    f = _rhs_values(rhs)
    if bc.kind == NEUMANN_FULL:
        total = integrate(mesh, f)
        if abs(total) > 1e-10:
            raise ValueError(f"Neumann problem needs a zero-mean rhs, got integral {total:.3e}")
    b = system.reduce(assemble_load(mesh, f))
    x = cg_solve(system, b, rel_tol=rel_tol)
    values = system.expand(x)
    field = ScalarField(mesh, values)
    grad_norm2 = h1_seminorm_sq(field)
    u_norm = np.sqrt(l2_norm_sq(field))
    f_norm = np.sqrt(integrate(mesh, lambda p: np.asarray(f(p)) ** 2))
    _check_solution(system, x, b, (grad_norm2, u_norm, f_norm), system.ellipticity[0], rel_tol)
    if bc.kind == NEUMANN_FULL:
        area = integrate(mesh, lambda p: np.ones(len(p)))
        values = values - integrate_field(field) / area
        # eliminated never-active nodes stay at zero
        field = ScalarField(mesh, values)
    return field


def solve_fine(instance: ProblemInstance, *, rel_tol: float = 1e-10) -> ScalarField:
    """Q1 solution of the oscillating problem with A sampled through x/eps;
    the instance's cell map fixes the elements per cell."""
    eps = instance.epsilon
    field = instance.coefficient

    def sampler(pts):
        return field.sample_batch(pts / eps)

    return _solve(instance.domain_mesh, sampler, instance.rhs, instance.bc, rel_tol)


def solve_homogenized(
    tensor: HomogenizedTensor,
    rhs: RhsLike,
    bc: BoundaryCondition,
    mesh: StructuredMesh,
    rel_tol: float = 1e-10,
) -> ScalarField:
    """Q1 solution of the constant-coefficient effective problem.

    The symmetric part of the tensor is assembled.  With full Dirichlet data
    a constant skew part is invisible to the variational problem.  With full
    Neumann data it is not, because the natural boundary condition carries
    the skew flux, so a tensor whose skew part exceeds rounding is rejected
    with ValueError there.
    """
    skew = 0.5 * (tensor.matrix - tensor.matrix.T)
    if bc.kind == NEUMANN_FULL and np.abs(skew).max() > 1e-10 * np.abs(tensor.matrix).max():
        raise ValueError("neumann_full data with a non-symmetric effective tensor is not supported")
    sym = 0.5 * (tensor.matrix + tensor.matrix.T)

    def sampler(pts):
        return np.broadcast_to(sym, (len(pts), *sym.shape))

    return _solve(mesh, sampler, rhs, bc, rel_tol)


def recovered_gradient_fields(phi: ScalarField) -> tuple[ScalarField, ...]:
    """Nodal derivative fields by volume-weighted averaging of the adjacent
    element-average gradients."""
    mesh = phi.mesh
    gref = shape_gradients(np.full((1, mesh.dim), 0.5))[0] / mesh.h  # (2^n, n)
    sums = np.zeros((mesh.dim,) + mesh.nodes_per_axis[::-1])
    for block in element_blocks(mesh):
        gcenter = gref.T @ block.corners(phi.values)  # (n, E) element-average gradients
        for d in range(mesh.dim):
            block.add_to_nodes(sums[d], np.broadcast_to(gcenter[d], (len(gref), block.size)))
    counts = np.maximum(element_counts(mesh), 1.0)
    return tuple(ScalarField(mesh, s.ravel() / counts) for s in sums)


@dataclass(frozen=True, eq=False)
class Reconstruction:
    """First-order two-scale approximation built from the homogenized
    solution and the correctors."""

    base: ScalarField
    correctors: CorrectorSet
    cmap: CellIndexMap
    q_derivatives: tuple[ScalarField, ...]

    @property
    def epsilon(self) -> float:
        return self.cmap.epsilon

    def eval_elements(self, block: ElementBlock) -> tuple[np.ndarray, np.ndarray]:
        """Values and corrected gradients at the quadrature points of a block
        of fine elements: (E, Q) and (E, Q, n).  The correctors are evaluated
        once on the cell mesh, whose resolution matches the fine mesh inside
        each cell, and broadcast over the block."""
        vals = block.values(self.base.values)
        grads = block.gradients(self.base.values)
        cells = list(element_blocks(self.correctors.cell_mesh))
        for q, chi in zip(self.q_derivatives, self.correctors.chi):
            qv = block.values(q.values)
            chiv = np.concatenate([c.values(chi.values) for c in cells])
            chig = np.concatenate([c.gradients(chi.values) for c in cells])
            vals += block.times_periodic(self.epsilon * qv, chiv, self.cmap.m)
            grads += block.times_periodic(qv[:, :, None], chig, self.cmap.m)
        return vals, grads


def reconstruct(phi0: ScalarField, correctors: CorrectorSet, cmap: CellIndexMap) -> Reconstruction:
    """Assemble the two-scale reconstruction of a homogenized solution."""
    if not same_mesh(phi0.mesh, cmap.mesh):
        raise ValueError("homogenized solution must live on the cell map's fine mesh")
    cell_mesh = correctors.cell_mesh
    if tuple(cell_mesh.divisions) != tuple(cmap.m):
        raise ValueError(
            f"cell mesh divisions {cell_mesh.divisions} must equal the fine "
            f"elements per cell {cmap.m}"
        )
    derivs = recovered_gradient_fields(phi0)
    q_parts = tuple(scale_split(d, cmap)[0] for d in derivs)
    return Reconstruction(phi0, correctors, cmap, q_parts)
