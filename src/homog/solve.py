"""Fine-scale oscillating solves, homogenized solves, and the first-order
two-scale reconstruction.

The fine problem finds u in the Q1 space with the chosen boundary condition
such that ``integral of A({x/eps}) grad u . grad v = integral of f v``.  The
homogenized problem replaces the oscillating coefficient by the constant
effective tensor; with no off-diagonal entry it is solved exactly by the
box's sine or cosine transform, on a Dirichlet L-shape with a capacitance
correction on the reentrant edges, and otherwise by multigrid-preconditioned
CG.  The reconstruction augments the homogenized solution with cell-scale
detail:

    value(x)    = Phi(x) + eps * sum_i Q_i(x) * chi_i({x/eps})
    gradient(x) = grad Phi(x) + sum_i Q_i(x) * grad chi_i({x/eps})

where Q_i is the slow part of the recovered derivative dPhi/dx_i.  The
gradient surrogate deliberately omits the eps * grad(Q_i) * chi_i terms.  A
corrector that is identically zero (chi_2 of a coefficient that varies along
y_1 alone) adds no term: its Q_i is the zero field, with no scale split.
A fine problem with a non-symmetric coefficient raises AssemblyError after
assembly: its solve is not supported yet.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace
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
    quadrature,
    same_mesh,
    shape_gradients,
    squared_lengths,
)
from .sparse import AssemblyError, Dirichlet, ZeroMean, assemble_load, assemble_stiffness, cg_solve
from .unfold import CellIndexMap, build_cell_map, scale_split

RhsLike = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """An oscillating diffusion problem on an epsilon-aligned fine mesh."""

    domain_mesh: StructuredMesh
    coefficient: CoefficientField
    rhs: RhsLike
    bc: Dirichlet | ZeroMean  # full Dirichlet or full Neumann data
    n_per_unit: int  # epsilon = 1 / n_per_unit
    cell_map: CellIndexMap = dataclass_field(init=False)  # also the alignment check

    def __post_init__(self):
        object.__setattr__(self, "cell_map", build_cell_map(self.domain_mesh, self.n_per_unit))

    @property
    def epsilon(self) -> float:
        return 1.0 / self.n_per_unit


def _check_solution(system, x, b, field_norms, c_ell, rel_tol):
    """Galerkin residual and discrete energy bounds, asserted per solve;
    ``c_ell`` is the least eigenvalue of the assembled coefficient samples."""
    ax = system.matrix @ x
    bnorm = np.linalg.norm(b)
    if bnorm > 0:
        res = np.linalg.norm(b - ax) / bnorm
        allowed = max(1e-9, 10.0 * rel_tol)
        if res > allowed:
            raise RuntimeError(f"Galerkin residual {res:.3e} exceeds {allowed:.1e}")
    energy = float(x @ ax)
    load = float(b @ x)
    grad_norm2, u_norm, f_norm = field_norms
    slack = 1e-8 * max(1.0, energy, abs(load))
    if c_ell * grad_norm2 > energy + slack:
        raise RuntimeError("ellipticity energy bound violated")
    if load > u_norm * f_norm + slack:
        raise RuntimeError("Cauchy-Schwarz load bound violated")


def check_neumann_load(load: np.ndarray, f_norm: float, error: type = ValueError) -> None:
    """The solvability of a Neumann problem: the shape functions sum to one,
    so the load sums to the integral of f, which is rounding when it is
    within 1e-10 ||f|| of zero; raises ``error`` otherwise."""
    total = float(load.sum())
    if abs(total) > 1e-10 * f_norm:
        raise error(f"neumann_full requires a zero-mean rhs, got integral {total:.3e}")


def _solve(mesh, sampler, period, rhs, bc, rel_tol):
    """Solve with a sampler that repeats every ``period`` elements per axis,
    under Dirichlet or ZeroMean (full Neumann data); raises ValueError for
    any other constraint."""
    if not isinstance(bc, (Dirichlet, ZeroMean)):
        raise ValueError(f"unsupported boundary condition {bc!r}")
    system = assemble_stiffness(mesh, sampler, bc, period)
    if system.symmetric_part is not None:
        raise AssemblyError("non-symmetric fine problems are not supported")
    b, f_sq = assemble_load(mesh, rhs)  # refuses a non-finite f before any solve
    b, f_norm = system.reduce(b), np.sqrt(f_sq)  # and frees the full load
    if isinstance(bc, ZeroMean):
        check_neumann_load(b, f_norm)
    x = cg_solve(system, b, rel_tol=rel_tol)
    values = system.expand(x)

    def sample(block):  # u, u^2 and |grad u|^2, reading u once per block
        u, gu = block.values_and_gradients(values)
        # filled in place: np.stack of three fresh arrays cost 3% of a study (BENCH_27.json)
        stack = np.empty((3,) + u.shape)
        stack[0] = u
        np.square(u, out=stack[1])
        del u
        squared_lengths(gu, out=stack[2])
        return stack

    total, u_sq, grad_norm2 = quadrature(mesh, sample)
    _check_solution(system, x, b, (grad_norm2, np.sqrt(u_sq), f_norm), system.ellipticity[0], rel_tol)
    if isinstance(bc, ZeroMean):
        area = float(np.prod(mesh.h)) * len(mesh.active_elements())
        # shift the unknowns, the nodes of an active element: the rest stay at zero
        values[system.unknowns.ravel()] -= total / area
    return ScalarField(mesh, values)


def solve_fine(instance: ProblemInstance, *, rel_tol: float = 1e-10) -> ScalarField:
    """Q1 solution of the oscillating problem with A sampled through x/eps;
    the instance's cell map fixes the elements per cell, after which the
    element matrices repeat."""
    eps = instance.epsilon
    field = instance.coefficient

    def sampler(pts):
        return field.sample_batch(pts / eps)

    return _solve(instance.domain_mesh, sampler, instance.cell_map.m, instance.rhs, instance.bc,
                  rel_tol)


def solve_homogenized(
    tensor: HomogenizedTensor,
    rhs: RhsLike,
    bc: Dirichlet | ZeroMean,
    mesh: StructuredMesh,
    rel_tol: float = 1e-10,
) -> ScalarField:
    """Q1 solution of the constant-coefficient effective problem.

    The symmetric part of the tensor is assembled from the element matrix of
    one element, which every element shares.  With full Dirichlet data
    a constant skew part is invisible to the variational problem.  With full
    Neumann data it is not, because the natural boundary condition carries
    the skew flux, so a tensor whose skew part exceeds rounding is rejected
    with ValueError there.  A symmetric part with no off-diagonal entry is
    solved exactly by sine (Dirichlet) or cosine (Neumann) transforms of the
    box, on the L-shape under Dirichlet data with the capacitance correction
    of its two reentrant edges, so CG stops after one step; a Neumann
    L-shape and a tensor with an off-diagonal part keep the multigrid
    V-cycle.
    """
    skew = 0.5 * (tensor.matrix - tensor.matrix.T)
    if isinstance(bc, ZeroMean) and np.abs(skew).max() > 1e-10 * np.abs(tensor.matrix).max():
        raise ValueError("neumann_full data with a non-symmetric effective tensor is not supported")
    sym = 0.5 * (tensor.matrix + tensor.matrix.T)

    def sampler(pts):
        return np.broadcast_to(sym, (len(pts), *sym.shape))

    return _solve(mesh, sampler, (1,) * mesh.dim, rhs, bc, rel_tol)


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
    # the rule of the last block evaluated, and its ``_corrector_terms``
    _terms: tuple | None = dataclass_field(default=None, init=False, repr=False)

    @property
    def epsilon(self) -> float:
        return self.cmap.epsilon

    def evaluate(self, block: ElementBlock) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Values of the base, and values and corrected gradients of the
        reconstruction, at the quadrature points of a block of fine elements:
        (E, Q), (E, Q) and (E, Q, n).  The corrector tables of the block's
        rule are built on its first block and kept for the next; the base is
        read once."""
        if self._terms is None or self._terms[0] is not block.rule:
            object.__setattr__(self, "_terms", (block.rule, self._corrector_terms(block.rule)))
        base, grads = block.values_and_gradients(self.base.values)
        vals = base.copy()
        for q, chiv, chig in self._terms[1]:
            qv = block.values(q.values)
            vals += block.times_periodic(self.epsilon * qv, chiv, self.cmap.m)
            grads += block.times_periodic(qv[:, :, None], chig, self.cmap.m)
        return base, vals, grads

    def _corrector_terms(self, rule) -> list[tuple[ScalarField, np.ndarray, np.ndarray]]:
        """Per corrector that is not identically zero, its slow derivative
        with the corrector's values and gradients at the points of ``rule``
        in every element of the cell mesh, in flat element order.  The cell
        mesh's resolution matches the fine mesh inside each cell, so a walk
        with that rule builds these tables once and broadcasts them over each
        block; a zero corrector adds no term."""
        cells = [replace(c, rule=rule) for c in element_blocks(self.correctors.cell_mesh)]
        terms = []
        for q, chi in zip(self.q_derivatives, self.correctors.chi):
            if chi.values.any():
                tables = [c.values_and_gradients(chi.values) for c in cells]
                terms.append((q, *(np.concatenate(t) for t in zip(*tables))))
        return terms


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
    # a zero corrector takes the zero field, with no scale split
    q_parts = tuple(scale_split(d, cmap)[0] if chi.values.any()
                    else ScalarField(d.mesh, np.zeros_like(d.values))
                    for d, chi in zip(derivs, correctors.chi))
    return Reconstruction(phi0, correctors, cmap, q_parts)
