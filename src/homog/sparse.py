"""Assembly of symmetric positive (semi-)definite Q1 stiffness systems and a
multigrid-preconditioned Krylov solver: conjugate gradients for symmetric
systems, restarted GMRES for non-symmetric ones.

The bilinear form is ``(u, v) -> integral of (A grad u) . grad v`` with the
matrix coefficient sampled at quadrature points.  Constraints are applied
structurally: Dirichlet rows/columns are eliminated, periodic slave nodes are
folded onto their masters, and pure-Neumann (zero-mean) systems are left
singular with the constant mode projected out inside the solver.

Assembly takes its blocks of element rows from the element walk of
``grid``.  A block's element matrices are one product of the coefficient
samples with a fixed quadrature table, and the block adds them into a nodal
3^n-point stencil by one array-slice add per pair of element corners; load
vectors are scattered onto the nodes the same way.  The compressed-row
matrix is read straight off the stencil, with no triplet list.  The walk
also bounds the samples' eigenvalues and asymmetry; ``assemble_stiffness``
checks every sample by these figures and records the bounds on its system.

The preconditioner is one symmetric geometric-multigrid V-cycle over the
nested grids obtained by halving the mesh divisions: bilinear prolongation,
Galerkin coarse operators ``P^T A P``, one damped-Jacobi sweep before and one
after the coarse correction, and a dense inverse on the coarsest level,
which has at most ``COARSEN_ABOVE`` dofs unless the divisions stop halving
first.  A solve allocates one iterate buffer per level,
and every V-cycle writes its sweeps into them.  ``assemble_stiffness`` builds
the levels while it holds the stencil: under bilinear prolongation a
3^n-point stencil has a 3^n-point Galerkin stencil, formed by one
slice-arithmetic pass per axis and read into compressed rows like the fine
one, and each restriction is read off the fine and coarse dof grids.  A
non-symmetric system carries its symmetric part, which is positive
(semi-)definite; its V-cycle, built from that part, right-preconditions
GMRES.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .coeff import symmetric_part_eiglimits
from .grid import (
    StructuredMesh,
    element_blocks,
    element_counts,
)

SMOOTH_WEIGHT = 0.8  # damped Jacobi
SMOOTH_SWEEPS = 1  # before, and again after, the coarse correction
COARSEN_ABOVE = 100  # coarsen while a level has more dofs than this
DENSE_MAX = 1200  # largest coarsest level inverted densely; above, smoothing only
GMRES_RESTART = 30  # Krylov vectors kept before GMRES restarts from the true residual


class AssemblyError(ValueError):
    """The coefficient sampler violated its symmetry/ellipticity contract."""


class SolverError(RuntimeError):
    """The Krylov solver failed to reach the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved relative residual {achieved:.3e})")
        self.achieved = achieved


@dataclass(frozen=True)
class ZeroMean:
    """Keep every node of the active region; the system is singular with the
    constant mode in its kernel."""


@dataclass(frozen=True)
class Dirichlet:
    """Eliminate the boundary nodes of the active region (homogeneous)."""


@dataclass(frozen=True)
class Periodic:
    """Identify opposite-face nodes of a box mesh (slave -> master folding)."""


Constraint = ZeroMean | Dirichlet | Periodic


def _dof_map(mesh: StructuredMesh, constraint: Constraint) -> np.ndarray:
    """node -> dof index (-1 if eliminated), increasing over the kept nodes
    and over the periodic masters, read off the node grid.  A node is kept
    when an active element touches it, and under Dirichlet when all 2^n of
    its elements are active.  The periodic masters are the nodes before the
    last along each axis, numbered like the elements; the last node wraps."""
    if isinstance(constraint, Periodic):
        if mesh.active_mask is not None:
            raise ValueError("periodic constraints require a full box mesh")
        masters = np.arange(mesh.n_elements).reshape(mesh.divisions[::-1])
        return np.pad(masters, (0, 1), mode="wrap").ravel()
    counts = element_counts(mesh)
    keep = counts == 2**mesh.dim if isinstance(constraint, Dirichlet) else counts > 0
    node_to_dof = np.full(mesh.n_nodes, -1, dtype=int)
    node_to_dof[keep] = np.arange(np.count_nonzero(keep))
    return node_to_dof


def _neighbour_dofs(dofs: np.ndarray, periodic: bool, step: int = 1) -> np.ndarray:
    """``cols[t][x]``: the dof of node ``step * x + t - 1`` for each stencil
    offset index t and every ``step``-th node, -1 where there is none.
    Neighbours wrap on a periodic grid."""
    padded = np.pad(dofs, 1, mode="wrap") if periodic else np.pad(dofs, 1, constant_values=-1)
    shape = tuple((m - 3) // step + 1 for m in padded.shape)
    cols = np.empty((3,) * dofs.ndim + shape, dtype=np.int32 if dofs.size < 2**31 // 9 else np.int64)
    for t in np.ndindex(*(3,) * dofs.ndim):
        cols[t] = padded[tuple(slice(o, o + step * (m - 1) + 1, step) for o, m in zip(t, shape))]
    return cols


def _nodal_stencil(
    mesh: StructuredMesh,
    sampler: Callable[[np.ndarray], np.ndarray],
    constraint: Constraint,
    node_to_dof: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, tuple[float, float, float]]:
    """The Q1 matrix of a coefficient sampler as a nodal stencil: entry
    ``[t][x]`` couples node x to node x + t - 1, offsets first and both last
    mesh axis first.  Returns the stencil, the node -> dof grid it lives on,
    on a masked mesh which couplings share an active element, and the
    samples' (min, max) eigenvalue of sym(A) and largest ``|a_ij - a_ji|``
    relative to ``max(1, |a|)`` in its block.

    Element matrices come from one product of the samples with a fixed
    quadrature table per block of element rows.  On a periodic mesh the slave
    rows are folded onto their masters and the grids cut to the masters, whose
    neighbours wrap.
    """
    dim, nloc = mesh.dim, 2**mesh.dim
    nodes = mesh.nodes_per_axis[::-1]
    stencil = np.zeros((3,) * dim + nodes)
    # on a box mesh every in-range neighbour shares an active element
    shared = None if mesh.active_mask is None else np.zeros(stencil.shape, dtype=bool)
    low, high, asym = np.inf, -np.inf, 0.0
    for block in element_blocks(mesh):
        rule = block.rule
        grads = rule.gradients / mesh.h  # (Q, 2^n, n)
        table = float(np.prod(mesh.h)) * np.einsum(
            "q,qai,qbj->qijab", rule.weights, grads, grads
        ).reshape(-1, nloc * nloc)  # (Q n n, 2^n 2^n)
        pts = block.points().reshape(-1, dim)
        a = np.asarray(sampler(pts), dtype=float).reshape(block.size, len(rule.weights), dim, dim)
        samples = a.reshape(-1, dim, dim)
        block_low, block_high = symmetric_part_eiglimits(samples)
        low, high = min(low, block_low), max(high, block_high)
        if dim == 2:
            dev = float(np.abs(samples[:, 0, 1] - samples[:, 1, 0]).max())
            asym = max(asym, dev / max(1.0, float(np.abs(samples).max())))
        ke = (table.T @ a.reshape(block.size, -1).T).reshape(nloc, nloc, block.size)
        block.add_to_nodes(stencil, ke)
        if shared is not None:
            block.add_to_nodes(shared, np.ones(ke.shape, dtype=bool))
    dofs = node_to_dof.reshape(nodes)
    if isinstance(constraint, Periodic):
        # the last node along an axis is the slave of the first
        for axis in range(dim, 2 * dim):
            before = (slice(None),) * axis
            stencil[before + (0,)] += stencil[before + (-1,)]
        masters = (slice(-1),) * dim
        stencil, dofs = stencil[(...,) + masters], dofs[masters]
    return stencil, dofs, shared, (low, high, asym)


def _grid_csr(values, cols, keep, dofs, n_cols: int, periodic: bool) -> sp.csr_matrix:
    """Compressed rows from per-node entries: ``values[k][x]`` sits in column
    ``cols[k][x]`` of the row of node x wherever ``keep[k][x]``, and the rows
    are those of the nodes with a dof.  Columns increase with k except where a
    periodic grid wraps; those rows get one sort and duplicate sum."""
    rows = keep.reshape(-1, dofs.size).T  # one row per node
    data = values.reshape(-1, dofs.size).T[rows]
    indices = cols.reshape(-1, dofs.size).T[rows]
    counts = rows.sum(axis=1)[dofs.ravel() >= 0]
    indptr = np.zeros(len(counts) + 1, dtype=indices.dtype)
    np.cumsum(counts, out=indptr[1:])
    matrix = sp.csr_matrix((data, indices, indptr), shape=(len(counts), n_cols))
    if periodic:
        matrix.sum_duplicates()
    return matrix


def _read_csr(
    stencil: np.ndarray, dofs: np.ndarray, periodic: bool, shared: np.ndarray | None = None
) -> sp.csr_matrix:
    """The compressed-row matrix of a nodal stencil over a node -> dof grid.

    Couplings from or to a node without a dof, and those outside ``shared``,
    are dropped, and zeroed in the stencil in place so that it stays the
    operator of the matrix.  ``dofs`` is increasing over the kept nodes, so
    the rows come out sorted.
    """
    cols = _neighbour_dofs(dofs, periodic)
    keep = (cols >= 0) & (dofs >= 0)
    if shared is not None:
        keep &= shared
    stencil[~keep] = 0.0
    return _grid_csr(stencil, cols, keep, dofs, int(dofs.max()) + 1, periodic)


def _assemble_matrix(
    mesh: StructuredMesh,
    sampler: Callable[[np.ndarray], np.ndarray],
    constraint: Constraint,
    node_to_dof: np.ndarray,
) -> sp.csr_matrix:
    """The constrained Q1 matrix of an unchecked sampler.  Rows and columns
    of eliminated nodes are dropped, and so are couplings between nodes that
    share no active element, so the sparsity pattern is exactly the element
    connectivity."""
    stencil, dofs, shared, _ = _nodal_stencil(mesh, sampler, constraint, node_to_dof)
    return _read_csr(stencil, dofs, isinstance(constraint, Periodic), shared)


@dataclass(frozen=True, eq=False)
class SparseSystem:
    """A constrained stiffness system in compressed-row storage."""

    matrix: sp.csr_matrix
    constraint: Constraint
    node_to_dof: np.ndarray
    n_nodes: int
    # (matrix + matrix.T) / 2 when the matrix is not symmetric, else None; the
    # preconditioner is built from it and the solver is GMRES instead of CG
    symmetric_part: sp.csr_matrix | None = None
    # levels of the multigrid preconditioner, finest first; assembly builds
    # them, and a system given none gets the coarsest level alone
    hierarchy: tuple[_Level, ...] = field(default=(), repr=False)
    # (min, max) eigenvalue of sym(A) over the samples that assembly read
    ellipticity: tuple[float, float] | None = None

    def __post_init__(self):
        if not self.hierarchy:
            part = self.matrix if self.symmetric_part is None else self.symmetric_part
            object.__setattr__(self, "hierarchy", (_coarsest_level(part, self.needs_projection),))

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @property
    def needs_projection(self) -> bool:
        return isinstance(self.constraint, (ZeroMean, Periodic))

    def reduce(self, full: np.ndarray) -> np.ndarray:
        """Fold a full nodal vector (e.g. a load) into dof space."""
        out = np.zeros(self.dimension)
        mask = self.node_to_dof >= 0
        np.add.at(out, self.node_to_dof[mask], np.asarray(full)[mask])
        return out

    def expand(self, x: np.ndarray) -> np.ndarray:
        """Spread a dof vector back to all nodes (eliminated nodes get 0)."""
        full = np.zeros(self.n_nodes)
        mask = self.node_to_dof >= 0
        full[mask] = np.asarray(x)[self.node_to_dof[mask]]
        return full


def assemble_stiffness(
    mesh: StructuredMesh,
    matrix_sampler: Callable[[np.ndarray], np.ndarray],
    constraint: Constraint,
) -> SparseSystem:
    """Assemble the Q1 stiffness of ``(A grad u, grad v)`` under a constraint.

    ``matrix_sampler`` receives an (P, n) array of points and must return
    (P, n, n) symmetric matrices with positive eigenvalues; violations raise
    AssemblyError, else the samples' bounds become the ``ellipticity`` of
    the system.  Entry (a, b) couples test function a with trial function b.
    """
    node_to_dof = _dof_map(mesh, constraint)
    periodic = isinstance(constraint, Periodic)
    stencil, dofs, shared, (low, high, asym) = _nodal_stencil(
        mesh, matrix_sampler, constraint, node_to_dof)
    if asym > 1e-10:
        raise AssemblyError(f"sampler returned non-symmetric matrices (relative dev {asym:.3e})")
    if low <= 0:
        raise AssemblyError("sampler returned a non-elliptic matrix (eigenvalue <= 0)")
    matrix = _read_csr(stencil, dofs, periodic, shared)
    # only Dirichlet elimination removes the constant mode from the kernel
    singular = not isinstance(constraint, Dirichlet)
    hierarchy = _build_hierarchy(matrix, stencil, dofs, periodic, singular)
    return SparseSystem(matrix, constraint, node_to_dof, mesh.n_nodes, hierarchy=hierarchy,
                        ellipticity=(low, high))


def _scatter_load(mesh, sampler, table_of) -> np.ndarray:
    """Full-size nodal vector of ``table.T @`` the samples of each element,
    one row of samples per element and one table row per sample; ``table``
    is ``table_of(block.rule)`` with its leading axes flattened."""
    b = np.zeros(mesh.nodes_per_axis[::-1])
    for block in element_blocks(mesh):
        samples = np.asarray(sampler(block.points().reshape(-1, mesh.dim)), dtype=float)
        table = table_of(block.rule).reshape(-1, 2**mesh.dim)
        block.add_to_nodes(b, table.T @ samples.reshape(block.size, -1).T)
    return b.ravel()


def assemble_load(mesh: StructuredMesh, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Full-size nodal load vector ``b[a] = integral of f N_a``."""
    vol = float(np.prod(mesh.h))
    return _scatter_load(mesh, f, lambda rule: vol * rule.weights[:, None] * rule.values)


def assemble_gradient_load(
    mesh: StructuredMesh, vector_sampler: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """Full-size load ``b[a] = integral of V . grad N_a`` for a vector field V."""
    vol = float(np.prod(mesh.h))
    return _scatter_load(mesh, vector_sampler,
                         lambda rule: vol * np.einsum("q,qad->qda", rule.weights, rule.gradients / mesh.h))


def default_max_iter(dimension: int) -> int:
    return 50 * int(np.sqrt(dimension)) + 1000


@dataclass(frozen=True, eq=False)
class _Level:
    """One level of the V-cycle.  ``weights`` scale the residual in a Jacobi
    sweep; ``prolong`` maps the next coarser level's dofs onto this level's,
    and ``coarse`` is that level's Galerkin operator.  The coarsest level,
    at most ``COARSEN_ABOVE`` dofs unless coarsening stopped early, carries a
    dense ``inverse`` instead, or only its smoother when it is too large for
    one."""

    weights: np.ndarray | None = None
    # both transfers are stored as CSR: applying restrict.T instead of a
    # stored prolong measured slower end to end, for a few MB less memory
    prolong: sp.csr_matrix | None = None
    restrict: sp.csr_matrix | None = None  # prolong.T
    coarse: sp.csr_matrix | None = None
    inverse: np.ndarray | None = None


def _dense_inverse(matrix: sp.csr_matrix, singular: bool) -> np.ndarray:
    dense = matrix.toarray()
    if not singular:
        inverse = np.linalg.inv(dense)
    else:
        # pin the first dof and re-centre on both sides: the pseudo-inverse
        # when the kernel is the constant mode
        n = len(dense)
        inverse = np.zeros_like(dense)
        inverse[1:, 1:] = np.linalg.inv(dense[1:, 1:])
        centre = np.eye(n) - 1.0 / n
        inverse = centre @ inverse @ centre
    return 0.5 * (inverse + inverse.T)


def _jacobi_weights(matrix: sp.csr_matrix) -> np.ndarray:
    """Damped-Jacobi weights ``SMOOTH_WEIGHT / d`` with ``d`` the diagonal,
    raised to half the absolute row sum where that is larger.  Rows with zero
    sum and non-positive off-diagonals (isotropic Q1 stencils) keep their
    diagonal; for any other stencil the raise bounds the spectrum of
    ``diag(d)^-1 A`` by 2, so a sweep still contracts and the V-cycle stays
    positive definite (anisotropic tensors would otherwise make it indefinite).
    """
    # |A| shares the index arrays of A; only the values are copied
    magnitude = sp.csr_matrix((np.abs(matrix.data), matrix.indices, matrix.indptr), shape=matrix.shape)
    row_sum = magnitude @ np.ones(matrix.shape[1])
    return SMOOTH_WEIGHT / np.maximum(matrix.diagonal(), 0.5 * row_sum)


def _galerkin_pass(stencil: np.ndarray, axis: int, periodic: bool) -> np.ndarray:
    """``P^T A P`` along one axis of a nodal stencil, P the linear
    interpolation from every second node; the other axes go along unchanged,
    so one pass per axis gives the bilinear Galerkin operator.

    With l, d, u the couplings of a node to its left neighbour, itself and its
    right neighbour, a coarse node I at fine node 2I couples to I - 1, I and
    I + 1 by

        L = l/2 + q[I-1],  D = d + (l + u)/2 + p[I-1] + q[I],  U = u/2 + p[I]

    (l, d, u at node 2I), where p = d/4 + u/2 and q = d/4 + l/2 at the odd
    node 2I + 1.  Odd nodes beyond the grid are absent, or wrap on a periodic
    grid.
    """
    node = stencil.ndim // 2 + axis

    def view(array, offset, nodes):
        index = [slice(None)] * array.ndim
        index[axis], index[node] = slice(offset, offset + 1), nodes
        return array[tuple(index)]

    even, odd = slice(0, None, 2), slice(1, None, 2)
    shape = list(stencil.shape)
    shape[node] = view(stencil, 0, even).shape[node]
    coarse = np.empty(shape)
    low, mid, high = (view(coarse, offset, slice(None)) for offset in range(3))
    np.multiply(view(stencil, 0, even), 0.5, out=low)
    np.multiply(view(stencil, 2, even), 0.5, out=high)
    np.add(low, high, out=mid)
    mid += view(stencil, 1, even)
    # p = d/4 + u/2 and q = d/4 + l/2, scaled by powers of two exactly
    p = view(stencil, 2, odd) * 2.0
    p += view(stencil, 1, odd)
    p *= 0.25
    q = view(stencil, 0, odd) * 2.0
    q += view(stencil, 1, odd)
    q *= 0.25
    n_odd = p.shape[node]

    def add(target, values, shift):
        # target[I] += values[I - shift]
        if periodic:
            target += np.roll(values, shift, axis=node)
        else:
            index = [slice(None)] * target.ndim
            index[node] = slice(shift, shift + n_odd)
            target[tuple(index)] += values

    add(low, q, 1)
    add(mid, p, 1)
    add(mid, q, 0)
    add(high, p, 0)
    return coarse


def _coarse_dofs(dofs: np.ndarray) -> np.ndarray:
    """The dof grid of the mesh with halved divisions: a coarse node is a dof
    exactly when the fine node it coincides with is one, numbered in node
    order, so eliminated and inactive nodes carry down."""
    present = dofs[(slice(None, None, 2),) * dofs.ndim] >= 0
    coarse = np.full(present.shape, -1, dtype=dofs.dtype)
    coarse[present] = np.arange(np.count_nonzero(present))
    return coarse


def _restriction(dofs: np.ndarray, coarse: np.ndarray, periodic: bool) -> sp.csr_matrix:
    """Full weighting from the fine dofs onto the coarse ones, the transpose
    of bilinear interpolation, read off the two dof grids: coarse node I
    gathers fine node 2I + t - 1 with weight 1/2 per axis where t - 1 is not
    zero.  Fine nodes without a dof drop out; on a periodic grid the fine
    neighbours wrap."""
    cols = _neighbour_dofs(dofs, periodic, step=2)
    weights = np.empty(cols.shape)
    for t in np.ndindex(*(3,) * dofs.ndim):
        weights[t] = 0.5 ** sum(o != 1 for o in t)
    keep = (cols >= 0) & (coarse >= 0)
    return _grid_csr(weights, cols, keep, coarse, int(dofs.max()) + 1, periodic)


def _coarsest_level(matrix: sp.csr_matrix, singular: bool) -> _Level:
    if matrix.shape[0] <= DENSE_MAX:
        return _Level(inverse=_dense_inverse(matrix, singular))
    return _Level(_jacobi_weights(matrix))


def _build_hierarchy(
    matrix: sp.csr_matrix, stencil: np.ndarray, dofs: np.ndarray, periodic: bool, singular: bool
) -> tuple[_Level, ...]:
    """The V-cycle levels of ``matrix``, finest first, from its stencil
    (zeroed outside the dofs, as ``_read_csr`` leaves it) and its dof grid:
    coarsen while every axis has an even number of divisions and the level
    has more than ``COARSEN_ABOVE`` dofs."""
    levels = []
    while matrix.shape[0] > COARSEN_ABOVE and all((n - (not periodic)) % 2 == 0 for n in dofs.shape):
        coarse_dofs = _coarse_dofs(dofs)
        if coarse_dofs.max() < 0:
            break
        restrict = _restriction(dofs, coarse_dofs, periodic)
        for axis in range(dofs.ndim):
            stencil = _galerkin_pass(stencil, axis, periodic)
        coarse = _read_csr(stencil, coarse_dofs, periodic)
        levels.append(_Level(_jacobi_weights(matrix), restrict.T.tocsr(), restrict, coarse))
        matrix, dofs = coarse, coarse_dofs
    return tuple(levels) + (_coarsest_level(matrix, singular),)


def _cycle_buffers(matrix: sp.csr_matrix, levels: tuple[_Level, ...]) -> list[np.ndarray]:
    """One iterate buffer per level of a V-cycle, finest first."""
    return [np.empty(matrix.shape[0])] + [np.empty(level.coarse.shape[0]) for level in levels[:-1]]


def _jacobi_sweep(matrix: sp.csr_matrix, weights: np.ndarray, r: np.ndarray, x: np.ndarray) -> None:
    """``x += weights * (r - matrix @ x)``, reusing the product's array."""
    t = matrix @ x
    np.subtract(r, t, out=t)
    t *= weights
    x += t


def _vcycle(
    matrix: sp.csr_matrix,
    levels: tuple[_Level, ...],
    r: np.ndarray,
    buffers: list[np.ndarray] | None = None,
) -> np.ndarray:
    """One symmetric V-cycle from a zero initial guess: the same
    ``SMOOTH_SWEEPS`` Jacobi sweeps before and after the coarse correction.
    Each level's iterate is written into its buffer from ``_cycle_buffers``,
    fresh ones when none are given; the finest one is returned, so a solve
    that passes its buffers must use the result before the next cycle."""
    if buffers is None:
        buffers = _cycle_buffers(matrix, levels)
    level, x = levels[0], buffers[0]
    if level.inverse is not None:
        return np.matmul(level.inverse, r, out=x)
    np.multiply(level.weights, r, out=x)
    for _ in range(SMOOTH_SWEEPS - 1):
        _jacobi_sweep(matrix, level.weights, r, x)
    if level.coarse is not None:
        residual = matrix @ x
        np.subtract(r, residual, out=residual)
        coarse_r = level.restrict @ residual
        x += level.prolong @ _vcycle(level.coarse, levels[1:], coarse_r, buffers[1:])
    for _ in range(SMOOTH_SWEEPS):
        _jacobi_sweep(matrix, level.weights, r, x)
    return x


def cg_solve(
    system: SparseSystem,
    rhs: np.ndarray,
    rel_tol: float = 1e-10,
    max_iter: int | None = None,
) -> np.ndarray:
    """Conjugate gradients on the constrained system, preconditioned by one
    geometric-multigrid V-cycle per iteration; restarted GMRES, right-
    preconditioned by the V-cycle of the symmetric part, when the system
    carries a ``symmetric_part``.

    Zero-mean and periodic systems are singular with the constant mode in the
    kernel; the mode is removed from the right-hand side and from every
    iterate, and the returned vector has zero algebraic mean.  Convergence is
    accepted on the true residual.  Raises SolverError when the tolerance is
    not met within ``max_iter`` iterations.
    """
    a = system.matrix
    b = np.array(rhs, dtype=float)
    if b.shape != (system.dimension,):
        raise ValueError(f"rhs length {b.shape} does not match dimension {system.dimension}")
    if max_iter is None:
        max_iter = default_max_iter(system.dimension)
    project = system.needs_projection
    if project:
        b -= b.mean()
    norm_b = np.linalg.norm(b)
    x = np.zeros_like(b)
    if norm_b == 0.0:
        return x
    if system.symmetric_part is not None:
        return _gmres(system, b, norm_b, rel_tol, max_iter)
    levels = system.hierarchy
    buffers = _cycle_buffers(a, levels)
    r = b.copy()
    z = _vcycle(a, levels, r, buffers)
    p = z.copy()
    rz = float(r @ z)
    for _ in range(max_iter):
        ap = a @ p
        alpha = rz / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        if project:
            r -= r.mean()
            x -= x.mean()
        if np.linalg.norm(r) <= rel_tol * norm_b:
            # the recurrence residual drifts over long runs; accept only the
            # true residual, restarting the recursion from it otherwise
            r = b - a @ x
            if project:
                r -= r.mean()
            if np.linalg.norm(r) <= rel_tol * norm_b:
                return x
            z = _vcycle(a, levels, r, buffers)
            p = z.copy()
            rz = float(r @ z)
            continue
        z = _vcycle(a, levels, r, buffers)
        rz_new = float(r @ z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    achieved = float(np.linalg.norm(b - a @ x) / norm_b)
    raise SolverError(f"CG did not converge in {max_iter} iterations", achieved)


def _gmres(
    system: SparseSystem, b: np.ndarray, norm_b: float, rel_tol: float, max_iter: int
) -> np.ndarray:
    """GMRES(``GMRES_RESTART``) for ``K x = b``, right-preconditioned by the
    V-cycle of the symmetric part S of K.  With K = S + N and N skew, the
    preconditioned operator's field of values stays away from zero by a margin
    set by the size of N against S, not by the mesh, so the iteration count
    does not grow under refinement.  ``b`` is already projected when the
    system needs it; the Arnoldi basis is orthogonalised by two passes of
    classical Gram-Schmidt, and each cycle ends on the true residual."""
    a, levels = system.matrix, system.hierarchy
    project = system.needs_projection
    buffers = _cycle_buffers(a, levels)

    def precondition(v):
        z = _vcycle(system.symmetric_part, levels, v, buffers)
        if project:
            z -= z.mean()
        return z

    x = np.zeros_like(b)
    r = b.copy()
    used = 0
    while used < max_iter:
        steps = min(GMRES_RESTART, max_iter - used)
        basis = np.empty((steps + 1, len(b)))
        hess = np.zeros((steps, steps))  # upper triangular once rotated
        cos, sin = np.zeros(steps), np.zeros(steps)
        g = np.zeros(steps + 1)  # the rotated residual; |g[k]| is the residual after k steps
        g[0] = np.linalg.norm(r)
        basis[0] = r / g[0]
        k = 0
        while k < steps:
            w = a @ precondition(basis[k])
            if project:
                w -= w.mean()
            for _ in range(2):
                coef = basis[: k + 1] @ w
                w -= coef @ basis[: k + 1]
                hess[: k + 1, k] += coef
            h_next = np.linalg.norm(w)
            for i in range(k):
                hess[i, k], hess[i + 1, k] = (
                    cos[i] * hess[i, k] + sin[i] * hess[i + 1, k],
                    cos[i] * hess[i + 1, k] - sin[i] * hess[i, k],
                )
            rho = np.hypot(hess[k, k], h_next)
            cos[k], sin[k] = hess[k, k] / rho, h_next / rho
            hess[k, k] = rho
            g[k + 1], g[k] = -sin[k] * g[k], cos[k] * g[k]
            k += 1
            if abs(g[k]) <= rel_tol * norm_b or h_next == 0.0:
                break
            basis[k] = w / h_next
        used += k
        y = np.linalg.solve(hess[:k, :k], g[:k])
        x += precondition(y @ basis[:k])
        r = b - a @ x
        if project:
            r -= r.mean()
        if np.linalg.norm(r) <= rel_tol * norm_b:
            return x
    achieved = float(np.linalg.norm(r) / norm_b)
    raise SolverError(f"GMRES did not converge in {max_iter} iterations", achieved)
