"""Assembly of Q1 stiffness systems whose symmetric part is positive
(semi-)definite, and a preconditioned Krylov solver: conjugate gradients for
symmetric systems, restarted GMRES for non-symmetric ones.

The bilinear form is ``(u, v) -> integral of (A grad u) . grad v`` with the
matrix coefficient sampled at quadrature points.  Every operator is its
3^n-point nodal stencil, stored by diagonals in ascending order, so a row of
a product adds in column order, with a row and a column per node of the
system's grid: the mesh's node grid, or the periodic masters, whose wrapped
neighbours get diagonals of their own.  A bool grid marks the unknowns;
Dirichlet boundary nodes and nodes of no active element are none, and their
rows, columns and solver entries are zero.  Periodic slave nodes are folded
onto their masters, and pure-Neumann (zero-mean) systems are left singular
with the constant mode projected out inside the solver.

Assembly reads the coefficient on one period of elements.  The caller says
after how many elements per axis, from the mesh origin, the sampler repeats:
the elements of an epsilon-cell for a fine problem, one element for a
constant tensor, the whole mesh by default.  The period's elements are taken
in the blocks of ``grid``'s walk, boxes of active elements.  A block's
element matrices are one product of the coefficient samples with a fixed
quadrature table, and they are added onto every tile of the node grid that
holds an active element, by one strided slice add per pair of element
corners and box of such tiles (``grid.walk_boxes`` of the tile grid) over a
(tiles, period) view of each axis; with the default period there is one
tile, the mesh.  Load vectors are scattered onto the nodes by the whole
walk.  The products of a singular system with the node coordinates, the cell
problems' loads, are read off its diagonals with no walk.  The walk also
bounds the samples' eigenvalues and asymmetry; ``assemble_stiffness`` checks
every sample by the first, records the bounds on its system and splits off a
symmetric part by the second.  Where each stencil offset is a diagonal of its own, the
matrix's diagonals are the stencil's rows shifted in its own memory.

The preconditioner is one symmetric geometric-multigrid V-cycle over the
nested grids obtained by halving the mesh divisions: bilinear prolongation,
Galerkin coarse operators ``P^T A P``, a fixed single damped-Jacobi sweep
from zero before the coarse correction and one after it, and a dense inverse
on the coarsest level, which has at most ``COARSEN_ABOVE`` unknowns unless
the divisions stop halving first.  A solve allocates one iterate buffer per
level, and every V-cycle writes its sweeps into them.  ``assemble_stiffness``
builds the levels while it holds the stencil: a 3^n-point stencil has a
3^n-point Galerkin stencil, one slice-arithmetic pass per axis, and each
restriction is read off the two node grids in compressed rows.  A
non-symmetric system carries its symmetric part, the stencil plus its
transpose halved; the V-cycle, built from that part, right-preconditions
GMRES.

A box system sampled one element at a time (a constant tensor) under
Dirichlet or ZeroMean, whose stencil is reflection-symmetric along each axis
(the tensor has no off-diagonal part), builds no multigrid levels.  Its one
level is the exact inverse by the sine or the cosine transform of the node
grid, with the eigenvalues read off the stencil at one interior node; each
transform is an rfft of the odd or even extension along each axis, by
``numpy.fft``.  So does an L-shape under Dirichlet, whose unknowns' rows are
the box's: its level adds the capacitance-matrix correction (Buzbee, Dorr,
George & Golub, 1971) that pins the box solution to zero on the removed
quadrant's two inner edges, read off the divisions in closed form, a dense
inverse with a row per edge node, still around two transforms.  CG then
stops after one step.  Both methods run under one driver, ``cg_solve``,
which accepts on the true residual after each CG run or GMRES cycle and
gives up when runs stop lowering it, at its rounding floor.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .coeff import symmetric_part_eiglimits
from .grid import (
    StructuredMesh,
    _corner_offsets,
    element_blocks,
    element_counts,
    quadrature,
    walk_boxes,
)

SMOOTH_WEIGHT = 0.8  # damped Jacobi
COARSEN_ABOVE = 100  # coarsen while a level has more unknowns than this
DENSE_MAX = 1200  # most unknowns of a coarsest level inverted densely; above, smoothing only
GMRES_RESTART = 30  # Krylov vectors kept before GMRES restarts from the true residual
STALL_RESTARTS = 3  # solver runs in a row that do not lower the true residual before it gives up


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


def _unknowns(mesh: StructuredMesh, constraint: Constraint) -> np.ndarray:
    """The unknowns as a bool grid, last mesh axis first, over the mesh's
    node grid, or under Periodic over the masters, the nodes before the last
    along each axis, all unknowns.  A mesh node is one when an active element
    touches it, under Dirichlet when all 2^n of its elements are active."""
    if isinstance(constraint, Periodic):
        if mesh.shape != "box":
            raise ValueError("periodic constraints require a full box mesh")
        return np.ones(mesh.divisions[::-1], dtype=bool)
    counts = element_counts(mesh).reshape(mesh.nodes_per_axis[::-1])
    return counts == 2**mesh.dim if isinstance(constraint, Dirichlet) else counts > 0


def _fold(array: np.ndarray, axes: range) -> np.ndarray:
    """Add the last node along each of ``axes``, in order, onto the first,
    its periodic master, and return the view of the masters."""
    for axis in axes:
        before = (slice(None),) * axis
        array[before + (0,)] += array[before + (-1,)]
    return array[(slice(None),) * axes[0] + (slice(-1),) * len(axes)]


def _diagonal_parts(shape: tuple[int, ...], periodic: bool):
    """Where the couplings of a nodal stencil on a node grid of ``shape`` lie
    in its matrix.  Yields, per stencil offset index t in flat order, one
    ``(t, diagonal, rows, columns)`` per part of the grid whose neighbours at
    t - 1 are one flat distance ``diagonal`` away: ``rows`` are the node-grid
    slices of those nodes and ``columns`` those of their neighbours.  On a
    periodic grid the last node along an axis neighbours the first, which
    gives an offset one more part per axis that it moves along."""
    strides = [int(np.prod(shape[axis + 1:])) for axis in range(len(shape))]
    per_axis = []
    for m, stride in zip(shape, strides):
        moves = []
        for s in (-1, 0, 1):
            parts = []
            if m > abs(s):
                parts.append((s * stride, slice(max(0, -s), m - max(0, s)),
                              slice(max(0, s), m - max(0, -s))))
            if periodic and s:
                row = m - 1 if s > 0 else 0
                col = m - 1 - row
                parts.append(((col - row) * stride, slice(row, row + 1), slice(col, col + 1)))
            moves.append(parts)
        per_axis.append(moves)
    for t in np.ndindex(*(3,) * len(shape)):
        for part in itertools.product(*(moves[s] for moves, s in zip(per_axis, t))):
            diagonal, rows, columns = zip(*part)
            yield t, sum(diagonal), rows, columns


def _zero_off_unknowns(stencil: np.ndarray, unknowns: np.ndarray, periodic: bool) -> None:
    """Zero, in place, the couplings of a nodal stencil from or to a node
    that is not an unknown."""
    for t, _, rows, columns in _diagonal_parts(unknowns.shape, periodic):
        stencil[t][rows][~(unknowns[rows] & unknowns[columns])] = 0.0


def _stencil_matrix(stencil: np.ndarray, periodic: bool) -> sp.dia_matrix:
    """The matrix of a nodal stencil on its node grid, by diagonals in
    ascending order; a diagonal is indexed by column.  Where each offset is a
    diagonal of its own, in offset order, the diagonals are the offsets' flat
    rows shifted in the stencil's own memory, which the matrix takes, so the
    stencil must not be read after; the couplings off the grid that a shift
    carries along are zero.  Otherwise each part of an offset is one slice
    copy onto its diagonal's node grid, and couplings that coincide on a
    narrow periodic grid are added in offset order."""
    shape = stencil.shape[stencil.ndim // 2:]
    parts = list(_diagonal_parts(shape, periodic))
    diagonals = sorted({diagonal for _, diagonal, _, _ in parts})
    n = int(np.prod(shape))
    if [diagonal for _, diagonal, _, _ in parts] == diagonals:
        data = stencil.reshape(len(diagonals), n)
        for row, diagonal in zip(data, diagonals):
            if diagonal > 0:
                row[diagonal:] = row[:-diagonal]
                row[:diagonal] = 0.0
            elif diagonal < 0:
                row[:diagonal] = row[-diagonal:]
                row[diagonal:] = 0.0
        return sp.dia_matrix((data, diagonals), shape=(n, n))
    data = np.zeros((len(diagonals), n))
    for t, diagonal, rows, columns in parts:
        data[diagonals.index(diagonal)].reshape(shape)[columns] += stencil[t][rows]
    return sp.dia_matrix((data, diagonals), shape=(n, n))


def _period_mesh(mesh: StructuredMesh, period) -> tuple[StructuredMesh, tuple[int, ...], list[tuple[slice, ...]]]:
    """The mesh of the first ``period`` elements per axis (the whole mesh by
    default), the number of tiles of that size per axis and the boxes of
    those that hold an active element (``grid.walk_boxes``), both last axis
    first.  With more than one tile the period mesh is a box, and on the
    L-shape a period must divide half the divisions, so each tile is wholly
    active or wholly inactive.  Raises ValueError otherwise, or when the
    period does not divide the divisions."""
    period = mesh.divisions if period is None else tuple(int(p) for p in np.atleast_1d(period))
    if len(period) != mesh.dim or any(p < 1 or d % p for p, d in zip(period, mesh.divisions)):
        raise ValueError(f"a period of {period} elements does not divide the divisions {mesh.divisions}")
    tiles = tuple(d // p for d, p in zip(mesh.divisions, period))[::-1]
    if period == mesh.divisions:
        return mesh, tiles, walk_boxes(tiles)
    if mesh.shape == "l_shape" and any(d // 2 % p for d, p in zip(mesh.divisions, period)):
        raise ValueError(f"the tiles of {period} elements are not each wholly active or inactive")
    walked = StructuredMesh(mesh.origin, tuple(h * p for h, p in zip(mesh.h, period)), period)
    return walked, tiles, walk_boxes(tiles, mesh.shape)


def _nodal_stencil(
    mesh: StructuredMesh,
    sampler: Callable[[np.ndarray], np.ndarray],
    constraint: Constraint,
    period=None,
) -> tuple[np.ndarray, tuple[float, float, float]]:
    """The Q1 matrix of a coefficient sampler as a nodal stencil: entry
    ``[t][x]`` couples node x to node x + t - 1, offsets first and both last
    mesh axis first.  Returns the stencil and the samples' (min, max)
    eigenvalue of sym(A) and largest ``|a_ij - a_ji|`` over ``max(1, |a|)``,
    both largest over all samples, so the figure does not depend on the
    blocks.

    The sampler repeats every ``period`` elements per axis from the mesh
    origin (see ``_period_mesh``), so only the elements of the first period
    are sampled.  Their element matrices come from one product of the samples
    with a fixed quadrature table per walk block, and each block is added
    onto every tile that holds an active element by one strided slice add per
    pair of element corners and box of tiles, over a (tiles, period) view of
    each node-grid axis, at the block's slices of the period on every axis.
    By default the period is the whole mesh: one tile, walked as it is.  On
    a periodic mesh the slave rows are folded onto their masters and the
    grid cut to the masters, whose neighbours wrap.
    """
    dim, nloc = mesh.dim, 2**mesh.dim
    walked, tiles, occupied = _period_mesh(mesh, period)
    corners = [offset[::-1] for offset in _corner_offsets(dim)]
    stencil = np.zeros((3,) * dim + mesh.nodes_per_axis[::-1])
    low, high, dev, largest = np.inf, -np.inf, 0.0, 0.0
    for block in element_blocks(walked):
        rule = block.rule
        grads = rule.gradients / mesh.h  # (Q, 2^n, n)
        table = float(np.prod(mesh.h)) * np.einsum(
            "q,qai,qbj->qijab", rule.weights, grads, grads
        ).reshape(-1, nloc * nloc)  # (Q n n, 2^n 2^n)
        a = block.sample(sampler)  # (E, Q, n, n)
        samples = a.reshape(-1, dim, dim)
        block_low, block_high = symmetric_part_eiglimits(samples)
        low, high = min(low, block_low), max(high, block_high)
        dev = max([dev] + [float(np.abs(samples[:, i, j] - samples[:, j, i]).max())
                           for i, j in zip(*np.triu_indices(dim, 1))])
        largest = max(largest, float(np.abs(samples).max()))
        # per axis, last first: the tile axis, then the block's elements of the period
        ke = (table.T @ a.reshape(block.size, -1).T).reshape(
            (nloc, nloc) + tuple(v for n in block.shape for v in (1, n)))
        for (ia, ca), (ib, cb) in itertools.product(enumerate(corners), repeat=2):
            nodes = stencil[tuple(1 + q - c for q, c in zip(cb, ca))][
                tuple(slice(c, c + n - 1) for c, n in zip(ca, stencil.shape[dim:]))]
            tiled = nodes.reshape([v for t, n in zip(tiles, nodes.shape) for v in (t, n // t)],
                                  copy=False)
            for box in occupied:
                tiled[tuple(v for tile, part in zip(box, block.box) for v in (tile, part))] += ke[ia, ib]
    if isinstance(constraint, Periodic):
        stencil = _fold(stencil, range(dim, 2 * dim))
    return stencil, (low, high, dev / max(1.0, largest))


def _stencil_transpose(stencil: np.ndarray, periodic: bool) -> np.ndarray:
    """The nodal stencil of the transposed matrix: node x couples to its
    neighbour at t - 1 as that neighbour couples to x, at offset 2 - t."""
    out = np.zeros_like(stencil)
    for t, _, rows, columns in _diagonal_parts(stencil.shape[stencil.ndim // 2:], periodic):
        out[t][rows] = stencil[tuple(2 - s for s in t)][columns]
    return out


@dataclass(frozen=True, eq=False)
class SparseSystem:
    """A constrained stiffness system, stored by diagonals on its node grid
    (see the module docstring); rows and columns off the unknowns are zero."""

    matrix: sp.dia_matrix
    constraint: Constraint
    unknowns: np.ndarray  # bool node grid of the system, last mesh axis first
    # levels of the multigrid preconditioner, finest first, built by
    # assembly, or the one transform level of a constant-coefficient box
    hierarchy: tuple[_Level, ...] = field(repr=False)
    # (matrix + matrix.T) / 2 when the matrix is not symmetric, else None; the
    # preconditioner is built from it and the solver is GMRES instead of CG
    symmetric_part: sp.dia_matrix | None = None
    # (min, max) eigenvalue of sym(A) over the samples that assembly read
    ellipticity: tuple[float, float] | None = None

    @property
    def dimension(self) -> int:
        """The number of unknowns."""
        return int(np.count_nonzero(self.unknowns))

    @property
    def needs_projection(self) -> bool:
        return isinstance(self.constraint, (ZeroMean, Periodic))

    def reduce(self, full: np.ndarray) -> np.ndarray:
        """Fold a full nodal vector (e.g. a load) onto the system grid, adding
        periodic slaves to their masters and zeroing it off the unknowns."""
        if not isinstance(self.constraint, Periodic):
            return np.where(self.unknowns.ravel(), full, 0.0)
        nodes = np.array(full, dtype=float).reshape(tuple(m + 1 for m in self.unknowns.shape))
        return _fold(nodes, range(nodes.ndim)).ravel()

    def expand(self, x: np.ndarray) -> np.ndarray:
        """Spread a vector on the system grid back to all mesh nodes, wrapping
        periodic masters onto their slaves; nodes off the unknowns get 0."""
        if not isinstance(self.constraint, Periodic):
            return np.where(self.unknowns.ravel(), x, 0.0)
        return np.pad(np.reshape(x, self.unknowns.shape), (0, 1), mode="wrap").ravel()

    def coordinate_products(self, h) -> np.ndarray:
        """``matrix @ y_k`` for each mesh axis k, (n, system nodes), with y_k
        the node coordinate along k, unwrapped across a periodic face: each
        coupling, read off its diagonal, weighted by its step along k.  The
        term of y_k at the row's own node is its row sum, which is zero
        because the constants are in the kernel.  Raises ValueError under
        Dirichlet, and on a periodic grid with fewer than 3 masters along an
        axis, where two neighbours of a node coincide in one entry."""
        shape, periodic = self.unknowns.shape, isinstance(self.constraint, Periodic)
        if isinstance(self.constraint, Dirichlet):
            raise ValueError("a Dirichlet system does not keep the constants in its kernel")
        if periodic and min(shape) < 3:
            raise ValueError(f"a periodic grid of {shape[::-1]} masters merges the couplings "
                             "of coinciding neighbours")
        dim, n = len(shape), self.unknowns.size
        # a diagonal is indexed by column
        data_of = dict(zip(self.matrix.offsets.tolist(), self.matrix.data[:, :n]))
        out = np.zeros((dim,) + shape)
        for t, diagonal, rows, columns in _diagonal_parts(shape, periodic):
            couplings = data_of[diagonal].reshape(shape)[columns]
            for axis, s in enumerate(t):  # node-grid axes, the last mesh axis first
                if s != 1:
                    out[(dim - 1 - axis,) + rows] += (s - 1) * h[dim - 1 - axis] * couplings
        return out.reshape(dim, -1)


def assemble_stiffness(
    mesh: StructuredMesh,
    matrix_sampler: Callable[[np.ndarray], np.ndarray],
    constraint: Constraint,
    period=None,
) -> SparseSystem:
    """Assemble the Q1 stiffness of ``(A grad u, grad v)`` under a constraint.

    ``matrix_sampler`` receives an (P, n) array of points and must return
    (P, n, n) matrices whose symmetric parts have positive eigenvalues; a
    non-finite sample raises ValueError (``ElementBlock.sample``) and a
    violation AssemblyError, else the samples' bounds become the
    ``ellipticity`` of the system.  Entry (a, b) couples test function a
    with trial function b.  The matrix is the stiffness K of the samples as
    read; when their asymmetry figure exceeds 1e-10 the system carries
    ``symmetric_part`` (K + K^T) / 2, which builds the hierarchy.  A
    symmetric system sampled one element at a time gets one transform level
    instead where that is exact (see ``_transform_level``): on a box, and
    on the L-shape under Dirichlet.
    ``period``, elements per axis, says that the sampler repeats after that
    many elements from the mesh origin; only the first period is sampled and
    checked.  It defaults to the whole mesh.  Raises ValueError when it does
    not divide the divisions, or when, with more than one tile, a tile of
    that size is only partly active.
    """
    stencil, (low, high, asym) = _nodal_stencil(mesh, matrix_sampler, constraint, period)
    if low <= 0:
        raise AssemblyError("sampler returned a non-elliptic matrix (eigenvalue <= 0)")
    unknowns, periodic = _unknowns(mesh, constraint), isinstance(constraint, Periodic)
    level = _transform_level(mesh, stencil, constraint, period, unknowns) if asym <= 1e-10 else None
    if level is not None:
        _zero_off_unknowns(stencil, unknowns, periodic)
        matrix = _stencil_matrix(stencil, periodic)
        return SparseSystem(matrix, constraint, unknowns, (level,), ellipticity=(low, high))
    # the build takes the only reference to its stencil, whose memory becomes
    # its matrix or is freed once that matrix is made.  A non-symmetric K is
    # kept to become the matrix after (K + K^T) / 2 has built: one stencil more
    fine = [stencil]
    if asym > 1e-10:
        fine[0] = _stencil_transpose(stencil, periodic)
        fine[0] += stencil
        fine[0] *= 0.5
    else:
        del stencil
    # only Dirichlet elimination removes the constant mode from the kernel
    singular = not isinstance(constraint, Dirichlet)
    built, hierarchy = _build_hierarchy(fine, unknowns, periodic, singular)
    if asym <= 1e-10:
        return SparseSystem(built, constraint, unknowns, hierarchy, ellipticity=(low, high))
    _zero_off_unknowns(stencil, unknowns, periodic)
    matrix = _stencil_matrix(stencil, periodic)
    return SparseSystem(matrix, constraint, unknowns, hierarchy, built, (low, high))


def assemble_load(mesh: StructuredMesh, f: Callable[[np.ndarray], np.ndarray]) -> tuple[np.ndarray, float]:
    """Full-size nodal load vector ``b[a] = integral of f N_a`` and the
    integral of f^2, from one ``quadrature`` walk that samples f once and
    refuses a non-finite sample with ValueError: per block, the (Q, 2^n)
    table of weighted shape values times the samples, added onto the nodes."""
    b = np.zeros(mesh.nodes_per_axis[::-1])

    def sample(block):
        samples = block.sample(f)
        table = float(np.prod(mesh.h)) * block.rule.weights[:, None] * block.rule.values
        block.add_to_nodes(b, table.T @ samples.T)
        return samples**2

    f_sq = quadrature(mesh, sample)
    return b.ravel(), f_sq


def default_max_iter(dimension: int) -> int:
    return 50 * int(np.sqrt(dimension)) + 1000


@dataclass(frozen=True, eq=False)
class _Level:
    """One level of the V-cycle, on its node grid.  ``weights`` scale the
    residual in a Jacobi sweep; ``prolong`` maps the next coarser level's
    grid onto this level's, and ``coarse`` is that level's Galerkin operator.
    The coarsest level, at most ``COARSEN_ABOVE`` unknowns unless coarsening
    stopped early, carries a dense ``inverse`` instead, or only its smoother
    when it is too large for one.  The one level of a constant-coefficient
    system on a box, or on an L-shape under Dirichlet, carries a
    ``spectrum`` instead (see ``_transform_level``), on the L-shape with
    the capacitance correction of ``_capacitance``."""

    weights: np.ndarray | None = None
    # both transfers are stored as CSR: applying restrict.T instead of a
    # stored prolong measured slower end to end, for a few MB less memory
    prolong: sp.csr_matrix | None = None
    restrict: sp.csr_matrix | None = None  # prolong.T
    coarse: sp.dia_matrix | None = None
    inverse: np.ndarray | None = None
    # the inverse's eigenvalues per sine (Dirichlet, ``sine``) or cosine
    # (zero-mean) mode of the node grid, scaled by the transforms' norms
    spectrum: np.ndarray | None = None
    sine: bool = False
    # on an L-shape, the nodes Gamma of the box's interior that are not
    # unknowns but couple to one, one node row and one node column, each as
    # its sine table (see ``_capacitance``), the inverse of their capacitance
    # matrix, and the interior nodes that are unknowns, off which the solve
    # is zero
    gamma: tuple[tuple[np.ndarray, np.ndarray], ...] = ()
    capacitance: np.ndarray | None = None
    keep: np.ndarray | None = None


def _dense_inverse(dense: np.ndarray, singular: bool) -> np.ndarray:
    if not singular:
        inverse = np.linalg.inv(dense)
    else:
        # pin the first unknown and re-centre on both sides: the pseudo-inverse
        # when the kernel is the constant mode
        n = len(dense)
        inverse = np.zeros_like(dense)
        inverse[1:, 1:] = np.linalg.inv(dense[1:, 1:])
        centre = np.eye(n) - 1.0 / n
        inverse = centre @ inverse @ centre
    return 0.5 * (inverse + inverse.T)


def _jacobi_weights(stencil: np.ndarray, unknowns: np.ndarray) -> np.ndarray:
    """Damped-Jacobi weights ``SMOOTH_WEIGHT / d`` on the node grid of a nodal
    stencil that is zeroed off the unknowns, and zero off them: ``d`` is the
    centre entry, raised to half the absolute sum of the node's entries
    where that is larger.  Rows with zero sum and non-positive off-diagonals
    (isotropic Q1 stencils) keep their diagonal; for any other stencil the
    raise bounds the spectrum of ``diag(d)^-1 A`` by 2, so a sweep still
    contracts and the V-cycle stays positive definite (anisotropic tensors
    would otherwise make it indefinite).  The sum is the absolute row sum of
    the matrix, added in column order, except where a periodic grid's
    neighbours coincide: there it adds the magnitudes of the entries that the
    matrix merges, so the weight is, up to rounding, never larger than the
    row's.
    """
    offsets = np.ndindex(*(3,) * unknowns.ndim)
    total = np.abs(stencil[next(offsets)])
    term = np.empty_like(total)
    for t in offsets:
        total += np.abs(stencil[t], out=term)
    total *= 0.5
    np.maximum(stencil[(1,) * unknowns.ndim], total, out=total)
    return np.divide(SMOOTH_WEIGHT, total, out=np.zeros_like(total), where=unknowns).ravel()


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


def _restriction(fine: np.ndarray, coarse: np.ndarray, periodic: bool) -> sp.csr_matrix:
    """Full weighting from the unknowns of a fine node grid onto those of the
    coarse one, the transpose of bilinear interpolation, read off the two
    bool grids with a row per coarse node and a column per fine node: coarse
    node I gathers fine node 2I + t - 1 with weight 1/2 per axis where t - 1
    is not zero.  Nodes off the unknowns get no entries; on a periodic grid
    the fine neighbours wrap, and coinciding ones add."""
    nodes = np.where(fine, np.arange(fine.size, dtype=np.int32).reshape(fine.shape), -1)
    padded = np.pad(nodes, 1, mode="wrap") if periodic else np.pad(nodes, 1, constant_values=-1)
    offsets = list(np.ndindex(*(3,) * fine.ndim))
    # per coarse node I and offset t, the column of fine node 2I + t - 1
    columns = np.stack([padded[tuple(slice(o, o + 2 * m - 1, 2) for o, m in zip(t, coarse.shape))]
                        for t in offsets], axis=-1).reshape(coarse.size, -1)
    keep = (columns >= 0) & coarse.reshape(-1, 1)
    weights = np.broadcast_to([0.5 ** sum(o != 1 for o in t) for t in offsets], keep.shape)
    indptr = np.concatenate(([0], np.cumsum(keep.sum(axis=1))))
    matrix = sp.csr_matrix((weights[keep], columns[keep], indptr), shape=(coarse.size, fine.size))
    if periodic:
        matrix.sum_duplicates()
    return matrix


def _coarsest_level(matrix: sp.dia_matrix, weights: np.ndarray, unknowns: np.ndarray,
                    singular: bool) -> _Level:
    """A dense inverse of the unknowns' block, zero in the other rows and
    columns, or only the smoother of ``weights`` when the block is too large
    for one."""
    mask = unknowns.ravel()
    if np.count_nonzero(mask) > DENSE_MAX:
        return _Level(weights)
    inverse = np.zeros(matrix.shape)
    inverse[np.ix_(mask, mask)] = _dense_inverse(matrix.tocsr()[mask][:, mask].toarray(), singular)
    return _Level(inverse=inverse)


def _build_hierarchy(
    fine: list[np.ndarray], unknowns: np.ndarray, periodic: bool, singular: bool
) -> tuple[sp.dia_matrix, tuple[_Level, ...]]:
    """The matrix of a nodal stencil on the node grid of ``unknowns`` and its
    V-cycle levels, finest first: coarsen while every axis has an even number
    of divisions and the level has more than ``COARSEN_ABOVE`` unknowns.  A
    coarse node is an unknown exactly when the fine node it coincides with
    is one.  Each level's stencil is zeroed off its unknowns, in place, and
    taken by its matrix (see ``_stencil_matrix``) after its Jacobi weights
    and Galerkin pass are made.  The fine one is popped from ``fine``, so
    that where the matrix does not reuse its memory it is freed then, unless
    the caller keeps it."""
    stencil = fine.pop()
    matrices, smoothers = [], []
    while True:
        _zero_off_unknowns(stencil, unknowns, periodic)
        weights = _jacobi_weights(stencil, unknowns)
        coarse = unknowns[(slice(None, None, 2),) * unknowns.ndim]
        if (np.count_nonzero(unknowns) <= COARSEN_ABOVE or not coarse.any()
                or any((n - (not periodic)) % 2 for n in unknowns.shape)):
            break
        coarse_stencil = stencil
        for axis in range(unknowns.ndim):
            coarse_stencil = _galerkin_pass(coarse_stencil, axis, periodic)
        matrices.append(_stencil_matrix(stencil, periodic))
        stencil = coarse_stencil
        smoothers.append((weights, _restriction(unknowns, coarse, periodic)))
        unknowns = coarse
    matrices.append(_stencil_matrix(stencil, periodic))
    levels = [_Level(weights, restrict.T.tocsr(), restrict, operator)
              for (weights, restrict), operator in zip(smoothers, matrices[1:])]
    levels.append(_coarsest_level(matrices[-1], weights, unknowns, singular))
    return matrices[0], tuple(levels)


def _transform_level(mesh: StructuredMesh, stencil: np.ndarray, constraint: Constraint,
                     period, unknowns: np.ndarray) -> _Level | None:
    """The exact solve of a system whose stencil is the same at every
    unknown, or None where it would not be exact.  On a box sampled one
    element at a time (a constant tensor) under Dirichlet or ZeroMean, a
    stencil that is reflection-symmetric along each axis, to 1e-10 relative
    (a tensor with no off-diagonal part), is diagonalised by the sine
    transform on the interior nodes and, with the boundary rows its
    half-stencils, by the cosine transform on all nodes.  The eigenvalue of
    mode k, read off the stencil s at an interior node, is

        lambda(k) = sum_t s_t prod_a cos(pi k_a (t_a - 1) / n_a)

    over n_a divisions.  The constant mode, the kernel under ZeroMean, gets
    an inverse of zero.

    On the L-shape, only under Dirichlet: an unknown is a node whose 2^n
    elements are all active, so its row is the box's row.  Where the node
    (1, ..., 1) is one, the level is the box's sine level with the
    capacitance correction of ``_capacitance``."""
    l_shape = mesh.shape == "l_shape"
    if (not isinstance(constraint, Dirichlet if l_shape else (Dirichlet, ZeroMean))
            or period is None or any(int(p) != 1 for p in np.atleast_1d(period))
            or min(mesh.divisions) < 2 or not unknowns[(1,) * mesh.dim]):
        return None
    dim, sine = mesh.dim, isinstance(constraint, Dirichlet)
    s = stencil[(Ellipsis,) + (1,) * dim]
    if any(np.abs(s - np.flip(s, axis)).max() > 1e-10 * np.abs(s).max() for axis in range(dim)):
        return None
    divisions = mesh.divisions[::-1]  # node-grid axes, the last mesh axis first
    modes = [np.arange(1, n) if sine else np.arange(n + 1) for n in divisions]
    operands = [s, list(range(dim))]
    for axis, (k, n) in enumerate(zip(modes, divisions)):
        operands += [np.cos(np.pi * np.outer([-1, 0, 1], k) / n), [axis, dim + axis]]
    eigenvalues = np.einsum(*operands, list(range(dim, 2 * dim)))
    # sum_j sin(pi j k / n) sin(pi j l / n) is n/2 if k = l, and the cosine
    # sum, with the end nodes weighted 1/2, is n/2, or n at the end modes
    norms = [np.full(len(k), 2.0 / n) for k, n in zip(modes, divisions)]
    if not sine:
        for norm in norms:
            norm[[0, -1]] *= 0.5
        eigenvalues[(0,) * dim] = np.inf
    level = _Level(spectrum=functools.reduce(np.multiply.outer, norms) / eigenvalues, sine=sine)
    return _capacitance(level, mesh.divisions) if l_shape else level


def _sines(nodes, n: int) -> np.ndarray:
    """Rows of the sine table ``sin(pi j k / n)``: one per interior node
    j = nodes + 1, over the modes k = 1 .. n - 1, with j k reduced modulo 2n
    before it is scaled, so the argument stays small."""
    return np.sin(np.pi * (np.outer(np.add(nodes, 1), np.arange(1, n)) % (2 * n)) / n)


def _capacitance(level: _Level, divisions: tuple[int, int]) -> _Level:
    """The sine level of the L-shape's box extended to the L's unknowns by
    the capacitance-matrix method (Buzbee, Dorr, George & Golub, SIAM J.
    Numer. Anal. 8, 1971).  Gamma, the box's interior nodes that couple to an
    unknown without being one, is the removed quadrant's two inner edges:
    with interior node indices from 0, the row j0 = d1/2 - 1 over the
    columns d0/2 - 1 .. d0 - 2, and the column i0 = d0/2 - 1 over the rows
    d1/2 .. d1 - 2; the row holds the corner node where the two meet, and
    the unknowns are the interior nodes below the row or left of the column.
    (On an L two elements across, an edge also holds nodes that couple to
    no unknown; pinning them too leaves the solve exact.)  Pinning u = 0 on
    Gamma separates the unknowns from the rest of the box, so with B the
    box's inverse and E the injection from Gamma

        A^-1 r = B (r + E lambda),  lambda = -C^-1 E^T B r,  C = E^T B E

    on the unknowns.  B is S diag(spectrum) S^T, S the sine table along each
    axis, so C's blocks are closed forms in the table rows of Gamma's row j0
    and column i0, S[j0] and S[i0], and of its nodes along them, S_H and S_V:
    the row's block is S_H diag((S[j0]^2) @ spectrum) S_H^T, the column's
    S_V diag(spectrum @ S[i0]^2) S_V^T, and the cross block
    (S_H S[i0]) @ spectrum^T @ (S_V S[j0])^T, O(N^3) with no N^2 x |Gamma|
    array."""
    d0, d1 = divisions
    j0, i0 = d1 // 2 - 1, d0 // 2 - 1
    spectrum = level.spectrum
    across_row, on_row = _sines([j0], d1)[0], _sines(np.arange(i0, d0 - 1), d0)
    across_column, on_column = _sines([i0], d0)[0], _sines(np.arange(j0 + 1, d1 - 1), d1)
    cross = (on_row * across_column) @ spectrum.T @ (on_column * across_row).T
    capacitance = np.block([
        [(on_row * (across_row**2 @ spectrum)) @ on_row.T, cross],
        [cross.T, (on_column * (spectrum @ across_column**2)) @ on_column.T]])
    keep = np.ones(spectrum.shape, dtype=bool)
    keep[j0:, i0:] = False
    return replace(level, gamma=((across_row, on_row), (across_column, on_column)),
                   capacitance=_dense_inverse(capacitance, False), keep=keep)


def _trig_transform(values: np.ndarray, sine: bool) -> np.ndarray:
    """``y[k] = sum_j x[j] sin(pi j k / n)`` over the interior nodes j, k of
    n divisions (DST-I), or the cosine sum over all nodes (DCT-I), along
    every axis: the rfft of the odd or even extension, of length 2n.  The
    even extension holds the end nodes once and every other node twice, so
    the ends go in doubled."""
    for axis in range(values.ndim):
        x = np.moveaxis(values, axis, -1)
        if sine:
            zero = np.zeros(x.shape[:-1] + (1,))
            extension = np.concatenate([zero, x, zero, -x[..., ::-1]], axis=-1)
            x = -0.5 * np.fft.rfft(extension)[..., 1:-1].imag
        else:
            extension = np.concatenate(
                [2.0 * x[..., :1], x[..., 1:-1], 2.0 * x[..., -1:], x[..., -2:0:-1]], axis=-1)
            x = 0.5 * np.fft.rfft(extension).real
        values = np.moveaxis(x, -1, axis)
    return values


def _transform_solve(level: _Level, r: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = T (spectrum * T r)`` on the node grid, T the level's sine or
    cosine transform: the sine one on the interior nodes, zero elsewhere;
    the cosine one on all nodes, the constant mode removed before and
    after, so it is symmetric with the constants as its kernel.  With a
    capacitance (see ``_capacitance``), r is read on the unknowns only, B r
    on Gamma is read off the sine tables' rows of ``spectrum * T r``, whose
    modes then take those of E lambda, and the result is zeroed off the
    unknowns: still two transforms, and one product with C^-1."""
    spectrum, sine = level.spectrum, level.sine
    if sine:
        interior = (slice(1, -1),) * spectrum.ndim
        x = out.reshape([n + 2 for n in spectrum.shape])
        x[...] = 0.0
        r = r.reshape(x.shape)[interior]
        if level.capacitance is None:
            modes = _trig_transform(r, sine)
            x[interior] = _trig_transform(modes * spectrum, sine)
            return out
        modes = _trig_transform(np.where(level.keep, r, 0.0), sine)
        modes *= spectrum  # the modes of B r
        (across_row, on_row), (across_column, on_column) = level.gamma
        mu = level.capacitance @ np.concatenate(
            [on_row @ (across_row @ modes), on_column @ (modes @ across_column)])  # -lambda
        correction = np.outer(across_row, mu[:len(on_row)] @ on_row)
        correction += np.outer(mu[len(on_row):] @ on_column, across_column)
        correction *= spectrum
        modes -= correction
        np.multiply(_trig_transform(modes, sine), level.keep, out=x[interior])
        return out
    x, r = out.reshape(spectrum.shape), r.reshape(spectrum.shape)
    modes = _trig_transform(r - r.mean(), sine)
    x[...] = _trig_transform(modes * spectrum, sine)
    x -= x.mean()
    return out


def _cycle_buffers(matrix: sp.dia_matrix, levels: tuple[_Level, ...]) -> list[np.ndarray]:
    """One iterate buffer per level of a V-cycle, finest first."""
    return [np.empty(matrix.shape[0])] + [np.empty(level.coarse.shape[0]) for level in levels[:-1]]


def _jacobi_sweep(matrix: sp.dia_matrix, weights: np.ndarray, r: np.ndarray, x: np.ndarray) -> None:
    """``x += weights * (r - matrix @ x)``, reusing the product's array."""
    t = matrix @ x
    np.subtract(r, t, out=t)
    t *= weights
    x += t


def _vcycle(
    matrix: sp.dia_matrix,
    levels: tuple[_Level, ...],
    r: np.ndarray,
    buffers: list[np.ndarray] | None = None,
) -> np.ndarray:
    """One symmetric V-cycle from a zero initial guess: one damped-Jacobi
    sweep before the coarse correction and one after it.
    Each level's iterate is written into its buffer from ``_cycle_buffers``,
    fresh ones when none are given; the finest one is returned, so a solve
    that passes its buffers must use the result before the next cycle."""
    if buffers is None:
        buffers = _cycle_buffers(matrix, levels)
    level, x = levels[0], buffers[0]
    if level.inverse is not None:
        return np.matmul(level.inverse, r, out=x)
    if level.spectrum is not None:
        return _transform_solve(level, r, x)
    np.multiply(level.weights, r, out=x)  # the sweep from zero
    if level.coarse is not None:
        residual = matrix @ x
        np.subtract(r, residual, out=residual)
        coarse_r = level.restrict @ residual
        del residual  # not alive through the coarse recursion
        x += level.prolong @ _vcycle(level.coarse, levels[1:], coarse_r, buffers[1:])
    _jacobi_sweep(matrix, level.weights, r, x)
    return x


def _projection(system: SparseSystem) -> Callable[[np.ndarray], None]:
    """The in-place removal of the constant mode from a vector on the system
    grid, which leaves it alone when the system is regular: the mean over the
    unknowns is subtracted there, and the vector stays zero off them."""
    if not system.needs_projection:
        return lambda v: None
    unknowns = system.unknowns.ravel()
    if unknowns.all():
        return lambda v: np.subtract(v, v.mean(), out=v)
    return lambda v: np.subtract(v, v[unknowns].mean(), out=v, where=unknowns)


def cg_solve(
    system: SparseSystem,
    rhs: np.ndarray,
    rel_tol: float = 1e-10,
    max_iter: int | None = None,
) -> np.ndarray:
    """The one Krylov driver: conjugate gradients preconditioned by one
    geometric-multigrid V-cycle per iteration, or by the exact transform
    solve of a constant-coefficient system's one level, which stops it after
    one step; restarted GMRES, right-preconditioned by the V-cycle of the
    symmetric part, when the system carries a ``symmetric_part``.

    ``rhs`` and the solution live on the system grid; the rhs entries off
    the unknowns are ignored and the solution is zero there.  Zero-mean and
    periodic systems are singular with the constant mode in the kernel; the
    mode is removed from the right-hand side and from every iterate, and the
    returned vector has zero mean over the unknowns.  Each run of the method
    (``_cg`` or ``_gmres``) starts from the iterate and its true residual,
    which the driver then forms again and accepts on.  Raises SolverError
    when the tolerance is not met within ``max_iter`` iterations over all
    runs, or when ``STALL_RESTARTS`` runs in a row leave the true residual
    no lower than the least after an earlier run: it has reached its
    rounding floor above the tolerance.  ``achieved`` is then the projected
    true residual.  Raises ValueError at entry for a ``rel_tol`` that is not
    finite and positive.
    """
    if not (np.isfinite(rel_tol) and rel_tol > 0):
        raise ValueError(f"rel_tol must be finite and positive, got {rel_tol}")
    a = system.matrix
    if np.shape(rhs) != (a.shape[0],):
        raise ValueError(f"rhs shape {np.shape(rhs)} does not match the {a.shape[0]} nodes "
                         "of the system grid")
    b = np.where(system.unknowns.ravel(), rhs, 0.0)
    if max_iter is None:
        max_iter = default_max_iter(system.dimension)
    project = _projection(system)
    project(b)
    norm_b = np.linalg.norm(b)
    x = np.zeros_like(b)
    if norm_b == 0.0:
        return x
    method, run = ("CG", _cg) if system.symmetric_part is None else ("GMRES", _gmres)
    buffers = _cycle_buffers(a, system.hierarchy)
    tol, r, true = rel_tol * norm_b, b.copy(), norm_b  # r: the true residual of x = 0
    used, least, stalls = 0, np.inf, 0  # the least true residual after a run, and runs since
    while used < max_iter:
        used += run(system, x, r, tol, max_iter - used, project, buffers)
        r = b - a @ x
        project(r)
        true = np.linalg.norm(r)
        if true <= tol:
            return x
        # a true residual that no run lowers sits at its rounding floor
        stalls = stalls + 1 if true >= least else 0
        least = min(least, true)
        if stalls == STALL_RESTARTS:
            raise SolverError(f"{method} stalled over {stalls} restarts", float(true / norm_b))
    raise SolverError(f"{method} did not converge in {max_iter} iterations", float(true / norm_b))


def _cg(system: SparseSystem, x: np.ndarray, r: np.ndarray, tol: float, budget: int,
        project: Callable[[np.ndarray], None], buffers: list[np.ndarray]) -> int:
    """Preconditioned CG from ``x`` and its true residual ``r``, both updated
    in place, until the recurrence residual, which drifts from the true one
    over long runs, is at most ``tol`` or ``budget`` iterations are spent;
    returns the iterations."""
    a, levels = system.matrix, system.hierarchy
    z = _vcycle(a, levels, r, buffers)
    p = z.copy()
    rz = float(r @ z)
    for used in range(1, budget + 1):
        ap = a @ p
        alpha = rz / float(p @ ap)
        # both updates scale into the product's array, not a new temporary
        r -= np.multiply(alpha, ap, out=ap)
        x += np.multiply(alpha, p, out=ap)
        project(r)
        project(x)
        if np.linalg.norm(r) <= tol:
            return used
        z = _vcycle(a, levels, r, buffers)
        rz_new = float(r @ z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    return budget


def _gmres(system: SparseSystem, x: np.ndarray, r: np.ndarray, tol: float, budget: int,
           project: Callable[[np.ndarray], None], buffers: list[np.ndarray]) -> int:
    """One cycle of GMRES(``GMRES_RESTART``), at most ``budget`` steps, for
    ``K x = b`` from ``x``, updated in place, and its true residual ``r``;
    returns the steps.  It is right-preconditioned by the V-cycle of the
    symmetric part S of K.  With K = S + N and N skew, the preconditioned
    operator's field of values stays away from zero by a margin set by the
    size of N against S, not by the mesh, so the iteration count does not
    grow under refinement.  The Arnoldi basis is orthogonalised by two passes
    of classical Gram-Schmidt, and the cycle ends early when the rotated
    residual is at most ``tol``."""
    a, levels = system.matrix, system.hierarchy

    def precondition(v):
        z = _vcycle(system.symmetric_part, levels, v, buffers)
        project(z)
        return z

    steps = min(GMRES_RESTART, budget)
    basis = np.empty((steps + 1, len(x)))
    hess = np.zeros((steps, steps))  # upper triangular once rotated
    cos, sin = np.zeros(steps), np.zeros(steps)
    g = np.zeros(steps + 1)  # the rotated residual; |g[k]| is the residual after k steps
    g[0] = np.linalg.norm(r)
    basis[0] = r / g[0]
    k = 0
    while k < steps:
        w = a @ precondition(basis[k])
        project(w)
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
        if abs(g[k]) <= tol or h_next == 0.0:
            break
        basis[k] = w / h_next
    y = np.linalg.solve(hess[:k, :k], g[:k])
    x += precondition(y @ basis[:k])
    return k
