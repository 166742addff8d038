"""Two-scale operator toolbox on epsilon-aligned structured meshes.

For epsilon = 1/N the domain is tiled by cells ``eps*(xi + (0,1)^n)`` with
integer lattice indices xi, and every fine-mesh element lies inside exactly
one cell: the epsilon-lattice is nested in the fine node grid, ``m`` elements
per cell per axis.  The operators read it off that grid by index arithmetic:
T(phi) on cell xi is phi on the cell's block of (m0+1) x (m1+1) fine nodes,
and a node on a face between cells belongs to the cell of the element that
``StructuredMesh.face_rule`` gives it.  The domain is the mesh's ``shape``:
on the L-shape, whose reentrant corner must lie on the cell lattice, the
cells of the removed quadrant, its boundary distance and the lattice nodes
that extrapolate around it are read off the divisions.  The module provides

* ``unfold``             -- T(phi)(xi, y) = phi(eps*(xi + y)) at the nodes
                            y = i/m of the cell,
* ``average``            -- the inverse-direction map (left inverse of T),
* ``cell_means``         -- exact Q1 cell averages M(phi)(xi),
* ``scale_split``        -- slow part Q(phi) (Q1 interpolation over the
                            lattice of forward-cell means) and remainder
                            R(phi) = phi - Q(phi),
* ``boundary_distance``  -- the distance rho to the boundary, in closed form:
                            the nearest box face, and on an L-shape the
                            removed quadrant; exact on the closed active
                            region, at most 0 outside it,
* ``layer_indicator``    -- elements within k*sqrt(n)*eps of the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import (
    ScalarField,
    StructuredMesh,
    active_nodes,
    element_blocks,
    same_mesh,
)


class AlignmentError(ValueError):
    """epsilon is not 1/N or the fine mesh is not nested in the cell lattice."""


def _as_int(value: float, what: str) -> int:
    r = round(value)
    if abs(value - r) > 1e-9:
        raise AlignmentError(f"{what} = {value!r} is not an integer")
    return int(r)


@dataclass(frozen=True, eq=False)
class CellIndexMap:
    """Lattice bookkeeping tying a fine mesh to its epsilon-cell tiling."""

    mesh: StructuredMesh
    n_per_unit: int  # N with epsilon = 1/N
    lo: tuple[int, ...]  # lattice index of the domain corner
    counts: tuple[int, ...]  # cells per axis
    m: tuple[int, ...]  # fine elements per cell per axis
    cells: np.ndarray  # (K, n) absolute lattice indices of active cells
    cell_lookup: np.ndarray  # dense (counts) -> position in cells, -1 inactive

    @property
    def epsilon(self) -> float:
        return 1.0 / self.n_per_unit

    @property
    def dim(self) -> int:
        return self.mesh.dim


def build_cell_map(mesh: StructuredMesh, n_per_unit: int) -> CellIndexMap:
    """Validate epsilon-alignment and enumerate the cells meeting the domain:
    a box, or the L-shape with its reentrant corner on the cell lattice."""
    n = int(n_per_unit)
    if n < 1:
        raise AlignmentError("epsilon must equal 1/N for a positive integer N")
    dim = mesh.dim
    lo, counts, m = [], [], []
    for k in range(dim):
        lo.append(_as_int(mesh.origin[k] * n, "origin/epsilon"))
        counts.append(_as_int(mesh.extent[k] * n, "extent/epsilon"))
        if counts[-1] < 1 or mesh.divisions[k] % counts[-1]:
            raise AlignmentError(
                f"fine divisions {mesh.divisions[k]} are not nested in {counts[-1]} cells"
            )
        m.append(mesh.divisions[k] // counts[-1])
    active = np.ones(counts, dtype=bool)
    if mesh.shape == "l_shape":
        if any(d // 2 % mk for d, mk in zip(mesh.divisions, m)):
            raise AlignmentError("the L-shape's reentrant corner must lie on the cell lattice")
        active[counts[0] // 2:, counts[1] // 2:] = False
    cells = np.argwhere(active) + np.asarray(lo)
    lookup = np.full(tuple(counts), -1, dtype=int)
    lookup[active] = np.arange(len(cells))
    return CellIndexMap(mesh, n, tuple(lo), tuple(counts), tuple(m), cells, lookup)


@dataclass(frozen=True, eq=False)
class UnfoldedField:
    """Per-cell Y-grids of values: (x-cell, y) -> value.  The Y-grid of a
    cell is its block of (m0+1) x (m1+1) fine nodes."""

    map: CellIndexMap
    values: np.ndarray  # (K, m0+1) in 1D, (K, m0+1, m1+1) in 2D, [cell, i0(, i1)]

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        expected = (len(self.map.cells),) + tuple(mk + 1 for mk in self.map.m)
        if vals.shape != expected:
            raise ValueError(f"values shape {vals.shape}, expected {expected}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("unfolded values must be finite")
        object.__setattr__(self, "values", vals)


def unfold(field: ScalarField, cmap: CellIndexMap) -> UnfoldedField:
    """Two-scale unfolding: cell xi's Y-grid holds the nodal values of its
    block of fine nodes, gathered off the node grid by index arithmetic."""
    if not same_mesh(field.mesh, cmap.mesh):
        raise ValueError("field mesh does not match the cell map")
    grid = field.values.reshape(cmap.mesh.nodes_per_axis, order="F")  # [i0, i1]
    # a view of every lattice cell's node block, [xi0, xi1, i0, i1]
    window = sliding_window_view(grid, tuple(mk + 1 for mk in cmap.m))
    blocks = window[tuple(slice(None, None, mk) for mk in cmap.m)]
    return UnfoldedField(cmap, blocks[tuple((cmap.cells - np.asarray(cmap.lo)).T)])


def average(ufield: UnfoldedField) -> ScalarField:
    """Map an unfolded field back to the fine mesh.

    Active node i reads the Y-grid of its owner cell at its integer offset in
    that cell.  The owner is the cell of the node's forward element
    ``min(i, d - 1)``, taken through ``face_rule`` at local coordinate
    ``i - min(i, d - 1)``; composed with ``unfold`` this is the identity.
    """
    cmap = ufield.map
    mesh = cmap.mesh
    nodes = active_nodes(mesh)
    multi = mesh.node_multi_index(nodes)
    forward = np.minimum(multi, np.asarray(mesh.divisions) - 1)
    emulti, local = mesh.face_rule(forward, multi - forward)
    m = np.asarray(cmap.m)
    pos = cmap.cell_lookup[tuple((emulti // m).T)]
    out = np.zeros(mesh.n_nodes)
    out[nodes] = ufield.values[(pos,) + tuple((emulti % m + local).T)]
    return ScalarField(mesh, out)


def cell_means(field: ScalarField, cmap: CellIndexMap) -> np.ndarray:
    """Exact mean of the Q1 field over each active cell (one value per cell)."""
    if not same_mesh(field.mesh, cmap.mesh):
        raise ValueError("field mesh does not match the cell map")
    mesh = cmap.mesh
    # element integrals on the element grid, last axis first, zero where inactive
    integrals = np.zeros(mesh.divisions[::-1])
    for block in element_blocks(mesh):
        # the integral of a Q1 function over an element is vol * mean(corners)
        corner_mean = block.corners(field.values).mean(axis=0)
        integrals[block.box] = float(np.prod(mesh.h)) * corner_mean.reshape(block.shape)
    # each axis, last first, splits into (cells, m); summed over m, axis 0 first
    split = [v for c, mk in zip(cmap.counts[::-1], cmap.m[::-1]) for v in (c, mk)]
    sums = integrals.reshape(split).sum(axis=tuple(range(1, 2 * mesh.dim, 2))).T
    return sums[tuple((cmap.cells - np.asarray(cmap.lo)).T)] / cmap.epsilon ** cmap.dim


def _lattice_values(cmap: CellIndexMap, means: np.ndarray) -> np.ndarray:
    """Per-lattice-node value = mean over the forward cell.

    Nodes whose forward cell leaves the domain (outer top/right rows, and the
    removed quadrant of an L-shape) take a first-order extrapolation from the
    two nearest cells along the axis that exits the domain soonest; a bare
    clamp would perturb the slow part at first order in the boundary ring.
    A node reads only nodes of smaller index sum, so the missing nodes are
    filled in one vectorised sweep per index sum, in ascending order.
    """
    lo = np.asarray(cmap.lo)
    counts = np.asarray(cmap.counts)
    vals = np.full(tuple(counts + 1), np.nan)
    vals[tuple((cmap.cells - lo).T)] = means  # finite, so the rest stays NaN until filled
    half = counts // 2
    missing = np.argwhere(np.isnan(vals))
    sums = missing.sum(axis=1)
    for total in np.unique(sums):
        node = missing[sums == total]
        corner = np.all(node >= half, axis=1, keepdims=True) & (cmap.mesh.shape == "l_shape")
        excess = np.where(node >= counts, node - (counts - 1),
                          np.where(corner, node - (half - 1), np.inf))
        step = np.eye(cmap.dim, dtype=int)[np.argmin(excess, axis=1)]
        below, below2 = node - step, node - 2 * step
        far = np.all(below2 >= 0, axis=1)
        below2[~far] = below[~far]
        vals[tuple(node.T)] = np.where(far, 2.0 * vals[tuple(below.T)] - vals[tuple(below2.T)],
                                       vals[tuple(below.T)])
    return vals


def scale_split(field: ScalarField, cmap: CellIndexMap) -> tuple[ScalarField, ScalarField]:
    """Slow/fast splitting (Q(phi), R(phi)) with R = phi - Q(phi) nodewise.

    Q(phi) is the Q1 interpolation, over the epsilon-lattice, of the nodal
    data ``lattice node xi -> mean of phi over the forward cell``; its
    restriction to the fine mesh is exact because a multilinear function on a
    cell restricts to Q1 data on the nested fine nodes.  Fine node i of an
    axis lies in lattice interval ``left = min(i // m, cells - 1)`` at weight
    ``(i - left*m)/m``, so Q is one 1-D linear interpolation per axis of the
    lattice values, laid out like the node grid (last axis first).
    """
    mesh = cmap.mesh
    q = _lattice_values(cmap, cell_means(field, cmap)).T
    for axis, (m, count) in enumerate(zip(cmap.m[::-1], cmap.counts[::-1])):
        i = np.arange(count * m + 1)
        left = np.minimum(i // m, count - 1)
        t = ((i - left * m) / m).reshape((-1,) + (1,) * (q.ndim - 1 - axis))
        q = (1.0 - t) * np.take(q, left, axis=axis) + t * np.take(q, left + 1, axis=axis)
    qvals = q.ravel()
    q_part = ScalarField(mesh, qvals)
    r_part = ScalarField(mesh, field.values - qvals)
    return q_part, r_part


def boundary_distance(mesh: StructuredMesh, points: np.ndarray) -> np.ndarray:
    """Euclidean distance to the boundary of the active region: exact for
    points of the closed active region, at most 0 outside it.

    It is the nearest box face, and on an L-shape also the distance to the
    removed upper quadrant ``[o + e/2, o + e]``.  The halves of the top and
    right faces that bound that quadrant lie no nearer than the quadrant
    itself, so this is the distance to the six edges of the L.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    o = np.asarray(mesh.origin)
    e = np.asarray(mesh.extent)
    dist = np.full(len(points), np.inf)
    for k, x in enumerate(points.T):
        np.minimum(dist, np.minimum(x - o[k], o[k] + e[k] - x), out=dist)
    if mesh.shape == "l_shape":
        gap = np.maximum(o + e / 2.0 - points, 0.0)
        np.minimum(dist, np.sqrt(gap[:, 0] ** 2 + gap[:, 1] ** 2), out=dist)
    return dist


def layer_indicator(cmap: CellIndexMap, k: int) -> np.ndarray:
    """Flat mask of fine elements whose center lies within k*sqrt(n)*eps of
    the boundary (False on inactive elements), set at each walk block's box
    from the centres that ``block.points`` gives."""
    if k not in (1, 2, 3, 4):
        raise ValueError("layer index k must be in {1, 2, 3, 4}")
    mesh = cmap.mesh
    mask = np.zeros(mesh.divisions[::-1], dtype=bool)
    for block in element_blocks(mesh):
        dist = boundary_distance(mesh, block.points(np.full((1, mesh.dim), 0.5)).reshape(-1, mesh.dim))
        mask[block.box] = (dist < k * np.sqrt(mesh.dim) * cmap.epsilon).reshape(block.shape)
    return mask.ravel()

