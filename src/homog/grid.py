"""Structured axis-aligned meshes with multilinear (Q1) elements.

Meshes are uniform tensor-product grids in 1 or 2 dimensions.  Node
coordinates are never stored: node ``(i0, i1)`` sits at
``origin + (i0*h0, i1*h1)`` and carries the flat index
``i0 + (d0+1)*i1`` (axis 0 varies fastest).  Element ``(e0, e1)`` has the
flat index ``e0 + d0*e1``.  The mesh's ``shape`` is its domain: the box, or
the 2D L-shape, the box with its upper quadrant ``e0 >= d0/2, e1 >= d1/2``
of elements removed.  Everything the L-shape changes, its walk boxes, its
face rule and its element mask, is a closed form in the divisions; no code
decides anything from a mask.

A nodal array reshaped to the node grid, last axis first, keeps the flat node
order, and on it each local corner of all elements in a box of elements is
one shifted slice.  Every element quadrature in the package walks the mesh
through ``element_blocks``: it takes the active elements in boxes
(``walk_boxes``: the box is one, the L-shape two), and cuts each box along
the last axis into blocks of at most ``CHUNK_ELEMENTS`` elements, so no block
holds an inactive element.  A block reads nodal arrays by those slices,
gives their values and gradients, the global points and, by ``sample``, the
one sampler, the checked samples of a function at the quadrature points, and
adds per-corner values back onto the node grid; ``quadrature`` reduces an
integrand, or a stack of them, over all blocks in one walk.  Every element quadrature uses the one
rule ``gauss_rule(dim)``, ``GAUSS_POINTS`` per axis, carried as ``block.rule``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

# largest block of the element walk, unless one row is longer; it bounds the
# walk's temporaries
CHUNK_ELEMENTS = 16384
GAUSS_POINTS = 2  # Gauss-Legendre points per axis of the element quadrature rule
SHAPES = ("box", "l_shape")  # the domains a mesh can have


class OutsideDomainError(ValueError):
    """A point falls outside the (active) mesh domain."""


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Reference-element quadrature: points in [0,1]^n, weights summing to 1,
    and the Q1 shape values and gradients at the points."""

    points: np.ndarray  # (Q, n)
    weights: np.ndarray  # (Q,)
    values: np.ndarray  # (Q, 2^n)
    gradients: np.ndarray  # (Q, 2^n, n)


def gauss_rule(dim: int) -> QuadratureRule:
    """The element quadrature rule: tensor-product Gauss-Legendre on [0,1]^dim
    with ``GAUSS_POINTS`` per axis, read at call time.  Two points per axis
    integrate per-axis cubics exactly."""
    return _gauss_rule(dim, GAUSS_POINTS)


@cache
def _gauss_rule(dim: int, points_per_axis: int) -> QuadratureRule:
    nodes, weights = np.polynomial.legendre.leggauss(points_per_axis)
    # per-axis point indices, axis 0 fastest, matching the node ordering
    grids = np.meshgrid(*[np.arange(points_per_axis)] * dim, indexing="ij")
    index = np.stack([g.ravel(order="F") for g in grids], axis=1)
    pts = 0.5 * (nodes + 1.0)[index]
    w = np.prod((0.5 * weights)[index], axis=1)
    rule = QuadratureRule(pts, w, shape_values(pts), shape_gradients(pts))
    for table in vars(rule).values():
        table.flags.writeable = False
    return rule


@dataclass(frozen=True, eq=False)
class StructuredMesh:
    """Uniform axis-aligned mesh on a box, or on the L-shape (see ``SHAPES``)."""

    origin: tuple[float, ...]
    extent: tuple[float, ...]
    divisions: tuple[int, ...]
    shape: str = "box"

    def __post_init__(self):
        object.__setattr__(self, "origin", tuple(float(v) for v in np.atleast_1d(self.origin)))
        object.__setattr__(self, "extent", tuple(float(v) for v in np.atleast_1d(self.extent)))
        object.__setattr__(self, "divisions", tuple(int(v) for v in np.atleast_1d(self.divisions)))
        if self.dim not in (1, 2):
            raise ValueError(f"only 1D and 2D meshes are supported, got dim={self.dim}")
        if any(d < 1 for d in self.divisions):
            raise ValueError(f"divisions must be >= 1 per axis, got {self.divisions}")
        if any(e <= 0 for e in self.extent):
            raise ValueError(f"extent must be positive per axis, got {self.extent}")
        if self.shape not in SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}")
        if self.shape == "l_shape" and self.dim != 2:
            raise ValueError("l_shape requires a 2D mesh")
        if self.shape == "l_shape" and any(d % 2 for d in self.divisions):
            raise ValueError("l_shape requires even divisions per axis")

    @property
    def active_mask(self) -> np.ndarray | None:
        """Flat bool per element, True = active: None on the box, and on the
        L-shape False on the removed quadrant."""
        if self.shape == "box":
            return None
        mask = np.zeros(self.divisions[::-1], dtype=bool)
        for box in walk_boxes(self.divisions[::-1], self.shape):
            mask[box] = True
        return mask.ravel()

    @property
    def dim(self) -> int:
        return len(self.divisions)

    @property
    def h(self) -> np.ndarray:
        return np.asarray(self.extent) / np.asarray(self.divisions)

    @property
    def n_nodes(self) -> int:
        return int(np.prod([d + 1 for d in self.divisions]))

    @property
    def n_elements(self) -> int:
        return int(np.prod(self.divisions))

    @property
    def nodes_per_axis(self) -> tuple[int, ...]:
        return tuple(d + 1 for d in self.divisions)

    def active_elements(self) -> np.ndarray:
        """Flat indices of active elements, in increasing order."""
        if self.active_mask is None:
            return np.arange(self.n_elements)
        return np.flatnonzero(self.active_mask)

    def element_multi_index(self, elems: np.ndarray) -> np.ndarray:
        """Flat element index -> (E, dim) integer multi-index."""
        return np.stack(np.unravel_index(elems, self.divisions, order="F"), axis=1)

    def element_flat_index(self, multi: np.ndarray) -> np.ndarray:
        """(..., dim) integer multi-index -> flat element index."""
        return np.ravel_multi_index(np.moveaxis(np.asarray(multi), -1, 0), self.divisions, order="F")

    def node_flat_index(self, multi: np.ndarray) -> np.ndarray:
        return np.ravel_multi_index(np.moveaxis(np.asarray(multi), -1, 0), self.nodes_per_axis, order="F")

    def node_multi_index(self, nodes: np.ndarray) -> np.ndarray:
        return np.stack(np.unravel_index(nodes, self.nodes_per_axis, order="F"), axis=1)

    def node_coordinates(self, nodes: np.ndarray | None = None) -> np.ndarray:
        """Coordinates of the given flat node indices (all nodes if None)."""
        if nodes is None:
            nodes = np.arange(self.n_nodes)
        multi = self.node_multi_index(np.asarray(nodes))
        return np.asarray(self.origin) + multi * self.h

    def element_nodes(self, elems: np.ndarray) -> np.ndarray:
        """Corner node indices of each element, axis-0-fastest local order.

        2D local order: (0,0), (1,0), (0,1), (1,1).
        """
        multi = self.element_multi_index(elems)
        return np.stack([self.node_flat_index(multi + c) for c in _corner_offsets(self.dim)], axis=1)

    def element_origin(self, elems: np.ndarray) -> np.ndarray:
        multi = self.element_multi_index(np.asarray(elems))
        return np.asarray(self.origin) + multi * self.h

    def locate(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Containing element and local [0,1]^n coordinate for each point.

        Points on element faces resolve to the forward element (half-open
        convention); the far domain boundary clamps to the last element.  The
        floored element then goes through ``face_rule``.  Raises
        OutsideDomainError outside the bounding box.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        h = self.h
        rel = (points - np.asarray(self.origin)) / h
        div = np.asarray(self.divisions)
        tol = 1e-12 * np.maximum(1.0, np.abs(rel).max()) if rel.size else 0.0
        if np.any(rel < -tol) or np.any(rel > div + tol):
            raise OutsideDomainError("point outside mesh bounding box")
        emulti = np.clip(np.floor(rel).astype(int), 0, div - 1)
        emulti, local = self.face_rule(emulti, rel - emulti)
        return self.element_flat_index(emulti), local

    def face_rule(self, emulti: np.ndarray, local: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The one rule for which active element a point on a face belongs to:
        a (P, n) element multi-index in the L-shape's removed quadrant is taken
        back across the face x0 = d0/2 where the point at ``local`` lies on
        it, else across x1 = d1/2, or raises OutsideDomainError.  Updates both
        arrays in place; integer local coordinates, as ``unfold.average``
        passes for nodes, stay exact."""
        if self.shape == "box":
            return emulti, local
        half = np.asarray(self.divisions) // 2
        bad = np.flatnonzero(np.all(emulti >= half, axis=1))
        for k in range(self.dim):
            loc = local[bad]
            loc[:, k] += 1
            take = (emulti[bad, k] == half[k]) & np.all((loc >= -1e-12) & (loc <= 1.0 + 1e-12), axis=1)
            emulti[bad[take], k] -= 1
            local[bad[take]] = np.clip(loc[take], 0, 1)
            bad = bad[~take]
        if len(bad):
            raise OutsideDomainError("point outside the active region")
        return emulti, local


def same_mesh(a: StructuredMesh, b: StructuredMesh) -> bool:
    """Structural mesh equality: geometry, divisions and shape."""
    return (a.origin, a.extent, a.divisions, a.shape) == (b.origin, b.extent, b.divisions, b.shape)


def build_mesh(origin, extent, divisions, shape: str = "box") -> StructuredMesh:
    """Build a box or L-shaped mesh (L-shape: upper-right quadrant removed)."""
    return StructuredMesh(origin, extent, divisions, shape)


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Nodal values of a Q1 function, one value per mesh node."""

    mesh: StructuredMesh
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.mesh.n_nodes,):
            raise ValueError(
                f"values shape {vals.shape} does not match node count {self.mesh.n_nodes}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must all be finite")
        object.__setattr__(self, "values", vals)


def shape_values(local: np.ndarray) -> np.ndarray:
    """Q1 shape functions at local coordinates: (P, n) -> (P, 2^n).

    Corner a (``_corner_offsets`` order) is the product, over the axes k in
    order, of t_k where bit k of a is set and 1 - t_k elsewhere."""
    return _corner_products(np.atleast_2d(local))


def shape_gradients(local: np.ndarray) -> np.ndarray:
    """Q1 shape gradients w.r.t. local coordinates: (P, n) -> (P, 2^n, n).
    Along axis d the factor of axis d is -1 or +1 instead."""
    local = np.atleast_2d(local)
    return np.stack([_corner_products(local, d) for d in range(local.shape[1])], axis=2)


def _corner_products(local: np.ndarray, derivative: int | None = None) -> np.ndarray:
    """(P, 2^n) corner products of ``shape_values``, differentiated along
    axis ``derivative`` if given."""
    factors = [(1.0 - t, t) for t in local.T]  # per axis: bit clear, bit set
    if derivative is not None:
        factors[derivative] = (np.full(len(local), -1.0), np.ones(len(local)))
    return np.stack([math.prod(f[bit] for f, bit in zip(factors, offset))
                     for offset in _corner_offsets(local.shape[1])], axis=1)


def _corner_offsets(dim: int) -> list[tuple[int, ...]]:
    """Node offset of each local element corner, axis 0 varying fastest."""
    return [tuple((a >> k) & 1 for k in range(dim)) for a in range(2**dim)]


@dataclass(frozen=True, eq=False)
class ElementBlock:
    """A box of active elements: ``shape`` elements per axis from element
    ``first``, both last mesh axis first; ``box`` is its slices of the element
    grid in that layout.  Per-element arrays run over its elements in flat
    order: (E, ...), or (2^n, E) for corner values, and per-point arrays over
    the points of ``rule``."""

    mesh: StructuredMesh
    first: tuple[int, ...]
    shape: tuple[int, ...]
    rule: QuadratureRule

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @property
    def box(self) -> tuple[slice, ...]:
        return tuple(slice(f, f + n) for f, n in zip(self.first, self.shape))

    def _corner_slices(self):
        """Per local corner (``shape_values`` order), the node-grid slices at
        that corner of every element."""
        for offset in _corner_offsets(self.mesh.dim):
            yield tuple(slice(f + c, f + c + m) for f, c, m in zip(self.first, offset[::-1], self.shape))

    def points(self, local: np.ndarray | None = None) -> np.ndarray:
        """Global coordinates of the (Q, n) local points in every element, the
        quadrature points by default: (E, Q, n), broadcast from the per-axis
        element indices."""
        mesh, dim = self.mesh, self.mesh.dim
        local = self.rule.points if local is None else local
        out = np.empty((self.size, len(local), dim))
        grid = out.reshape(self.shape + out.shape[1:])
        for k in range(dim):
            axis = dim - 1 - k  # of mesh axis k in the block shape
            index = np.arange(self.first[axis], self.first[axis] + self.shape[axis])
            coord = (mesh.origin[k] + index * mesh.h[k])[:, None] + local[:, k] * mesh.h[k]
            grid[..., k] = coord.reshape(coord.shape[:1] + (1,) * k + coord.shape[1:])
        return out

    def sample(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """A function of (P, n) points, returning (P, ...) values, at the
        quadrature points: (E, Q, ...), so (E, Q) for scalars.  The one
        quadrature-point sampler; a non-finite sample raises ValueError."""
        vals = np.asarray(f(self.points().reshape(-1, self.mesh.dim)), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("function returned a non-finite sample")
        return vals.reshape((self.size, len(self.rule.weights)) + vals.shape[1:])

    def corners(self, nodal: np.ndarray) -> np.ndarray:
        """Values of a nodal array at the element corners: (2^n, E), each
        corner's node-grid slice copied once into its row."""
        grid = np.asarray(nodal).reshape(self.mesh.nodes_per_axis[::-1])
        out = np.empty((2**self.mesh.dim, self.size), dtype=grid.dtype)
        for row, nodes in zip(out, self._corner_slices()):
            row.reshape(self.shape)[...] = grid[nodes]
        return out

    def values(self, nodal: np.ndarray) -> np.ndarray:
        """Q1 values of a nodal array at the quadrature points: (E, Q)."""
        return self.corners(nodal).T @ self.rule.values.T

    def gradients(self, nodal: np.ndarray) -> np.ndarray:
        """Q1 gradients of a nodal array at the quadrature points: (E, Q, n),
        one product of the corner values with the rule's gradient table, as
        ``values``."""
        return self._gradients(self.corners(nodal).T)

    def values_and_gradients(self, nodal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``values`` and ``gradients`` of a nodal array, bitwise, from one
        ``corners`` gather."""
        corners = self.corners(nodal).T
        return corners @ self.rule.values.T, self._gradients(corners)

    def _gradients(self, corners: np.ndarray) -> np.ndarray:
        table = (self.rule.gradients / self.mesh.h).transpose(1, 0, 2)  # (2^n, Q, n)
        product = corners @ table.reshape(len(table), -1)
        return product.reshape((self.size,) + table.shape[1:])

    def times_periodic(self, factor: np.ndarray, pattern: np.ndarray, period) -> np.ndarray:
        """``factor`` (E, ...) times a per-element pattern that repeats every
        ``period`` elements along each axis from element 0, given on one
        period in flat element order.  The pattern's rows are picked by row
        index mod period and broadcast along the block, not tiled; along the
        other axes the block must start and end on period boundaries, or
        ValueError is raised."""
        m = tuple(period)[::-1]
        rows = pattern.reshape(m + pattern.shape[1:])[
            np.arange(self.first[0], self.first[0] + self.shape[0]) % m[0]]
        tiles = self.shape[:1]
        for first, count, period_k in zip(self.first[1:], self.shape[1:], m[1:]):
            if first % period_k or count % period_k:
                raise ValueError(f"a block of {count} elements from {first} is not whole "
                                 f"periods of {period_k}")
            rows = np.expand_dims(rows, len(tiles))
            tiles += (count // period_k, period_k)
        product = factor.reshape(tiles + factor.shape[1:]) * rows
        return product.reshape((self.size,) + product.shape[len(tiles):])

    def add_to_nodes(self, target: np.ndarray, values: np.ndarray) -> None:
        """Add per-corner values (2^n, E) onto the node grid ``target``, one
        array-slice add per corner."""
        values = values.reshape(values.shape[:-1] + self.shape)
        for a, nodes in enumerate(self._corner_slices()):
            target[nodes] += values[a]


def walk_boxes(grid: tuple[int, ...], shape: str = "box") -> list[tuple[slice, ...]]:
    """Slices of the disjoint boxes that together cover the active cells of
    a grid of that shape, given last axis first, in walk order: the whole
    grid on a box; on the L-shape the lower half, then the upper left
    quarter."""
    if shape == "box":
        return [tuple(slice(0, n) for n in grid)]
    n1, n0 = grid
    return [(slice(0, n1 // 2), slice(0, n0)), (slice(n1 // 2, n1), slice(0, n0 // 2))]


def element_blocks(mesh: StructuredMesh):
    """Walk the active elements in boxes of them (``walk_boxes``), each cut
    along the last axis into blocks of at most ``CHUNK_ELEMENTS`` elements,
    or one row."""
    rule = gauss_rule(mesh.dim)
    for box in walk_boxes(mesh.divisions[::-1], mesh.shape):
        inner = tuple(s.stop - s.start for s in box[1:])
        step = max(1, CHUNK_ELEMENTS // math.prod(inner))
        for start in range(box[0].start, box[0].stop, step):
            stop = min(start + step, box[0].stop)
            yield ElementBlock(mesh, (start,) + tuple(s.start for s in box[1:]),
                               (stop - start,) + inner, rule)


def eval_field_batch(field: ScalarField, points: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of nodal values at many points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    elems, local = field.mesh.locate(points)
    corner = field.values[field.mesh.element_nodes(elems)]
    return np.einsum("pa,pa->p", shape_values(local), corner)


def eval_gradient_batch(field: ScalarField, points: np.ndarray) -> np.ndarray:
    """Gradient of the Q1 interpolant at many (element-interior) points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    elems, local = field.mesh.locate(points)
    corner = field.values[field.mesh.element_nodes(elems)]
    grads = shape_gradients(local) / field.mesh.h
    return np.einsum("pad,pa->pd", grads, corner)


def quadrature(mesh: StructuredMesh, sample: Callable[[ElementBlock], np.ndarray]) -> float | list[float]:
    """Quadrature over the active region of the integrand values
    ``sample(block)`` at each block's quadrature points: (E, Q) values give
    the integral, and a (K, E, Q) stack the list of K integrals from one
    walk, each bitwise the integral of its values alone."""
    total = sum(np.sum(sample(block) @ block.rule.weights, axis=-1) for block in element_blocks(mesh))
    return (np.prod(mesh.h) * total).tolist()


def integrate(mesh: StructuredMesh, integrand: Callable[[np.ndarray], np.ndarray]) -> float:
    """Quadrature of ``integrand`` over the active region, sampled one block
    of elements at a time by ``ElementBlock.sample``."""
    return quadrature(mesh, lambda block: block.sample(integrand))


def integrate_field(field: ScalarField) -> float:
    """Exact integral of the Q1 field over the active region."""
    return quadrature(field.mesh, lambda block: block.values(field.values))


def l2_norm_sq(field: ScalarField) -> float:
    """Squared L2 norm of the Q1 field over the active region."""
    return quadrature(field.mesh, lambda block: block.values(field.values) ** 2)


def h1_seminorm_sq(field: ScalarField) -> float:
    """Squared L2 norm of the gradient of the Q1 field over the active region."""
    return quadrature(field.mesh, lambda block: squared_lengths(block.gradients(field.values)))


def squared_lengths(vectors: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean lengths over the last axis, components added in order, into ``out`` if given."""
    total = np.square(vectors[..., 0], out=out)
    for d in range(1, vectors.shape[-1]):
        total += vectors[..., d] ** 2
    return total


def element_counts(mesh: StructuredMesh) -> np.ndarray:
    """Number of active elements that touch each node."""
    counts = np.zeros(mesh.nodes_per_axis[::-1])
    for block in element_blocks(mesh):
        block.add_to_nodes(counts, np.ones((2**mesh.dim, block.size)))
    return counts.ravel()


def boundary_nodes(mesh: StructuredMesh) -> np.ndarray:
    """Nodes on the boundary of the active region (outer box and, for
    L-shaped meshes, the reentrant edges): those touched by fewer than 2^n
    active elements."""
    counts = element_counts(mesh)
    return np.flatnonzero((counts > 0) & (counts < 2**mesh.dim))


def active_nodes(mesh: StructuredMesh) -> np.ndarray:
    """Nodes belonging to at least one active element."""
    return np.flatnonzero(element_counts(mesh))
