import numpy as np
import pytest

from homog.grid import (
    ScalarField,
    StructuredMesh,
    active_nodes,
    build_mesh,
    element_blocks,
    eval_field_batch,
    integrate_field,
    same_mesh,
)
from homog.unfold import (
    AlignmentError,
    UnfoldedField,
    _lattice_values,
    boundary_distance,
    build_cell_map,
    cell_means,
    average,
    layer_indicator,
    scale_split,
    unfold,
)


def nodal(mesh, f):
    return ScalarField(mesh, f(mesh.node_coordinates()))


def unit_mesh(div, shape="box"):
    return build_mesh((0.0, 0.0), (1.0, 1.0), (div, div), shape)


def _containing_cell_oracle(cmap, point):
    """Point-by-point statement of the containing-cell rule for x/eps,
    including the cell behind two faces at once, which ``locate`` leaves out
    (it is never needed on an L-shape)."""
    lo, counts = np.asarray(cmap.lo), np.asarray(cmap.counts)
    active = {tuple(c) for c in cmap.cells}
    cell = np.clip(np.floor(point).astype(int), lo, lo + counts - 1)
    if tuple(cell) in active:
        return cell
    on_face = [k for k in range(2) if point[k] == cell[k]]
    candidates = [[k] for k in on_face] + ([on_face] if len(on_face) > 1 else [])
    for axes in candidates:
        cand = cell.copy()
        cand[axes] -= 1
        if tuple(cand) in active:
            return cand
    edge = lo + counts // 2 - 1
    axis = int(np.argmin(cell - edge))
    cell[axis] = edge[axis]
    return cell


@pytest.mark.parametrize("n", [4, 8])
def test_average_reads_the_containing_cell_on_l_shape(n):
    # a distinct constant per cell: every active node reads the constant of
    # the cell that the pointwise rule assigns it
    mesh = unit_mesh(4 * n, "l_shape")
    cmap = build_cell_map(mesh, n)
    r = cmap.m[0]
    consts = np.arange(1.0, len(cmap.cells) + 1.0)
    out = average(UnfoldedField(cmap, np.repeat(consts, (r + 1) ** 2).reshape(-1, r + 1, r + 1)))
    nodes = active_nodes(mesh)
    owner = np.array([_containing_cell_oracle(cmap, p) for p in mesh.node_coordinates(nodes) * n])
    expected = consts[cmap.cell_lookup[tuple((owner - np.asarray(cmap.lo)).T)]]
    np.testing.assert_array_equal(out.values[nodes], expected)


# non-dyadic meshes, where i*h/h rounds below i for some node indices i
NODE_CASES = [(18, 8, "box"), (18, 8, "l_shape"), (6, 31, "box"), (6, 31, "l_shape")]


def _integer_owner(cmap, node):
    """The owner cell of a node, from its integer multi-index alone: the
    forward cell, clamped at the far side; if that cell is inactive, the
    active cell behind a face the node lies on, axis 0 first."""
    m, counts = cmap.m, cmap.counts
    forward = [min(i // mk, c - 1) for i, mk, c in zip(node, m, counts)]
    if cmap.cell_lookup[tuple(forward)] >= 0:
        return cmap.cell_lookup[tuple(forward)]
    for k in range(cmap.dim):
        behind = list(forward)
        behind[k] -= 1
        if node[k] == forward[k] * m[k] and behind[k] >= 0 and cmap.cell_lookup[tuple(behind)] >= 0:
            return cmap.cell_lookup[tuple(behind)]
    raise AssertionError(f"active node {node} has no active owner cell")


@pytest.mark.parametrize("n,m,shape", NODE_CASES)
def test_average_reads_the_integer_owner_cell(n, m, shape):
    # a distinct constant per cell: every active node reads the constant of
    # the cell that its integer multi-index assigns it
    mesh = unit_mesh(n * m, shape)
    cmap = build_cell_map(mesh, n)
    consts = np.arange(1.0, len(cmap.cells) + 1.0)
    out = average(UnfoldedField(cmap, np.repeat(consts, (m + 1) ** 2).reshape(-1, m + 1, m + 1)))
    nodes = active_nodes(mesh)
    owner = [_integer_owner(cmap, node) for node in mesh.node_multi_index(nodes).tolist()]
    np.testing.assert_array_equal(out.values[nodes], consts[owner])


@pytest.mark.parametrize("n,m,shape", NODE_CASES)
def test_unfold_is_the_cell_node_blocks(n, m, shape):
    mesh = unit_mesh(n * m, shape)
    cmap = build_cell_map(mesh, n)
    field = ScalarField(mesh, np.random.default_rng(n).standard_normal(mesh.n_nodes))
    values = unfold(field, cmap).values
    assert values.shape == (len(cmap.cells), m + 1, m + 1)
    offsets = np.stack(np.meshgrid(np.arange(m + 1), np.arange(m + 1), indexing="ij"), axis=-1)
    for k, cell in enumerate(cmap.cells - np.asarray(cmap.lo)):
        # [i0, i1] -> the value at node cell * m + (i0, i1)
        np.testing.assert_array_equal(values[k], field.values[mesh.node_flat_index(cell * m + offsets)])


@pytest.mark.parametrize("n,m,shape", NODE_CASES + [(6, 31, "interval")])
def test_average_of_unfold_is_bitwise_the_field(n, m, shape):
    if shape == "interval":
        mesh = build_mesh((0.0,), (1.0,), (n * m,))
    else:
        mesh = unit_mesh(n * m, shape)
    cmap = build_cell_map(mesh, n)
    field = ScalarField(mesh, np.random.default_rng(m).standard_normal(mesh.n_nodes))
    nodes = active_nodes(mesh)
    back = average(unfold(field, cmap))
    np.testing.assert_array_equal(back.values[nodes], field.values[nodes])


def _cell_map_reference(mesh, n):
    """cells and cell_lookup by a loop over the elements: a cell is active
    unless one of its elements is inactive; cells in lattice order."""
    lo = np.rint(np.asarray(mesh.origin) * n).astype(int)
    counts = np.rint(np.asarray(mesh.extent) * n).astype(int)
    m = np.asarray(mesh.divisions) // counts
    inactive = set()
    for e in range(mesh.n_elements):
        if mesh.active_mask is not None and not mesh.active_mask[e]:
            multi = np.unravel_index(e, mesh.divisions, order="F")
            inactive.add(tuple(int(i) // int(mk) for i, mk in zip(multi, m)))
    cells = [c for c in np.ndindex(*counts) if c not in inactive]
    lookup = np.full(tuple(counts), -1)
    for k, c in enumerate(cells):
        lookup[c] = k
    return np.array(cells) + lo, lookup


def test_cell_map_counts_and_alignment():
    cmap = build_cell_map(unit_mesh(16), 4)
    assert len(cmap.cells) == 16
    assert cmap.m == (4, 4)
    with pytest.raises(AlignmentError):
        build_cell_map(unit_mesh(10), 4)  # 10 not divisible by 4
    lmesh = build_mesh((0, 0), (1, 1), (16, 16), "l_shape")
    lmap = build_cell_map(lmesh, 4)
    assert len(lmap.cells) == 12  # upper-right quadrant cells inactive
    with pytest.raises(AlignmentError):
        # odd cell count: the reentrant corner falls mid-cell
        build_cell_map(build_mesh((0, 0), (1, 1), (12, 12), "l_shape"), 3)
    for mesh, n in [
        (build_mesh((0.0,), (1.0,), (16,)), 4),
        (unit_mesh(16), 4),
        (lmesh, 4),
        (build_mesh((-0.5, 0.25), (1.0, 0.5), (32, 16), "l_shape"), 8),
    ]:
        cmap = build_cell_map(mesh, n)
        cells, lookup = _cell_map_reference(mesh, n)
        np.testing.assert_array_equal(cmap.cells, cells)
        np.testing.assert_array_equal(cmap.cell_lookup, lookup)


def test_unfold_constant_and_affine():
    mesh = unit_mesh(8)
    cmap = build_cell_map(mesh, 2)
    const = ScalarField(mesh, np.full(mesh.n_nodes, 2.5))
    uf = unfold(const, cmap)
    assert np.all(uf.values == 2.5)

    f = nodal(mesh, lambda x: x[:, 0])
    uf = unfold(f, cmap)
    # cell xi=(1,0), y=(0.5, anything) -> eps*(1+0.5) = 0.75
    pos = int(cmap.cell_lookup[1, 0])
    np.testing.assert_allclose(uf.values[pos][2, :], 0.75, atol=1e-13)


@pytest.mark.parametrize("shape,n", [("box", 4), ("l_shape", 4)])
def test_unfolding_integration_identity(shape, n):
    rng = np.random.default_rng(11)
    mesh = unit_mesh(16, shape)
    cmap = build_cell_map(mesh, n)
    field = ScalarField(mesh, rng.standard_normal(mesh.n_nodes))
    m = cmap.m[0]
    uf = unfold(field, cmap)
    # per-cell Y-integral of the Q1 grid, then (1/|Y|) sum_cells eps^n * (...)
    eps = cmap.epsilon
    total = 0.0
    ymesh = build_mesh((0, 0), (1, 1), (m, m), "box")
    for k in range(len(cmap.cells)):
        yfield = ScalarField(ymesh, uf.values[k].reshape(-1, order="C")[_flat_order(m)])
        total += eps**2 * integrate_field(yfield)
    direct = integrate_field(field)
    assert total == pytest.approx(direct, abs=1e-12)


def _flat_order(m):
    # UnfoldedField stores [i0, i1]; ScalarField wants i0 + (m+1)*i1
    idx = np.arange((m + 1) ** 2)
    i0, i1 = idx % (m + 1), idx // (m + 1)
    return i0 * (m + 1) + i1


@pytest.mark.parametrize("shape", ["box", "l_shape"])
def test_average_unfold_identity(shape):
    rng = np.random.default_rng(3)
    mesh = unit_mesh(16, shape)
    cmap = build_cell_map(mesh, 4)
    field = ScalarField(mesh, rng.standard_normal(mesh.n_nodes))
    if shape == "l_shape":
        from homog.grid import active_nodes

        vals = np.zeros(mesh.n_nodes)
        act = active_nodes(mesh)
        vals[act] = field.values[act]
        field = ScalarField(mesh, vals)
    back = average(unfold(field, cmap))
    assert np.abs(back.values - field.values).max() <= 1e-13


def test_average_of_pure_oscillation():
    mesh = unit_mesh(16)
    cmap = build_cell_map(mesh, 4)
    g = lambda y: np.sin(2 * np.pi * y[..., 0]) + y[..., 1] ** 2
    r = 4
    axes = np.arange(r + 1) / r
    g0, g1 = np.meshgrid(axes, axes, indexing="ij")
    ygrid = np.stack([g0, g1], axis=-1)
    vals = np.broadcast_to(g(ygrid), (len(cmap.cells), r + 1, r + 1))
    uf = UnfoldedField(cmap, np.array(vals))
    out = average(uf)
    x = mesh.node_coordinates()
    rel = x / cmap.epsilon
    y = rel - np.floor(rel)
    # nodes on the far boundary evaluate at y=1 rather than wrapping to 0
    y = np.where((y == 0) & (rel == 4), 1.0, y)
    np.testing.assert_allclose(out.values, g(y), atol=1e-12)


def test_cell_means_examples():
    mesh = unit_mesh(16)
    cmap = build_cell_map(mesh, 4)
    const = ScalarField(mesh, np.full(mesh.n_nodes, 3.25))
    np.testing.assert_allclose(cell_means(const, cmap), 3.25, atol=1e-13)

    f = nodal(mesh, lambda x: x[:, 0])
    means = cell_means(f, cmap)
    pos = int(cmap.cell_lookup[0, 0])
    assert means[pos] == pytest.approx(0.125, abs=1e-14)


def test_cell_mean_of_interpolant_quadratic():
    # mean over cell (0, .) of the Q1 interpolant of x0^2: the interpolant
    # exceeds x0^2 by h^2/6 on average within each element column
    mesh = unit_mesh(8)
    cmap = build_cell_map(mesh, 2)
    f = nodal(mesh, lambda x: x[:, 0] ** 2)
    means = cell_means(f, cmap)
    h = 1.0 / 8.0
    expected = 1.0 / 12.0 + h**2 / 6.0
    pos = int(cmap.cell_lookup[0, 0])
    assert means[pos] == pytest.approx(expected, abs=1e-14)


def test_scale_split_constant_and_affine():
    mesh = unit_mesh(32)
    cmap = build_cell_map(mesh, 8)
    const = ScalarField(mesh, np.full(mesh.n_nodes, 1.5))
    q, r = scale_split(const, cmap)
    np.testing.assert_allclose(q.values, 1.5, atol=1e-13)
    np.testing.assert_allclose(r.values, 0.0, atol=1e-13)

    f = nodal(mesh, lambda x: 2.0 * x[:, 0] - 0.5 * x[:, 1] + 0.25)
    q, r = scale_split(f, cmap)
    from homog.grid import eval_gradient_batch

    pts = np.array([[0.3, 0.3], [0.55, 0.2], [0.2, 0.8]])
    grads = eval_gradient_batch(q, pts)
    np.testing.assert_allclose(grads, [[2.0, -0.5]] * 3, atol=1e-12)
    # away from the mirrored boundary ring the remainder of an affine
    # function is the constant half-cell shift
    eps = cmap.epsilon
    coords = mesh.node_coordinates()
    interior = np.all(coords <= 1.0 - eps, axis=1)
    dev = np.abs(r.values[interior] - (-(2.0 - 0.5) * eps / 2)).max()
    assert dev <= 1e-12


LATTICE_CASES = [
    ((0.0,), (1.0,), (32,), 8, "box"),
    ((0.0, 0.0), (1.0, 1.0), (32, 32), 4, "box"),
    ((0.0, 0.0), (1.0, 1.0), (32, 32), 4, "l_shape"),
    ((-0.5, 0.25), (1.0, 0.5), (32, 16), 8, "l_shape"),
    ((0.0, 0.0), (1.0, 1.0), (256, 256), 128, "l_shape"),
]


def _lattice_values_by_node(cmap, means):
    """The node-by-node fill that ``_lattice_values`` vectorises: missing
    nodes in lexicographic order (as ``argwhere`` lists them), each
    extrapolated along the axis that exits the domain soonest."""
    counts = np.asarray(cmap.counts)
    vals = np.full(tuple(counts + 1), np.nan)
    vals[tuple((cmap.cells - np.asarray(cmap.lo)).T)] = means
    half = counts // 2
    for node in np.argwhere(np.isnan(vals)):
        excess = np.full(cmap.dim, np.inf)
        for k in range(cmap.dim):
            if node[k] >= counts[k]:
                excess[k] = node[k] - (counts[k] - 1)
            elif cmap.mesh.active_mask is not None and np.all(node >= half):
                excess[k] = node[k] - (half[k] - 1)
        axis = int(np.argmin(excess))
        below, below2 = node.copy(), node.copy()
        below[axis] -= 1
        below2[axis] -= 2
        if below2[axis] >= 0:
            vals[tuple(node)] = 2.0 * vals[tuple(below)] - vals[tuple(below2)]
        else:
            vals[tuple(node)] = vals[tuple(below)]
    return vals


@pytest.mark.parametrize("origin,extent,divisions,n,shape", LATTICE_CASES)
def test_lattice_values_match_the_node_by_node_fill(origin, extent, divisions, n, shape):
    cmap = build_cell_map(build_mesh(origin, extent, divisions, shape), n)
    means = np.random.default_rng(2).standard_normal(len(cmap.cells))
    np.testing.assert_array_equal(_lattice_values(cmap, means), _lattice_values_by_node(cmap, means))


@pytest.mark.parametrize("origin,extent,divisions,n,shape", LATTICE_CASES)
def test_scale_split_is_the_lattice_interpolant(origin, extent, divisions, n, shape):
    # Q at every node is the Q1 field on the lattice box mesh (one element per
    # cell) holding the lattice values, evaluated by point location
    mesh = build_mesh(origin, extent, divisions, shape)
    cmap = build_cell_map(mesh, n)
    field = ScalarField(mesh, np.random.default_rng(5).standard_normal(mesh.n_nodes))
    q, r = scale_split(field, cmap)
    lattice = _lattice_values(cmap, cell_means(field, cmap))
    lattice_field = ScalarField(build_mesh(origin, extent, cmap.counts), lattice.ravel(order="F"))
    expected = eval_field_batch(lattice_field, mesh.node_coordinates())
    assert np.abs(q.values - expected).max() <= 1e-14 * np.abs(expected).max()
    np.testing.assert_array_equal(r.values, field.values - q.values)


def _cell_means_by_element(field, cmap):
    """Cell means by the per-element formula: each element's integral added
    to the position of its cell with ``bincount``."""
    mesh = cmap.mesh
    means = np.zeros(len(cmap.cells))
    for block in element_blocks(mesh):
        elem_int = float(np.prod(mesh.h)) * block.corners(field.values).mean(axis=0)
        elems = np.arange(mesh.n_elements).reshape(mesh.divisions[::-1])[block.box].ravel()
        local = mesh.element_multi_index(elems) // np.asarray(cmap.m)
        pos = cmap.cell_lookup[tuple(local.T)]
        means += np.bincount(pos, weights=elem_int, minlength=len(means))
    return means / cmap.epsilon ** cmap.dim


@pytest.mark.parametrize("origin,extent,divisions,n,shape", LATTICE_CASES + [
    ((0.0, 0.0), (1.0, 1.0), (n * m, n * m), n, shape) for n, m, shape in NODE_CASES])
def test_cell_means_match_the_per_element_formula(origin, extent, divisions, n, shape):
    # box, L-shape and non-dyadic meshes; the sums run in another order
    cmap = build_cell_map(build_mesh(origin, extent, divisions, shape), n)
    mesh = cmap.mesh
    field = ScalarField(mesh, np.random.default_rng(8).standard_normal(mesh.n_nodes) + 1.0)
    want = _cell_means_by_element(field, cmap)
    got = cell_means(field, cmap)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_gradient_exchange():
    # d/dy of the unfolded field equals eps * (unfolded gradient) pointwise
    mesh = unit_mesh(32)
    cmap = build_cell_map(mesh, 8)
    f = nodal(mesh, lambda x: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]))
    m = cmap.m[0]
    uf = unfold(f, cmap)
    eps = cmap.epsilon
    ymesh = build_mesh((0, 0), (1, 1), (m, m), "box")
    from homog.grid import eval_gradient_batch

    rng = np.random.default_rng(0)
    ypts = rng.uniform(0.1, 0.9, size=(5, 2))
    worst = 0.0
    for k in (0, 5, 10, 15):
        yfield = ScalarField(ymesh, uf.values[k].reshape(-1)[_flat_order(m)])
        gy = eval_gradient_batch(yfield, ypts)
        xpts = eps * (cmap.cells[k] + ypts)
        gx = eval_gradient_batch(f, xpts)
        worst = max(worst, np.abs(gy - eps * gx).max())
    assert worst <= 1e-12


def test_layer_indicator_examples():
    mesh = unit_mesh(32)
    cmap = build_cell_map(mesh, 8)  # eps = 1/8
    mask = layer_indicator(cmap, 1)
    centers = mesh.element_origin(np.arange(mesh.n_elements)) + mesh.h / 2
    mid = np.argmin(np.abs(centers - 0.5).sum(axis=1))
    assert not mask[mid]
    near = np.argmin(np.abs(centers - np.array([cmap.epsilon / 2, 0.5])).sum(axis=1))
    for k in (1, 2, 3, 4):
        assert layer_indicator(cmap, k)[near]
    # huge layer: k*sqrt(n)*eps >= diam/2 marks everything
    cmap2 = build_cell_map(mesh, 2)
    assert layer_indicator(cmap2, 4).all()


def _layer_by_element_origin(cmap, k):
    """The layer mask from every active element's origin plus h/2."""
    mesh = cmap.mesh
    mask = np.zeros(mesh.n_elements, dtype=bool)
    elems = mesh.active_elements()
    centers = mesh.element_origin(elems) + mesh.h / 2.0
    mask[elems] = boundary_distance(mesh, centers) < k * np.sqrt(mesh.dim) * cmap.epsilon
    return mask


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("mesh,n", [
    (build_mesh(0.5, 2.0, [48]), 4),
    (build_mesh((0, -1), (1, 1.5), (24, 30)), 4),
    (build_mesh((0, 0), (1, 1), (64, 64), "l_shape"), 8),
    (build_mesh((-1, 0), (2, 2), (32, 48), "l_shape"), 4),
])
def test_layer_indicator_equals_element_origin_reference(mesh, n, k):
    cmap = build_cell_map(mesh, n)
    np.testing.assert_array_equal(layer_indicator(cmap, k), _layer_by_element_origin(cmap, k))


def test_layer_volume_bound():
    mesh = unit_mesh(64)
    for n in (8, 16, 32):
        cmap = build_cell_map(mesh, n)
        eps = cmap.epsilon
        vol_elem = float(np.prod(mesh.h))
        for k in (1, 2, 3, 4):
            area = layer_indicator(cmap, k).sum() * vol_elem
            assert area <= min(1.0, 4 * k * np.sqrt(2) * eps + 16 * eps**2)


def test_distance_weight_l_shape():
    mesh = build_mesh((0, 0), (1, 1), (16, 16), "l_shape")
    pts = np.array([
        [0.25, 0.25],  # plain interior: distance 0.25 to outer walls
        [0.45, 0.75],  # near the vertical reentrant edge: 0.05
        [0.75, 0.40],  # below the horizontal reentrant edge: 0.10
        [0.40, 0.40],  # nearest feature is the reentrant corner region
    ])
    d = boundary_distance(mesh, pts)
    assert d[0] == pytest.approx(0.25, abs=1e-14)
    assert d[1] == pytest.approx(0.05, abs=1e-14)
    assert d[2] == pytest.approx(0.10, abs=1e-14)
    assert d[3] == pytest.approx(np.hypot(0.1, 0.1), abs=1e-14)


def _segment_distance(mesh, points):
    """Distance to the L-shape boundary by projecting every point onto each
    of its six edges, the general point-to-segment formula."""
    o, e = np.asarray(mesh.origin), np.asarray(mesh.extent)
    c, far = o + e / 2.0, o + e
    segments = [
        ((o[0], o[1]), (far[0], o[1])),
        ((o[0], o[1]), (o[0], far[1])),
        ((o[0], far[1]), (c[0], far[1])),
        ((far[0], o[1]), (far[0], c[1])),
        ((c[0], c[1]), (c[0], far[1])),
        ((c[0], c[1]), (far[0], c[1])),
    ]
    dist = np.full(len(points), np.inf)
    for a, b in segments:
        a, ab = np.asarray(a), np.asarray(b) - np.asarray(a)
        t = np.clip((points - a) @ ab / (ab @ ab), 0.0, 1.0)
        dist = np.minimum(dist, np.linalg.norm(points - (a + t[:, None] * ab), axis=1))
    return dist


@pytest.mark.parametrize("origin,extent", [((0.0, 0.0), (1.0, 1.0)), ((-1.5, 0.25), (3.0, 0.8))])
def test_l_shape_boundary_distance_matches_segment_projection(origin, extent):
    # the distance is exact on the closed L and at most 0 off it, in the open
    # notch or outside the box
    mesh = build_mesh(origin, extent, (16, 16), "l_shape")
    o, e = np.asarray(origin), np.asarray(extent)
    c = o + e / 2.0
    rng = np.random.default_rng(11)
    t = np.linspace(0.0, 1.0, 41)[:, None]
    pts = np.concatenate([
        o + rng.uniform(-0.1, 1.1, size=(2000, 2)) * e,  # inside, in the notch and outside
        mesh.node_coordinates(),
        np.column_stack([np.full(41, c[0]), c[1] + t[:, 0] * e[1] / 2]),  # reentrant vertical
        np.column_stack([c[0] + t[:, 0] * e[0] / 2, np.full(41, c[1])]),  # reentrant horizontal
        c + rng.uniform(-1e-3, 1e-3, size=(400, 2)) * e,  # around the corner
        c[None, :],
    ])
    closed = np.all((pts >= o) & (pts <= o + e), axis=1) & ~np.all(pts > c, axis=1)
    assert closed.sum() > 1000 and (~closed).sum() > 500
    d = boundary_distance(mesh, pts)
    np.testing.assert_allclose(d[closed], _segment_distance(mesh, pts[closed]), rtol=0, atol=1e-15)
    assert np.all(d[~closed] <= 0.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_box_boundary_distance_equals_axis_min_reference(dim):
    o, e = np.array([-0.5, 0.25])[:dim], np.array([1.5, 0.75])[:dim]
    mesh = build_mesh(tuple(o), tuple(e), (6, 4)[:dim])
    rng = np.random.default_rng(dim)
    inside = o + e * rng.random((200, dim))
    # one coordinate of each of these on a face of the box
    faces = o + e * rng.random((40, dim))
    axis = rng.integers(dim, size=40)
    faces[np.arange(40), axis] = np.where(rng.random(40) < 0.5, o[axis], (o + e)[axis])
    pts = np.concatenate([inside, faces, [o, o + e]])
    want = np.minimum(pts - o, o + e - pts).min(axis=1)
    np.testing.assert_array_equal(boundary_distance(mesh, pts), want)


def test_all_active_mask_is_the_box():
    # the default shape is the box, which has no mask, and not the L-shape
    box = unit_mesh(16)
    masked = StructuredMesh(box.origin, box.extent, box.divisions)
    assert masked.active_mask is None and same_mesh(masked, box)
    assert not same_mesh(masked, StructuredMesh(box.origin, box.extent, box.divisions, "l_shape"))
    # (0.75, 0.75) lies in the quadrant that an L-shape would remove
    pts = np.vstack([np.random.default_rng(5).random((300, 2)), [[0.75, 0.75]]])
    np.testing.assert_array_equal(boundary_distance(masked, pts), boundary_distance(box, pts))
    assert boundary_distance(masked, pts)[-1] == 0.25
    parts = [scale_split(nodal(mesh, lambda x: np.sin(3 * x[:, 0]) * np.cos(2 * x[:, 1])),
                         build_cell_map(mesh, 4)) for mesh in (masked, box)]
    for got, want in zip(*parts):
        np.testing.assert_array_equal(got.values, want.values)


def test_a_mask_other_than_the_l_shapes_is_refused():
    # no mesh has another domain, such as the mirror L, which the L-shape's
    # distance and slow part would misread
    with pytest.raises(ValueError, match="unknown shape"):
        StructuredMesh((0.0, 0.0), (1.0, 1.0), (16, 16), "mirror_l")
    # and the L-shape's reentrant corner must lie on the cell lattice: at
    # 3 cells of 8 elements it falls at element 12, mid-cell
    with pytest.raises(AlignmentError, match="L-shape"):
        build_cell_map(StructuredMesh((0.0, 0.0), (1.0, 1.0), (24, 24), "l_shape"), 3)


def test_smooth_remainder_rate():
    # || phi - Q(phi) || shrinks linearly in eps for smooth phi
    mesh = unit_mesh(256)
    f = nodal(mesh, lambda x: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]))
    norms = []
    for n in (4, 8, 16, 32):
        cmap = build_cell_map(mesh, n)
        _, r = scale_split(f, cmap)
        val = np.sqrt(
            integrate_field(ScalarField(mesh, r.values**2))
        )
        norms.append(val)
    slope = np.polyfit(np.log([0.25, 0.125, 0.0625, 0.03125]), np.log(norms), 1)[0]
    assert abs(slope - 1.0) <= 0.1
