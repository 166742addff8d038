import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homog.grid as grid
from homog.grid import (
    OutsideDomainError,
    ScalarField,
    StructuredMesh,
    build_mesh,
    element_blocks,
    eval_field_batch,
    eval_gradient_batch,
    gauss_rule,
    h1_seminorm_sq,
    integrate,
    integrate_field,
    boundary_nodes,
    l2_norm_sq,
    quadrature,
    shape_gradients,
    shape_values,
)


def nodal(mesh, f):
    return ScalarField(mesh, f(mesh.node_coordinates()))


def test_mesh_counts_1d():
    mesh = build_mesh(0.0, 1.0, [4], "box")
    assert mesh.n_nodes == 5
    assert mesh.n_elements == 4


def test_mesh_counts_2d():
    mesh = build_mesh((0.0, 0.0), (1.0, 1.0), (2, 2), "box")
    assert mesh.n_nodes == 9
    assert mesh.n_elements == 4


def test_is_l_shape_tells_the_l_shape_mask_from_any_other():
    # the domain is the mesh's shape, the box or the L-shape, and nothing else
    lshape = StructuredMesh((-0.5, 0.25), (1.0, 0.5), (12, 6), "l_shape")
    assert lshape.shape == "l_shape" and StructuredMesh((0.0, 0.0), (1.0, 1.0), (12, 6)).shape == "box"
    # elements 40 and 41 of the upper half sit either side of the reentrant corner
    assert lshape.active_mask[:42].all() and lshape.active_mask[41] and not lshape.active_mask[42]
    with pytest.raises(ValueError, match="unknown shape"):
        StructuredMesh((0.0, 0.0), (1.0, 1.0), (12, 6), "mirror_l")
    with pytest.raises(ValueError, match="2D"):
        StructuredMesh(0.0, 1.0, (12,), "l_shape")
    with pytest.raises(ValueError, match="even"):
        StructuredMesh((0.0, 0.0), (1.0, 1.0), (12, 5), "l_shape")


def test_l_shape_quadrant_removed():
    mesh = build_mesh((0.0, 0.0), (1.0, 1.0), (4, 4), "l_shape")
    assert mesh.n_elements == 16
    assert (~mesh.active_mask).sum() == 4
    # removed elements are the upper-right quadrant
    inactive = np.flatnonzero(~mesh.active_mask)
    centers = mesh.element_origin(inactive) + mesh.h / 2
    assert np.all(centers >= 0.5)


@pytest.mark.parametrize("divs", [[3], [5]])
def test_bad_divisions_rejected(divs):
    with pytest.raises(ValueError):
        build_mesh(0.0, 1.0, [0], "box")
    with pytest.raises(ValueError):
        build_mesh((0, 0), (1, 1), (divs[0], 4), "l_shape")


def test_eval_constant():
    mesh = build_mesh((0, 0), (1, 1), (3, 3), "box")
    f = ScalarField(mesh, np.full(mesh.n_nodes, 3.5))
    assert eval_field_batch(f, [(0.37, 0.91)])[0] == pytest.approx(3.5, abs=1e-14)


def test_eval_affine_reproduction():
    mesh = build_mesh((0, 0), (1, 1), (5, 7), "box")
    f = nodal(mesh, lambda x: x[:, 0])
    assert eval_field_batch(f, [(0.3, 0.7)])[0] == pytest.approx(0.3, abs=1e-14)
    g = nodal(mesh, lambda x: 2 * x[:, 0] - x[:, 1])
    grad = eval_gradient_batch(g, [(0.41, 0.13)])[0]
    np.testing.assert_allclose(grad, [2.0, -1.0], atol=1e-13)


def test_eval_1d_hand_values():
    mesh = build_mesh(0.0, 1.0, [2], "box")
    f = ScalarField(mesh, np.array([0.0, 1.0, 0.0]))
    assert eval_field_batch(f, [[0.25]])[0] == pytest.approx(0.5, abs=1e-14)
    assert eval_gradient_batch(f, [[0.25]])[0, 0] == pytest.approx(2.0, abs=1e-13)


def test_eval_gradient_constant_field():
    mesh = build_mesh((0, 0), (1, 1), (4, 4), "box")
    f = ScalarField(mesh, np.full(mesh.n_nodes, 1.23))
    np.testing.assert_allclose(eval_gradient_batch(f, [(0.3, 0.3)])[0], [0.0, 0.0], atol=1e-13)


def test_eval_outside_raises():
    mesh = build_mesh((0, 0), (1, 1), (4, 4), "l_shape")
    f = ScalarField(mesh, np.zeros(mesh.n_nodes))
    with pytest.raises(OutsideDomainError):
        eval_field_batch(f, [(1.2, 0.5)])
    with pytest.raises(OutsideDomainError):
        eval_field_batch(f, [(0.9, 0.9)])  # removed quadrant interior
    # reentrant boundary points still evaluate (shared with active elements)
    assert eval_field_batch(f, [(0.5, 0.75)])[0] == 0.0


def test_integrate_unit():
    mesh = build_mesh((0, 0), (1, 1), (4, 4), "box")
    assert integrate(mesh, lambda p: np.ones(len(p))) == pytest.approx(1.0, abs=1e-15)


def test_integrate_l_shape_area():
    mesh = build_mesh((0, 0), (1, 1), (4, 4), "l_shape")
    assert integrate(mesh, lambda p: np.ones(len(p))) == pytest.approx(0.75, abs=1e-15)


@pytest.mark.parametrize("divs", [(1, 1), (3, 5), (8, 8)])
def test_integrate_quadratic_exact(divs):
    mesh = build_mesh((0, 0), (1, 1), divs, "box")
    val = integrate(mesh, lambda p: p[:, 0] ** 2)
    assert val == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_integrate_nonfinite_rejected():
    mesh = build_mesh(0.0, 1.0, [2], "box")
    with pytest.raises(ValueError):
        integrate(mesh, lambda p: np.where(p[:, 0] > 0.5, np.inf, 1.0))


def test_quadrature_consistency_bilinear_product(monkeypatch):
    # integrate(f*g) for Q1 fields f, g is exact under the default rule:
    # compare against a 3-point Gauss evaluation
    rng = np.random.default_rng(7)
    mesh = build_mesh((0, 0), (1, 1), (4, 3), "box")
    f = ScalarField(mesh, rng.standard_normal(mesh.n_nodes))
    g = ScalarField(mesh, rng.standard_normal(mesh.n_nodes))

    def prod(p):
        return eval_field_batch(f, p) * eval_field_batch(g, p)

    v2 = integrate(mesh, prod)
    monkeypatch.setattr(grid, "GAUSS_POINTS", 3)
    v3 = integrate(mesh, prod)
    assert v2 == pytest.approx(v3, abs=1e-13)


@pytest.mark.parametrize("points", [1, 2, 3, 4])
@pytest.mark.parametrize("dim", [1, 2])
def test_gauss_rule_is_built_once_per_dimension_and_point_count(dim, points, monkeypatch):
    monkeypatch.setattr(grid, "GAUSS_POINTS", points)
    rule = gauss_rule(dim)
    assert gauss_rule(dim) is rule
    assert rule.points.shape == (points**dim, dim) and rule.weights.shape == (points**dim,)
    assert not rule.points.flags.writeable and not rule.weights.flags.writeable
    assert not rule.values.flags.writeable and not rule.gradients.flags.writeable
    np.testing.assert_array_equal(rule.values, shape_values(rule.points))
    np.testing.assert_array_equal(rule.gradients, shape_gradients(rule.points))
    assert abs(rule.weights.sum() - 1.0) <= 1e-14 and rule.weights.min() > 0
    assert 0.0 < rule.points.min() and rule.points.max() < 1.0
    # exact for per-axis polynomials of degree 2 * points - 1
    monomial = np.prod(rule.points ** (2 * points - 1), axis=1)
    assert rule.weights @ monomial == pytest.approx((1.0 / (2 * points)) ** dim, rel=1e-14)


def _closed_form_values(local):
    """The hand-written 1D and 2D Q1 shape functions."""
    if local.shape[1] == 1:
        t = local[:, 0]
        return np.stack([1.0 - t, t], axis=1)
    s, t = local[:, 0], local[:, 1]
    return np.stack([(1 - s) * (1 - t), s * (1 - t), (1 - s) * t, s * t], axis=1)


def _closed_form_gradients(local):
    """The hand-written 1D and 2D Q1 shape gradients."""
    if local.shape[1] == 1:
        g = np.empty((len(local), 2, 1))
        g[:, 0, 0] = -1.0
        g[:, 1, 0] = 1.0
        return g
    s, t = local[:, 0], local[:, 1]
    g = np.empty((len(local), 4, 2))
    g[:, 0, 0] = -(1 - t)
    g[:, 1, 0] = 1 - t
    g[:, 2, 0] = -t
    g[:, 3, 0] = t
    g[:, 0, 1] = -(1 - s)
    g[:, 1, 1] = -s
    g[:, 2, 1] = 1 - s
    g[:, 3, 1] = s
    return g


def _assert_bitwise(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))  # signed zeros too


@pytest.mark.parametrize("dim", [1, 2])
def test_corner_bit_tables_equal_closed_forms(dim, monkeypatch):
    # face and corner coordinates give the signed zeros of -(1 - t) at t = 1
    ticks = np.array([0.0, 0.25, 0.5, 1.0])
    lattice = np.stack([g.ravel() for g in np.meshgrid(*[ticks] * dim, indexing="ij")], axis=1)
    random = np.random.default_rng(17).uniform(0.0, 1.0, (200, dim))
    for local in (lattice, random):
        _assert_bitwise(shape_values(local), _closed_form_values(local))
        _assert_bitwise(shape_gradients(local), _closed_form_gradients(local))
    for points in (1, 2, 3, 4):
        monkeypatch.setattr(grid, "GAUSS_POINTS", points)
        rule = gauss_rule(dim)
        _assert_bitwise(rule.values, _closed_form_values(rule.points))
        _assert_bitwise(rule.gradients, _closed_form_gradients(rule.points))


@pytest.mark.parametrize("mesh_name", ["1d_box", "2d_box", "2d_l_shape"])
def test_flat_indices_round_trip_through_multi_indices(mesh_name):
    mesh = WALK_MESHES[mesh_name][0]
    elems, nodes = np.arange(mesh.n_elements), np.arange(mesh.n_nodes)
    np.testing.assert_array_equal(mesh.element_flat_index(mesh.element_multi_index(elems)), elems)
    np.testing.assert_array_equal(mesh.node_flat_index(mesh.node_multi_index(nodes)), nodes)
    # axis 0 fastest: the documented strides
    e_multi, n_multi = mesh.element_multi_index(elems), mesh.node_multi_index(nodes)
    np.testing.assert_array_equal(e_multi @ [1, mesh.divisions[0]][: mesh.dim], elems)
    np.testing.assert_array_equal(n_multi @ [1, mesh.divisions[0] + 1][: mesh.dim], nodes)
    # a block of multi-indices keeps its leading shape
    block = e_multi.reshape(-1, 1, mesh.dim)
    np.testing.assert_array_equal(mesh.element_flat_index(block), elems.reshape(-1, 1))


def test_integrate_field_matches_quadrature():
    rng = np.random.default_rng(3)
    mesh = build_mesh((0, 0), (1, 1), (6, 6), "l_shape")
    f = ScalarField(mesh, rng.standard_normal(mesh.n_nodes))
    assert integrate_field(f) == pytest.approx(
        integrate(mesh, lambda p: eval_field_batch(f, p)), abs=1e-13
    )


def test_refinement_nesting():
    coarse = build_mesh((0.25, 0.0), (0.5, 1.0), (4, 6), "box")
    fine = build_mesh((0.25, 0.0), (0.5, 1.0), (8, 12), "box")
    cnodes = coarse.node_coordinates()
    fnodes = fine.node_coordinates()
    fset = {tuple(x) for x in fnodes}
    assert all(tuple(x) in fset for x in cnodes)


def test_boundary_nodes_box():
    mesh = build_mesh((0, 0), (1, 1), (4, 4), "box")
    bn = boundary_nodes(mesh)
    coords = mesh.node_coordinates(bn)
    on_edge = (
        np.isclose(coords[:, 0], 0) | np.isclose(coords[:, 0], 1)
        | np.isclose(coords[:, 1], 0) | np.isclose(coords[:, 1], 1)
    )
    assert on_edge.all()
    assert len(bn) == 16


def test_boundary_nodes_l_shape_include_reentrant():
    mesh = build_mesh((0, 0), (1, 1), (4, 4), "l_shape")
    bn = set(boundary_nodes(mesh).tolist())
    # the reentrant corner (0.5, 0.5) is node (2, 2)
    assert 2 + 5 * 2 in bn
    # node (0.5, 0.75) on the reentrant edge is boundary
    assert 2 + 5 * 3 in bn
    # node (0.25, 0.5) is interior
    assert 1 + 5 * 2 not in bn


@settings(max_examples=50, deadline=None)
@given(
    a=st.floats(-3, 3), b=st.floats(-3, 3), c=st.floats(-3, 3),
    px=st.integers(0, 64), py=st.integers(0, 64),
)
def test_affine_exactness_property(a, b, c, px, py):
    mesh = build_mesh((0, 0), (2.0, 1.0), (8, 4), "box")
    f = nodal(mesh, lambda x: a * x[:, 0] + b * x[:, 1] + c)
    pt = np.array([[2.0 * px / 64.0, py / 64.0]])
    scale = max(1.0, abs(a), abs(b), abs(c))
    val = eval_field_batch(f, pt)[0]
    assert abs(val - (a * pt[0, 0] + b * pt[0, 1] + c)) <= 1e-13 * scale
    if 0 < px < 64 and 0 < py < 64 and px % 8 and py % 16:
        grad = eval_gradient_batch(f, pt)[0]
        assert abs(grad[0] - a) <= 1e-13 * scale
        assert abs(grad[1] - b) <= 1e-13 * scale


# each mesh with the period of the pattern that ``times_periodic`` repeats
WALK_MESHES = {
    "1d_box": (build_mesh(0.5, 1.0, [7]), (3,)),
    "2d_box": (build_mesh((0, -1), (1, 1.5), (5, 6)), (1, 4)),
    "2d_l_shape": (build_mesh((0, 0), (1, 1), (8, 6), "l_shape"), (4, 4)),
    "periodic_cell": (build_mesh((0, 0), (1, 1), (4, 4)), (2, 2)),
}


def block_elems(block):
    """Flat indices of a walk block's elements, in its element order: its
    box of the element grid, last mesh axis first."""
    return np.arange(block.mesh.n_elements).reshape(block.mesh.divisions[::-1])[block.box].ravel()


def _walk_reference(mesh, nodal, period):
    """Element-by-element points, values, gradients and periodic pattern
    index, from the corner node gather."""
    rule = gauss_rule(mesh.dim)
    pts, vals, grads, cell = [], [], [], []
    sv, sg = shape_values(rule.points), shape_gradients(rule.points) / mesh.h
    for e in mesh.active_elements():
        corner = nodal[mesh.element_nodes([e])[0]]
        pts.append(mesh.element_origin([e])[0] + rule.points * mesh.h)
        vals.append(sv @ corner)
        grads.append(np.einsum("qad,a->qd", sg, corner))
        local = mesh.element_multi_index([e])[0] % period
        cell.append(local[0] + period[0] * local[-1] if mesh.dim == 2 else local[0])
    return np.array(pts), np.array(vals), np.array(grads), np.array(cell)


@pytest.mark.parametrize("chunk", [None, 1, 3, 16])
@pytest.mark.parametrize("points_per_axis", [2, 3])
@pytest.mark.parametrize("mesh_name", sorted(WALK_MESHES))
def test_element_walk_matches_dense_reference(mesh_name, points_per_axis, chunk, monkeypatch):
    # chunk 1 gives one row per block, 3 several 1D blocks, and 16 L-shape
    # blocks of a full and a half-active row and of two half-active rows
    if chunk is not None:
        monkeypatch.setattr(grid, "CHUNK_ELEMENTS", chunk)
    monkeypatch.setattr(grid, "GAUSS_POINTS", points_per_axis)
    mesh, period = WALK_MESHES[mesh_name]
    rng = np.random.default_rng(11)
    nodal = rng.standard_normal(mesh.n_nodes)
    if mesh_name == "periodic_cell":
        nodal = nodal.reshape(5, 5)
        nodal[-1], nodal[:, -1] = nodal[0], nodal[:, 0]
        nodal = nodal.ravel()
    pattern = rng.standard_normal((int(np.prod(period)), points_per_axis**mesh.dim, mesh.dim))
    pts, vals, grads, cell = _walk_reference(mesh, nodal, np.asarray(period))
    blocks = list(element_blocks(mesh))
    if chunk == 1:
        assert len(blocks) == sum(block.shape[0] for block in blocks) > 1
    got = {
        "elems": np.concatenate([block_elems(b) for b in blocks]),
        "points": np.concatenate([b.points() for b in blocks]),
        "values": np.concatenate([b.values(nodal) for b in blocks]),
        "gradients": np.concatenate([b.gradients(nodal) for b in blocks]),
        "periodic": np.concatenate([
            b.times_periodic(b.values(nodal)[:, :, None], pattern, period) for b in blocks
        ]),
    }
    np.testing.assert_array_equal(got["elems"], mesh.active_elements())
    want = {"points": pts, "values": vals, "gradients": grads,
            "periodic": vals[:, :, None] * pattern[cell]}
    for name, ref in want.items():
        assert got[name].shape == ref.shape, name
        np.testing.assert_allclose(got[name], ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max(),
                                   err_msg=name)


@pytest.mark.parametrize("chunk", [None, 1, 3])
@pytest.mark.parametrize("mesh_name", sorted(WALK_MESHES))
def test_block_gradients_equal_einsum_reference(mesh_name, chunk, monkeypatch):
    # the block kernel is one product, which may add the corner terms in
    # another order than the einsum: each entry agrees to a few ulps of the
    # sum of its terms' magnitudes, whatever the block size
    if chunk is not None:
        monkeypatch.setattr(grid, "CHUNK_ELEMENTS", chunk)
    mesh = WALK_MESHES[mesh_name][0]
    nodal = np.random.default_rng(12).standard_normal(mesh.n_nodes)
    for block in element_blocks(mesh):
        table = shape_gradients(block.rule.points) / mesh.h
        corners = block.corners(nodal)
        got = block.gradients(nodal)
        assert got.flags.c_contiguous
        want = np.einsum("qad,ae->eqd", table, corners)
        scale = np.einsum("qad,ae->eqd", np.abs(table), np.abs(corners))
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * scale)


@pytest.mark.parametrize("chunk", [None, 1, 3])
@pytest.mark.parametrize("mesh_name", sorted(WALK_MESHES))
def test_values_and_gradients_equal_values_and_gradients_alone(mesh_name, chunk, monkeypatch):
    # one corners gather for both, bitwise what the two calls give alone
    if chunk is not None:
        monkeypatch.setattr(grid, "CHUNK_ELEMENTS", chunk)
    mesh = WALK_MESHES[mesh_name][0]
    nodal = np.random.default_rng(13).standard_normal(mesh.n_nodes)
    for block in element_blocks(mesh):
        vals, grads = block.values_and_gradients(nodal)
        assert np.array_equal(vals, block.values(nodal))
        assert np.array_equal(grads, block.gradients(nodal))


@pytest.mark.parametrize("chunk", [None, 1, 3])
@pytest.mark.parametrize("mesh_name", sorted(WALK_MESHES))
def test_block_sample_of_a_matrix_sampler_keeps_its_trailing_axes(mesh_name, chunk, monkeypatch):
    # (E, Q, n, n), bitwise the hand reshape of the samples at block.points()
    if chunk is not None:
        monkeypatch.setattr(grid, "CHUNK_ELEMENTS", chunk)
    mesh = WALK_MESHES[mesh_name][0]
    n = mesh.dim

    def sampler(p):
        return np.sin(3.0 * p[:, :, None] + p[:, None, :] ** 2)

    for block in element_blocks(mesh):
        q = len(block.rule.weights)
        want = sampler(block.points().reshape(-1, n)).reshape(block.size, q, n, n)
        got = block.sample(sampler)
        assert got.shape == (block.size, q, n, n) and np.array_equal(got, want)
        assert block.sample(lambda p: p[:, 0]).shape == (block.size, q)


@pytest.mark.parametrize("chunk", [None, 1, 3, 16])
@pytest.mark.parametrize("mesh_name", sorted(WALK_MESHES))
def test_block_centres_equal_element_origin_reference(mesh_name, chunk, monkeypatch):
    # the centres that ``error_report`` and ``layer_indicator`` read, broadcast
    # from the block's box
    if chunk is not None:
        monkeypatch.setattr(grid, "CHUNK_ELEMENTS", chunk)
    mesh = WALK_MESHES[mesh_name][0]
    for block in element_blocks(mesh):
        got = block.points(np.full((1, mesh.dim), 0.5)).reshape(block.size, mesh.dim)
        np.testing.assert_array_equal(got, mesh.element_origin(block_elems(block)) + mesh.h / 2.0)


@pytest.mark.parametrize("mesh_name", sorted(WALK_MESHES))
def test_h1_seminorm_sq_equals_axis_sum_reference(mesh_name):
    mesh = WALK_MESHES[mesh_name][0]
    nodal = np.random.default_rng(13).standard_normal(mesh.n_nodes)
    want = quadrature(mesh, lambda block: (block.gradients(nodal) ** 2).sum(axis=2))
    assert h1_seminorm_sq(ScalarField(mesh, nodal)) == want


@pytest.mark.parametrize("chunk", [None, 1, 3])
@pytest.mark.parametrize("mesh_name", sorted(WALK_MESHES))
def test_stacked_quadrature_equals_its_integrals_alone(mesh_name, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(grid, "CHUNK_ELEMENTS", chunk)
    mesh = WALK_MESHES[mesh_name][0]
    field = ScalarField(mesh, np.random.default_rng(14).standard_normal(mesh.n_nodes))
    stacked = quadrature(mesh, lambda block: np.stack((
        block.values(field.values), block.values(field.values) ** 2,
        grid.squared_lengths(block.gradients(field.values)))))
    assert stacked == [integrate_field(field), l2_norm_sq(field), h1_seminorm_sq(field)]
    assert all(type(total) is float for total in stacked)


def _rectangle_integral(f, lo, hi, points=5):
    """Tensor Gauss-Legendre quadrature of ``f`` over a box, exact for
    per-axis polynomials of degree 2 * points - 1."""
    nodes, weights = np.polynomial.legendre.leggauss(points)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    axes = [lo[k] + (hi[k] - lo[k]) * (nodes + 1) / 2 for k in range(len(lo))]
    pts = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=1)
    w = np.prod(np.meshgrid(*[weights] * len(lo), indexing="ij"), axis=0).ravel()
    return float(np.prod((hi - lo) / 2) * (w @ f(pts)))


@pytest.mark.parametrize("shape", ["1d", "box", "l_shape"])
def test_l2_norm_sq_is_exact_on_a_bilinear_field(shape):
    if shape == "1d":
        mesh = build_mesh(0.5, 1.0, [7])
        u = lambda p: 1.0 + 2.0 * p[:, 0]
        exact = _rectangle_integral(lambda p: u(p) ** 2, [0.5], [1.5])
    else:
        mesh = build_mesh((0, 0), (2, 2), (6, 4), "l_shape" if shape == "l_shape" else "box")
        u = lambda p: 1.0 + 2.0 * p[:, 0] - p[:, 1] + 3.0 * p[:, 0] * p[:, 1]
        exact = _rectangle_integral(lambda p: u(p) ** 2, [0, 0], [2, 2])
        if shape == "l_shape":
            exact -= _rectangle_integral(lambda p: u(p) ** 2, [1, 1], [2, 2])
    assert l2_norm_sq(nodal(mesh, u)) == pytest.approx(exact, rel=1e-13)


def test_element_walk_scatter_matches_add_at(monkeypatch):
    monkeypatch.setattr(grid, "CHUNK_ELEMENTS", 16)
    mesh = WALK_MESHES["2d_l_shape"][0]
    rng = np.random.default_rng(5)
    target = np.zeros(mesh.nodes_per_axis[::-1])
    ref = np.zeros(mesh.n_nodes)
    for block in element_blocks(mesh):
        values = rng.standard_normal((4, block.size))
        block.add_to_nodes(target, values)
        np.add.at(ref, mesh.element_nodes(block_elems(block)).T, values)
    np.testing.assert_allclose(target.ravel(), ref, rtol=1e-15, atol=1e-15)



def _random_meshes(dim, seed):
    """A box mesh of random divisions, and in 2D an L-shape of random even
    divisions, wide or tall."""
    rng = np.random.default_rng(seed)
    if dim == 1:
        return [grid.StructuredMesh(0.0, 1.0, (int(rng.integers(1, 30)),))]
    box = grid.StructuredMesh((0, 0), (1, 1), tuple(int(d) for d in rng.integers(1, 12, 2)))
    return [box, grid.StructuredMesh((0, 0), (1, 1), tuple(2 * int(d) for d in rng.integers(1, 7, 2)), "l_shape")]


@pytest.mark.parametrize("chunk", [None, 1, 3, 5, 16])
@pytest.mark.parametrize("dim,seed", [(1, 0), (1, 1), (2, 2), (2, 3), (2, 4)])
def test_walk_blocks_are_disjoint_boxes_of_active_elements(dim, seed, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(grid, "CHUNK_ELEMENTS", chunk)
    for mesh in _random_meshes(dim, seed):
        active = np.ones(mesh.n_elements, bool) if mesh.active_mask is None else mesh.active_mask
        blocks = list(element_blocks(mesh))
        for block in blocks:
            assert block.box == tuple(slice(f, f + n) for f, n in zip(block.first, block.shape))
            assert len(block_elems(block)) == block.size
            assert active[block_elems(block)].all()
            row = int(np.prod(block.shape[1:]))
            assert block.size <= grid.CHUNK_ELEMENTS or block.shape[0] == 1 and row > grid.CHUNK_ELEMENTS
        elems = np.concatenate([block_elems(block) for block in blocks])
        assert len(np.unique(elems)) == len(elems)
        np.testing.assert_array_equal(np.sort(elems), mesh.active_elements())


@pytest.mark.parametrize("chunk", [None, 1, 3])
@pytest.mark.parametrize("divisions", [(4, 4), (12, 6), (6, 12), (16, 16)])
def test_l_shape_walk_is_the_two_closed_form_boxes(divisions, chunk, monkeypatch):
    # the lower half, then the upper left quarter, each cut along the last axis
    if chunk is not None:
        monkeypatch.setattr(grid, "CHUNK_ELEMENTS", chunk)
    d0, d1 = divisions
    boxes = [(slice(0, d1 // 2), slice(0, d0)), (slice(d1 // 2, d1), slice(0, d0 // 2))]
    assert grid.walk_boxes((d1, d0), "l_shape") == boxes
    blocks = list(element_blocks(build_mesh((0, 0), (1, 1), divisions, "l_shape")))
    expected = []
    for rows, columns in boxes:
        step = max(1, grid.CHUNK_ELEMENTS // columns.stop)
        expected += [((start, 0), (min(start + step, rows.stop) - start, columns.stop))
                     for start in range(rows.start, rows.stop, step)]
    assert [(block.first, block.shape) for block in blocks] == expected


@pytest.mark.parametrize("chunk", [None, 1, 3])
@pytest.mark.parametrize("divisions", [(7,), (5, 6), (300, 4)])
def test_box_mesh_walk_cuts_whole_rows(divisions, chunk, monkeypatch):
    # a box mesh is one box, cut as the walk of element rows always cut it
    if chunk is not None:
        monkeypatch.setattr(grid, "CHUNK_ELEMENTS", chunk)
    mesh = build_mesh((0.0,) * len(divisions), (1.0,) * len(divisions), divisions)
    rows, per_row = divisions[-1], int(np.prod(divisions[:-1]))
    step = max(1, grid.CHUNK_ELEMENTS // per_row)
    blocks = list(element_blocks(mesh))
    assert [(b.first[0], b.first[0] + b.shape[0]) for b in blocks] == [
        (start, min(start + step, rows)) for start in range(0, rows, step)]
    for block in blocks:
        assert block.first[1:] == (0,) * (len(divisions) - 1)
        assert block.shape[1:] == divisions[-2::-1]
        np.testing.assert_array_equal(
            block_elems(block), np.arange(block.first[0] * per_row, (block.first[0] + block.shape[0]) * per_row))


def test_times_periodic_rejects_a_box_off_the_period():
    # the L-shape's upper box holds 3 columns, not whole periods of 2
    mesh = build_mesh((0, 0), (1, 1), (6, 4), "l_shape")
    pattern = np.ones((4, 4))
    first, upper = list(element_blocks(mesh))
    assert upper.shape == (2, 3)
    assert first.times_periodic(np.ones((first.size, 4)), pattern, (2, 2)).shape == (first.size, 4)
    with pytest.raises(ValueError, match="whole periods"):
        upper.times_periodic(np.ones((upper.size, 4)), pattern, (2, 2))

def _old_locate(mesh, point):
    """The per-point search ``locate`` used before its vectorised face rule:
    the half-open element, else the first active element among the eight
    face and corner neighbours whose closed box holds the point."""
    rel = (np.asarray(point, dtype=float) - np.asarray(mesh.origin)) / mesh.h
    div = np.asarray(mesh.divisions)
    tol = 1e-12 * max(1.0, np.abs(rel).max())
    if np.any(rel < -tol) or np.any(rel > div + tol):
        raise OutsideDomainError("point outside mesh bounding box")
    emulti = np.clip(np.floor(rel).astype(int), 0, div - 1)
    local = rel - emulti
    if mesh.active_mask[mesh.element_flat_index(emulti)]:
        return mesh.element_flat_index(emulti), local
    for shift in [(-1, 0), (0, -1), (1, 0), (0, 1), (-1, -1), (1, -1), (-1, 1), (1, 1)]:
        cand, loc = emulti + shift, local - np.asarray(shift)
        if np.any(cand < 0) or np.any(cand >= div):
            continue
        if loc.min() < -1e-12 or loc.max() > 1.0 + 1e-12:
            continue
        if mesh.active_mask[mesh.element_flat_index(cand)]:
            return mesh.element_flat_index(cand), np.clip(loc, 0.0, 1.0)
    raise OutsideDomainError("point outside the active region")


@pytest.mark.parametrize("n", [4, 6, 8])
def test_locate_face_rule_matches_neighbour_search(n):
    mesh = build_mesh((0, 0), (1, 1), (n, n), "l_shape")
    ticks = np.arange(n + 1) / n
    mids = (np.arange(n) + 0.5) / n
    nodes = np.stack(np.meshgrid(ticks, ticks), axis=-1).reshape(-1, 2)
    faces = np.concatenate([
        np.stack(np.meshgrid(mids, ticks), axis=-1).reshape(-1, 2),
        np.stack(np.meshgrid(ticks, mids), axis=-1).reshape(-1, 2),
    ])
    interior = np.random.default_rng(n).uniform(0.0, 1.0, (100, 2))
    shifts = np.array([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1]]) * 1e-13
    perturbed = (np.concatenate([nodes, faces])[:, None, :] + shifts).reshape(-1, 2)
    outside = 0
    for p in np.concatenate([nodes, faces, interior, perturbed]):
        try:
            want = _old_locate(mesh, p)
        except OutsideDomainError:
            outside += 1
            with pytest.raises(OutsideDomainError):
                mesh.locate(p)
            continue
        elem, local = mesh.locate(p)
        assert elem[0] == want[0]
        np.testing.assert_array_equal(local[0], want[1])
    assert outside > 0
