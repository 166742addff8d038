import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import homog.grid as grid
from homog.coeff import (
    Checkerboard,
    Constant,
    GridTable,
    ScalarCosine,
    symmetric_part_eiglimits,
    validate_ellipticity,
)
from homog.grid import (
    active_nodes,
    boundary_nodes,
    build_mesh,
    element_blocks,
    gauss_rule,
    integrate,
    shape_gradients,
)
from homog.sparse import (
    SMOOTH_WEIGHT,
    AssemblyError,
    Dirichlet,
    Periodic,
    SolverError,
    ZeroMean,
    _galerkin_pass,
    _nodal_stencil,
    _sines,
    _stencil_matrix,
    _stencil_transpose,
    _unknowns,
    _vcycle,
    _zero_off_unknowns,
    assemble_load,
    assemble_stiffness,
    cg_solve,
)


def identity_sampler(p):
    n = p.shape[1]
    return np.broadcast_to(np.eye(n), (len(p), n, n))


def _dofs(unknowns):
    """The flat grid indices of the unknowns, in order: where the rows and
    columns of the unknowns' block, and the entries of a vector of the
    unknowns, sit on the grid."""
    return np.flatnonzero(unknowns)


def _block(matrix, unknowns):
    """The unknowns' block of a matrix on the grid of ``unknowns``, in
    compressed rows."""
    dofs = _dofs(unknowns)
    return sp.csr_matrix(matrix)[dofs][:, dofs]


def _on_grid(system, x):
    """A vector of the unknowns placed on the system grid, zero elsewhere."""
    full = np.zeros(system.unknowns.size)
    full[_dofs(system.unknowns)] = x
    return full


def test_1d_laplacian_hand_values():
    mesh = build_mesh(0.0, 1.0, [2], "box")
    sys = assemble_stiffness(mesh, identity_sampler, ZeroMean())
    dense = sys.matrix.toarray()
    expected = np.array([[2.0, -2.0, 0.0], [-2.0, 4.0, -2.0], [0.0, -2.0, 2.0]])
    np.testing.assert_allclose(dense, expected, atol=1e-13)


@pytest.mark.parametrize("shape,divs", [("box", (4, 5)), ("l_shape", (4, 4))])
def test_row_sums_vanish(shape, divs):
    mesh = build_mesh((0, 0), (1, 1), divs, shape)
    sys = assemble_stiffness(mesh, identity_sampler, ZeroMean())
    sums = np.asarray(sys.matrix.sum(axis=1)).ravel()
    assert np.abs(sums).max() <= 1e-13


def test_symmetry_of_assembled_matrix():
    rng = np.random.default_rng(0)
    mesh = build_mesh((0, 0), (1, 1), (6, 6), "box")

    def sampler(p):
        base = 2.0 + np.sin(2 * np.pi * p[:, 0]) * 0.5
        out = np.zeros((len(p), 2, 2))
        out[:, 0, 0] = base
        out[:, 1, 1] = base + 0.3
        out[:, 0, 1] = out[:, 1, 0] = 0.2 * np.cos(2 * np.pi * p[:, 1])
        return out

    sys = assemble_stiffness(mesh, sampler, ZeroMean())
    diff = (sys.matrix - sys.matrix.T).tocoo()
    scale = np.abs(sys.matrix.data).max()
    assert np.abs(diff.data).max() if diff.nnz else 0.0 <= 1e-13 * scale


def _symmetric_sampler(p):
    n = p.shape[1]
    out = np.zeros((len(p), n, n))
    out[:, 0, 0] = 2.0 + np.sin(2 * np.pi * p[:, 0]) + 0.3 * p[:, -1]
    if n == 2:
        out[:, 1, 1] = 1.5 + np.cos(2 * np.pi * p[:, 1]) * 0.4
        out[:, 0, 1] = out[:, 1, 0] = 0.3 * np.sin(2 * np.pi * (p[:, 0] + p[:, 1]))
    return out


def _nonsymmetric_sampler(p):
    """A skew checkerboard over a smooth symmetric field; symmetric in 1D,
    where every matrix is."""
    if p.shape[1] == 1:
        return _symmetric_sampler(p)
    return _skew_checkerboard(2.0)(p) + 0.5 * _symmetric_sampler(p)


def _symmetric_part(sampler):
    def sample(p):
        a = sampler(p)
        return 0.5 * (a + np.swapaxes(a, 1, 2))

    return sample


def _transposed(sampler):
    def sample(p):
        return np.swapaxes(sampler(p), 1, 2)

    return sample


def _dense_reference(mesh, sampler, node_to_dof):
    """Element-by-element dense assembly onto the dofs, the dof pairs that
    share an active element, and the roundoff scale: the largest element
    entry of the quadrature sum taken in absolute values."""
    rule = gauss_rule(mesh.dim)
    grads = shape_gradients(rule.points) / mesh.h
    ndof = node_to_dof.max() + 1
    matrix = np.zeros((ndof, ndof))
    coupled = np.zeros((ndof, ndof), dtype=bool)
    scale = 0.0
    for e in mesh.active_elements():
        pts = mesh.element_origin([e])[0] + rule.points * mesh.h
        a = sampler(pts)
        ke, bound = (
            np.prod(mesh.h) * sum(w * f(grads[q]) @ f(a[q]) @ f(grads[q]).T
                                  for q, w in enumerate(rule.weights))
            for f in (np.asarray, np.abs)
        )
        scale = max(scale, bound.max())
        dofs = node_to_dof[mesh.element_nodes([e])[0]]
        for i, r in enumerate(dofs):
            for j, c in enumerate(dofs):
                if r >= 0 and c >= 0:
                    matrix[r, c] += ke[i, j]
                    coupled[r, c] = True
    return matrix, coupled, scale


ASSEMBLY_MESHES = {
    "1d_box_7": build_mesh(0.0, 1.0, [7]),
    "1d_box_1": build_mesh(0.0, 2.0, [1]),
    "1d_box_2": build_mesh(0.0, 1.0, [2]),
    "1d_box_3": build_mesh(0.5, 1.0, [3]),
    "2d_box_5x4": build_mesh((0, 0), (1, 1.5), (5, 4)),
    "2d_box_1x1": build_mesh((0, 0), (1, 1), (1, 1)),
    "2d_box_2x2": build_mesh((0, 0), (1, 1), (2, 2)),
    "2d_box_3x3": build_mesh((0, 0), (1, 1), (3, 3)),
    "2d_box_1x3": build_mesh((0, 0), (1, 1), (1, 3)),
    "2d_box_2x5": build_mesh((0, 0), (2, 1), (2, 5)),
    "2d_l_shape_4x4": build_mesh((0, 0), (1, 1), (4, 4), "l_shape"),
    "2d_l_shape_6x8": build_mesh((0, 0), (1, 2), (6, 8), "l_shape"),
}
ASSEMBLY_CONSTRAINTS = {
    "none": ZeroMean(),  # the same matrix and dofs as zero_mean; only the projection differs
    "zero_mean": ZeroMean(),
    "dirichlet": Dirichlet(),
    "periodic": Periodic(),
}
ASSEMBLY_CASES = [
    (m, c) for m in ASSEMBLY_MESHES for c in ASSEMBLY_CONSTRAINTS
    if not (c == "periodic" and "l_shape" in m)
    and (c == "periodic" or m in ("1d_box_7", "2d_box_5x4") or "l_shape" in m)
]


@pytest.mark.parametrize("sampler", ["symmetric", "skew"])
@pytest.mark.parametrize("mesh_name,constraint_name", ASSEMBLY_CASES)
def test_assembly_matches_dense_element_reference(mesh_name, constraint_name, sampler):
    _check_against_dense_reference(ASSEMBLY_MESHES[mesh_name], ASSEMBLY_CONSTRAINTS[constraint_name],
                                   sampler)


@pytest.mark.parametrize("chunk", [1, 16])
@pytest.mark.parametrize("mesh_name,constraint_name", [
    ("1d_box_7", "dirichlet"), ("2d_box_5x4", "periodic"), ("2d_l_shape_6x8", "dirichlet"),
    ("2d_l_shape_6x8", "zero_mean")])
def test_assembly_in_small_blocks_matches_dense_element_reference(
        mesh_name, constraint_name, chunk, monkeypatch):
    # the walk's blocks shrink to one or two rows
    monkeypatch.setattr(grid, "CHUNK_ELEMENTS", chunk)
    _check_against_dense_reference(ASSEMBLY_MESHES[mesh_name], ASSEMBLY_CONSTRAINTS[constraint_name],
                                   "symmetric")


def _check_against_dense_reference(mesh, constraint, sampler):
    sample = _symmetric_sampler if sampler == "symmetric" else _nonsymmetric_sampler
    system = assemble_stiffness(mesh, sample, constraint)
    checks = [(system.matrix, sample)]
    if sampler == "skew" and mesh.dim > 1:
        # the matrix is that of the samples as read, its symmetric part that
        # of their symmetric parts
        checks.append((system.symmetric_part, _symmetric_part(sample)))
    else:
        assert system.symmetric_part is None
    node_to_dof = _dof_map_reference(mesh, constraint)
    for matrix, sample in checks:
        expected, coupled, scale = _dense_reference(mesh, sample, node_to_dof)
        # one row and column per node of the system grid, diagonals ascending
        assert matrix.format == "dia" and matrix.shape == (system.unknowns.size,) * 2
        assert np.all(np.diff(matrix.offsets) > 0)
        assert np.abs(_block(matrix, system.unknowns).toarray() - expected).max() <= 1e-14 * scale
        # every other entry, off the unknowns or between unknowns that share no
        # active element, is an exact zero
        dofs = _dofs(system.unknowns)
        outside = np.ones(matrix.shape, dtype=bool)
        outside[np.ix_(dofs, dofs)] = ~coupled
        assert not matrix.toarray()[outside].any()


@pytest.mark.parametrize("mesh_name,constraint_name", ASSEMBLY_CASES)
def test_stencil_transpose_is_that_of_the_matrix(mesh_name, constraint_name):
    mesh, constraint = ASSEMBLY_MESHES[mesh_name], ASSEMBLY_CONSTRAINTS[constraint_name]
    periodic = isinstance(constraint, Periodic)
    stencil, _ = _nodal_stencil(mesh, _nonsymmetric_sampler, constraint)
    _zero_off_unknowns(stencil, _unknowns(mesh, constraint), periodic)
    scale = np.abs(stencil).max()
    transposed = _stencil_matrix(_stencil_transpose(stencil, periodic), periodic)
    expected = _stencil_matrix(stencil, periodic).T
    # under three nodes wide, a periodic node's neighbours coincide, and the
    # couplings that the matrix merges add in another order
    narrow = periodic and min(mesh.divisions) < 3
    assert _gap(transposed, expected) <= (1e-14 * scale if narrow else 0.0)


DOF_MAP_MESHES = {
    "1d_box": build_mesh(0.5, 1.0, [7]),
    "2d_box": build_mesh((0, 0), (1, 1.5), (5, 4)),
    "2d_l_shape": build_mesh((0, 0), (1, 1), (8, 6), "l_shape"),
    "2d_l_shape_offset": build_mesh((-0.5, 0.25), (1, 0.5), (8, 4), "l_shape"),
}
DOF_MAP_CASES = [(m, c) for m in DOF_MAP_MESHES for c in ("dirichlet", "zero_mean")] + [
    ("1d_box", "periodic"), ("2d_box", "periodic")]


def _dof_map_reference(mesh, constraint):
    """The node -> dof map from the node lists: active nodes less the
    boundary ones, or each node's master ``multi-index % divisions``."""
    if isinstance(constraint, Periodic):
        multi = mesh.node_multi_index(np.arange(mesh.n_nodes))
        masters = mesh.node_flat_index(multi % np.asarray(mesh.divisions))
        kept = np.flatnonzero(masters == np.arange(mesh.n_nodes))
    else:
        kept = active_nodes(mesh)
        if isinstance(constraint, Dirichlet):
            kept = np.setdiff1d(kept, boundary_nodes(mesh))
        masters = np.arange(mesh.n_nodes)
    compact = np.full(mesh.n_nodes, -1)
    compact[kept] = np.arange(len(kept))
    return compact[masters]


@pytest.mark.parametrize("mesh_name,constraint_name", DOF_MAP_CASES)
def test_dof_map_matches_node_list_reference(mesh_name, constraint_name):
    mesh, constraint = DOF_MAP_MESHES[mesh_name], ASSEMBLY_CONSTRAINTS[constraint_name]
    unknowns, reference = _unknowns(mesh, constraint), _dof_map_reference(mesh, constraint)
    if isinstance(constraint, Periodic):
        # the grid is the masters, all unknowns, and the other nodes wrap
        assert unknowns.shape == mesh.divisions[::-1] and unknowns.all()
        assert unknowns.size == reference.max() + 1
    else:
        assert unknowns.shape == mesh.nodes_per_axis[::-1]
        np.testing.assert_array_equal(unknowns.ravel(), reference >= 0)


def test_periodic_dof_map_rejects_masked_mesh():
    with pytest.raises(ValueError):
        _unknowns(DOF_MAP_MESHES["2d_l_shape"], Periodic())


def test_stiffness_assembly_memory_peak():
    # a triplet (COO) assembly peaks near 83 MB here, to return a 7 MB matrix;
    # one 65536-element walk block, the neighbour columns of every offset at
    # once and a fine stencil kept through the multigrid build peaked at 27 MB,
    # their removal at 17.2 MB, and the stencil stored by diagonals at 14.1 MB
    mesh = build_mesh((0, 0), (1, 1), (256, 256))
    sampler, constraint = _cosine_sampler(1 / 16), Dirichlet()
    tracemalloc.start()
    try:
        system = assemble_stiffness(mesh, sampler, constraint)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 9-point rows, cut at the boundary
    assert _block(system.matrix, system.unknowns).count_nonzero() == (3 * 255 - 2) ** 2
    assert peak <= 18e6


def test_tiled_stiffness_assembly_memory_peak():
    # the assembly of the memory test above from one 16 x 16 period of
    # element matrices, as the fine solve makes it, peaked at 12.36 MB (13.8
    # for the whole-mesh walk)
    mesh = build_mesh((0, 0), (1, 1), (256, 256))
    tracemalloc.start()
    try:
        system = assemble_stiffness(mesh, _cosine_sampler(1 / 16), Dirichlet(), (16, 16))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _block(system.matrix, system.unknowns).count_nonzero() == (3 * 255 - 2) ** 2
    assert peak <= 13e6


def test_nonsymmetric_assembly_holds_one_stencil_more():
    # K's stencil is kept while its symmetric part builds the hierarchy, and
    # becomes the matrix after: 17.16 MB against 12.35 MB for the symmetric
    # part's samples alone, one 4.76 MB stencil more
    mesh = build_mesh((0, 0), (1, 1), (256, 256))
    table = _skew_checkerboard(0.5)
    samplers = [_symmetric_part(lambda p: table(16 * p)), lambda p: table(16 * p)]
    assemble_stiffness(mesh, samplers[1], Dirichlet(), (16, 16))
    peaks = []
    for sampler in samplers:
        tracemalloc.start()
        try:
            system = assemble_stiffness(mesh, sampler, Dirichlet(), (16, 16))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert system.symmetric_part is not None
    assert peaks[1] <= peaks[0] + 1.05 * 9 * 257**2 * 8


def _table_field():
    """A non-symmetric 4 x 4 grid table, skew below the symmetric part."""
    rng = np.random.default_rng(11)
    values = rng.uniform(1.0, 4.0, (4, 4, 2, 2))
    values[..., 0, 1], values[..., 1, 0] = rng.uniform(-0.3, 0.3, (2, 4, 4))
    return GridTable(values)


PERIOD_FIELDS = {"cosine": ScalarCosine(2.0, 1.0, 0, 2), "grid_table": _table_field()}


@pytest.mark.parametrize("chunk", [None, 16])
@pytest.mark.parametrize("constraint", ["dirichlet", "zero_mean"])
@pytest.mark.parametrize("shape", ["box", "l_shape"])
@pytest.mark.parametrize("field", sorted(PERIOD_FIELDS))
def test_tiled_stencil_equals_whole_mesh_walk(field, shape, constraint, chunk, monkeypatch):
    # epsilon = 1/4 at 8 elements per cell: 4 x 4 tiles, 12 of them active on
    # the L-shape; a table cell is 2 elements wide
    mesh = build_mesh((0, 0), (1, 1), (32, 32), shape)
    sample = PERIOD_FIELDS[field].sample_batch
    sampler, constraint = (lambda p: sample(4.0 * p)), ASSEMBLY_CONSTRAINTS[constraint]
    whole, whole_bounds = _nodal_stencil(mesh, sampler, constraint)
    if chunk is not None:
        monkeypatch.setattr(grid, "CHUNK_ELEMENTS", chunk)  # the period in blocks of two rows
    tiled, tiled_bounds = _nodal_stencil(mesh, sampler, constraint, (8, 8))
    assert np.abs(tiled - whole).max() <= 1e-14 * np.abs(whole).max()
    # the cosine rounds apart at arguments a whole period apart
    assert tiled_bounds == pytest.approx(whole_bounds, rel=1e-14, abs=0.0)


def test_asymmetry_figure_does_not_depend_on_the_blocks(monkeypatch):
    # divided block by block by each block's largest sample, the figure read
    # 0.1338 in the default blocks and 0.1372 in blocks of 16 elements
    mesh = build_mesh((0, 0), (1, 1), (32, 32), "l_shape")
    sample = _table_field().sample_batch
    sampler = lambda p: sample(4.0 * p)
    figures = [_nodal_stencil(mesh, sampler, Dirichlet())[1][2]]
    monkeypatch.setattr(grid, "CHUNK_ELEMENTS", 16)
    figures.append(_nodal_stencil(mesh, sampler, Dirichlet())[1][2])
    monkeypatch.undo()
    figures.append(_nodal_stencil(mesh, sampler, Dirichlet(), (8, 8))[1][2])
    assert figures[0] > 0.1 and figures == [figures[0]] * 3


@pytest.mark.parametrize("shape", ["box", "l_shape"])
def test_period_of_one_element_samples_one_element(shape):
    mesh = build_mesh((0, 0), (1, 1), (12, 8), shape)
    tensor = np.array([[2.0, 0.3], [0.3, 1.0]])
    seen = []

    def sampler(p):
        seen.append(p.copy())
        return np.broadcast_to(tensor, (len(p), 2, 2))

    whole, whole_bounds = _nodal_stencil(mesh, sampler, Dirichlet())
    seen.clear()
    tiled, tiled_bounds = _nodal_stencil(mesh, sampler, Dirichlet(), (1, 1))
    # one element's product rounds apart from that of the walk's block
    assert np.abs(tiled - whole).max() <= 1e-14 * np.abs(whole).max()
    assert tiled_bounds == whole_bounds
    points = np.concatenate(seen)
    assert len(points) == len(gauss_rule(2).weights)
    assert np.all((points > 0) & (points < mesh.h))


def test_period_must_divide_the_divisions_and_tile_the_active_elements():
    with pytest.raises(ValueError, match="divide"):
        assemble_stiffness(build_mesh((0, 0), (1, 1), (8, 8)), identity_sampler, Dirichlet(), (3, 4))
    # elements 6 to 11 of both axes are removed, so the tile of elements 4 to
    # 7 is partly active
    l_shape = build_mesh((0, 0), (1, 1), (12, 12), "l_shape")
    with pytest.raises(ValueError, match="wholly active"):
        assemble_stiffness(l_shape, identity_sampler, Dirichlet(), (4, 4))
    # one tile, the whole mesh, is walked without its inactive elements
    whole = assemble_stiffness(l_shape, identity_sampler, Dirichlet(), (12, 12))
    assert _gap(whole.matrix, assemble_stiffness(l_shape, identity_sampler, Dirichlet()).matrix) == 0.0


def test_periodic_dimension_counts():
    mesh = build_mesh((0, 0), (1, 1), (4, 6), "box")
    sys = assemble_stiffness(mesh, identity_sampler, Periodic())
    assert sys.dimension == 4 * 6
    mesh1d = build_mesh(0.0, 1.0, [8], "box")
    sys1d = assemble_stiffness(mesh1d, identity_sampler, Periodic())
    assert sys1d.dimension == 8


def test_nonelliptic_sampler_rejected():
    mesh = build_mesh((0, 0), (1, 1), (2, 2), "box")

    def bad(p):
        return np.broadcast_to(np.array([[1.0, 2.0], [2.0, 1.0]]), (len(p), 2, 2))

    with pytest.raises(AssemblyError):
        assemble_stiffness(mesh, bad, ZeroMean())


@pytest.mark.parametrize("shape", ["box", "l_shape"])
def test_recorded_ellipticity_is_that_of_every_quadrature_sample(shape):
    # the fine cosine sampler at eps = 1/4 on 8 elements per cell
    mesh = build_mesh((0, 0), (1, 1), (32, 32), shape)
    field = ScalarCosine(2.0, 1.0, axis=0)

    def sampler(pts):
        return field.sample_batch(pts * 4)

    system = assemble_stiffness(mesh, sampler, Dirichlet())
    points = np.concatenate([b.points().reshape(-1, 2) for b in element_blocks(mesh)])
    assert system.ellipticity == symmetric_part_eiglimits(sampler(points))


@pytest.mark.parametrize("constraint", [Dirichlet(), ZeroMean(), Periodic()])
def test_recorded_ellipticity_of_a_constant_tensor(constraint):
    field = Constant(((2.0, 0.3), (0.3, 1.0)))
    mesh = build_mesh((0, 0), (1, 1), (8, 8), "box")
    system = assemble_stiffness(mesh, field.sample_batch, constraint)
    assert system.ellipticity == validate_ellipticity(field)


def test_cg_identity_system():
    mesh = build_mesh(0.0, 1.0, [4], "box")
    sys = assemble_stiffness(mesh, identity_sampler, Dirichlet())
    rng = np.random.default_rng(1)
    # replace matrix by identity to exercise the solver contract directly
    from homog.sparse import SparseSystem, _dense_inverse, _Level

    dofs = _dofs(sys.unknowns)
    matrix = sp.dia_matrix((sys.unknowns.ravel()[None] * 1.0, [0]), shape=(5, 5))
    inverse = np.zeros((5, 5))
    inverse[np.ix_(dofs, dofs)] = _dense_inverse(np.eye(3), False)
    ident = SparseSystem(matrix, sys.constraint, sys.unknowns, (_Level(inverse=inverse),))
    r = _on_grid(sys, rng.standard_normal(3))
    np.testing.assert_allclose(cg_solve(ident, r), r, atol=1e-12)


def test_cg_1d_dirichlet_midpoint():
    mesh = build_mesh(0.0, 1.0, [2], "box")
    sys = assemble_stiffness(mesh, identity_sampler, Dirichlet())
    b = sys.reduce(assemble_load(mesh, lambda p: np.ones(len(p)))[0])
    x = cg_solve(sys, b)[_dofs(sys.unknowns)]
    assert x[0] == pytest.approx(0.125, abs=1e-12)


def test_cg_zero_rhs_zero_solution():
    mesh = build_mesh((0, 0), (1, 1), (4, 4), "box")
    sys = assemble_stiffness(mesh, identity_sampler, Periodic())
    x = cg_solve(sys, _on_grid(sys, np.zeros(sys.dimension)))
    assert np.all(x == 0.0)


def test_cg_residual_contract():
    rng = np.random.default_rng(5)
    mesh = build_mesh((0, 0), (1, 1), (8, 8), "box")

    def sampler(p):
        out = np.zeros((len(p), 2, 2))
        out[:, 0, 0] = 1.0 + 0.9 * np.sin(2 * np.pi * p[:, 0]) ** 2
        out[:, 1, 1] = 2.0 + np.cos(2 * np.pi * p[:, 1]) ** 2
        return out

    sys = assemble_stiffness(mesh, sampler, Dirichlet())
    b = _on_grid(sys, rng.standard_normal(sys.dimension))
    tol = 1e-10
    x = cg_solve(sys, b, rel_tol=tol)
    res = np.linalg.norm(b - sys.matrix @ x) / np.linalg.norm(b)
    assert res <= tol


@pytest.mark.parametrize("rel_tol", [np.inf, -1.0, np.nan, 0.0])
def test_cg_refuses_a_rel_tol_not_finite_and_positive(rel_tol, monkeypatch):
    # inf accepts any iterate, -1 and NaN divide by zero in the recursion and
    # 0 is never met: each is refused at entry, before any V-cycle
    import homog.sparse

    def no_cycle(*args):
        raise AssertionError("cg_solve iterated")

    monkeypatch.setattr(homog.sparse, "_vcycle", no_cycle)
    mesh = build_mesh((0, 0), (1, 1), (8, 8), "l_shape")
    system = assemble_stiffness(mesh, identity_sampler, Dirichlet())
    b = _on_grid(system, np.ones(system.dimension))
    with pytest.raises(ValueError, match="rel_tol"):
        cg_solve(system, b, rel_tol=rel_tol)


def test_cg_projects_constant_mode():
    mesh = build_mesh((0, 0), (1, 1), (6, 6), "box")
    sys = assemble_stiffness(mesh, identity_sampler, Periodic())
    rng = np.random.default_rng(9)
    b = rng.standard_normal(sys.dimension)
    b -= b.mean()
    b = _on_grid(sys, b)
    x = cg_solve(sys, b)
    assert abs(x.mean()) <= 1e-13
    res = np.linalg.norm(b - sys.matrix @ x) / np.linalg.norm(b)
    assert res <= 1e-10


LOAD_MESHES = {
    "1d": build_mesh(0.5, 1.0, [7]),
    "box": build_mesh((0, -1), (1, 1.5), (6, 8)),
    "l_shape": build_mesh((0, 0), (1, 1), (8, 6), "l_shape"),
}


@pytest.mark.parametrize("chunk", [None, 1, 16])
@pytest.mark.parametrize("name", sorted(LOAD_MESHES))
def test_load_walk_gives_the_integral_of_f_squared(name, chunk, monkeypatch):
    # bitwise the quadrature that integrate makes of f^2 on its own walk
    if chunk is not None:
        monkeypatch.setattr(grid, "CHUNK_ELEMENTS", chunk)
    mesh = LOAD_MESHES[name]
    f = lambda p: np.cos(3 * p[:, 0]) + np.sin(2 * p[:, -1]) + 0.25
    _, f_sq = assemble_load(mesh, f)
    assert type(f_sq) is float
    assert f_sq == integrate(mesh, lambda p: f(p) ** 2)


def test_load_walk_refuses_a_non_finite_sample():
    mesh = LOAD_MESHES["box"]
    with pytest.raises(ValueError, match="non-finite"):
        assemble_load(mesh, lambda p: np.where(p[:, 0] > 0.5, np.nan, 1.0))


def test_cg_determinism_bitwise():
    mesh = build_mesh((0, 0), (1, 1), (8, 8), "box")
    sys = assemble_stiffness(mesh, identity_sampler, Dirichlet())
    b = assemble_load(mesh, lambda p: np.sin(np.pi * p[:, 0]))[0]
    x1 = cg_solve(sys, sys.reduce(b))
    x2 = cg_solve(sys, sys.reduce(b))
    assert np.array_equal(x1, x2)


def test_cg_max_iter_reports_residual():
    # large enough to have coarse levels, so one iteration is not an exact solve
    mesh = build_mesh((0, 0), (1, 1), (128, 128), "box")
    sys = assemble_stiffness(mesh, identity_sampler, Dirichlet())
    b = _on_grid(sys, np.ones(sys.dimension))
    with pytest.raises(SolverError) as err:
        cg_solve(sys, b, rel_tol=1e-14, max_iter=1)
    assert err.value.achieved > 0


def test_cg_stall_at_the_rounding_floor_raises_early(monkeypatch):
    # 1e-17 is below the rounding floor of any true residual: the recursion
    # restarts from the true residual, which stops falling, so CG gives up
    # after a few restarts instead of running to max_iter (2650 here)
    import time

    import homog.sparse

    mesh = build_mesh((0, 0), (1, 1), (32, 32))
    system = assemble_stiffness(mesh, identity_sampler, Dirichlet())
    assert len(system.hierarchy) == 3
    cycles, vcycle = [], homog.sparse._vcycle

    def counted(matrix, levels, *args):
        cycles.append(levels is system.hierarchy)
        return vcycle(matrix, levels, *args)

    monkeypatch.setattr(homog.sparse, "_vcycle", counted)
    b = np.random.default_rng(0).standard_normal(system.unknowns.size)
    start = time.perf_counter()
    with pytest.raises(SolverError, match="stalled") as err:
        cg_solve(system, b, rel_tol=1e-17)
    assert time.perf_counter() - start < 1.0
    assert 0 < sum(cycles) <= 60
    assert 1e-17 < err.value.achieved < 1e-13


def test_gmres_stall_at_the_rounding_floor_raises_early():
    # GMRES cycles under the same driver: once restarts from the true
    # residual stop lowering it, it gives up instead of running to max_iter
    # (4200 here, about 1.1 s)
    import time

    system = _skew_periodic_system(64, 1.0)
    assert system.symmetric_part is not None
    b = np.random.default_rng(0).standard_normal(system.unknowns.size)
    b -= b.mean()
    start = time.perf_counter()
    with pytest.raises(SolverError, match="stalled") as err:
        cg_solve(system, b, rel_tol=1e-17)
    assert time.perf_counter() - start < 0.5
    assert 1e-17 < err.value.achieved < 1e-13


def _skew_checkerboard(s):
    """Blocks I + sJ and I - sJ in a 2x2 checkerboard: symmetric part I,
    skew part of size s."""
    block, flipped = [[1.0, s], [-s, 1.0]], [[1.0, -s], [s, 1.0]]
    return GridTable(np.array([[block, flipped], [flipped, block]])).sample_batch


def _cosine_sampler(epsilon):
    field = ScalarCosine(2.0, 1.0, 0, 2)
    return lambda p: field.sample_batch(p / epsilon)


SOLVER_CASES = {
    # name: (mesh, sampler, constraint, levels of the preconditioner)
    "dirichlet_box": (build_mesh((0, 0), (1, 1), (32, 32)), identity_sampler, Dirichlet(), 3),
    "dirichlet_l_shape": (build_mesh((0, 0), (1, 1), (32, 32), "l_shape"), identity_sampler,
                          Dirichlet(), 3),
    "zero_mean_l_shape": (build_mesh((0, 0), (1, 1), (32, 32), "l_shape"), identity_sampler,
                          ZeroMean(), 3),
    "periodic_cosine": (build_mesh((0, 0), (1, 1), (32, 32)), _cosine_sampler(1.0),
                        Periodic(), 3),
    "periodic_checkerboard": (build_mesh((0, 0), (1, 1), (32, 32)),
                              Checkerboard(1.0, 100.0).sample_batch, Periodic(), 3),
    "dirichlet_1d": (build_mesh(0.0, 1.0, [1024]), identity_sampler, Dirichlet(), 5),
    "odd_divisions": (build_mesh((0, 0), (1, 1), (45, 45)), identity_sampler, Dirichlet(), 1),
    "periodic_skew_checkerboard": (build_mesh((0, 0), (1, 1), (32, 32)), _skew_checkerboard(2.0),
                                   Periodic(), 3),
}


@pytest.mark.parametrize("name", sorted(SOLVER_CASES))
def test_cg_matches_dense_solve(name):
    mesh, sampler, constraint, levels = SOLVER_CASES[name]
    sys = assemble_stiffness(mesh, sampler, constraint)
    assert (sys.symmetric_part is not None) == ("skew" in name)
    b = np.random.default_rng(3).standard_normal(sys.dimension)
    dense = _block(sys.matrix, sys.unknowns).toarray()
    if sys.needs_projection:
        # with the constant mode as kernel, adding 1 to every entry makes the
        # matrix regular and its solution the zero-mean one
        b -= b.mean()
        dense += 1.0
    expected = np.linalg.solve(dense, b)
    x = cg_solve(sys, _on_grid(sys, b))[_dofs(sys.unknowns)]
    assert len(sys.hierarchy) == levels
    assert np.linalg.norm(x - expected) <= 1e-9 * np.linalg.norm(expected)


# the unknowns of each case's coarsest level, as the compressed dof numbering
# of the earlier layout had them
COARSEST_UNKNOWNS = {
    "dirichlet_box": 49, "dirichlet_l_shape": 33, "zero_mean_l_shape": 65, "periodic_cosine": 64,
    "periodic_checkerboard": 64, "dirichlet_1d": 63, "odd_divisions": 1936,
    "periodic_skew_checkerboard": 64,
}


@pytest.mark.parametrize("name", sorted(SOLVER_CASES))
def test_every_level_is_its_unknowns_block_on_its_node_grid(name):
    mesh, sampler, constraint, levels = SOLVER_CASES[name]
    system = assemble_stiffness(mesh, sampler, constraint)
    rng = np.random.default_rng(7)
    stack = list(_levels(system))
    assert len(stack) == levels
    assert np.count_nonzero(stack[-1][2]) == COARSEST_UNKNOWNS[name]
    operators = [(system.matrix, system.unknowns)] + [(matrix, unknowns) for _, matrix, unknowns in stack]
    for matrix, unknowns in operators:
        off = ~unknowns.ravel()
        dense = matrix.toarray()
        assert matrix.format == "dia" and not dense[off].any() and not dense[:, off].any()
        x = np.where(off, 0.0, rng.standard_normal(unknowns.size))
        expected = np.zeros(unknowns.size)
        expected[~off] = _block(matrix, unknowns) @ x[~off]
        assert np.array_equal(matrix @ x, expected)
    for level, _, unknowns in stack:
        off = ~unknowns.ravel()
        if level.weights is not None:
            assert not level.weights[off].any()
        if level.inverse is not None:
            assert not level.inverse[off].any() and not level.inverse[:, off].any()
        if level.prolong is not None:
            coarse_off = ~unknowns[(slice(None, None, 2),) * unknowns.ndim].ravel()
            assert level.prolong[off].count_nonzero() == level.restrict[:, off].count_nonzero() == 0
            assert level.prolong[:, coarse_off].count_nonzero() == 0
    # entries of the rhs off the unknowns are ignored, and the solution is
    # zero there
    b = rng.standard_normal(system.unknowns.size)
    x = cg_solve(system, b)
    assert not x[~system.unknowns.ravel()].any()
    assert np.array_equal(x, cg_solve(system, np.where(system.unknowns.ravel(), b, 0.0)))


@pytest.mark.parametrize("name", sorted(n for n in SOLVER_CASES if "skew" not in n))
def test_vcycle_symmetric_positive_definite(name):
    # PCG needs a symmetric positive definite preconditioner; on singular
    # systems it only ever sees zero-mean vectors
    mesh, sampler, constraint, _ = SOLVER_CASES[name]
    sys = assemble_stiffness(mesh, sampler, constraint)
    u, v = np.random.default_rng(5).standard_normal((2, sys.dimension))
    if sys.needs_projection:
        u -= u.mean()
        v -= v.mean()
    u, v = _on_grid(sys, u), _on_grid(sys, v)
    vu = _vcycle(sys.matrix, sys.hierarchy, u)
    vv = _vcycle(sys.matrix, sys.hierarchy, v)
    assert u @ vu > 0 and v @ vv > 0
    # |<u, V v>| is at most this scale when V is positive definite
    scale = np.sqrt((u @ vu) * (v @ vv))
    assert abs(u @ vv - vu @ v) <= 1e-12 * scale


def _csr_jacobi_weights(matrix, unknowns):
    """``SMOOTH_WEIGHT / max(diag, |A| 1 / 2)`` from the compressed rows of
    the unknowns' block, placed on the grid."""
    block = _block(matrix, unknowns)
    weights = np.zeros(unknowns.size)
    weights[_dofs(unknowns)] = SMOOTH_WEIGHT / np.maximum(
        block.diagonal(), 0.5 * (abs(block) @ np.ones(block.shape[1])))
    return weights


def _levels(system):
    """Each level of the V-cycle with its operator and its unknowns: the
    fine nodes' at the top, a coarse node's those of the fine node it
    coincides with."""
    matrix = system.matrix if system.symmetric_part is None else system.symmetric_part
    unknowns = system.unknowns
    for level in system.hierarchy:
        yield level, matrix, unknowns
        matrix, unknowns = level.coarse, unknowns[(slice(None, None, 2),) * unknowns.ndim]


def _smoothed_levels(system):
    """Each level's Jacobi weights, read off its stencil, beside those of
    the compressed rows of its unknowns' block."""
    for level, matrix, unknowns in _levels(system):
        if level.weights is not None:
            yield level.weights, _csr_jacobi_weights(matrix, unknowns)


@pytest.mark.parametrize("name", ["dirichlet_box", "dirichlet_l_shape", "zero_mean_l_shape",
                                  "dirichlet_1d", "odd_divisions"])
def test_jacobi_weights_from_the_stencil_equal_the_csr_rows(name):
    # odd_divisions smooths on its one, too large, level instead of inverting it
    mesh, sampler, constraint, _ = SOLVER_CASES[name]
    levels = list(_smoothed_levels(assemble_stiffness(mesh, sampler, constraint)))
    assert levels
    for weights, expected in levels:
        np.testing.assert_array_equal(weights, expected)


@pytest.mark.parametrize("a12,smaller", [(0.3, False), (0.9, True)])
@pytest.mark.parametrize("divisions", [(2, 256), (256, 2)])
def test_jacobi_weights_never_exceed_the_csr_rows_where_periodic_neighbours_coincide(
        divisions, a12, smaller):
    # on a 2-wide periodic axis a node's left and right neighbours are one
    # node: the matrix merges their couplings, the stencil adds both
    # magnitudes; with a strong a12 the diagonal ones have opposite signs
    mesh = build_mesh((0, 0), tuple(d / 256 for d in divisions), divisions)  # square elements
    system = assemble_stiffness(mesh, _constant_sampler([[1.0, a12], [a12, 1.0]]), Periodic())
    levels = list(_smoothed_levels(system))
    assert levels
    for weights, expected in levels:
        assert np.all(weights <= expected * (1 + 4 * np.finfo(float).eps))
        assert np.all(weights < expected) == smaller


@pytest.mark.parametrize("divisions", [128, 256])
def test_cg_iterations_bounded_on_cosine_fine_problem(divisions):
    # 16 elements per period; Jacobi-CG needs hundreds of iterations here
    mesh = build_mesh((0, 0), (1, 1), (divisions, divisions))
    sys = assemble_stiffness(mesh, _cosine_sampler(16 / divisions), Dirichlet())
    b = sys.reduce(assemble_load(mesh, lambda p: np.ones(len(p)))[0])
    x = cg_solve(sys, b, max_iter=15)
    assert np.linalg.norm(b - sys.matrix @ x) <= 1e-10 * np.linalg.norm(b)


def test_cg_strongly_anisotropic_tensor():
    # plain damped Jacobi over-relaxes the modes of this stencil that are
    # smooth in y and oscillate in x, and makes the V-cycle indefinite
    # (thousands of iterations); the raised diagonal keeps the smoother
    # contracting
    tensor = np.array([[1.0, 0.0], [0.0, 100.0]])
    mesh = build_mesh((0, 0), (1, 1), (128, 128))
    sys = assemble_stiffness(mesh, lambda p: np.broadcast_to(tensor, (len(p), 2, 2)), Dirichlet())
    b = sys.reduce(assemble_load(mesh, lambda p: np.ones(len(p)))[0])
    x = cg_solve(sys, b, max_iter=100)
    assert np.linalg.norm(b - sys.matrix @ x) <= 1e-10 * np.linalg.norm(b)


# (divisions, extent, shape) of meshes with unequal divisions and steps per axis
TRANSFORM_MESHES = {"1d": ([48], [0.7], "box"), "2d": ([48, 20], [1.0, 0.7], "box"),
                    "2d_l_shape": ([32, 24], [1.0, 0.7], "l_shape")}
TRANSFORM_CONSTRAINTS = {"dirichlet": Dirichlet(), "zero_mean": ZeroMean()}
# a ZeroMean L-shape keeps multigrid (test_transform_level_only_where_it_is_exact)
TRANSFORM_CASES = [(m, c) for m in sorted(TRANSFORM_MESHES) for c in sorted(TRANSFORM_CONSTRAINTS)
                   if (m, c) != ("2d_l_shape", "zero_mean")]


def _diagonal_system(mesh_name, constraint_name, period=None, coarsened=1):
    divisions, extent, shape = TRANSFORM_MESHES[mesh_name]
    divisions = [n // coarsened for n in divisions]
    mesh = build_mesh([0.0] * len(divisions), extent, divisions, shape)
    sampler = _constant_sampler(np.diag([2.0, 0.5][:mesh.dim]))
    return assemble_stiffness(mesh, sampler, TRANSFORM_CONSTRAINTS[constraint_name], period)


@pytest.mark.parametrize("mesh_name,constraint_name", TRANSFORM_CASES)
def test_transform_solve_equals_multigrid_solve(mesh_name, constraint_name):
    dim = len(TRANSFORM_MESHES[mesh_name][0])
    transform = _diagonal_system(mesh_name, constraint_name, (1,) * dim)
    multigrid = _diagonal_system(mesh_name, constraint_name)
    [level] = transform.hierarchy
    assert level.spectrum is not None and level.sine == (constraint_name == "dirichlet")
    assert (level.capacitance is not None) == ("l_shape" in mesh_name)
    assert all(level.spectrum is None for level in multigrid.hierarchy)
    assert transform.ellipticity == multigrid.ellipticity
    # one element's product rounds apart from that of the walk's block
    assert _gap(transform.matrix, multigrid.matrix) <= 1e-14 * np.abs(multigrid.matrix.data).max()
    b = np.random.default_rng(11).standard_normal(transform.unknowns.size)
    expected = cg_solve(multigrid, b, rel_tol=1e-12)
    got = cg_solve(transform, b, rel_tol=1e-12)
    assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)


@pytest.mark.parametrize("case", ["off_diagonal", "zero_mean_l_shape", "off_diagonal_l_shape",
                                  "two_element_period", "periodic", "whole_mesh_period"])
def test_transform_level_only_where_it_is_exact(case):
    off_diagonal = case.startswith("off_diagonal")
    tensor = np.array([[2.0, 0.3], [0.3, 1.0]]) if off_diagonal else np.diag([2.0, 0.5])
    mesh = build_mesh((0, 0), (1, 1), (16, 16), "l_shape" if "l_shape" in case else "box")
    constraint = {"periodic": Periodic(), "zero_mean_l_shape": ZeroMean()}.get(case, Dirichlet())
    period = {"two_element_period": (2, 2), "whole_mesh_period": None}.get(case, (1, 1))
    system = assemble_stiffness(mesh, _constant_sampler(tensor), constraint, period)
    assert len(system.hierarchy) > 1 and all(level.spectrum is None for level in system.hierarchy)


@pytest.mark.parametrize("mesh_name,constraint_name", TRANSFORM_CASES)
def test_transform_level_symmetric_positive_definite(mesh_name, constraint_name):
    # the level's matrix, column by column, on a 12 x 5 box or an 8 x 6
    # L-shape: positive definite on the unknowns, or semi-definite with the
    # constants as its only kernel
    dim = len(TRANSFORM_MESHES[mesh_name][0])
    system = _diagonal_system(mesh_name, constraint_name, (1,) * dim, coarsened=4)
    assert system.hierarchy[0].spectrum is not None
    columns = [_vcycle(system.matrix, system.hierarchy, e) for e in np.eye(system.unknowns.size)]
    dense = _block(np.array(columns).T, system.unknowns).toarray()
    scale = np.abs(dense).max()
    assert np.abs(dense - dense.T).max() <= 1e-13 * scale
    eigenvalues, vectors = np.linalg.eigh(dense)
    if constraint_name == "dirichlet":
        assert eigenvalues[0] > 1e-6 * scale
    else:
        assert abs(eigenvalues[0]) <= 1e-13 * scale and eigenvalues[1] > 1e-6 * scale
        np.testing.assert_allclose(np.abs(vectors[:, 0]), 1 / np.sqrt(len(dense)), rtol=1e-10)
    assert not np.array(columns)[:, ~system.unknowns.ravel()].any()


@pytest.mark.parametrize("divisions", [(8, 8), (16, 16), (32, 32), (12, 6)])
@pytest.mark.parametrize("stiffer_x", [True, False])
def test_capacitance_level_equals_dense_solve(divisions, stiffer_x):
    mesh = build_mesh((0, 0), (1, 1), divisions, "l_shape")
    tensor = np.diag([2.0, 0.5] if stiffer_x else [0.5, 2.0])
    system = assemble_stiffness(mesh, _constant_sampler(tensor), Dirichlet(), (1, 1))
    [level] = system.hierarchy
    # Gamma, the removed quadrant's two inner edges: half a node row and half
    # a node column, which share the corner
    assert len(level.capacitance) == divisions[0] // 2 + divisions[1] // 2 - 1
    # the rhs off the unknowns is ignored, and the result is exactly 0 there
    r = np.random.default_rng(13).standard_normal(system.unknowns.size)
    x = _vcycle(system.matrix, system.hierarchy, r)
    unknowns = system.unknowns.ravel()
    assert not x[~unknowns].any()
    expected = np.linalg.solve(_block(system.matrix, system.unknowns).toarray(), r[unknowns])
    assert np.linalg.norm(x[unknowns] - expected) <= 1e-12 * np.linalg.norm(expected)


def test_capacitance_solve_takes_one_pcg_step(monkeypatch):
    import homog.sparse

    mesh = build_mesh((0, 0), (1, 1), (64, 64), "l_shape")
    system = assemble_stiffness(mesh, _constant_sampler(np.diag([2.0, 0.5])), Dirichlet(), (1, 1))
    cycles, vcycle = [], homog.sparse._vcycle
    monkeypatch.setattr(homog.sparse, "_vcycle", lambda *args: cycles.append(1) or vcycle(*args))
    b = system.reduce(assemble_load(mesh, lambda p: np.ones(len(p)))[0])
    x = cg_solve(system, b)
    # the first cycle preconditions the initial residual; the true residual
    # after one step meets the tolerance, so no second cycle runs
    assert len(cycles) == 1
    assert np.linalg.norm(b - system.matrix @ x) <= 1e-10 * np.linalg.norm(b)


def test_transform_level_needs_gamma_on_one_row_and_one_column():
    # the closed-form Gamma of the L-shape is the search for it on the
    # unknowns: the box's interior nodes that couple to an unknown without
    # being one, one node row and one node column, read as sine tables
    for divisions in [(4, 4), (8, 8), (16, 16), (64, 64), (256, 256), (12, 6), (6, 12)]:
        mesh = build_mesh((0, 0), (1, 1), divisions, "l_shape")
        system = assemble_stiffness(mesh, _constant_sampler(np.diag([2.0, 0.5])), Dirichlet(), (1, 1))
        [level], unknowns = system.hierarchy, system.unknowns
        padded = np.pad(unknowns, 1)
        near = np.any([padded[t[0]:t[0] + unknowns.shape[0], t[1]:t[1] + unknowns.shape[1]]
                       for t in np.ndindex(3, 3)], axis=0)
        rows, columns = np.nonzero((near & ~unknowns)[1:-1, 1:-1])  # interior nodes, from 0
        j0, i0 = np.bincount(rows).argmax(), np.bincount(columns).argmax()
        assert not np.any((rows != j0) & (columns != i0))
        d0, d1 = divisions
        (across_row, on_row), (across_column, on_column) = level.gamma
        np.testing.assert_array_equal(across_row, _sines([j0], d1)[0])
        np.testing.assert_array_equal(on_row, _sines(columns[rows == j0], d0))
        np.testing.assert_array_equal(across_column, _sines([i0], d0)[0])
        np.testing.assert_array_equal(on_column, _sines(rows[(columns == i0) & (rows != j0)], d1))
        np.testing.assert_array_equal(level.keep, unknowns[1:-1, 1:-1])


def test_all_active_mask_builds_the_box_sine_level_with_no_capacitance():
    # the box, the default shape, has no mask, and its level is the plain
    # sine level; the L-shape's at the same divisions is that level with the
    # capacitance correction
    box = grid.StructuredMesh((0, 0), (1, 1), (16, 12))
    assert box.shape == "box" and box.active_mask is None
    sampler = _constant_sampler(np.diag([2.0, 0.5]))
    [box_level], [l_level] = (assemble_stiffness(mesh, sampler, Dirichlet(), (1, 1)).hierarchy
                              for mesh in (box, build_mesh((0, 0), (1, 1), (16, 12), "l_shape")))
    assert box_level.sine and box_level.capacitance is None and not box_level.gamma
    assert box_level.keep is None
    assert l_level.sine and l_level.capacitance is not None
    assert np.array_equal(box_level.spectrum, l_level.spectrum)


def _skew_periodic_system(divisions, s):
    mesh = build_mesh((0, 0), (1, 1), (divisions, divisions))
    return assemble_stiffness(mesh, _skew_checkerboard(s), Periodic())


def test_gmres_max_iter_reports_residual():
    sys = _skew_periodic_system(64, 1.0)
    b = np.random.default_rng(3).standard_normal(sys.dimension)
    with pytest.raises(SolverError) as err:
        cg_solve(sys, b, max_iter=1)
    assert err.value.achieved > 0


@pytest.mark.parametrize("divisions", [64, 128])
def test_gmres_iterations_bounded_under_refinement(divisions):
    # preconditioned by the V-cycle of the symmetric part, GMRES converges at a
    # rate set by the skew ratio, not the mesh: 26 iterations at both sizes
    sys = _skew_periodic_system(divisions, 1.0)
    b = np.random.default_rng(3).standard_normal(sys.dimension)
    b -= b.mean()
    x = cg_solve(sys, b, max_iter=40)
    assert np.linalg.norm(b - sys.matrix @ x) <= 1e-10 * np.linalg.norm(b)
    assert abs(x.mean()) <= 1e-13


def test_expand_roundtrip_periodic():
    mesh = build_mesh((0, 0), (1, 1), (4, 4), "box")
    sys = assemble_stiffness(mesh, identity_sampler, Periodic())
    rng = np.random.default_rng(2)
    x = rng.standard_normal(sys.dimension)
    full = sys.expand(x)
    # opposite faces carry identical values
    grid = full.reshape(5, 5)  # [i1, i0]
    np.testing.assert_array_equal(grid[:, 0], grid[:, 4])
    np.testing.assert_array_equal(grid[0, :], grid[4, :])


def _master_index(divisions):
    """The index on the periodic masters' grid of each node's master, the
    node at its multi-index modulo the divisions, and whether the node is
    its own master."""
    nodes = tuple(d + 1 for d in divisions)
    multi = np.unravel_index(np.arange(np.prod(nodes)), nodes, order="F")
    masters = np.ravel_multi_index(tuple(m % d for m, d in zip(multi, divisions)), divisions, order="F")
    return masters, np.all([m < d for m, d in zip(multi, divisions)], axis=0)


def _kron_prolongation(divisions, unknowns, periodic):
    """Bilinear prolongation onto the system grid of a mesh from that of the
    mesh with halved divisions: the 1D interpolations' Kronecker product over
    every node, cut to the rows of the periodic masters and with the coarse
    slaves' columns folded onto theirs, then kept between unknowns, where a
    coarse node is an unknown when the fine node it coincides with is one."""
    nodes = sp.csr_matrix(np.ones((1, 1)))
    for d in divisions:  # axis 0 varies fastest, so it is the innermost factor
        fine = np.arange(d + 1)
        odd = fine[1::2]
        interp = sp.csr_matrix(
            (np.concatenate([np.where(fine % 2, 0.5, 1.0), np.full(len(odd), 0.5)]),
             (np.concatenate([fine, odd]), np.concatenate([fine // 2, odd // 2 + 1]))),
            shape=(d + 1, d // 2 + 1))
        nodes = sp.kron(interp, nodes, format="csr")
    if periodic:
        _, fine_masters = _master_index(divisions)
        coarse_masters, _ = _master_index(tuple(d // 2 for d in divisions))
        fold = sp.csr_matrix((np.ones(len(coarse_masters)), (np.arange(len(coarse_masters)), coarse_masters)))
        nodes = nodes[fine_masters] @ fold
    coarse = unknowns[(slice(None, None, 2),) * unknowns.ndim]
    return (sp.diags(unknowns.ravel() * 1.0) @ nodes @ sp.diags(coarse.ravel() * 1.0)).tocsr()


def _gap(a, b):
    return np.abs((sp.csr_matrix(a) - sp.csr_matrix(b)).toarray()).max() if a.shape == b.shape else np.inf


def _constant_sampler(tensor):
    tensor = np.atleast_2d(tensor)
    return lambda p: np.broadcast_to(tensor, (len(p),) + tensor.shape)


@pytest.mark.parametrize("shape", ["box", "l_shape"])
@pytest.mark.parametrize("constraint", ["dirichlet", "zero_mean"])
def test_constant_tensor_levels_equal_halved_mesh_assembly(shape, constraint):
    # Q1 spaces are nested and 2-point Gauss is exact for constant tensors,
    # so each Galerkin level is the stiffness of the halved mesh
    sampler = _constant_sampler([[2.0, 0.3], [0.3, 1.0]])
    mesh = build_mesh((0, 0), (1, 2), (64, 64), shape)
    levels = assemble_stiffness(mesh, sampler, ASSEMBLY_CONSTRAINTS[constraint]).hierarchy
    assert len(levels) == 4
    for k, level in enumerate(levels[:-1], start=1):
        coarse_mesh = build_mesh((0, 0), (1, 2), (64 >> k, 64 >> k), shape)
        expected = assemble_stiffness(coarse_mesh, sampler, ASSEMBLY_CONSTRAINTS[constraint]).matrix
        assert _gap(level.coarse, expected) <= 1e-14 * np.abs(expected.data).max()


HIERARCHY_CASES = {
    # name: (mesh, sampler, constraint)
    "dirichlet_cosine": (build_mesh((0, 0), (1, 1), (64, 64)), _cosine_sampler(1 / 4), Dirichlet()),
    "dirichlet_l_shape_cosine": (build_mesh((0, 0), (1, 1), (64, 64), "l_shape"),
                                 _cosine_sampler(1 / 4), Dirichlet()),
    "zero_mean_l_shape_checkerboard": (build_mesh((0, 0), (1, 1), (64, 64), "l_shape"),
                                       Checkerboard(1.0, 100.0).sample_batch,
                                       ZeroMean()),
    # 68 -> 34 -> 17 divisions: the reentrant corner sits at an odd node of
    # the middle level, so coarse hats there reach eliminated and inactive nodes
    "dirichlet_l_shape_offset_corner": (build_mesh((0, 0), (1, 1), (68, 68), "l_shape"),
                                        _cosine_sampler(1 / 4), Dirichlet()),
    "zero_mean_l_shape_offset_corner": (build_mesh((0, 0), (1, 1), (68, 68), "l_shape"),
                                        Checkerboard(1.0, 100.0).sample_batch,
                                        ZeroMean()),
    "periodic_checkerboard": (build_mesh((0, 0), (1, 1), (64, 64)),
                              Checkerboard(1.0, 100.0).sample_batch, Periodic()),
    "periodic_skew_checkerboard": (build_mesh((0, 0), (1, 1), (64, 64)), _skew_checkerboard(2.0),
                                   Periodic()),
    "dirichlet_1d_cosine": (build_mesh(0.0, 1.0, [2048]),
                            lambda p: ScalarCosine(2.0, 1.0, 0, 1).sample_batch(8 * p), Dirichlet()),
    "periodic_1d_symmetric": (build_mesh(0.0, 1.0, [1024]), _symmetric_sampler, Periodic()),
}


@pytest.mark.parametrize("name", sorted(HIERARCHY_CASES))
def test_levels_equal_kron_galerkin_product(name):
    _check_levels_against_kron_product(*HIERARCHY_CASES[name])


@pytest.mark.parametrize("name", ["dirichlet_l_shape_offset_corner", "periodic_checkerboard"])
def test_levels_in_small_blocks_equal_kron_galerkin_product(name, monkeypatch):
    # one row of elements per walk block
    monkeypatch.setattr(grid, "CHUNK_ELEMENTS", 64)
    _check_levels_against_kron_product(*HIERARCHY_CASES[name])


def _check_levels_against_kron_product(mesh, sampler, constraint):
    system = assemble_stiffness(mesh, sampler, constraint)
    divisions = mesh.divisions
    assert len(system.hierarchy) >= 3
    for level, matrix, unknowns in list(_levels(system))[:-1]:
        prolong = _kron_prolongation(divisions, unknowns, isinstance(constraint, Periodic))
        assert _gap(level.prolong, prolong) == 0.0
        assert _gap(level.restrict, prolong.T) == 0.0
        expected = prolong.T @ matrix @ prolong
        assert _gap(level.coarse, expected) <= 1e-14 * np.abs(expected.data).max()
        divisions = tuple(d // 2 for d in divisions)
    assert system.hierarchy[-1].coarse is None


@pytest.mark.parametrize("divisions", [(4, 4), (2, 2), (4,), (2,)])
def test_periodic_galerkin_pass_with_coinciding_neighbours(divisions):
    # on 4 and 2 nodes per axis a node's left and right neighbours, or the
    # coarse ones, are the same node
    dim = len(divisions)
    mesh = build_mesh((0,) * dim, (1,) * dim, divisions)
    sampler = Checkerboard(1.0, 100.0).sample_batch if dim == 2 else _symmetric_sampler
    system = assemble_stiffness(mesh, sampler, Periodic())
    stencil, _ = _nodal_stencil(mesh, sampler, Periodic())
    matrix = _stencil_matrix(stencil, periodic=True)
    assert _gap(matrix, system.matrix) == 0.0
    unknowns = system.unknowns
    while divisions[0] > 1:
        prolong = _kron_prolongation(divisions, unknowns, periodic=True)
        for axis in range(dim):
            stencil = _galerkin_pass(stencil, axis, periodic=True)
        coarse = _stencil_matrix(stencil, periodic=True)
        expected = prolong.T @ matrix @ prolong
        # one coarse node holds only the constant mode: the level is zero up
        # to the rounding of the fine entries
        assert _gap(coarse, expected) <= 1e-14 * np.abs(matrix.data).max()
        matrix, divisions = coarse, tuple(d // 2 for d in divisions)
        unknowns = unknowns[(slice(None, None, 2),) * dim]


COORDINATE_MESHES = {
    "1d_box_7": build_mesh(0.5, 1.0, [7]),
    "1d_box_3": build_mesh(0.0, 2.0, [3]),
    "2d_box_5x4": build_mesh((0, 0), (1, 1.5), (5, 4)),
    "2d_box_3x6": build_mesh((-1, 0.5), (2, 1), (3, 6)),
    "2d_box_8x8": build_mesh((0, 0), (1, 1), (8, 8)),
}


def _coordinate_systems(mesh, sampler, constraint, transposed):
    sample = _symmetric_sampler if sampler == "symmetric" else _nonsymmetric_sampler
    if transposed:  # the stiffness of A^T, as the adjoint cell problems assemble it
        sample = _transposed(sample)
    return [assemble_stiffness(mesh, sample, c) for c in (constraint, ZeroMean())]


def _relative_gap(got, expected):
    return np.abs(got - expected).max() / np.abs(expected).max()


@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("sampler", ["symmetric", "skew"])
@pytest.mark.parametrize("mesh_name", sorted(COORDINATE_MESHES))
def test_coordinate_products_of_a_zero_mean_box_are_the_matrix_times_the_coordinates(
        mesh_name, sampler, transposed):
    mesh = COORDINATE_MESHES[mesh_name]
    system, _ = _coordinate_systems(mesh, sampler, ZeroMean(), transposed)
    got = system.coordinate_products(mesh.h)
    assert got.shape == (mesh.dim, mesh.n_nodes)
    for k, y in enumerate(mesh.node_coordinates().T):
        assert _relative_gap(got[k], system.matrix @ y) <= 1e-13


@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("sampler", ["symmetric", "skew"])
@pytest.mark.parametrize("mesh_name", sorted(COORDINATE_MESHES))
def test_periodic_coordinate_products_are_the_folded_zero_mean_products(mesh_name, sampler, transposed):
    # the coordinates unwrap across the periodic faces: the products are those
    # of the unfolded mesh, with the slave rows added onto their masters
    mesh = COORDINATE_MESHES[mesh_name]
    periodic, zero_mean = _coordinate_systems(mesh, sampler, Periodic(), transposed)
    got = periodic.coordinate_products(mesh.h)
    assert got.shape == (mesh.dim, periodic.unknowns.size)
    for k, y in enumerate(mesh.node_coordinates().T):
        assert _relative_gap(got[k], periodic.reduce(zero_mean.matrix @ y)) <= 1e-13


@pytest.mark.parametrize("divisions,constraint", [
    ((2,), Periodic()), ((5, 2), Periodic()), ((2, 5), Periodic()), ((1, 4), Periodic()),
    ((5, 4), Dirichlet())])
def test_coordinate_products_refuse_merged_couplings_and_a_regular_system(divisions, constraint):
    mesh = build_mesh((0.0,) * len(divisions), (1.0,) * len(divisions), divisions)
    system = assemble_stiffness(mesh, _symmetric_sampler, constraint)
    with pytest.raises(ValueError):
        system.coordinate_products(mesh.h)
