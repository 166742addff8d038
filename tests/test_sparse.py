import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

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
    shape_gradients,
)
from homog.sparse import (
    AssemblyError,
    Dirichlet,
    Periodic,
    SolverError,
    ZeroMean,
    _assemble_matrix,
    _dof_map,
    _galerkin_pass,
    _nodal_stencil,
    _read_csr,
    _vcycle,
    assemble_load,
    assemble_stiffness,
    cg_solve,
)


def identity_sampler(p):
    n = p.shape[1]
    return np.broadcast_to(np.eye(n), (len(p), n, n))


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


def _skew_part_sampler(p):
    """The skew part of a non-symmetric table, as ``cell.solve_correctors``
    assembles it; zero in 1D."""
    if p.shape[1] == 1:
        return np.zeros((len(p), 1, 1))
    a = _skew_checkerboard(2.0)(p) + 0.5 * _symmetric_sampler(p)
    return 0.5 * (a - np.swapaxes(a, 1, 2))


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
    mesh = ASSEMBLY_MESHES[mesh_name]
    constraint = ASSEMBLY_CONSTRAINTS[constraint_name]
    system = assemble_stiffness(mesh, _symmetric_sampler, constraint)
    if sampler == "symmetric":
        sample, matrix = _symmetric_sampler, system.matrix
    else:
        sample = _skew_part_sampler
        matrix = _assemble_matrix(mesh, sample, constraint, system.node_to_dof)
    expected, coupled, scale = _dense_reference(mesh, sample, system.node_to_dof)
    assert matrix.shape == expected.shape
    assert matrix.has_canonical_format
    assert np.abs(matrix.toarray() - expected).max() <= 1e-14 * scale
    # exactly the pairs that share an active element are stored, zeros included
    assert matrix.nnz == coupled.sum()
    stored = np.zeros_like(coupled)
    stored[np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr)), matrix.indices] = True
    np.testing.assert_array_equal(stored, coupled)


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
    np.testing.assert_array_equal(_dof_map(mesh, constraint), _dof_map_reference(mesh, constraint))


def test_periodic_dof_map_rejects_masked_mesh():
    with pytest.raises(ValueError):
        _dof_map(DOF_MAP_MESHES["2d_l_shape"], Periodic())


def test_stiffness_assembly_memory_peak():
    # a triplet (COO) assembly peaks near 83 MB here, to return a 7 MB matrix
    mesh = build_mesh((0, 0), (1, 1), (256, 256))
    sampler, constraint = _cosine_sampler(1 / 16), Dirichlet()
    tracemalloc.start()
    try:
        system = assemble_stiffness(mesh, sampler, constraint)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert system.matrix.nnz == (3 * 255 - 2) ** 2  # 9-point rows, cut at the boundary
    assert peak <= 48e6


def test_periodic_dimension_counts():
    mesh = build_mesh((0, 0), (1, 1), (4, 6), "box")
    sys = assemble_stiffness(mesh, identity_sampler, Periodic())
    assert sys.dimension == 4 * 6
    mesh1d = build_mesh(0.0, 1.0, [8], "box")
    sys1d = assemble_stiffness(mesh1d, identity_sampler, Periodic())
    assert sys1d.dimension == 8


def test_nonsymmetric_sampler_rejected():
    mesh = build_mesh((0, 0), (1, 1), (2, 2), "box")

    def bad(p):
        out = np.broadcast_to(np.array([[1.0, 0.5], [0.1, 1.0]]), (len(p), 2, 2))
        return out

    with pytest.raises(AssemblyError):
        assemble_stiffness(mesh, bad, ZeroMean())


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
    from homog.sparse import SparseSystem

    ident = SparseSystem(sp.identity(3, format="csr"), sys.constraint, sys.node_to_dof, sys.n_nodes)
    r = rng.standard_normal(3)
    np.testing.assert_allclose(cg_solve(ident, r), r, atol=1e-12)


def test_cg_1d_dirichlet_midpoint():
    mesh = build_mesh(0.0, 1.0, [2], "box")
    sys = assemble_stiffness(mesh, identity_sampler, Dirichlet())
    b = sys.reduce(assemble_load(mesh, lambda p: np.ones(len(p))))
    x = cg_solve(sys, b)
    assert x[0] == pytest.approx(0.125, abs=1e-12)


def test_cg_zero_rhs_zero_solution():
    mesh = build_mesh((0, 0), (1, 1), (4, 4), "box")
    sys = assemble_stiffness(mesh, identity_sampler, Periodic())
    x = cg_solve(sys, np.zeros(sys.dimension))
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
    b = rng.standard_normal(sys.dimension)
    tol = 1e-10
    x = cg_solve(sys, b, rel_tol=tol)
    res = np.linalg.norm(b - sys.matrix @ x) / np.linalg.norm(b)
    assert res <= tol


def test_cg_projects_constant_mode():
    mesh = build_mesh((0, 0), (1, 1), (6, 6), "box")
    sys = assemble_stiffness(mesh, identity_sampler, Periodic())
    rng = np.random.default_rng(9)
    b = rng.standard_normal(sys.dimension)
    b -= b.mean()
    x = cg_solve(sys, b)
    assert abs(x.mean()) <= 1e-13
    res = np.linalg.norm(b - sys.matrix @ x) / np.linalg.norm(b)
    assert res <= 1e-10


def test_cg_determinism_bitwise():
    mesh = build_mesh((0, 0), (1, 1), (8, 8), "box")
    sys = assemble_stiffness(mesh, identity_sampler, Dirichlet())
    b = assemble_load(mesh, lambda p: np.sin(np.pi * p[:, 0]))
    x1 = cg_solve(sys, sys.reduce(b))
    x2 = cg_solve(sys, sys.reduce(b))
    assert np.array_equal(x1, x2)


def test_cg_max_iter_reports_residual():
    # large enough to have coarse levels, so one iteration is not an exact solve
    mesh = build_mesh((0, 0), (1, 1), (128, 128), "box")
    sys = assemble_stiffness(mesh, identity_sampler, Dirichlet())
    b = np.ones(sys.dimension)
    with pytest.raises(SolverError) as err:
        cg_solve(sys, b, rel_tol=1e-14, max_iter=1)
    assert err.value.achieved > 0


def _skew_checkerboard(s):
    """Blocks I + sJ and I - sJ in a 2x2 checkerboard: symmetric part I,
    skew part of size s."""
    block, flipped = [[1.0, s], [-s, 1.0]], [[1.0, -s], [s, 1.0]]
    return GridTable(np.array([[block, flipped], [flipped, block]])).sample_batch


def _assemble(mesh, sampler, constraint):
    """The stiffness of any elliptic sampler, split as the cell problems split
    it: the validated symmetric part S, plus the skew part N when there is
    one, giving matrix S + N with ``symmetric_part`` S."""

    def sym_sampler(p):
        a = sampler(p)
        return 0.5 * (a + np.swapaxes(a, 1, 2))

    def skew_sampler(p):
        a = sampler(p)
        return 0.5 * (a - np.swapaxes(a, 1, 2))

    sym = assemble_stiffness(mesh, sym_sampler, constraint)
    skew = _assemble_matrix(mesh, skew_sampler, constraint, sym.node_to_dof)
    if skew.count_nonzero() == 0:
        return sym
    return replace(sym, matrix=sym.matrix + skew, symmetric_part=sym.matrix)


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
    sys = _assemble(mesh, sampler, constraint)
    assert (sys.symmetric_part is not None) == ("skew" in name)
    b = np.random.default_rng(3).standard_normal(sys.dimension)
    dense = sys.matrix.toarray()
    if sys.needs_projection:
        # with the constant mode as kernel, adding 1 to every entry makes the
        # matrix regular and its solution the zero-mean one
        b -= b.mean()
        dense += 1.0
    expected = np.linalg.solve(dense, b)
    x = cg_solve(sys, b)
    assert len(sys.hierarchy) == levels
    assert np.linalg.norm(x - expected) <= 1e-9 * np.linalg.norm(expected)


@pytest.mark.parametrize("name", sorted(n for n in SOLVER_CASES if "skew" not in n))
def test_vcycle_symmetric_positive_definite(name):
    # PCG needs a symmetric positive definite preconditioner; on singular
    # systems it only ever sees zero-mean vectors
    mesh, sampler, constraint, _ = SOLVER_CASES[name]
    sys = _assemble(mesh, sampler, constraint)
    u, v = np.random.default_rng(5).standard_normal((2, sys.dimension))
    if sys.needs_projection:
        u -= u.mean()
        v -= v.mean()
    vu = _vcycle(sys.matrix, sys.hierarchy, u)
    vv = _vcycle(sys.matrix, sys.hierarchy, v)
    assert u @ vu > 0 and v @ vv > 0
    # |<u, V v>| is at most this scale when V is positive definite
    scale = np.sqrt((u @ vu) * (v @ vv))
    assert abs(u @ vv - vu @ v) <= 1e-12 * scale


@pytest.mark.parametrize("divisions", [128, 256])
def test_cg_iterations_bounded_on_cosine_fine_problem(divisions):
    # 16 elements per period; Jacobi-CG needs hundreds of iterations here
    mesh = build_mesh((0, 0), (1, 1), (divisions, divisions))
    sys = assemble_stiffness(mesh, _cosine_sampler(16 / divisions), Dirichlet())
    b = sys.reduce(assemble_load(mesh, lambda p: np.ones(len(p))))
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
    b = sys.reduce(assemble_load(mesh, lambda p: np.ones(len(p))))
    x = cg_solve(sys, b, max_iter=100)
    assert np.linalg.norm(b - sys.matrix @ x) <= 1e-10 * np.linalg.norm(b)


def _skew_periodic_system(divisions, s):
    mesh = build_mesh((0, 0), (1, 1), (divisions, divisions))
    return _assemble(mesh, _skew_checkerboard(s), Periodic())


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


def _kron_prolongation(divisions, node_to_dof):
    """Bilinear prolongation between the dofs of a mesh and of the mesh with
    halved divisions, and the coarse node -> dof map: the 1D interpolations'
    Kronecker product over every node, cut to the dof rows (one node per
    dof, the periodic master) and folded onto the coarse dofs, where a coarse
    node takes the dof of the fine node it coincides with."""
    nodes = sp.csr_matrix(np.ones((1, 1)))
    for d in divisions:  # axis 0 varies fastest, so it is the innermost factor
        fine = np.arange(d + 1)
        odd = fine[1::2]
        interp = sp.csr_matrix(
            (np.concatenate([np.where(fine % 2, 0.5, 1.0), np.full(len(odd), 0.5)]),
             (np.concatenate([fine, odd]), np.concatenate([fine // 2, odd // 2 + 1]))),
            shape=(d + 1, d // 2 + 1))
        nodes = sp.kron(interp, nodes, format="csr")
    coinciding = np.ravel_multi_index(
        np.meshgrid(*[np.arange(0, d + 1, 2) for d in divisions], indexing="ij"),
        tuple(d + 1 for d in divisions), order="F").ravel(order="F")
    fine_dof = node_to_dof[coinciding]
    keep = fine_dof >= 0
    coarse_to_dof = np.full(len(coinciding), -1)
    _, coarse_to_dof[keep] = np.unique(fine_dof[keep], return_inverse=True)
    fold = sp.csr_matrix((np.ones(keep.sum()), (np.flatnonzero(keep), coarse_to_dof[keep])),
                         shape=(len(coinciding), coarse_to_dof.max() + 1))
    dofs, first = np.unique(node_to_dof, return_index=True)
    return (nodes[first[dofs >= 0]] @ fold).tocsr(), coarse_to_dof


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
    mesh, sampler, constraint = HIERARCHY_CASES[name]
    system = _assemble(mesh, sampler, constraint)
    matrix = system.matrix if system.symmetric_part is None else system.symmetric_part
    divisions, node_to_dof = mesh.divisions, system.node_to_dof
    assert len(system.hierarchy) >= 3
    for level in system.hierarchy[:-1]:
        prolong, node_to_dof = _kron_prolongation(divisions, node_to_dof)
        assert _gap(level.prolong, prolong) == 0.0
        assert _gap(level.restrict, prolong.T) == 0.0
        expected = prolong.T @ matrix @ prolong
        assert _gap(level.coarse, expected) <= 1e-14 * np.abs(expected.data).max()
        matrix, divisions = level.coarse, tuple(d // 2 for d in divisions)
    assert system.hierarchy[-1].coarse is None


@pytest.mark.parametrize("divisions", [(4, 4), (2, 2), (4,), (2,)])
def test_periodic_galerkin_pass_with_coinciding_neighbours(divisions):
    # on 4 and 2 nodes per axis a node's left and right neighbours, or the
    # coarse ones, are the same node
    dim = len(divisions)
    mesh = build_mesh((0,) * dim, (1,) * dim, divisions)
    sampler = Checkerboard(1.0, 100.0).sample_batch if dim == 2 else _symmetric_sampler
    system = assemble_stiffness(mesh, sampler, Periodic())
    stencil, dofs, _, _ = _nodal_stencil(mesh, sampler, Periodic(), system.node_to_dof)
    matrix = _read_csr(stencil, dofs, periodic=True)
    assert _gap(matrix, system.matrix) == 0.0
    node_to_dof = system.node_to_dof
    while divisions[0] > 1:
        prolong, node_to_dof = _kron_prolongation(divisions, node_to_dof)
        for axis in range(dim):
            stencil = _galerkin_pass(stencil, axis, periodic=True)
        dofs = dofs[(slice(None, None, 2),) * dim]
        coarse = _read_csr(stencil, np.arange(dofs.size).reshape(dofs.shape), periodic=True)
        expected = prolong.T @ matrix @ prolong
        # one coarse node holds only the constant mode: the level is zero up
        # to the rounding of the fine entries
        assert _gap(coarse, expected) <= 1e-14 * np.abs(matrix.data).max()
        matrix, divisions = coarse, tuple(d // 2 for d in divisions)
