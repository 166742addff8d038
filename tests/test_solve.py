import numpy as np
import pytest

from homog.cell import HomogenizedTensor, solve_correctors, unit_cell_mesh
from homog.coeff import Constant, Laminate, ScalarCosine, fractional_part
from homog.grid import (
    ScalarField,
    boundary_nodes,
    build_mesh,
    eval_field_batch,
    eval_gradient_batch,
    integrate,
    integrate_field,
)
from homog.metrics import fit_rate
from homog.solve import (
    BoundaryCondition,
    DIRICHLET_FULL,
    NEUMANN_FULL,
    ProblemInstance,
    reconstruct,
    recovered_gradient_fields,
    solve_fine,
    solve_homogenized,
)
from homog.unfold import build_cell_map

DIRICHLET = BoundaryCondition(DIRICHLET_FULL)
NEUMANN = BoundaryCondition(NEUMANN_FULL)


def values_at(recon, points):
    """Pointwise oracle of a reconstruction's values: every field is
    interpolated at each point on its own, the correctors at the point's
    cell coordinate."""
    points = np.atleast_2d(points)
    out = eval_field_batch(recon.base, points)
    y = fractional_part(points / recon.epsilon)
    for q, chi in zip(recon.q_derivatives, recon.correctors.chi):
        out = out + recon.epsilon * eval_field_batch(q, points) * eval_field_batch(chi, y)
    return out


def gradients_at(recon, points):
    """Pointwise oracle of a reconstruction's corrected gradients."""
    points = np.atleast_2d(points)
    out = eval_gradient_batch(recon.base, points)
    y = fractional_part(points / recon.epsilon)
    for q, chi in zip(recon.q_derivatives, recon.correctors.chi):
        out = out + eval_field_batch(q, points)[:, None] * eval_gradient_batch(chi, y)
    return out


def sine_rhs(p):
    return 2 * np.pi**2 * np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])


def test_fine_manufactured_identity_coefficient():
    mesh = build_mesh((0, 0), (1, 1), (64, 64), "box")
    inst = ProblemInstance(mesh, Constant(((1.0, 0.0), (0.0, 1.0))), sine_rhs, DIRICHLET, 4)
    u = solve_fine(inst)
    x = mesh.node_coordinates()
    exact = np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
    err2 = integrate_field(ScalarField(mesh, (u.values - exact) ** 2))
    assert np.sqrt(err2) <= 1e-3


def test_fine_zero_rhs():
    mesh = build_mesh((0, 0), (1, 1), (32, 32), "box")
    inst = ProblemInstance(
        mesh, Constant(((1.0, 0.0), (0.0, 1.0))), lambda p: np.zeros(len(p)), DIRICHLET, 4
    )
    u = solve_fine(inst)
    assert np.all(u.values == 0.0)


def closed_form_1d(x, eps, panels=16384):
    """u(x) = int_0^x (c - t)/a(t/eps) dt with u(1) = 0, by fine quadrature."""
    nodes, weights = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(0.0, 1.0, panels + 1)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 / panels
    pts = (mid[:, None] + half * nodes[None, :]).ravel()
    inv_a = 1.0 / (2.0 + np.cos(2 * np.pi * pts / eps))
    w = np.tile(weights, panels) * half
    c = np.sum(w * pts * inv_a) / np.sum(w * inv_a)
    per_panel = (w * (c - pts) * inv_a).reshape(panels, -1).sum(axis=1)
    cum = np.concatenate([[0.0], np.cumsum(per_panel)])
    idx = np.round(np.asarray(x) * panels).astype(int)
    assert np.abs(idx / panels - x).max() < 1e-12  # x must be panel-aligned
    return cum[idx]


def test_fine_1d_cosine_matches_closed_form():
    # nodal error against the closed form decays at O(h^2); measured
    # 3.9e-5 at m=32 and 9.7e-6 at m=64 for eps=1/8
    eps_n = 8
    field = ScalarCosine(2.0, 1.0, axis=0, ndim=1)
    errs = {}
    for m in (32, 64):
        mesh = build_mesh(0.0, 1.0, [eps_n * m], "box")
        inst = ProblemInstance(mesh, field, lambda p: np.ones(len(p)), DIRICHLET, eps_n)
        u = solve_fine(inst)
        x = mesh.node_coordinates()[:, 0]
        exact = closed_form_1d(x, 1.0 / eps_n)
        errs[m] = np.abs(u.values - exact).max()
    assert errs[64] <= 2e-5
    assert 3.0 <= errs[32] / errs[64] <= 5.0


def test_fine_thin_laminate_layer_solves():
    # the layer, 0.005 of a cell wide, holds no midpoint of the 64^2 sample
    # lattice, but one Gauss point per element of a 64-per-cell mesh
    mesh = build_mesh((0, 0), (1, 1), (256, 256), "box")
    inst = ProblemInstance(mesh, Laminate(0, 0.01, 1.0, 0.005), lambda p: np.ones(len(p)),
                           DIRICHLET, 4)
    u = solve_fine(inst)
    assert np.isfinite(u.values).all() and u.values.max() > 0


def test_homogenized_manufactured():
    mesh = build_mesh((0, 0), (1, 1), (64, 64), "box")
    tensor = HomogenizedTensor(np.eye(2))
    u = solve_homogenized(tensor, sine_rhs, DIRICHLET, mesh)
    x = mesh.node_coordinates()
    exact = np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
    assert np.sqrt(integrate_field(ScalarField(mesh, (u.values - exact) ** 2))) <= 1e-3


def test_homogenized_zero_rhs():
    mesh = build_mesh((0, 0), (1, 1), (16, 16), "box")
    tensor = HomogenizedTensor(np.diag([1.6, 2.5]))
    u = solve_homogenized(tensor, lambda p: np.zeros(len(p)), DIRICHLET, mesh)
    assert np.all(u.values == 0.0)


def test_homogenized_1d_parabola_nodally_exact():
    mesh = build_mesh(0.0, 1.0, [64], "box")
    tensor = HomogenizedTensor(np.array([[np.sqrt(3.0)]]))
    u = solve_homogenized(tensor, lambda p: np.ones(len(p)), DIRICHLET, mesh)
    x = mesh.node_coordinates()[:, 0]
    exact = x * (1 - x) / (2 * np.sqrt(3.0))
    assert np.abs(u.values - exact).max() <= 1e-12


def test_neumann_zero_mean_and_compatibility():
    mesh = build_mesh((0, 0), (1, 1), (32, 32), "box")

    def f(p):
        return np.sin(2 * np.pi * p[:, 0])  # zero mean

    inst = ProblemInstance(mesh, Constant(((2.0, 0.0), (0.0, 1.0))), f, NEUMANN, 4)
    u = solve_fine(inst)
    assert abs(integrate_field(u)) <= 1e-10
    with pytest.raises(ValueError):
        solve_fine(
            ProblemInstance(mesh, Constant(((1.0, 0.0), (0.0, 1.0))),
                            lambda p: np.ones(len(p)), NEUMANN, 4)
        )


def test_constant_coefficient_epsilon_independent_bitwise():
    mesh = build_mesh((0, 0), (1, 1), (32, 32), "box")
    coeff = Constant(((1.5, 0.2), (0.2, 1.0)))
    u1 = solve_fine(ProblemInstance(mesh, coeff, sine_rhs, DIRICHLET, 4))
    u2 = solve_fine(ProblemInstance(mesh, coeff, sine_rhs, DIRICHLET, 8))
    assert np.array_equal(u1.values, u2.values)


def test_recovered_gradient_affine_exact():
    mesh = build_mesh((0, 0), (1, 1), (8, 8), "box")
    x = mesh.node_coordinates()
    phi = ScalarField(mesh, 3.0 * x[:, 0] - 2.0 * x[:, 1] + 0.5)
    gx, gy = recovered_gradient_fields(phi)
    np.testing.assert_allclose(gx.values, 3.0, atol=1e-13)
    np.testing.assert_allclose(gy.values, -2.0, atol=1e-13)


def test_reconstruction_with_zero_correctors_is_base():
    coeff = Constant(((2.0, 0.0), (0.0, 2.0)))
    mesh = build_mesh((0, 0), (1, 1), (32, 32), "box")
    cmap = build_cell_map(mesh, 4)
    correctors = solve_correctors(coeff, unit_cell_mesh(2, 8))
    x = mesh.node_coordinates()
    phi = ScalarField(mesh, np.sin(np.pi * x[:, 0]) * x[:, 1])
    recon = reconstruct(phi, correctors, cmap)
    pts = np.array([[0.3, 0.4], [0.71, 0.12]])
    np.testing.assert_allclose(values_at(recon, pts), eval_field_batch(phi, pts), atol=1e-10)
    np.testing.assert_allclose(gradients_at(recon, pts), eval_gradient_batch(phi, pts), atol=1e-9)


def test_reconstruction_resolution_mismatch_rejected():
    coeff = Constant(((1.0, 0.0), (0.0, 1.0)))
    mesh = build_mesh((0, 0), (1, 1), (32, 32), "box")
    cmap = build_cell_map(mesh, 4)  # m = 8
    correctors = solve_correctors(coeff, unit_cell_mesh(2, 16))
    phi = ScalarField(mesh, np.zeros(mesh.n_nodes))
    with pytest.raises(ValueError):
        reconstruct(phi, correctors, cmap)


def test_reconstruction_affine_1d_corrected_gradient():
    # affine Phi: Q(Phi') is the exact constant slope, so the corrected
    # gradient is a * (1 + chi'({x/eps}))
    m, n = 64, 8
    mesh = build_mesh(0.0, 1.0, [m * n], "box")
    cmap = build_cell_map(mesh, n)
    field = ScalarCosine(2.0, 1.0, axis=0, ndim=1)
    correctors = solve_correctors(field, unit_cell_mesh(1, m))
    x = mesh.node_coordinates()[:, 0]
    a_slope = 1.7
    phi = ScalarField(mesh, a_slope * x + 0.3)
    recon = reconstruct(phi, correctors, cmap)
    rng = np.random.default_rng(4)
    pts = rng.uniform(0.05, 0.95, size=(32, 1))
    got = gradients_at(recon, pts)[:, 0]
    chi_grad = eval_gradient_batch(correctors.chi[0], np.mod(pts / cmap.epsilon, 1.0))[:, 0]
    np.testing.assert_allclose(got, a_slope * (1.0 + chi_grad), atol=1e-10)
    # the element-constant discrete slope tracks the element average of the
    # closed form abar/a - 1
    y = np.mod(pts[:, 0] / cmap.epsilon, 1.0)
    elem = np.clip(np.floor(y * m).astype(int), 0, m - 1)
    nodes, weights = np.polynomial.legendre.leggauss(8)
    yq = (elem[:, None] + 0.5 + 0.5 * nodes[None, :]) / m
    closed_avg = ((np.sqrt(3.0) / (2.0 + np.cos(2 * np.pi * yq)) - 1.0) @ weights) / 2.0
    assert np.abs(chi_grad - closed_avg).max() <= 2e-3


def test_reconstruction_pointwise_deviation_bound():
    m, n = 16, 4
    mesh = build_mesh((0.0, 0.0), (1.0, 1.0), (m * n, m * n), "box")
    cmap = build_cell_map(mesh, n)
    field = ScalarCosine(2.0, 1.0, axis=0)
    correctors = solve_correctors(field, unit_cell_mesh(2, m))
    x = mesh.node_coordinates()
    phi = ScalarField(mesh, np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]))
    recon = reconstruct(phi, correctors, cmap)
    rng = np.random.default_rng(8)
    pts = rng.uniform(0.0, 1.0, size=(200, 2))
    dev = np.abs(values_at(recon, pts) - eval_field_batch(phi, pts))
    qmax = max(np.abs(q.values).max() for q in recon.q_derivatives)
    chimax = max(np.abs(c.values).max() for c in correctors.chi)
    assert dev.max() <= cmap.dim * cmap.epsilon * qmax * chimax + 1e-12


def boundary_trace_order(field, shape):
    """Fitted order of the largest reconstruction value on the boundary, for
    a smooth Phi that vanishes there; a half-order boundary layer in the
    corrected gradient needs this trace to be first order."""
    m = 8
    correctors = solve_correctors(field, unit_cell_mesh(2, m))
    pts = []
    for n in (4, 8, 16, 32):
        mesh = build_mesh((0.0, 0.0), (1.0, 1.0), (m * n, m * n), shape)
        cmap = build_cell_map(mesh, n)
        x = mesh.node_coordinates()
        phi = np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
        if shape == "l_shape":
            phi = phi * (0.5 - x[:, 0]) * (0.5 - x[:, 1])
        recon = reconstruct(ScalarField(mesh, phi), correctors, cmap)
        trace = values_at(recon, x[boundary_nodes(mesh)])
        pts.append((cmap.epsilon, np.abs(trace).max()))
    return fit_rate(pts).slope


@pytest.mark.parametrize("shape", ["box", "l_shape"])
def test_reconstruction_boundary_trace_order(shape):
    # the even cosine's chi_1 vanishes on the x_1 faces and Q(dPhi/dx_1) is
    # O(eps) on the x_2 faces, so the trace is O(eps^2): measured 2.09 on the
    # box and 1.91 on the L-shape.  The laminate's chi_1 does not vanish on
    # the cell faces, so its trace stays first order: measured 1.11 and 1.01.
    assert boundary_trace_order(ScalarCosine(2.0, 1.0, axis=0), shape) >= 1.75
    assert boundary_trace_order(Laminate(0, 1.0, 4.0, 0.5), shape) <= 1.25


def test_eval_elements_matches_pointwise():
    from homog.grid import element_blocks

    m, n = 8, 4
    mesh = build_mesh((0.0, 0.0), (1.0, 1.0), (m * n, m * n), "box")
    cmap = build_cell_map(mesh, n)
    field = ScalarCosine(2.0, 1.0, axis=0)
    correctors = solve_correctors(field, unit_cell_mesh(2, m))
    x = mesh.node_coordinates()
    phi = ScalarField(mesh, x[:, 0] ** 2 + np.cos(np.pi * x[:, 1]))
    recon = reconstruct(phi, correctors, cmap)
    for block in element_blocks(mesh):
        vals, grads = recon.eval_elements(block)
        pts = block.points().reshape(-1, 2)
        np.testing.assert_allclose(vals.ravel(), values_at(recon, pts), atol=1e-12)
        np.testing.assert_allclose(grads.reshape(-1, 2), gradients_at(recon, pts), atol=1e-11)


def test_eval_elements_matches_pointwise_on_l_shape_blocks(monkeypatch):
    import homog.grid as grid
    from homog.grid import element_blocks

    m, n = 4, 4
    mesh = build_mesh((0.0, 0.0), (1.0, 1.0), (m * n, m * n), "l_shape")
    cmap = build_cell_map(mesh, n)
    correctors = solve_correctors(ScalarCosine(2.0, 1.0, axis=0), unit_cell_mesh(2, m))
    x = mesh.node_coordinates()
    recon = reconstruct(ScalarField(mesh, x[:, 0] ** 2 + np.cos(np.pi * x[:, 1])), correctors, cmap)
    monkeypatch.setattr(grid, "CHUNK_ELEMENTS", 3 * m * n)  # three rows per block
    for block in element_blocks(mesh):
        vals, grads = recon.eval_elements(block)
        pts = block.points().reshape(-1, 2)
        np.testing.assert_allclose(vals.ravel(), values_at(recon, pts), atol=1e-12)
        np.testing.assert_allclose(grads.reshape(-1, 2), gradients_at(recon, pts), atol=1e-11)


def test_homogenized_skew_tensor_rejected_only_under_neumann():
    mesh = build_mesh((0.0, 0.0), (1.0, 1.0), (16, 16), "box")
    tensor = HomogenizedTensor(np.array([[2.0, 0.8], [-0.8, 1.0]]))
    with pytest.raises(ValueError, match="non-symmetric"):
        solve_homogenized(tensor, lambda p: np.cos(np.pi * p[:, 0]), NEUMANN, mesh)
    u = solve_homogenized(tensor, lambda p: np.ones(len(p)), DIRICHLET, mesh)
    symmetric = HomogenizedTensor(np.array([[2.0, 0.0], [0.0, 1.0]]))
    np.testing.assert_array_equal(
        u.values, solve_homogenized(symmetric, lambda p: np.ones(len(p)), DIRICHLET, mesh).values)
