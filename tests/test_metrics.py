import tracemalloc

import numpy as np
import pytest

import homog.grid as grid
from homog.cell import homogenized_tensor, solve_correctors, unit_cell_mesh
from homog.coeff import Constant, ScalarCosine
from homog.grid import ScalarField, build_mesh, integrate_field
from homog.metrics import CSV_HEADER, ErrorReport, InteriorBoxError, error_report, fit_rate
from homog.solve import (
    BoundaryCondition,
    DIRICHLET_FULL,
    ProblemInstance,
    reconstruct,
    solve_fine,
    solve_homogenized,
)
from homog.cell import HomogenizedTensor
from homog.unfold import build_cell_map

DIRICHLET = BoundaryCondition(DIRICHLET_FULL)


def constant_setup(m=8, n=4):
    coeff = Constant(((2.0, 0.3), (0.3, 1.4)))
    mesh = build_mesh((0, 0), (1, 1), (m * n, m * n), "box")
    cmap = build_cell_map(mesh, n)
    rhs = lambda p: np.ones(len(p))
    fine = solve_fine(ProblemInstance(mesh, coeff, rhs, DIRICHLET, n))
    correctors = solve_correctors(coeff, unit_cell_mesh(2, m))
    tensor = HomogenizedTensor(np.asarray(coeff.matrix))
    phi = solve_homogenized(tensor, rhs, DIRICHLET, mesh)
    recon = reconstruct(phi, correctors, cmap)
    return mesh, cmap, fine, recon


def test_constant_coefficient_all_zero():
    mesh, cmap, fine, recon = constant_setup()
    rep = error_report(fine, recon, cmap, ((0.25, 0.75), (0.25, 0.75)))
    assert rep.e_l2 <= 1e-12
    assert rep.e_h1_corr <= 1e-11
    assert rep.e_weighted <= 1e-11
    assert rep.e_interior <= 1e-11
    # the layer norm is a solution norm, not an error: positive here
    assert rep.e_layer > 0.01


def test_zero_reconstruction_gives_field_norm():
    mesh, cmap, fine, _ = constant_setup()
    zero = ScalarField(mesh, np.zeros(mesh.n_nodes))
    coeff = Constant(((1.0, 0.0), (0.0, 1.0)))
    correctors = solve_correctors(coeff, unit_cell_mesh(2, cmap.m[0]))
    recon0 = reconstruct(zero, correctors, cmap)
    rep = error_report(fine, recon0, cmap, ((0.25, 0.75), (0.25, 0.75)))
    from homog.grid import eval_field_batch, integrate

    direct = np.sqrt(integrate(mesh, lambda p: eval_field_batch(fine, p) ** 2))
    assert rep.e_l2 == pytest.approx(direct, abs=1e-13)


def test_weighted_bound_and_margin_flag():
    mesh, cmap, fine, recon = constant_setup()
    rep = error_report(fine, recon, cmap, ((0.25, 0.75), (0.25, 0.75)))
    assert rep.interior_margin == pytest.approx(0.25, abs=1e-14)
    # eps = 1/4: 4*sqrt(2)/4 = 1.41 > 0.25
    assert not rep.margin_clears_layers
    assert rep.e_weighted <= 0.5 * rep.e_h1_corr + 1e-12


def test_interior_box_validation():
    mesh, cmap, fine, recon = constant_setup()
    with pytest.raises(InteriorBoxError):
        error_report(fine, recon, cmap, ((0.0, 0.75), (0.25, 0.75)))
    lmesh = build_mesh((0, 0), (1, 1), (32, 32), "l_shape")
    lmap = build_cell_map(lmesh, 4)
    zero = ScalarField(lmesh, np.zeros(lmesh.n_nodes))
    coeff = Constant(((1.0, 0.0), (0.0, 1.0)))
    correctors = solve_correctors(coeff, unit_cell_mesh(2, 8))
    recon_l = reconstruct(zero, correctors, lmap)
    with pytest.raises(InteriorBoxError):
        error_report(zero, recon_l, lmap, ((0.25, 0.75), (0.25, 0.75)))
    rep = error_report(zero, recon_l, lmap, ((0.125, 0.375), (0.125, 0.375)))
    assert rep.interior_margin == pytest.approx(0.125, abs=1e-14)


def test_csv_row_format():
    rep = ErrorReport(0.25, 1e-3, 2e-2, 5e-4, 7e-4, 0.1, 0.25, False)
    row = rep.csv_row()
    assert len(row.split(",")) == len(CSV_HEADER.split(","))
    assert float(row.split(",")[0]) == 0.25


def test_quadrature_agreement_refined_rule(monkeypatch):
    m, n = 16, 4
    coeff = ScalarCosine(2.0, 1.0, axis=0)
    mesh = build_mesh((0, 0), (1, 1), (m * n, m * n), "box")
    cmap = build_cell_map(mesh, n)
    rhs = lambda p: np.ones(len(p))
    fine = solve_fine(ProblemInstance(mesh, coeff, rhs, DIRICHLET, n))
    correctors = solve_correctors(coeff, unit_cell_mesh(2, m))
    from homog.cell import homogenized_tensor

    tensor = homogenized_tensor(coeff, correctors)
    phi = solve_homogenized(tensor, rhs, DIRICHLET, mesh)
    recon = reconstruct(phi, correctors, cmap)
    box = ((0.25, 0.75), (0.25, 0.75))
    r2 = error_report(fine, recon, cmap, box)
    monkeypatch.setattr(grid, "GAUSS_POINTS", 3)
    r3 = error_report(fine, recon, cmap, box)
    for name in ("e_l2", "e_h1_corr", "e_weighted", "e_interior", "e_layer"):
        a, b = getattr(r2, name), getattr(r3, name)
        assert abs(a - b) <= 0.01 * max(a, b)


def test_fit_rate_examples():
    fit = fit_rate([(1 / 8, 0.08), (1 / 16, 0.04), (1 / 32, 0.02)])
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    c = 0.37
    fit = fit_rate([(1 / 8, c * np.sqrt(1 / 8)), (1 / 16, c * np.sqrt(1 / 16)),
                    (1 / 32, c * np.sqrt(1 / 32))])
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        fit_rate([(1 / 8, 0.1)])
    with pytest.raises(ValueError):
        fit_rate([(1 / 8, 0.1), (1 / 16, 0.0), (1 / 32, 0.01)])
    with pytest.raises(ValueError):
        fit_rate([(1 / 8, 0.1), (1 / 8, 0.05), (1 / 32, 0.01)])


def test_fit_rate_scaling_invariance():
    pts = [(1 / 4, 0.21), (1 / 8, 0.11), (1 / 16, 0.054), (1 / 32, 0.028)]
    base = fit_rate(pts)
    scaled = fit_rate([(e, 137.0 * v) for e, v in pts])
    assert scaled.slope == pytest.approx(base.slope, abs=1e-12)


# --- independent discrete 1D reference ------------------------------------

G2 = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
W2 = np.array([0.5, 0.5])


def ref_1d_pipeline(n_eps, m):
    """Plain-loop re-implementation of the 1D pipeline: tridiagonal direct
    solves, flux-formula corrector, explicit slow-part interpolation."""
    eps = 1.0 / n_eps
    nel = n_eps * m
    h = 1.0 / nel
    x_nodes = np.arange(nel + 1) * h

    def a_of(x):
        return 2.0 + np.cos(2 * np.pi * np.asarray(x) / eps)

    # element Gauss-2 averages of the oscillating coefficient
    xq = x_nodes[:-1, None] + G2[None, :] * h
    abar = (a_of(xq) * W2).sum(axis=1)

    # fine solve: tridiagonal P1 system, dense direct solve on free nodes
    main = np.zeros(nel + 1)
    off = -abar / h
    main[:-1] += abar / h
    main[1:] += abar / h
    K = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    b = np.full(nel + 1, h)
    b[0] = b[-1] = h / 2
    u = np.zeros(nel + 1)
    u[1:-1] = np.linalg.solve(K[1:-1, 1:-1], b[1:-1])

    # discrete cell tensor and corrector on the m-division unit cell
    hy = 1.0 / m
    yq = (np.arange(m)[:, None] + G2[None, :]) * hy
    ay = ((2.0 + np.cos(2 * np.pi * yq)) * W2).sum(axis=1)
    a_h = 1.0 / (hy * np.sum(1.0 / ay))
    slopes = a_h / ay - 1.0
    chi = np.concatenate([[0.0], np.cumsum(slopes * hy)])
    # zero integral mean of the P1 interpolant on the periodic cell
    chi -= np.mean(chi[:-1])

    # homogenized solution is the exact parabola at the nodes
    phi = x_nodes * (1 - x_nodes) / (2 * a_h)

    # recovered nodal derivative and its slow part
    el_slope = np.diff(phi) / h
    dphi = np.empty(nel + 1)
    dphi[1:-1] = 0.5 * (el_slope[:-1] + el_slope[1:])
    dphi[0] = el_slope[0]
    dphi[-1] = el_slope[-1]
    means = np.array([
        h * np.sum(0.5 * (dphi[k * m : (k + 1) * m] + dphi[k * m + 1 : (k + 1) * m + 1])) / eps
        for k in range(n_eps)
    ])
    lattice = np.empty(n_eps + 1)
    lattice[:-1] = means
    lattice[-1] = 2 * means[-1] - means[-2]
    q = np.empty(nel + 1)
    for i, xv in enumerate(x_nodes):
        c = min(int(np.floor(xv / eps)), n_eps - 1)
        t = xv / eps - c
        q[i] = (1 - t) * lattice[c] + t * lattice[c + 1]

    # error functionals by per-element Gauss-2 quadrature
    e_l2 = 0.0
    e_h1 = 0.0
    for k in range(nel):
        du = (u[k + 1] - u[k]) / h
        dphi_el = (phi[k + 1] - phi[k]) / h
        cell_el = k % m
        dchi = slopes[cell_el]
        for g, w in zip(G2, W2):
            xg = x_nodes[k] + g * h
            uval = u[k] * (1 - g) + u[k + 1] * g
            pval = phi[k] * (1 - g) + phi[k + 1] * g
            qval = q[k] * (1 - g) + q[k + 1] * g
            corrected = dphi_el + qval * dchi
            e_l2 += w * h * (uval - pval) ** 2
            e_h1 += w * h * (du - corrected) ** 2
    return np.sqrt(e_l2), np.sqrt(e_h1)


def test_1d_error_report_matches_independent_reference():
    n_eps, m = 16, 64
    mesh = build_mesh(0.0, 1.0, [n_eps * m], "box")
    coeff = ScalarCosine(2.0, 1.0, axis=0, ndim=1)
    cmap = build_cell_map(mesh, n_eps)
    rhs = lambda p: np.ones(len(p))
    fine = solve_fine(ProblemInstance(mesh, coeff, rhs, DIRICHLET, n_eps))
    correctors = solve_correctors(coeff, unit_cell_mesh(1, m))
    from homog.cell import homogenized_tensor

    tensor = homogenized_tensor(coeff, correctors)
    phi = solve_homogenized(tensor, rhs, DIRICHLET, mesh)
    recon = reconstruct(phi, correctors, cmap)
    rep = error_report(fine, recon, cmap, ((0.25, 0.75),))
    ref_l2, ref_h1 = ref_1d_pipeline(n_eps, m)
    assert rep.e_l2 == pytest.approx(ref_l2, abs=1e-6)
    assert rep.e_h1_corr == pytest.approx(ref_h1, abs=1e-6)


FUNCTIONALS = ("e_l2", "e_h1_corr", "e_weighted", "e_interior", "e_layer")
INTERIOR_BOX = {"box": ((0.25, 0.75), (0.25, 0.75)), "l_shape": ((0.125, 0.375), (0.125, 0.375))}


def cosine_rung(shape, m, n):
    """Fine solution, reconstruction and cell map of one rung of the cosine
    study (a0 = 2, a1 = 1, constant load, Dirichlet data)."""
    coeff = ScalarCosine(2.0, 1.0, axis=0)
    mesh = build_mesh((0, 0), (1, 1), (m * n, m * n), shape)
    cmap = build_cell_map(mesh, n)
    rhs = lambda p: np.ones(len(p))
    fine = solve_fine(ProblemInstance(mesh, coeff, rhs, DIRICHLET, n))
    correctors = solve_correctors(coeff, unit_cell_mesh(2, m))
    phi = solve_homogenized(homogenized_tensor(coeff, correctors), rhs, DIRICHLET, mesh)
    return fine, reconstruct(phi, correctors, cmap), cmap


@pytest.mark.parametrize("chunk", [1, 100])
@pytest.mark.parametrize("shape", ["box", "l_shape"])
def test_error_report_independent_of_block_size(shape, chunk, monkeypatch):
    fine, recon, cmap = cosine_rung(shape, 8, 4)
    ref = error_report(fine, recon, cmap, INTERIOR_BOX[shape])
    monkeypatch.setattr(grid, "CHUNK_ELEMENTS", chunk)
    rep = error_report(fine, recon, cmap, INTERIOR_BOX[shape])
    for name in FUNCTIONALS:
        assert getattr(rep, name) == pytest.approx(getattr(ref, name), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("shape", ["box", "l_shape"])
def test_error_report_memory_peak(shape):
    # the 256^2 rung of the cosine study, m = 16 and N = 16; error_report
    # peaked at 33.2e6 (box) and 31.2e6 bytes (L-shape) when it evaluated
    # every field through per-element gathers
    fine, recon, cmap = cosine_rung(shape, 16, 16)
    tracemalloc.start()
    try:
        error_report(fine, recon, cmap, INTERIOR_BOX[shape])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 34e6
