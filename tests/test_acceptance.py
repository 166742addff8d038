"""Acceptance suite: one test per criterion, printing a pass/fail line each.

The expensive studies are session fixtures shared across criteria; the
determinism criterion reruns them from scratch and compares payloads.

Criteria 6 and 7 assert the rates that the analysis predicts for the shipped
coefficient a0 + a1*cos(2*pi*y_1), not the generic half-order bounds in the
configs (see the README).  Its corrector vanishes on the cell faces that meet
the boundary, so the reconstruction misses the boundary data only at O(eps^2)
and the corrected gradient converges at first order on the square; the
reentrant corner of the L-shape limits it to eps^(2/3).  The boundary-layer
norm is fitted on a separate thin-layer ladder, where the layer of width
3*sqrt(2)*eps no longer covers the square.
"""

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from homog.cell import homogenized_tensor, solve_correctors, unit_cell_mesh
from homog.coeff import Checkerboard, Laminate, ScalarCosine, from_config
from homog.grid import build_mesh, integrate_field
from homog.harness import load_config, run_operator_checks, run_study
from homog.metrics import error_report
from homog.solve import (
    ProblemInstance,
    reconstruct,
    solve_fine,
    solve_homogenized,
)
from homog.sparse import Dirichlet
from homog.unfold import build_cell_map

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SQRT3 = np.sqrt(3.0)


def announce(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


def timed_study(name, **overrides):
    cfg = replace(load_config(CONFIG_DIR / name), **overrides)
    t0 = time.perf_counter()
    result = run_study(cfg)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def constant_study():
    return timed_study("constant_2d.json")


@pytest.fixture(scope="session")
def study_1d():
    return timed_study("cosine_1d.json")


@pytest.fixture(scope="session")
def convex_study():
    return timed_study("convex_square.json")


@pytest.fixture(scope="session")
def lshape_study():
    return timed_study("lshape.json")


@pytest.fixture(scope="session")
def layer_study():
    """Criterion 6 e_layer ladder: eps = 1/32..1/128 at m = 8, where the
    boundary layer covers 46%, 25% and 13% of the square."""
    return timed_study("convex_square.json", epsilons=LAYER_LADDER, points_per_period=8)


@pytest.fixture(scope="session")
def richardson_reports():
    """Criterion 6 guard: reports at eps = 1/16 for m = 32 and m = 64."""
    coeff = ScalarCosine(2.0, 1.0, axis=0)
    bc = Dirichlet()
    rhs = lambda p: np.ones(len(p))
    tensor = homogenized_tensor(coeff, solve_correctors(coeff, unit_cell_mesh(2, 256)))
    out = {}
    for m in (32, 64):
        mesh = build_mesh((0, 0), (1, 1), (16 * m, 16 * m), "box")
        cmap = build_cell_map(mesh, 16)
        corr = solve_correctors(coeff, unit_cell_mesh(2, m))
        fine = solve_fine(ProblemInstance(mesh, coeff, rhs, bc, 16))
        phi = solve_homogenized(tensor, rhs, bc, mesh)
        out[m] = error_report(fine, reconstruct(phi, corr, cmap), ((0.25, 0.75), (0.25, 0.75)))
    return out


ERROR_FUNCTIONALS = ("e_l2", "e_h1_corr", "e_weighted", "e_interior")
LAYER_LADDER = (32, 64, 128)


def test_criterion_1_constant_degeneracy(constant_study):
    result, wall = constant_study
    coeff = from_config(result.config.coefficient)
    correctors = solve_correctors(coeff, unit_cell_mesh(2, result.config.cell_divisions))
    h1 = 0.0
    for chi in correctors.chi:
        from homog.grid import element_blocks

        mesh = correctors.cell_mesh
        (block,) = element_blocks(mesh)
        v = block.values(chi.values)
        g = block.gradients(chi.values)
        vol = float(np.prod(mesh.h))
        h1 = max(h1, np.sqrt(vol * float(
            np.einsum("eq,q->", v**2 + (g**2).sum(axis=2), block.rule.weights))))
    tensor_dev = np.abs(result.tensor - np.asarray(result.config.coefficient["matrix"])).max()
    worst = max(
        getattr(rep, name) for rep in result.reports for name in ERROR_FUNCTIONALS
    )
    ok = h1 <= 1e-9 and tensor_dev <= 1e-12 and worst <= 1e-10 and wall < 10.0
    announce(1, ok, f"chi H1 = {h1:.2e}, tensor dev = {tensor_dev:.2e}, "
                    f"worst error functional = {worst:.2e}, runtime {wall:.1f}s")
    assert h1 <= 1e-9
    assert tensor_dev <= 1e-12
    assert worst <= 1e-10
    assert all(c.status == "inconclusive" for c in result.checks)
    assert wall < 10.0


def test_criterion_2_laminate_tensor():
    t0 = time.perf_counter()
    field = Laminate(axis=0, alpha=1.0, beta=4.0, fraction=0.5)
    cs = solve_correctors(field, unit_cell_mesh(2, 64))
    tensor = homogenized_tensor(field, cs)
    wall = time.perf_counter() - t0
    dev = np.abs(tensor.matrix - np.diag([1.6, 2.5])).max()
    ok = dev <= 1e-8 and wall < 10.0
    announce(2, ok, f"|tensor - diag(1.6, 2.5)|_max = {dev:.2e}, runtime {wall:.1f}s")
    assert dev <= 1e-8
    assert wall < 10.0


def test_criterion_3_checkerboard_tensor():
    t0 = time.perf_counter()
    field = Checkerboard(1.0, 4.0)
    devs = {}
    for div in (64, 128):
        cs = solve_correctors(field, unit_cell_mesh(2, div))
        devs[div] = np.abs(homogenized_tensor(field, cs).matrix - 2.0 * np.eye(2)).max()
    wall = time.perf_counter() - t0
    ok = devs[128] <= 0.05 and devs[128] < devs[64] and wall < 120.0
    announce(3, ok, f"dev@64 = {devs[64]:.4f}, dev@128 = {devs[128]:.4f}, runtime {wall:.1f}s")
    assert devs[128] <= 0.05
    assert devs[128] < devs[64]
    assert wall < 120.0


def test_criterion_4_operator_suite():
    t0 = time.perf_counter()
    report = run_operator_checks(divisions=256)
    wall = time.perf_counter() - t0
    slope = next(r.measured for r in report.results if r.name == "r_decay_slope")
    ok = report.all_passed and wall < 60.0
    announce(4, ok, f"all operator checks passed = {report.all_passed}, "
                    f"R slope = {slope:.4f}, runtime {wall:.1f}s")
    for r in report.results:
        assert r.passed, f"operator check {r.name} failed: measured {r.measured:.3e}"
    assert abs(slope - 1.0) <= 0.1
    assert wall < 60.0


def test_criterion_5_1d_pipeline(study_1d):
    result, wall = study_1d
    abar_err = abs(result.tensor[0, 0] - SQRT3)
    slopes = {name: fit.slope for name, fit in result.fits.items() if fit}
    ok = (abar_err <= 1e-8 and abs(slopes["e_l2"] - 1.0) <= 0.1
          and abs(slopes["e_h1_corr"] - 1.0) <= 0.15 and wall < 60.0)
    announce(5, ok, f"|abar - sqrt(3)| = {abar_err:.2e}, e_l2 slope = {slopes['e_l2']:.3f}, "
                    f"e_h1_corr slope = {slopes['e_h1_corr']:.3f}, runtime {wall:.1f}s")
    assert abar_err <= 1e-8
    assert abs(slopes["e_l2"] - 1.0) <= 0.1
    assert abs(slopes["e_h1_corr"] - 1.0) <= 0.15
    assert wall < 60.0


def test_criterion_6_convex_rates(convex_study, layer_study, richardson_reports):
    result, wall = convex_study
    slopes = {name: fit.slope for name, fit in result.fits.items() if fit}
    expected = {
        "e_l2": (1.0, 0.25),
        "e_weighted": (1.0, 0.25),
        "e_interior": (1.0, 0.25),
        "e_h1_corr": (1.0, 0.25),
    }
    failures = []
    for name, (target, tol) in expected.items():
        if abs(slopes[name] - target) > tol:
            failures.append(f"{name} slope {slopes[name]:.3f} not in {target}+-{tol}")
    richardson_worst = 0.0
    for name in ("e_l2", "e_h1_corr", "e_weighted", "e_interior", "e_layer"):
        a = getattr(richardson_reports[32], name)
        b = getattr(richardson_reports[64], name)
        richardson_worst = max(richardson_worst, abs(a - b) / max(a, b))
    if richardson_worst >= 0.15:
        failures.append(f"Richardson guard {100 * richardson_worst:.1f}% >= 15%")
    if wall >= 600.0:
        failures.append(f"runtime {wall:.0f}s over 10 min")

    # e_layer only: the other functionals hit a discretization floor at m = 8
    layer_result, layer_wall = layer_study
    layer_slope = layer_result.fits["e_layer"].slope
    # e_layer integrates over a layer of width 3*sqrt(2)*eps along each face
    spans = [2.0 * 3.0 * np.sqrt(2.0) * r.epsilon for r in layer_result.reports]
    if max(spans) >= 1.0:
        failures.append(f"layer-ladder layers from opposite faces span {max(spans):.2f} >= 1")
    fractions = [1.0 - (1.0 - span) ** 2 for span in spans]
    if abs(layer_slope - 0.5) > 0.2:
        failures.append(f"e_layer slope {layer_slope:.3f} not in 0.5+-0.2")
    shipped = next(r.e_layer for r in result.reports if r.epsilon == 1.0 / LAYER_LADDER[0])
    thin = layer_result.reports[0].e_layer
    layer_gap = abs(shipped - thin) / max(shipped, thin)
    if layer_gap >= 0.15:
        failures.append(f"e_layer at 1/{LAYER_LADDER[0]} differs by "
                        f"{100 * layer_gap:.1f}% between m = 8 and m = 32")
    if layer_wall >= 600.0:
        failures.append(f"layer-ladder runtime {layer_wall:.0f}s over 10 min")
    ok = not failures
    announce(6, ok, f"shipped-ladder slopes {{{', '.join(f'{k}={v:.3f}' for k, v in sorted(slopes.items()))}}}, "
                    f"Richardson worst diff {100 * richardson_worst:.2f}%, runtime {wall:.0f}s; "
                    f"layer ladder e_layer={layer_slope:.3f} with layer fractions "
                    f"{', '.join(f'{100 * f:.0f}%' for f in fractions)}, "
                    f"m=8 vs m=32 gap {100 * layer_gap:.2f}%, runtime {layer_wall:.0f}s"
                    + ("" if ok else f"; FAILING: {failures}"))
    assert not failures, "convex-domain rates (see README): " + "; ".join(failures)


def test_criterion_7_polygonal_degradation(convex_study, lshape_study):
    convex_result, _ = convex_study
    result, wall = lshape_study
    slopes = {name: fit.slope for name, fit in result.fits.items() if fit}
    convex_h1 = convex_result.fits["e_h1_corr"].slope
    # the reentrant corner limits the corrected gradient to eps^lambda with
    # lambda = 2/3: rescaling the diagonal A* keeps the 3*pi/2 corner
    lo, hi = 2.0 / 3.0 - 0.25, convex_h1 + 0.05
    failures = []
    if abs(slopes["e_l2"] - 1.0) > 0.25:
        failures.append(f"e_l2 slope {slopes['e_l2']:.3f} not in 1.0+-0.25")
    if not lo <= slopes["e_h1_corr"] <= hi:
        failures.append(f"e_h1_corr slope {slopes['e_h1_corr']:.3f} outside "
                        f"[2/3 - 0.25, convex {convex_h1:.3f} + 0.05] = [{lo:.3f}, {hi:.3f}]")
    if wall >= 600.0:
        failures.append(f"runtime {wall:.0f}s over 10 min")
    ok = not failures
    announce(7, ok, f"e_l2 = {slopes['e_l2']:.3f}, e_h1_corr = {slopes['e_h1_corr']:.3f} in "
                    f"[2/3 - 0.25, convex {convex_h1:.3f} + 0.05] = [{lo:.3f}, {hi:.3f}], "
                    f"runtime {wall:.0f}s" + ("" if ok else f"; FAILING: {failures}"))
    assert not failures, "L-shape rates (see README): " + "; ".join(failures)


def test_criterion_8_determinism(constant_study, study_1d, convex_study, lshape_study):
    t0 = time.perf_counter()
    mism = []

    for name, (first, _) in [
        ("constant_2d.json", constant_study),
        ("cosine_1d.json", study_1d),
        ("convex_square.json", convex_study),
        ("lshape.json", lshape_study),
    ]:
        again = run_study(load_config(CONFIG_DIR / name))
        if json.dumps(first.payload(), sort_keys=True) != json.dumps(
            again.payload(), sort_keys=True
        ):
            mism.append(name)

    lam = Laminate(axis=0, alpha=1.0, beta=4.0, fraction=0.5)
    t1 = homogenized_tensor(lam, solve_correctors(lam, unit_cell_mesh(2, 64))).matrix
    t2 = homogenized_tensor(lam, solve_correctors(lam, unit_cell_mesh(2, 64))).matrix
    if not np.array_equal(t1, t2):
        mism.append("laminate tensor")

    chk = Checkerboard(1.0, 4.0)
    c1 = homogenized_tensor(chk, solve_correctors(chk, unit_cell_mesh(2, 128))).matrix
    c2 = homogenized_tensor(chk, solve_correctors(chk, unit_cell_mesh(2, 128))).matrix
    if not np.array_equal(c1, c2):
        mism.append("checkerboard tensor")

    r1 = run_operator_checks(divisions=256).as_dict()
    r2 = run_operator_checks(divisions=256).as_dict()
    if json.dumps(r1, sort_keys=True) != json.dumps(r2, sort_keys=True):
        mism.append("operator checks")

    wall = time.perf_counter() - t0
    ok = not mism
    announce(8, ok, f"bitwise-identical reruns for studies, tensors, and operator "
                    f"checks ({wall:.0f}s)" + ("" if ok else f"; mismatches: {mism}"))
    assert not mism
