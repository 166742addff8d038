"""Error functionals for homogenization studies and log-log rate fitting.

All norms are element quadrature on the fine mesh, summed over the blocks
of the element walk in ``grid``, which reads the fields off the node grid.
The corrected gradient (slow gradient plus cell-scale corrector detail,
without the eps-small interpolation-derivative terms) is used in every
gradient functional; the weighted functional multiplies the pointwise
mismatch by the exact boundary distance.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .grid import ScalarField, element_blocks, same_mesh, squared_lengths
from .solve import Reconstruction
from .unfold import CellIndexMap, boundary_distance

FUNCTIONALS = ("e_l2", "e_h1_corr", "e_weighted", "e_interior", "e_layer")
CSV_HEADER = ",".join(("epsilon", *FUNCTIONALS))


class InteriorBoxError(ValueError):
    """The interior box is not strictly inside the active domain."""


@dataclass(frozen=True)
class ErrorReport:
    """One epsilon's worth of error functionals."""

    epsilon: float
    e_l2: float
    e_h1_corr: float
    e_weighted: float
    e_interior: float
    e_layer: float
    interior_margin: float
    margin_clears_layers: bool  # margin >= 4*sqrt(n)*eps

    def csv_row(self) -> str:
        return ",".join(repr(getattr(self, name)) for name in ("epsilon", *FUNCTIONALS))

    def as_dict(self) -> dict:
        return asdict(self)


def _interior_margin(mesh, box) -> float:
    """Distance from the box to the boundary: the boundary distance at the
    corner ``lo``, nearest the lower faces, or at ``hi``, nearest the upper
    faces and the removed quadrant, whichever is smaller."""
    corners = np.asarray(box, dtype=float).T  # rows lo, hi
    if np.any(corners[1] <= corners[0]):
        raise InteriorBoxError("interior box is empty")
    margin = float(boundary_distance(mesh, corners).min())
    if margin <= 0.0:
        raise InteriorBoxError(f"interior box leaves the active region (margin {margin})")
    return margin


def error_report(
    fine: ScalarField,
    recon: Reconstruction,
    cmap: CellIndexMap,
    interior_box,
) -> ErrorReport:
    """Evaluate every error functional for one epsilon.

    ``interior_box`` is a per-axis sequence of (lo, hi) strictly inside the
    domain.  The report records whether the box stays clear of the widest
    boundary layer at this epsilon rather than rejecting it, so shrinking
    epsilon ladders remain comparable on a fixed box.
    """
    mesh = fine.mesh
    if not same_mesh(mesh, recon.base.mesh) or not same_mesh(mesh, cmap.mesh):
        raise ValueError("fine solution, reconstruction, and map must share one mesh")
    if np.isscalar(interior_box[0]):
        interior_box = (interior_box,)
    if len(interior_box) != mesh.dim:
        raise InteriorBoxError("interior box dimension mismatch")
    margin = _interior_margin(mesh, interior_box)
    eps = cmap.epsilon

    # the elements whose centre lies in the widest boundary layer, as
    # ``unfold.layer_indicator(cmap, 3)`` marks them, are found block by block
    layer_width = 3 * np.sqrt(mesh.dim) * eps
    lo = np.asarray([b[0] for b in interior_box])
    hi = np.asarray([b[1] for b in interior_box])

    centre = np.full((1, mesh.dim), 0.5)  # of the reference element
    vol = float(np.prod(mesh.h))
    acc = dict.fromkeys(FUNCTIONALS, 0.0)
    max_rho = 0.0
    for block in element_blocks(mesh):
        # the distance first, while its temporaries are the only large arrays
        rho = boundary_distance(mesh, block.points().reshape(-1, mesh.dim))
        rho = rho.reshape(block.size, -1)
        max_rho = max(max_rho, float(rho.max()))
        centers = block.points(centre).reshape(block.size, mesh.dim)
        imask = np.all((centers > lo) & (centers < hi), axis=1)
        lmask = boundary_distance(mesh, centers) < layer_width
        u = block.values(fine.values)
        gu = block.gradients(fine.values)
        base = block.values(recon.base.values)
        rv, rg = recon.eval_elements(block)
        dgrad2 = squared_lengths(gu - rg)
        idev = (u[imask] - rv[imask]) ** 2 + dgrad2[imask]
        integrands = ((u - base) ** 2, dgrad2, rho**2 * dgrad2, idev, squared_lengths(gu[lmask]))
        for name, integrand in zip(FUNCTIONALS, integrands):
            acc[name] += vol * float(np.einsum("eq,q->", integrand, block.rule.weights))

    report = ErrorReport(
        epsilon=eps,
        **{name: float(np.sqrt(total)) for name, total in acc.items()},
        interior_margin=margin,
        margin_clears_layers=bool(margin >= 4 * np.sqrt(mesh.dim) * eps),
    )
    if report.e_weighted > max_rho * report.e_h1_corr * (1 + 1e-12) + 1e-300:
        raise RuntimeError("weighted error exceeds max(rho) times the global error")
    return report


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log(error) against log(epsilon)."""

    slope: float
    intercept: float
    r_squared: float
    points: tuple


def fit_rate(points, min_points: int = 3) -> RateFit:
    """Fit the convergence order from (epsilon, error) pairs.

    Raises ValueError for fewer than ``min_points`` pairs, non-positive
    errors (below-tolerance measurements must be dropped by the caller), or
    repeated epsilon values.
    """
    pts = [(float(e), float(v)) for e, v in points]
    if len(pts) < min_points:
        raise ValueError(f"need at least {min_points} points, got {len(pts)}")
    eps = np.array([p[0] for p in pts])
    err = np.array([p[1] for p in pts])
    if np.any(err <= 0.0):
        raise ValueError("rate fit requires strictly positive errors")
    if len(np.unique(eps)) != len(eps):
        raise ValueError("epsilon values must be distinct")
    x = np.log(eps)
    y = np.log(err)
    dx = x - x.mean()  # the least-squares line in closed form, with no LAPACK call
    slope = float(dx @ (y - y.mean())) / float(dx @ dx)
    intercept = y.mean() - slope * x.mean()
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    ss_res = float((resid**2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(float(slope), float(intercept), float(r2), tuple(pts))
