"""Error functionals for homogenization studies and log-log rate fitting.

All norms are element quadrature on the fine mesh, reduced together by one
stacked ``grid.quadrature`` walk, which reads the fields off the node grid.
The corrected gradient (slow gradient plus cell-scale corrector detail,
without the eps-small interpolation-derivative terms) is used in every
gradient functional; the weighted functional multiplies the pointwise
mismatch by the exact boundary distance.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .grid import ScalarField, quadrature, same_mesh, squared_lengths
from .solve import Reconstruction
from .unfold import boundary_distance, layer_indicator

FUNCTIONALS = ("e_l2", "e_h1_corr", "e_weighted", "e_interior", "e_layer")
CSV_HEADER = ",".join(("epsilon", *FUNCTIONALS))
MIN_RATE_POINTS = 3  # the fewest (epsilon, error) pairs ``fit_rate`` fits


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
    if not margin > 0.0:  # a NaN bound gives a NaN margin
        raise InteriorBoxError(f"interior box leaves the active region (margin {margin})")
    return margin


def error_report(
    fine: ScalarField,
    recon: Reconstruction,
    interior_box,
) -> ErrorReport:
    """Evaluate every error functional for one epsilon.

    ``interior_box`` is a per-axis sequence of (lo, hi) strictly inside the
    domain.  The report records whether the box stays clear of the widest
    boundary layer at this epsilon rather than rejecting it, so shrinking
    epsilon ladders remain comparable on a fixed box.

    The five integrands go to one stacked ``quadrature`` walk.  The interior
    and layer terms carry 0/1 element factors: centre inside the box, and
    the mask of ``unfold.layer_indicator(recon.cmap, 3)``.  That layer is
    3*sqrt(n)*eps wide, so on the unit square it covers every element when
    3*sqrt(2)*eps >= 1/2 (eps = 1/4 and 1/8), and ``e_layer`` there is the
    global ||grad u_eps||.  Each walk block gathers each nodal field once.
    """
    mesh, cmap = fine.mesh, recon.cmap
    if not same_mesh(mesh, recon.base.mesh):
        raise ValueError("fine solution and reconstruction must share one mesh")
    if np.isscalar(interior_box[0]):
        interior_box = (interior_box,)
    if len(interior_box) != mesh.dim:
        raise InteriorBoxError("interior box dimension mismatch")
    margin = _interior_margin(mesh, interior_box)
    lo, hi = np.asarray(interior_box, dtype=float).T
    layer = layer_indicator(cmap, 3).reshape(mesh.divisions[::-1])  # the widest layer
    centre = np.full((1, mesh.dim), 0.5)  # of the reference element
    max_rho = 0.0

    def sample(block):  # the integrands in ``FUNCTIONALS`` order
        nonlocal max_rho
        # the distance first, while its temporaries are the only large arrays
        rho = block.sample(lambda points: boundary_distance(mesh, points))
        max_rho = max(max_rho, float(rho.max()))
        centers = block.points(centre)  # (E, 1, n)
        inside = np.all((centers > lo) & (centers < hi), axis=2)
        u, gu = block.values_and_gradients(fine.values)
        base, rv, rg = recon.evaluate(block)
        dgrad2 = squared_lengths(gu - rg)
        del centers, rg  # not held at the stack below, where the block peaks
        return np.stack(((u - base) ** 2, dgrad2, rho**2 * dgrad2, inside * ((u - rv) ** 2 + dgrad2),
                         layer[block.box].reshape(-1, 1) * squared_lengths(gu)))

    totals = quadrature(mesh, sample)
    report = ErrorReport(
        epsilon=cmap.epsilon,
        **{name: float(np.sqrt(total)) for name, total in zip(FUNCTIONALS, totals)},
        interior_margin=margin,
        margin_clears_layers=bool(margin >= 4 * np.sqrt(mesh.dim) * cmap.epsilon),
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


def fit_rate(points) -> RateFit:
    """Fit the convergence order from (epsilon, error) pairs.

    Raises ValueError for fewer than ``MIN_RATE_POINTS`` pairs, non-positive
    errors (below-tolerance measurements must be dropped by the caller), or
    repeated epsilon values.
    """
    pts = [(float(e), float(v)) for e, v in points]
    if len(pts) < MIN_RATE_POINTS:
        raise ValueError(f"need at least {MIN_RATE_POINTS} points, got {len(pts)}")
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
