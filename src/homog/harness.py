"""Study configuration, epsilon-sweep orchestration, operator checks, and
persistence.

A study solves the corrector problems and the effective tensor once, then for
every epsilon = 1/N in the ladder solves the oscillating fine problem and the
homogenized problem on the same fine mesh, reconstructs, and evaluates the
error functionals.  Log-log rate fits over the ladder are compared against
the expected orders (target with tolerance, or an interval).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .cell import CorrectorSet, HomogenizedTensor, homogenized_tensor, solve_correctors, unit_cell_mesh
from .coeff import from_config as coeff_from_config
from .coeff import validate_ellipticity
from .grid import ScalarField, StructuredMesh, build_mesh, eval_field_batch, eval_gradient_batch, h1_seminorm_sq, integrate, integrate_field, l2_norm_sq
from .metrics import CSV_HEADER, error_report, fit_rate
from .solve import BoundaryCondition, ProblemInstance, reconstruct, solve_fine, solve_homogenized
from .unfold import AlignmentError, build_cell_map, layer_indicator, scale_split, unfold, average

FUNCTIONALS = ("e_l2", "e_h1_corr", "e_weighted", "e_interior", "e_layer")
BELOW_TOLERANCE = 1e-11


class ConfigError(ValueError):
    """The study configuration is inconsistent."""


def _rhs_for(name, dim):
    if name == "constant_one":
        return lambda p: np.ones(len(p))
    if name == "sine_product":
        if dim == 1:
            return lambda p: np.sin(np.pi * p[:, 0])
        return lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
    if isinstance(name, dict) and name.get("kind") == "table":
        mesh = build_mesh(name["origin"], name["extent"], name["divisions"])
        table = ScalarField(mesh, np.asarray(name["values"], dtype=float))
        return lambda p: eval_field_batch(table, p)
    raise ConfigError(f"unknown rhs {name!r}")


@dataclass(frozen=True)
class StudyConfig:
    dim: int
    domain: str
    coefficient: dict
    bc: str
    rhs: object  # named rhs or a table spec
    epsilons: tuple  # integers N, eps = 1/N, strictly increasing
    points_per_period: int
    cell_divisions: int
    interior_box: tuple
    expected_rates: dict
    max_nodes: int = 20_000_000
    cg_tol: float = 1e-10

    def __post_init__(self):
        object.__setattr__(self, "epsilons", tuple(int(n) for n in self.epsilons))
        box = self.interior_box
        if box and np.isscalar(box[0]):
            box = (tuple(box),)
        object.__setattr__(self, "interior_box", tuple(tuple(float(v) for v in b) for b in box))
        object.__setattr__(self, "coefficient", dict(self.coefficient))
        object.__setattr__(
            self, "expected_rates", {k: dict(v) for k, v in dict(self.expected_rates).items()}
        )
        self.validate()

    def validate(self):
        if self.dim not in (1, 2):
            raise ConfigError("dim must be 1 or 2")
        if self.domain not in ("box", "l_shape"):
            raise ConfigError(f"unknown domain {self.domain!r}")
        if self.domain == "l_shape" and self.dim != 2:
            raise ConfigError("l_shape requires dim = 2")
        if len(self.epsilons) < 3:
            raise ConfigError("need at least 3 epsilon values for rate fits")
        if any(b <= a for a, b in zip(self.epsilons, self.epsilons[1:])):
            raise ConfigError("epsilons must be strictly decreasing (increasing N)")
        if any(n < 1 for n in self.epsilons):
            raise ConfigError("epsilon denominators must be positive integers")
        if self.domain == "l_shape" and any(n % 2 for n in self.epsilons):
            raise ConfigError("l_shape requires even N so the corner sits on the cell lattice")
        if self.points_per_period < 4:
            raise ConfigError("points_per_period must be at least 4")
        if self.cell_divisions < 4:
            raise ConfigError("cell_divisions must be at least 4")
        if len(self.interior_box) != self.dim:
            raise ConfigError("interior_box must have one (lo, hi) pair per axis")
        for key, spec in self.expected_rates.items():
            if key not in FUNCTIONALS:
                raise ConfigError(f"unknown functional {key!r} in expected_rates")
            if not (("target" in spec and "tol" in spec) or "interval" in spec):
                raise ConfigError(f"expected_rates[{key!r}] needs target/tol or interval")
        fine_divisions = self.points_per_period * max(self.epsilons)
        nodes = (fine_divisions + 1) ** self.dim
        if nodes > self.max_nodes:
            raise ConfigError(f"finest mesh needs {nodes} nodes, above the cap {self.max_nodes}")
        bc = BoundaryCondition(self.bc)
        field = coeff_from_config(self.coefficient)
        if field.dim != self.dim:
            raise ConfigError("coefficient dimension does not match dim")
        validate_ellipticity(field)
        if bc.kind == "neumann_full":
            mesh = self._mesh(max(64, 4 * max(self.epsilons)))
            total = integrate(mesh, _rhs_for(self.rhs, self.dim))
            if abs(total) > 1e-10:
                raise ConfigError(f"neumann_full requires a zero-mean rhs, got {total:.3e}")

    def _mesh(self, divisions: int) -> StructuredMesh:
        shape = self.domain if self.dim == 2 else "box"
        return build_mesh((0.0,) * self.dim, (1.0,) * self.dim, (divisions,) * self.dim, shape)

    def fine_mesh(self, n_eps: int) -> StructuredMesh:
        return self._mesh(self.points_per_period * n_eps)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "StudyConfig":
        data = dict(data)
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(data) - {n for n in known}
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        return cls(**data)

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def load_config(path) -> StudyConfig:
    with open(path) as fh:
        return StudyConfig.from_dict(json.load(fh))


def convex_expected_rates() -> dict:
    """Default targets on a convex polygon: first-order global, weighted, and
    interior rates; half-order corrected-gradient and layer rates."""
    return {
        "e_l2": {"target": 1.0, "tol": 0.25},
        "e_weighted": {"target": 1.0, "tol": 0.25},
        "e_interior": {"target": 1.0, "tol": 0.25},
        "e_h1_corr": {"target": 0.5, "tol": 0.2},
        "e_layer": {"target": 0.5, "tol": 0.2},
    }


def l_shape_expected_rates() -> dict:
    """Interval checks for a reentrant corner, where the regularity index is
    not known a priori."""
    return {
        "e_l2": {"interval": [0.5, 1.05]},
        "e_h1_corr": {"interval": [0.25, 0.6]},
    }


@dataclass(frozen=True)
class RateCheck:
    functional: str
    status: str  # passed | failed | inconclusive
    slope: float | None
    expected: dict
    points_used: int


@dataclass(frozen=True, eq=False)
class StudyResult:
    config: StudyConfig
    tensor: np.ndarray
    reports: tuple  # ErrorReport per epsilon
    fits: dict  # functional -> RateFit | None
    checks: tuple  # RateCheck per expected functional
    runtimes: dict

    @property
    def status(self) -> str:
        if any(c.status == "failed" for c in self.checks):
            return "failed"
        if any(c.status == "inconclusive" for c in self.checks):
            return "inconclusive"
        return "passed"

    def payload(self) -> dict:
        """Deterministic study output (timings excluded)."""
        return {
            "config_digest": self.config.digest(),
            "version": __version__,
            "tensor": self.tensor.tolist(),
            "reports": [r.as_dict() for r in self.reports],
            "rates": {
                name: None
                if fit is None
                else {
                    "slope": fit.slope,
                    "intercept": fit.intercept,
                    "r_squared": fit.r_squared,
                    "points": [list(p) for p in fit.points],
                }
                for name, fit in self.fits.items()
            },
            "checks": [
                {
                    "functional": c.functional,
                    "status": c.status,
                    "slope": c.slope,
                    "expected": c.expected,
                    "points_used": c.points_used,
                }
                for c in self.checks
            ],
            "status": self.status,
        }

    def rates_json(self) -> dict:
        out = {}
        for name, fit in self.fits.items():
            entry = {"functional": name}
            if fit is None:
                entry.update({"slope": None, "intercept": None, "r_squared": None})
            else:
                entry.update(
                    {"slope": fit.slope, "intercept": fit.intercept, "r_squared": fit.r_squared}
                )
            check = next((c for c in self.checks if c.functional == name), None)
            entry["status"] = check.status if check else "unchecked"
            if check:
                entry["expected"] = check.expected
            out[name] = entry
        return out

    def errors_csv(self) -> str:
        lines = [CSV_HEADER]
        lines += [r.csv_row() for r in self.reports]
        return "\n".join(lines) + "\n"

    def persist(self, out_dir) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "errors.csv").write_text(self.errors_csv())
        (out / "rates.json").write_text(json.dumps(self.rates_json(), indent=2, sort_keys=True))
        (out / "study.json").write_text(json.dumps(self.payload(), indent=2, sort_keys=True))


def _check_rates(expected: dict, fits: dict) -> tuple:
    checks = []
    for name, spec in expected.items():
        fit = fits.get(name)
        if fit is None:
            checks.append(RateCheck(name, "inconclusive", None, spec, 0))
            continue
        slope = fit.slope
        if "interval" in spec:
            lo, hi = spec["interval"]
            ok = lo <= slope <= hi
        else:
            ok = abs(slope - spec["target"]) <= spec["tol"]
        checks.append(RateCheck(name, "passed" if ok else "failed", slope, spec, len(fit.points)))
    return tuple(checks)


def compute_tensor(config: StudyConfig) -> tuple[HomogenizedTensor, CorrectorSet]:
    field = coeff_from_config(config.coefficient)
    correctors = solve_correctors(field, unit_cell_mesh(config.dim, config.cell_divisions),
                                  rel_tol=config.cg_tol)
    return homogenized_tensor(field, correctors), correctors


def _dump_field(field, out_dir, name, meta):
    out = Path(out_dir) / "fields"
    out.mkdir(parents=True, exist_ok=True)
    field.values.astype("<f8").tofile(out / f"{name}.bin")
    mesh = field.mesh
    sidecar = {
        "file": f"{name}.bin",
        "dtype": "<f8",
        "count": int(mesh.n_nodes),
        "ordering": "node index = i0 + (d0+1)*i1, axis 0 fastest",
        "mesh": {
            "origin": list(mesh.origin),
            "extent": list(mesh.extent),
            "divisions": list(mesh.divisions),
            "shape": "box" if mesh.active_mask is None else "l_shape",
        },
        **meta,
    }
    (out / f"{name}.json").write_text(json.dumps(sidecar, indent=2, sort_keys=True))


def run_study(config: StudyConfig, out_dir=None, progress=None, dump_fields=False) -> StudyResult:
    """Run the full epsilon sweep and rate comparison for one configuration."""
    say = progress or (lambda msg: None)
    runtimes = {}
    t0 = time.perf_counter()
    field = coeff_from_config(config.coefficient)
    bc = BoundaryCondition(config.bc)
    rhs = _rhs_for(config.rhs, config.dim)
    m = config.points_per_period

    say("solving cell problems")
    tensor, tensor_correctors = compute_tensor(config)
    if config.cell_divisions == m:
        recon_correctors = tensor_correctors
    else:
        # the reconstruction needs correctors at the fine resolution per cell;
        # the tensor benefits from a finer, independent cell mesh
        recon_correctors = solve_correctors(
            field, unit_cell_mesh(config.dim, m), rel_tol=config.cg_tol
        )
    runtimes["cell"] = time.perf_counter() - t0

    reports = []
    for n_eps in config.epsilons:
        t1 = time.perf_counter()
        say(f"epsilon = 1/{n_eps}")
        mesh = config.fine_mesh(n_eps)
        instance = ProblemInstance(mesh, field, rhs, bc, n_eps)
        fine = solve_fine(instance, rel_tol=config.cg_tol)
        phi = solve_homogenized(tensor, rhs, bc, mesh, rel_tol=config.cg_tol)
        recon = reconstruct(phi, recon_correctors, instance.cell_map)
        reports.append(error_report(fine, recon, instance.cell_map, config.interior_box))
        if dump_fields and out_dir is not None:
            _dump_field(fine, out_dir, f"fine_eps_1_{n_eps}", {"epsilon": 1.0 / n_eps})
            _dump_field(phi, out_dir, f"homogenized_eps_1_{n_eps}", {"epsilon": 1.0 / n_eps})
        runtimes[f"eps_1_{n_eps}"] = time.perf_counter() - t1

    fits = {}
    for name in FUNCTIONALS:
        pts = [
            (r.epsilon, getattr(r, name)) for r in reports if getattr(r, name) > BELOW_TOLERANCE
        ]
        fits[name] = fit_rate(pts) if len(pts) >= 3 else None
    checks = _check_rates(config.expected_rates, fits)
    runtimes["total"] = time.perf_counter() - t0

    result = StudyResult(config, tensor.matrix, tuple(reports), fits, checks, runtimes)
    if out_dir is not None:
        result.persist(out_dir)
    return result


# --- operator invariant checks --------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    bound: str
    passed: bool


@dataclass(frozen=True)
class CheckReport:
    results: tuple

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def as_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "checks": [
                {"name": r.name, "measured": r.measured, "bound": r.bound, "passed": r.passed}
                for r in self.results
            ],
        }


def run_operator_checks(divisions: int = 256, epsilons=(4, 8, 16, 32)) -> CheckReport:
    """Residual checks for the two-scale operator toolbox on the unit square."""
    results = []
    mesh = build_mesh((0.0, 0.0), (1.0, 1.0), (divisions, divisions), "box")
    x = mesh.node_coordinates()
    smooth = ScalarField(mesh, np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]))
    affine = ScalarField(mesh, 1.7 * x[:, 0] - 0.6 * x[:, 1] + 0.2)

    def add(name, measured, bound_desc, passed):
        results.append(CheckResult(name, float(measured), bound_desc, bool(passed)))

    # unfolding integration identity, exact for aligned epsilon
    worst = 0.0
    direct = integrate_field(smooth)
    for n in epsilons:
        cmap = build_cell_map(mesh, n)
        m = cmap.m[0]
        uf = unfold(smooth, cmap, m)
        ymesh = build_mesh((0.0, 0.0), (1.0, 1.0), (m, m), "box")
        total = 0.0
        for k in range(len(cmap.cells)):
            # Y-grid [i0, i1] ravels to the node index i0 + (m+1)*i1 in F order
            yfield = ScalarField(ymesh, uf.values[k].ravel(order="F"))
            total += cmap.epsilon**2 * integrate_field(yfield)
        worst = max(worst, abs(total - direct))
    add("unfold_integration_identity", worst, "<= 1e-12", worst <= 1e-12)

    # averaging is a left inverse of unfolding
    worst = 0.0
    for n in epsilons:
        cmap = build_cell_map(mesh, n)
        back = average(unfold(smooth, cmap, cmap.m[0]))
        worst = max(worst, np.abs(back.values - smooth.values).max())
    add("averaging_left_inverse", worst, "<= 1e-13", worst <= 1e-13)

    # cell-variable gradient of the unfolded field vs eps * fine gradient
    worst = 0.0
    cmap = build_cell_map(mesh, epsilons[1])
    mloc = cmap.m[0]
    uf = unfold(smooth, cmap, mloc)
    ymesh = build_mesh((0.0, 0.0), (1.0, 1.0), (mloc, mloc), "box")
    probe = np.array([[0.31, 0.47], [0.11, 0.83], [0.67, 0.23]])
    for k in range(0, len(cmap.cells), max(1, len(cmap.cells) // 7)):
        yfield = ScalarField(ymesh, uf.values[k].ravel(order="F"))
        gy = eval_gradient_batch(yfield, probe)
        gx = eval_gradient_batch(smooth, cmap.epsilon * (cmap.cells[k] + probe))
        worst = max(worst, np.abs(gy - cmap.epsilon * gx).max())
    add("gradient_exchange", worst, "<= 1e-12", worst <= 1e-12)

    # slow-part gradient reproduces affine gradients exactly
    worst = 0.0
    for n in epsilons:
        cmap = build_cell_map(mesh, n)
        q, _ = scale_split(affine, cmap)
        pts = np.array([[0.31, 0.42], [0.55, 0.18], [0.13, 0.77]])
        g = eval_gradient_batch(q, pts)
        worst = max(worst, np.abs(g - np.array([1.7, -0.6])).max())
    add("q_affine_gradient", worst, "<= 1e-12", worst <= 1e-12)

    # stability and first-order decay of the splitting
    grad_l2 = np.sqrt(h1_seminorm_sq(smooth))
    h1 = np.sqrt(l2_norm_sq(smooth) + grad_l2**2)
    q_ratios, r_consts, fit_pts = [], [], []
    for n in epsilons:
        cmap = build_cell_map(mesh, n)
        q, r = scale_split(smooth, cmap)
        q_ratios.append(np.sqrt(l2_norm_sq(q) + h1_seminorm_sq(q)) / h1)
        rnorm = np.sqrt(l2_norm_sq(r))
        r_consts.append(rnorm / (cmap.epsilon * grad_l2))
        fit_pts.append((cmap.epsilon, rnorm))
    add("q_h1_stability", max(q_ratios), "<= 1.5", max(q_ratios) <= 1.5)
    # the constant must stabilize as eps shrinks rather than grow
    tail_spread = max(q_ratios[-2:]) / min(q_ratios[-2:])
    add("q_stability_tail_spread", tail_spread, "<= 1.1", tail_spread <= 1.1)
    add("r_first_order_constant", max(r_consts), "<= 1.5", max(r_consts) <= 1.5)
    slope = fit_rate(fit_pts).slope
    add("r_decay_slope", slope, "1.0 +- 0.1", abs(slope - 1.0) <= 0.1)

    # boundary-layer volume bound
    worst_excess = -np.inf
    vol_elem = float(np.prod(mesh.h))
    for n in epsilons[1:]:
        cmap = build_cell_map(mesh, n)
        for k in (1, 2, 3, 4):
            area = layer_indicator(cmap, k).sum() * vol_elem
            bound = min(1.0, 4 * k * np.sqrt(2) * cmap.epsilon + 16 * cmap.epsilon**2)
            worst_excess = max(worst_excess, area - bound)
    add("layer_volume_bound", worst_excess, "<= 0", worst_excess <= 0.0)

    # misaligned epsilon must be rejected
    try:
        build_cell_map(mesh, 3)  # 256 is not divisible by 3
        add("alignment_rejection", 0.0, "AlignmentError raised", False)
    except AlignmentError:
        add("alignment_rejection", 1.0, "AlignmentError raised", True)

    return CheckReport(tuple(results))

