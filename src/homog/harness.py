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
import itertools
import json
import numbers
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .cell import CorrectorSet, HomogenizedTensor, homogenized_tensor, solve_correctors, unit_cell_mesh
from .coeff import from_config as coeff_from_config
from .coeff import validate_ellipticity
from .grid import SHAPES, ScalarField, StructuredMesh, build_mesh, eval_field_batch, eval_gradient_batch, h1_seminorm_sq, integrate_field, l2_norm_sq
from .metrics import CSV_HEADER, FUNCTIONALS, MIN_RATE_POINTS, InteriorBoxError, _interior_margin, error_report, fit_rate
from .solve import ProblemInstance, check_neumann_load, reconstruct, solve_fine, solve_homogenized
from .sparse import Dirichlet, ZeroMean, assemble_load
from .unfold import AlignmentError, build_cell_map, layer_indicator, scale_split, unfold, average

BELOW_TOLERANCE = 1e-11
OPERATOR_EPSILONS = (4, 8, 16, 32)  # the ladder N of ``run_operator_checks``
# the solver constraint of each config ``bc``: full Dirichlet or full Neumann data
BOUNDARY_CONDITIONS = {"dirichlet_full": Dirichlet(), "neumann_full": ZeroMean()}


class ConfigError(ValueError):
    """The study configuration is inconsistent."""


def _rhs_for(name):
    if name == "constant_one":
        return lambda p: np.ones(len(p))
    if name == "sine_product":
        return lambda p: np.prod(np.sin(np.pi * p), axis=1)
    if isinstance(name, dict) and name.get("kind") == "table":
        mesh = build_mesh(name["origin"], name["extent"], name["divisions"])
        table = ScalarField(mesh, np.asarray(name["values"], dtype=float))
        return lambda p: eval_field_batch(table, p)
    raise ValueError(f"unknown rhs {name!r}")


def _build(what: str, builder, spec):
    """``builder(spec)``, with the errors of a malformed spec raised as ConfigError."""
    try:
        return builder(spec)
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"malformed {what}: {type(err).__name__}: {err}") from err


def _finite(value) -> bool:
    """A finite real number (a bool, a string or None is not one)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and bool(np.isfinite(value))


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
        try:  # a wrongly typed container fails to unpack here
            sizes = (self.dim, *self.epsilons, self.points_per_period, self.cell_divisions, self.max_nodes)
            box = self.interior_box
            if box and np.isscalar(box[0]):
                box = (tuple(box),)
            box = tuple(map(tuple, box))
            rates = {k: dict(v) for k, v in dict(self.expected_rates).items()}
            coefficient = dict(self.coefficient)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"malformed epsilons, interior_box, expected_rates or coefficient: {err}") from err
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in sizes):
            raise ConfigError("dim, epsilons, points_per_period, cell_divisions and max_nodes must be integers")
        if not all(map(_finite, itertools.chain(*box))):  # float() reads a bool as 0.0 or 1.0
            raise ConfigError(f"interior_box bounds must be finite numbers, got {self.interior_box!r}")
        object.__setattr__(self, "epsilons", tuple(int(n) for n in self.epsilons))
        object.__setattr__(self, "interior_box", tuple(tuple(float(v) for v in b) for b in box))
        object.__setattr__(self, "coefficient", coefficient)
        object.__setattr__(self, "expected_rates", rates)
        self.validate()

    def validate(self):
        if self.dim not in (1, 2):
            raise ConfigError("dim must be 1 or 2")
        if self.domain not in SHAPES:
            raise ConfigError(f"unknown domain {self.domain!r}")
        if self.domain == "l_shape" and self.dim != 2:
            raise ConfigError("l_shape requires dim = 2")
        if len(self.epsilons) < MIN_RATE_POINTS:
            raise ConfigError(f"need at least {MIN_RATE_POINTS} epsilon values for rate fits")
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
        if len(self.interior_box) != self.dim or any(len(pair) != 2 for pair in self.interior_box):
            raise ConfigError("interior_box must have one (lo, hi) pair per axis")
        if not (_finite(self.cg_tol) and self.cg_tol > 0):
            raise ConfigError(f"cg_tol must be finite and positive, got {self.cg_tol!r}")
        for key, spec in self.expected_rates.items():
            if key not in FUNCTIONALS:
                raise ConfigError(f"unknown functional {key!r} in expected_rates")
            # _check_rates reads the interval when there is one, else target and tol
            if "interval" in spec:
                lo_hi = spec["interval"]
                ok = (isinstance(lo_hi, (list, tuple)) and len(lo_hi) == 2 and all(map(_finite, lo_hi))
                      and lo_hi[0] <= lo_hi[1])
            else:
                ok = _finite(spec.get("target")) and _finite(spec.get("tol")) and spec["tol"] >= 0
            if not ok:
                raise ConfigError(f"expected_rates[{key!r}] needs a finite target and tol >= 0, "
                                  f"or an interval of two finite numbers lo <= hi: {spec!r}")
        fine_divisions = self.points_per_period * max(self.epsilons)
        nodes = (fine_divisions + 1) ** self.dim
        if nodes > self.max_nodes:
            raise ConfigError(f"finest mesh needs {nodes} nodes, above the cap {self.max_nodes}")
        bc = _build("bc", BOUNDARY_CONDITIONS.__getitem__, self.bc)
        field = _build("coefficient", coeff_from_config, self.coefficient)
        if field.dim != self.dim:
            raise ConfigError("coefficient dimension does not match dim")
        validate_ellipticity(field)
        mesh = self._mesh(max(64, 4 * max(self.epsilons)))
        try:  # lo < hi, and the box inside the domain, away from the removed quadrant
            _interior_margin(mesh, self.interior_box)
        except InteriorBoxError as err:
            raise ConfigError(f"interior_box: {err}") from err
        rhs = _build("rhs", _rhs_for, self.rhs)
        try:  # under every bc, so a table rhs short of the domain fails here
            load, f_sq = assemble_load(mesh, rhs)
        except ValueError as err:  # outside the domain, or a non-finite value
            raise ConfigError(f"rhs is not defined and finite on the whole domain: {err}") from err
        if isinstance(bc, ZeroMean):
            check_neumann_load(load, np.sqrt(f_sq), ConfigError)

    def _mesh(self, divisions: int) -> StructuredMesh:
        return build_mesh((0.0,) * self.dim, (1.0,) * self.dim, (divisions,) * self.dim, self.domain)

    def fine_mesh(self, n_eps: int) -> StructuredMesh:
        return self._mesh(self.points_per_period * n_eps)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "StudyConfig":
        data = dict(data)
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        return cls(**data)

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def load_config(path) -> StudyConfig:
    with open(path) as fh:
        return StudyConfig.from_dict(json.load(fh))


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

    @property
    def status(self) -> str:
        if any(c.status == "failed" for c in self.checks):
            return "failed"
        if any(c.status == "inconclusive" for c in self.checks):
            return "inconclusive"
        return "passed"

    def payload(self) -> dict:
        """Deterministic study output."""
        return {
            "config_digest": self.config.digest(),
            "version": __version__,
            "tensor": self.tensor.tolist(),
            "reports": [r.as_dict() for r in self.reports],
            "rates": {name: None if fit is None else asdict(fit) for name, fit in self.fits.items()},
            "checks": [asdict(c) for c in self.checks],
            "status": self.status,
        }

    def rates_json(self) -> dict:
        checks = {c.functional: c for c in self.checks}
        out = {}
        for name, fit in self.fits.items():
            entry = {"functional": name}
            for key in ("slope", "intercept", "r_squared"):
                entry[key] = None if fit is None else getattr(fit, key)
            check = checks.get(name)
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
            "shape": mesh.shape,
        },
        **meta,
    }
    (out / f"{name}.json").write_text(json.dumps(sidecar, indent=2, sort_keys=True))


def run_study(config: StudyConfig, out_dir=None, progress=None, dump_fields=False) -> StudyResult:
    """Run the full epsilon sweep and rate comparison for one configuration."""
    say = progress or (lambda msg: None)
    field = coeff_from_config(config.coefficient)
    bc = BOUNDARY_CONDITIONS[config.bc]
    rhs = _rhs_for(config.rhs)
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

    reports = []
    for n_eps in config.epsilons:
        say(f"epsilon = 1/{n_eps}")
        mesh = config.fine_mesh(n_eps)
        instance = ProblemInstance(mesh, field, rhs, bc, n_eps)
        fine = solve_fine(instance, rel_tol=config.cg_tol)
        phi = solve_homogenized(tensor, rhs, bc, mesh, rel_tol=config.cg_tol)
        recon = reconstruct(phi, recon_correctors, instance.cell_map)
        reports.append(error_report(fine, recon, config.interior_box))
        if dump_fields and out_dir is not None:
            _dump_field(fine, out_dir, f"fine_eps_1_{n_eps}", {"epsilon": 1.0 / n_eps})
            _dump_field(phi, out_dir, f"homogenized_eps_1_{n_eps}", {"epsilon": 1.0 / n_eps})

    fits = {}
    for name in FUNCTIONALS:
        pts = [
            (r.epsilon, getattr(r, name)) for r in reports if getattr(r, name) > BELOW_TOLERANCE
        ]
        fits[name] = fit_rate(pts) if len(pts) >= MIN_RATE_POINTS else None
    checks = _check_rates(config.expected_rates, fits)

    result = StudyResult(config, tensor.matrix, tuple(reports), fits, checks)
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
        return {"all_passed": self.all_passed, "checks": [asdict(r) for r in self.results]}


def _at_most(name: str, value, bound: float) -> CheckResult:
    """An upper-bound check, its text and its comparison from the one bound."""
    return CheckResult(name, float(value), f"<= {bound}", bool(value <= bound))


def run_operator_checks(divisions: int = 256) -> CheckReport:
    """Residual checks for the two-scale operator toolbox on the unit square,
    over the ladder ``OPERATOR_EPSILONS`` in one pass: each epsilon's cell
    map, unfolding and per-cell Y-fields serve every check at that epsilon."""
    mesh = build_mesh((0.0, 0.0), (1.0, 1.0), (divisions, divisions), "box")
    x = mesh.node_coordinates()
    smooth = ScalarField(mesh, np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]))
    affine = ScalarField(mesh, 1.7 * x[:, 0] - 0.6 * x[:, 1] + 0.2)
    direct = integrate_field(smooth)
    grad_l2 = np.sqrt(h1_seminorm_sq(smooth))
    h1 = np.sqrt(l2_norm_sq(smooth) + grad_l2**2)
    identity = inverse = exchange = affine_error = 0.0
    layer_excess = -np.inf
    q_ratios, r_consts, fit_pts = [], [], []
    for n in OPERATOR_EPSILONS:
        cmap = build_cell_map(mesh, n)
        eps, m = cmap.epsilon, cmap.m[0]
        uf = unfold(smooth, cmap)
        ymesh = build_mesh((0.0, 0.0), (1.0, 1.0), (m, m), "box")
        # Y-grid [i0, i1] ravels to the node index i0 + (m+1)*i1 in F order
        yfields = [ScalarField(ymesh, values.ravel(order="F")) for values in uf.values]
        # unfolding integration identity, exact for aligned epsilon
        total = 0.0
        for yfield in yfields:
            total += eps**2 * integrate_field(yfield)
        identity = max(identity, abs(total - direct))
        # averaging is a left inverse of unfolding
        inverse = max(inverse, np.abs(average(uf).values - smooth.values).max())
        if n == OPERATOR_EPSILONS[1]:
            # cell-variable gradient of the unfolded field vs eps * fine gradient
            probe = np.array([[0.31, 0.47], [0.11, 0.83], [0.67, 0.23]])
            for k in range(0, len(cmap.cells), max(1, len(cmap.cells) // 7)):
                gy = eval_gradient_batch(yfields[k], probe)
                gx = eval_gradient_batch(smooth, eps * (cmap.cells[k] + probe))
                exchange = max(exchange, np.abs(gy - eps * gx).max())
        # slow-part gradient reproduces affine gradients exactly
        q, _ = scale_split(affine, cmap)
        g = eval_gradient_batch(q, np.array([[0.31, 0.42], [0.55, 0.18], [0.13, 0.77]]))
        affine_error = max(affine_error, np.abs(g - np.array([1.7, -0.6])).max())
        # stability and first-order decay of the splitting
        q, r = scale_split(smooth, cmap)
        q_ratios.append(np.sqrt(l2_norm_sq(q) + h1_seminorm_sq(q)) / h1)
        rnorm = np.sqrt(l2_norm_sq(r))
        r_consts.append(rnorm / (eps * grad_l2))
        fit_pts.append((eps, rnorm))
        if n != OPERATOR_EPSILONS[0]:
            # boundary-layer volume bound
            for k in (1, 2, 3, 4):
                # a share of the unit square's elements, so a full layer is exactly 1
                area = layer_indicator(cmap, k).sum() / mesh.n_elements
                layer_excess = max(layer_excess, area - min(1.0, 4 * k * np.sqrt(2) * eps + 16 * eps**2))
    slope = fit_rate(fit_pts).slope
    results = [
        _at_most("unfold_integration_identity", identity, 1e-12),
        _at_most("averaging_left_inverse", inverse, 1e-13),
        _at_most("gradient_exchange", exchange, 1e-12),
        _at_most("q_affine_gradient", affine_error, 1e-12),
        _at_most("q_h1_stability", max(q_ratios), 1.5),
        # the constant must stabilize as eps shrinks rather than grow
        _at_most("q_stability_tail_spread", max(q_ratios[-2:]) / min(q_ratios[-2:]), 1.1),
        _at_most("r_first_order_constant", max(r_consts), 1.5),
        CheckResult("r_decay_slope", float(slope), "1.0 +- 0.1", bool(abs(slope - 1.0) <= 0.1)),
        _at_most("layer_volume_bound", layer_excess, 0),
    ]
    # misaligned epsilon must be rejected: the smallest N >= 2 that does not
    # divide the divisions (3 at 256)
    try:
        build_cell_map(mesh, next(n for n in itertools.count(2) if divisions % n))
        rejected = False
    except AlignmentError:
        rejected = True
    results.append(CheckResult("alignment_rejection", float(rejected), "AlignmentError raised", rejected))
    return CheckReport(tuple(results))
