import json
import time
from pathlib import Path

import numpy as np
import pytest

from homog import harness
from homog.coeff import EllipticityError
from homog.harness import (
    ConfigError,
    StudyConfig,
    _rhs_for,
    load_config,
    run_operator_checks,
    run_study,
)


def small_spec(**overrides):
    """The config dict of ``small_config``, as a config file holds it."""
    base = dict(
        dim=2,
        domain="box",
        coefficient={"kind": "constant", "matrix": [[2.0, 0.3], [0.3, 1.4]], "dim": 2},
        bc="dirichlet_full",
        rhs="constant_one",
        epsilons=[2, 4, 8],
        points_per_period=8,
        cell_divisions=8,
        interior_box=[[0.25, 0.75], [0.25, 0.75]],
        expected_rates={"e_l2": {"target": 1.0, "tol": 0.25}},
    )
    base.update(overrides)
    return base


def small_config(**overrides):
    return StudyConfig(**small_spec(**overrides))


# wrongly typed or incomplete values, which the screen must not let escape as
# a TypeError or KeyError; the documented schema refuses each of them too
MALFORMED = [
    dict(cg_tol="1e-10"),
    dict(expected_rates={"e_l2": 5}),
    dict(coefficient=5),
    dict(epsilons=5),
    dict(interior_box=5),
    dict(coefficient={"kind": "laminate", "alpha": 1.0, "beta": 2.0}),  # no axis
    dict(coefficient={"matrix": [[2.0, 0.3], [0.3, 1.4]]}),  # no kind
    dict(coefficient={"kind": "grid_table"}),  # no values
    dict(rhs=dict(kind="table", origin=[0.0, 0.0], divisions=[4, 4], values=[1.0] * 25)),  # no extent
]


def test_config_roundtrip(tmp_path):
    cfg = small_config(expected_rates={
        "e_l2": {"target": 1.0, "tol": 0.25},
        "e_weighted": {"target": 1.0, "tol": 0.25},
        "e_interior": {"target": 1.0, "tol": 0.25},
        "e_h1_corr": {"target": 0.5, "tol": 0.2},
        "e_layer": {"target": 0.5, "tol": 0.2},
    })
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg.to_dict()))
    again = load_config(path)
    assert again == cfg
    assert again.digest() == cfg.digest()


@pytest.mark.parametrize(
    "overrides",
    [
        dict(epsilons=[2, 4]),  # too few for a fit
        dict(epsilons=[8, 4, 2]),  # not decreasing in epsilon
        dict(domain="l_shape", epsilons=[2, 4, 7]),  # odd N on l_shape
        dict(points_per_period=2),
        dict(expected_rates={"bogus": {"target": 1.0, "tol": 0.1}}),
        dict(expected_rates={"e_l2": {"target": 1.0}}),
        dict(bc="neumann_full"),  # constant_one rhs has nonzero mean
        dict(max_nodes=10),  # memory cap
        # the 128^2 cell mesh has 16,641 nodes, the ladder's finest mesh 4225
        dict(max_nodes=5000, cell_divisions=128),
        dict(interior_box=[[0.25, 0.75]]),  # wrong dimension
        dict(interior_box=[[0.25, float("nan")], [0.25, 0.75]]),  # NaN bound
        dict(interior_box=[[0.25, 0.75], [float("-inf"), 0.75]]),  # infinite bound
        dict(interior_box=[[0.75, 0.25], [0.25, 0.75]]),  # lo > hi
        dict(interior_box=[[0.25, 0.75], [0.5, 0.5]]),  # lo == hi
        dict(cg_tol=-1.0),  # divides by zero in CG
        dict(cg_tol=float("nan")),
        dict(cg_tol=0.0),  # never met
        dict(cg_tol=float("inf")),
        dict(epsilons=[2, 4.7, 8]),  # would run as (2, 4, 8)
        dict(cell_divisions=16.9),  # would run 16 divisions
        dict(points_per_period=8.5),  # would fail to align after the cell solves
        dict(expected_rates={"e_l2": {"target": 1.0, "tol": "0.25"}}),  # TypeError after the ladder
        dict(expected_rates={"e_l2": {"target": 1.0, "tol": -0.25}}),
        dict(expected_rates={"e_l2": {"target": float("nan"), "tol": 0.25}}),  # always failed
        dict(expected_rates={"e_l2": {"interval": [0.5]}}),  # ValueError after the ladder
        dict(expected_rates={"e_l2": {"interval": [1.5, 0.5]}}),  # lo > hi
        dict(expected_rates={"e_l2": {"interval": [0.5, float("inf")]}}),
        # a table rhs over half the square, which the first rung cannot sample
        dict(rhs=dict(kind="table", origin=[0.0, 0.0], extent=[0.5, 1.0], divisions=[4, 4],
                      values=[1.0] * 25)),
        *MALFORMED,
        # a float size; the schema cannot refuse it, as JSON Schema counts
        # 2.5e7 an integer
        dict(max_nodes=2.5e7),
        dict(dim=2.0),  # a TypeError at the screen's mesh
        dict(bc="periodic"),
        dict(rhs="bogus"),
        dict(coefficient={"kind": "laminate", "axis": 2, "alpha": 1.0, "beta": 2.0}),  # out of range
        # a bool passes as a number, and a fractional axis or dim was truncated
        dict(cg_tol=True),  # would run as 1.0
        dict(expected_rates={"e_l2": {"target": 1.0, "tol": True}}),
        dict(dim=True, coefficient={"kind": "constant", "matrix": [[2.0]]},
             interior_box=[[0.25, 0.75]]),  # would run as 1D
        dict(epsilons=[True, 2, 4]),  # would run as N = 1
        dict(coefficient={"kind": "laminate", "axis": 1.5, "alpha": 1.0, "beta": 2.0}),
        dict(coefficient={"kind": "scalar_cosine", "a0": 2.0, "a1": 0.5, "axis": 1.5}),
        dict(coefficient={"kind": "laminate", "axis": 0, "alpha": 1.0, "beta": 2.0, "dim": 2.5}),
        dict(interior_box=[[0.25, True], [0.25, 0.75]]),  # would run as [0.25, 1.0]
        # the default box reaches over the L's removed quadrant: refused by
        # error_report after the cell stage and the first rung's solves
        dict(domain="l_shape"),
        dict(interior_box=[[False, 0.375], [0.125, 0.375]]),  # on the boundary, as [0.0, 0.375]
    ],
)
def test_config_validation_errors(overrides):
    with pytest.raises(ConfigError):
        small_config(**overrides)


def test_from_dict_names_every_key_the_schema_requires():
    schema = json.loads((Path(__file__).resolve().parent.parent / "configs" / "schema.json").read_text())
    with pytest.raises(ConfigError) as err:
        StudyConfig.from_dict({})
    assert str(err.value) == f"missing config keys {schema['required']}"


@pytest.mark.parametrize("content", [[1, 2], "config", 5, None])
def test_load_config_refuses_a_file_that_holds_no_object(tmp_path, content):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(content))
    with pytest.raises(ConfigError, match=f"got a {type(content).__name__}"):
        load_config(path)


def test_load_config_refuses_a_file_with_a_missing_key(tmp_path):
    spec = small_spec()
    del spec["rhs"], spec["bc"]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(ConfigError, match=r"missing config keys \['bc', 'rhs'\]"):
        load_config(path)


def test_every_mesh_a_run_solves_on_is_capped():
    config = small_config(max_nodes=5000, cell_divisions=64)
    assert config.fine_mesh(8).n_nodes == 65**2 and config.cell_mesh(64).n_nodes == 65**2
    for build, arg in ((config.fine_mesh, 64), (config.instance, 64), (config.cell_mesh, 128)):
        with pytest.raises(ConfigError, match="above the cap 5000"):
            build(arg)


def test_the_screen_mesh_is_not_capped():
    # the screen's 64^2 mesh has 4225 nodes, above the cap, but no solve
    # runs on it; every mesh of the run has at most 13^2 = 169
    config = small_config(max_nodes=200, epsilons=[1, 2, 3], points_per_period=4, cell_divisions=4)
    assert config.fine_mesh(3).n_nodes == 169


def test_a_config_builds_its_coefficient_and_rhs_once(monkeypatch):
    calls = {"coeff_from_config": 0, "_rhs_for": 0}
    for name in calls:
        def counted(*args, _name=name, _call=getattr(harness, name)):
            calls[_name] += 1
            return _call(*args)
        monkeypatch.setattr(harness, name, counted)
    config = small_config(cell_divisions=16)  # a reconstruction cell mesh of its own
    run_study(config)
    assert calls == {"coeff_from_config": 1, "_rhs_for": 1}
    harness.compute_tensor(small_config())
    assert calls == {"coeff_from_config": 2, "_rhs_for": 2}


def test_the_kept_objects_are_not_settings():
    # two screens build two rhs functions, which compare unequal
    a, b = small_config(), small_config()
    assert a.source is not b.source and a == b and a.digest() == b.digest()


def test_dump_fields_without_an_out_dir_is_refused_before_the_cell_stage(monkeypatch):
    def no_cell_stage(*args, **kwargs):
        raise AssertionError("the cell stage ran")

    monkeypatch.setattr(harness, "solve_correctors", no_cell_stage)
    with pytest.raises(ValueError, match="out_dir"):
        run_study(small_config(), dump_fields=True)


def test_a_bool_interior_bound_is_refused_as_no_number():
    # refused as a bool, before the margin could read it as 1.0
    with pytest.raises(ConfigError, match="finite numbers"):
        small_config(interior_box=[[0.25, 0.75], [0.125, True]])


@pytest.mark.parametrize("overrides", MALFORMED)
def test_schema_refuses_the_malformed_values_the_screen_refuses(overrides):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((Path(__file__).resolve().parent.parent / "configs" / "schema.json").read_text())
    jsonschema.validate(small_spec(), schema)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(small_spec(**overrides), schema)


def test_tensor_does_not_depend_on_reading_the_adjoints():
    table = [[[[1.5, 0.1], [0.05, 1.5]], [[3.0, 0.1], [0.35, 3.0]]],
             [[[2.5, 0.5], [0.05, 2.5]], [[2.0, 0.5], [0.35, 2.0]]]]
    config = small_config(coefficient={"kind": "grid_table", "values": table}, cell_divisions=16)
    tensor, correctors = harness.compute_tensor(config)
    correctors.chi_adjoint
    again = harness.homogenized_tensor(correctors.coefficient, correctors).matrix
    assert again.tobytes() == tensor.matrix.tobytes() == harness.compute_tensor(config)[0].matrix.tobytes()


def test_grid_table_with_a_nan_entry_refused_by_the_screen():
    # refused at the config, long before the NaN would reach a solve
    values = np.tile(np.eye(2), (4, 4, 1, 1))
    values[1, 3, 0, 0] = np.nan
    t0 = time.perf_counter()
    with pytest.raises(EllipticityError, match="non-finite"):
        small_config(coefficient={"kind": "grid_table", "values": values.tolist()})
    assert time.perf_counter() - t0 < 0.1


def _table_rhs(f, div=16):
    """A nodal table rhs on the unit square with the values of ``f``."""
    x0, x1 = np.meshgrid(np.arange(div + 1) / div, np.arange(div + 1) / div)
    return dict(kind="table", origin=[0.0, 0.0], extent=[1.0, 1.0], divisions=[div, div],
                values=f(x0.ravel(), x1.ravel()).tolist())


def test_neumann_screen_scales_with_the_rhs():
    # zero mean: the screen integral of this table is rounding of about 1e-9,
    # which grows with |f|, so the screen compares it with 1e-10 ||f||
    small_config(bc="neumann_full",
                 rhs=_table_rhs(lambda x0, x1: 1e7 * np.cos(2 * np.pi * x0) * (1 + x1)))


def test_neumann_screen_refuses_a_tiny_nonzero_mean_rhs():
    # a constant 1e-12 has mean 1e-12, below any absolute bound
    with pytest.raises(ConfigError, match="zero-mean"):
        small_config(bc="neumann_full", rhs=_table_rhs(lambda x0, x1: np.full(len(x0), 1e-12)))


def test_neumann_screen_samples_the_rhs_once(monkeypatch):
    # the load's sum and the integral of f^2 come from one walk of the 64^2
    # screen mesh, 4 Gauss points per element
    import homog.harness

    sampled, rhs_for = [], homog.harness._rhs_for

    def counted(name):
        rhs = rhs_for(name)
        return lambda p: sampled.append(len(p)) or rhs(p)

    monkeypatch.setattr(homog.harness, "_rhs_for", counted)
    small_config(bc="neumann_full", rhs=_table_rhs(lambda x0, x1: np.cos(2 * np.pi * x0)))
    assert sum(sampled) == 4 * 64**2


def test_constant_coefficient_study_inconclusive():
    cfg = small_config(expected_rates={"e_l2": {"target": 1.0, "tol": 0.25},
                                       "e_h1_corr": {"target": 0.5, "tol": 0.2}})
    res = run_study(cfg)
    for rep in res.reports:
        assert rep.e_l2 <= 1e-10
        assert rep.e_h1_corr <= 1e-10
        assert rep.e_weighted <= 1e-10
        assert rep.e_interior <= 1e-10
    assert res.status == "inconclusive"
    assert all(c.status == "inconclusive" for c in res.checks)
    np.testing.assert_allclose(res.tensor, [[2.0, 0.3], [0.3, 1.4]], atol=1e-12)


def test_study_persistence(tmp_path):
    cfg = small_config()
    res = run_study(cfg, out_dir=tmp_path / "out", dump_fields=True)
    csv = (tmp_path / "out" / "errors.csv").read_text().strip().splitlines()
    assert csv[0] == "epsilon,e_l2,e_h1_corr,e_weighted,e_interior,e_layer"
    assert len(csv) == 1 + len(cfg.epsilons)
    rates = json.loads((tmp_path / "out" / "rates.json").read_text())
    assert set(rates) == {"e_l2", "e_h1_corr", "e_weighted", "e_interior", "e_layer"}
    assert rates["e_l2"]["status"] == "inconclusive"
    payload = json.loads((tmp_path / "out" / "study.json").read_text())
    assert payload["config_digest"] == cfg.digest()
    # the file format: renaming a dataclass field must not change it silently
    assert set(payload) == {"config_digest", "version", "tensor", "reports", "rates", "checks",
                            "status"}
    assert len(payload["reports"]) == len(cfg.epsilons)
    for report in payload["reports"]:
        assert set(report) == {"epsilon", "e_l2", "e_h1_corr", "e_weighted", "e_interior",
                               "e_layer", "interior_margin", "margin_clears_layers"}
    assert set(payload["rates"]) == set(rates)
    fitted = [fit for fit in payload["rates"].values() if fit is not None]
    assert fitted  # e_layer measures the layer's energy, not an error, so it fits
    for fit in fitted:
        assert set(fit) == {"slope", "intercept", "r_squared", "points"}
        assert all(len(point) == 2 for point in fit["points"])
    assert [check["functional"] for check in payload["checks"]] == ["e_l2"]
    for check in payload["checks"]:
        assert set(check) == {"functional", "status", "slope", "expected", "points_used"}
    for entry in rates.values():
        assert set(entry) - {"expected"} == {"functional", "slope", "intercept", "r_squared",
                                            "status"}
    for n in cfg.epsilons:
        bin_path = tmp_path / "out" / "fields" / f"fine_eps_1_{n}.bin"
        sidecar = json.loads(bin_path.with_suffix(".json").read_text())
        vals = np.fromfile(bin_path, dtype="<f8")
        assert sidecar["count"] == len(vals)


def test_study_payload_deterministic():
    cfg = small_config(
        coefficient={"kind": "laminate", "axis": 0, "alpha": 1.0, "beta": 4.0,
                     "fraction": 0.5, "dim": 2},
    )
    a = run_study(cfg).payload()
    b = run_study(cfg).payload()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_monotone_errors_when_fit_passes():
    cfg = small_config(
        coefficient={"kind": "scalar_cosine", "a0": 2.0, "a1": 1.0, "axis": 0, "dim": 2},
        epsilons=[2, 4, 8],
        points_per_period=8,
        cell_divisions=32,
    )
    res = run_study(cfg)
    for check in res.checks:
        if check.status != "passed":
            continue
        vals = [getattr(r, check.functional) for r in res.reports]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_neumann_study_with_table_rhs():
    # zero-mean nodal table: sin(2*pi*x0), constant across x1
    import numpy as np

    div = 16
    x0 = np.tile(np.arange(div + 1) / div, div + 1)
    table = dict(kind="table", origin=[0.0, 0.0], extent=[1.0, 1.0],
                 divisions=[div, div], values=np.sin(2 * np.pi * x0).tolist())
    cfg = small_config(
        bc="neumann_full",
        rhs=table,
        coefficient={"kind": "scalar_cosine", "a0": 2.0, "a1": 1.0, "axis": 0, "dim": 2},
        cell_divisions=16,
    )
    res = run_study(cfg)
    assert res.status in ("passed", "inconclusive")
    assert all(np.isfinite([r.e_l2, r.e_h1_corr]).all() for r in res.reports)
    assert all(r.e_l2 > 0 for r in res.reports)


def test_operator_checks_pass_and_serialize():
    # the decay-slope tolerance is calibrated on the full 1/4..1/32 ladder
    report = run_operator_checks(divisions=128)
    data = report.as_dict()
    assert data["all_passed"] is True
    assert {c["name"] for c in data["checks"]} >= {
        "unfold_integration_identity",
        "averaging_left_inverse",
        "gradient_exchange",
        "r_decay_slope",
        "alignment_rejection",
    }


def test_operator_checks_state_each_bound_as_before():
    report = run_operator_checks(divisions=128)
    assert [(c.name, c.bound) for c in report.results] == [
        ("unfold_integration_identity", "<= 1e-12"),
        ("averaging_left_inverse", "<= 1e-13"),
        ("gradient_exchange", "<= 1e-12"),
        ("q_affine_gradient", "<= 1e-12"),
        ("q_h1_stability", "<= 1.5"),
        ("q_stability_tail_spread", "<= 1.1"),
        ("r_first_order_constant", "<= 1.5"),
        ("r_decay_slope", "1.0 +- 0.1"),
        ("layer_volume_bound", "<= 0"),
        ("alignment_rejection", "AlignmentError raised"),
    ]


def test_operator_checks_build_each_cell_map_and_unfolding_once(monkeypatch):
    # one cell map and one unfolding per epsilon of the ladder, plus the
    # misaligned probe's cell map
    calls = {"build_cell_map": 0, "unfold": 0}
    for name in calls:
        def counted(*args, _name=name, _call=getattr(harness, name)):
            calls[_name] += 1
            return _call(*args)
        monkeypatch.setattr(harness, name, counted)
    assert run_operator_checks(divisions=256).all_passed
    n = len(harness.OPERATOR_EPSILONS)
    assert calls == {"build_cell_map": n + 1, "unfold": n}


@pytest.mark.parametrize("divisions", [96, 160])
def test_operator_checks_pass_off_powers_of_two(divisions):
    # 96 is divisible by 3, so the misaligned N is 5; at 160 a layer covering
    # the whole square must measure exactly 1
    report = run_operator_checks(divisions=divisions)
    assert report.all_passed, [c for c in report.results if not c.passed]


@pytest.mark.parametrize("dim", [1, 2])
def test_sine_product_rhs_is_the_product_of_axis_sines(dim):
    p = np.random.default_rng(dim).uniform(-0.5, 1.5, (257, dim))
    want = np.sin(np.pi * p[:, 0])
    if dim == 2:
        want = want * np.sin(np.pi * p[:, 1])
    got = _rhs_for("sine_product")(p)
    assert got.shape == (257,)
    assert np.array_equal(got, want)
