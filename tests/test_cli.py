import json

import numpy as np
import pytest

import homog.cli
import homog.solve
from homog.cli import main
from homog.harness import StudyConfig, compute_tensor, load_config
from homog.sparse import SolverError


def write_config(tmp_path, **overrides):
    cfg = dict(
        dim=2,
        domain="box",
        coefficient={"kind": "laminate", "axis": 0, "alpha": 1.0, "beta": 4.0,
                     "fraction": 0.5, "dim": 2},
        bc="dirichlet_full",
        rhs="constant_one",
        epsilons=[2, 4, 8],
        points_per_period=8,
        cell_divisions=64,
        interior_box=[[0.25, 0.75], [0.25, 0.75]],
        expected_rates={},
    )
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_tensor_command(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["tensor", "--config", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(out["tensor"], [[1.6, 0.0], [0.0, 2.5]], atol=1e-8)
    assert out["ellipticity"] == [1.0, 4.0]


def test_tensor_command_ellipticity_sees_a_thin_layer(tmp_path, capsys):
    # the layer is thinner than the 1/64 spacing of the config-entry lattice,
    # but the cell assembly's quadrature samples reach into it
    path = write_config(tmp_path, coefficient={"kind": "laminate", "axis": 0, "alpha": 0.01,
                                               "beta": 1.0, "fraction": 0.005, "dim": 2})
    assert main(["tensor", "--config", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    tensor = np.asarray(out["tensor"])
    assert out["ellipticity"] == [0.01, 1.0]
    assert out["ellipticity"][0] <= np.linalg.eigvalsh(0.5 * (tensor + tensor.T)).min()


def test_tensor_command_cell_divisions_override(tmp_path, capsys):
    # the cosine's tensor depends on the cell divisions, unlike the laminate's
    path = write_config(tmp_path, coefficient={"kind": "scalar_cosine", "a0": 2.0, "a1": 1.0, "dim": 2})
    assert main(["tensor", "--config", str(path), "--cell-divisions", "32"]) == 0
    printed = json.loads(capsys.readouterr().out)["tensor"]
    config = load_config(path)
    coarse = compute_tensor(StudyConfig.from_dict({**config.to_dict(), "cell_divisions": 32}))[0]
    assert printed == coarse.matrix.tolist()
    assert printed != compute_tensor(config)[0].matrix.tolist()


def test_tensor_command_refuses_zero_cell_divisions(tmp_path, capsys):
    # 0 is refused by the config screen like any count below 4, not ignored
    path = write_config(tmp_path)
    assert main(["tensor", "--config", str(path), "--cell-divisions", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cell_divisions must be at least 4" in captured.err


def test_solve_command_writes_field(tmp_path, capsys):
    path = write_config(tmp_path, cell_divisions=8)
    out_dir = tmp_path / "run"
    assert main(["solve", "--config", str(path), "--epsilon", "1/4",
                 "--out", str(out_dir)]) == 0
    sidecar = json.loads((out_dir / "fields" / "solution_eps_1_4.json").read_text())
    values = np.fromfile(out_dir / "fields" / "solution_eps_1_4.bin", dtype="<f8")
    assert sidecar["count"] == len(values) == 33 * 33
    assert sidecar["mesh"]["divisions"] == [32, 32]
    assert sidecar["ordering"].startswith("node index = i0")
    assert np.isfinite(values).all()


def test_solve_command_reads_an_integer_epsilon_as_its_denominator(tmp_path, capsys):
    path = write_config(tmp_path, cell_divisions=8)
    fields = []
    for text, out in (("4", "n"), ("1/4", "slash")):
        assert main(["solve", "--config", str(path), "--epsilon", text, "--out", str(tmp_path / out)]) == 0
        written = tmp_path / out / "fields"
        fields.append([(written / f"solution_eps_1_4.{ext}").read_bytes() for ext in ("bin", "json")])
    assert fields[0] == fields[1]


def test_solve_command_refuses_a_mesh_above_the_cap(tmp_path, capsys, monkeypatch):
    # the ladder's finest mesh has 4225 nodes; epsilon = 1/64 would need 263,169
    assemblies = []
    monkeypatch.setattr(homog.solve, "assemble_stiffness", lambda *args: assemblies.append(args))
    path = write_config(tmp_path, cell_divisions=8, max_nodes=5000)
    out_dir = tmp_path / "run"
    assert main(["solve", "--config", str(path), "--epsilon", "1/64", "--out", str(out_dir)]) == 1
    assert "above the cap 5000" in capsys.readouterr().err
    assert not out_dir.exists() and not assemblies


def test_study_command_refuses_dump_fields_without_out(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, cell_divisions=8)
    assert main(["study", "--config", str(path), "--dump-fields"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: dump_fields") and captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("damage", ["no epsilons", "a list"])
def test_study_command_refuses_an_incomplete_config_file(tmp_path, capsys, damage):
    path = write_config(tmp_path)
    cfg = json.loads(path.read_text())
    if damage == "no epsilons":
        del cfg["epsilons"]
    else:
        cfg = list(cfg.items())
    path.write_text(json.dumps(cfg))
    assert main(["study", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert ("epsilons" if damage == "no epsilons" else "got a list") in err


def test_study_command_inconclusive_constant(tmp_path, capsys):
    path = write_config(
        tmp_path,
        coefficient={"kind": "constant", "matrix": [[1.0, 0.0], [0.0, 1.0]], "dim": 2},
        cell_divisions=8,
        expected_rates={"e_l2": {"target": 1.0, "tol": 0.25}},
    )
    code = main(["study", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 3
    assert (tmp_path / "out" / "errors.csv").exists()
    assert (tmp_path / "out" / "rates.json").exists()


def test_study_command_passing_rates(tmp_path):
    path = write_config(
        tmp_path,
        coefficient={"kind": "scalar_cosine", "a0": 2.0, "a1": 1.0, "axis": 0, "dim": 2},
        cell_divisions=32,
        expected_rates={"e_l2": {"target": 1.0, "tol": 0.25}},
    )
    assert main(["study", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


def test_study_command_failing_rates(tmp_path):
    path = write_config(
        tmp_path,
        coefficient={"kind": "scalar_cosine", "a0": 2.0, "a1": 1.0, "axis": 0, "dim": 2},
        cell_divisions=32,
        expected_rates={"e_l2": {"target": 3.0, "tol": 0.1}},
    )
    assert main(["study", "--config", str(path), "--out", str(tmp_path / "out")]) == 2


def test_check_operators_command(capsys):
    assert main(["check-operators", "--divisions", "128"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_passed"] is True


def test_check_operators_command_off_powers_of_two(capsys):
    assert main(["check-operators", "--divisions", "96"]) == 0
    assert json.loads(capsys.readouterr().out)["all_passed"] is True


def test_check_operators_help_states_the_divisions_constraint(capsys):
    with pytest.raises(SystemExit):
        main(["check-operators", "--help"])
    assert "multiple of 32" in " ".join(capsys.readouterr().out.split())


def test_runtime_error_exit_code(tmp_path, capsys):
    assert main(["tensor", "--config", str(tmp_path / "missing.json")]) == 1
    bad = write_config(tmp_path, epsilons=[4])
    assert main(["study", "--config", str(bad)]) == 1


def test_bad_epsilon_argument(tmp_path):
    path = write_config(tmp_path, cell_divisions=8)
    assert main(["solve", "--config", str(path), "--epsilon", "2/5"]) == 1


@pytest.mark.parametrize("exc", [SolverError("CG did not converge in 5 iterations", 3e-4),
                                 RuntimeError("Galerkin residual 1.0e-06 exceeds 1.0e-09")])
def test_solver_failure_exit_code(tmp_path, capsys, monkeypatch, exc):
    def failing_study(*args, **kwargs):
        raise exc

    monkeypatch.setattr(homog.cli, "run_study", failing_study)
    path = write_config(tmp_path, cell_divisions=8)
    assert main(["study", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {exc}\n"
