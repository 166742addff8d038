"""The experiment scripts reach private helpers of the package, so each runs
here once, small, as a subprocess."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
STAGES = {"cell", "assembly", "hierarchy", "load", "solve", "h1_guard", "homogenized",
          "reconstruct", "error_report"}


def _run(name, *args):
    done = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_stage_times_reports_every_stage_of_both_rungs():
    report = json.loads(_run("stage_times.py", "--repeats", "1"))
    assert set(report["rungs"]) == {"box", "l_shape"}
    # the constant tensor's transform solve, on the L-shape with the
    # capacitance of the removed quadrant's two inner edges, 128 nodes each
    # with the corner shared
    assert report["rungs"]["box"]["homogenized_levels"] == 1
    assert report["rungs"]["l_shape"]["homogenized_levels"] == 1
    assert report["rungs"]["box"]["homogenized_gamma"] == 0
    assert report["rungs"]["l_shape"]["homogenized_gamma"] == 255
    for rung in report["rungs"].values():
        assert set(rung["seconds"]) == STAGES
        assert all(t > 0 for t in rung["seconds"].values())
        assert set(rung["bytes_per_node"]) == STAGES
        for figures in rung["bytes_per_node"].values():
            assert set(figures) == {"peak", "kept"}
            assert 0 <= figures["kept"] <= figures["peak"]
        assert rung["coarsest_dofs"] > 0 and rung["vcycles"] > 0
        # the configs' cosine varies along y1 alone: chi_2's load is noise
        assert rung["corrector_solves"] == 1
        # so the reconstruction's walk evaluates chi_1's term alone
        assert rung["reconstruction_terms"] == 1
        # one sampling by the cell assembly and one by the tensor
        assert rung["cell_samplings"] == 2


def test_effective_tensors_runs():
    out = _run("effective_tensors.py")
    assert out.count("max dev from reference") == 4


def test_run_convergence_studies_writes_the_study_outputs(tmp_path):
    _run("run_convergence_studies.py", "--only", "cosine_1d", "--out", str(tmp_path))
    assert (tmp_path / "cosine_1d" / "errors.csv").is_file()
    assert (tmp_path / "cosine_1d" / "rates.json").is_file()
