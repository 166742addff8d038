"""Fast tests of the benchmark itself, at a tiny size (ladder 1/2-1/8, m=8,
16x16 cells).  Run with ``python3 -m pytest perfbench/tests``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_on_the_seed_alone(workload):
    assert workloads.round_ops(workload, 7) == workloads.round_ops(workload, 7)
    assert workloads.round_ops(workload, 7) != workloads.round_ops(workload, 8)


@pytest.mark.parametrize("workload", list(workloads.STUDY_CONFIGS))
def test_seed_zero_runs_the_shipped_coefficient(workload):
    (op,) = workloads.round_ops(workload, 0)
    shipped = workloads.shipped_config(workloads.STUDY_CONFIGS[workload])
    assert op["scale"] == 1.0
    assert op["config"]["coefficient"] == shipped["coefficient"]


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_passes_the_gate(workload):
    result = run.benchmark(workload, 3, 1, False, workloads.TINY)["result"]
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    solved = result["metrics"]["solved_frac"]["value"]
    if workload == "cell_tensor":
        assert 0 < solved < 1  # the documented skew and non-symmetric defects
    else:
        assert solved == 1


def test_tiny_traced_run_reports_every_layer():
    out = run.benchmark("convex_study", 3, 1, True, workloads.TINY)
    result = out["result"]
    assert result["correct"], out["notes"]["problems"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    zero = [k for k, v in result["metrics"].items() if v["value"] == 0]
    assert zero == ["sparse.cg_solve.failed"]


@pytest.mark.parametrize("sym", [
    {"shift": [1, 3], "quarter_turns": 0, "swap": False, "transpose": False},
    {"shift": [0, 0], "quarter_turns": 1, "swap": False, "transpose": False},
    {"shift": [0, 0], "quarter_turns": 0, "swap": True, "transpose": False},
    {"shift": [0, 0], "quarter_turns": 0, "swap": False, "transpose": True},
    {"shift": [2, 1], "quarter_turns": 3, "swap": True, "transpose": True},
])
def test_table_symmetries_are_exact(sym):
    import homog.cell as cell
    from homog.coeff import GridTable

    (table,) = workloads.base_tables(1)
    mesh = cell.unit_cell_mesh(2, 16)
    tensors = []
    for values in (table, workloads.apply_symmetry(table, sym)):
        field = GridTable(tuple(values))
        tensors.append(cell.homogenized_tensor(field, cell.solve_correctors(field, mesh)).matrix)
    expected = np.array(workloads.transform_tensor(tensors[0].tolist(), sym))
    assert np.allclose(tensors[1], expected, rtol=1e-9, atol=0)


def test_gate_rejects_a_wrong_functional():
    (op,) = workloads.round_ops("convex_study", 3, workloads.TINY)
    outcome = run.spawn(op, False)
    references = workloads.load_references()
    assert workloads.judge(op, outcome, references) == ("solved", [])
    outcome["result"]["reports"][1]["e_l2"] *= 1 + 1e-4
    verdict, problems = workloads.judge(op, outcome, references)
    assert verdict == "failed" and "e_l2" in problems[0]


def test_unknown_exception_is_an_unexpected_failure():
    op = workloads.round_ops("cell_tensor", 3, workloads.TINY)[-1]
    known = {"error": {"type": op["known_defect"], "message": ""}}
    other = {"error": {"type": "ValueError", "message": "boom"}}
    assert workloads.judge(op, known, {})[0] == "known"
    assert workloads.judge(op, other, {})[0] == "failed"


def test_self_times_add_up_to_the_parent_span():
    spans = [
        ["a", 0.0, 10.0, -1, {}],
        ["b", 1.0, 4.0, 0, {}],
        ["c", 2.0, 3.0, 1, {}],
        ["d", 5.0, 9.0, 0, {}],
        ["e", 11.0, 12.0, -1, {}],
    ]
    own = tracer.self_times(spans)
    assert own == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert tracer.roots(spans) == [0, 0, 0, 0, 4]
    assert sum(own[:4]) == spans[0][2] - spans[0][1]


def test_tracer_wraps_every_import_site_and_counts_repeat():
    import homog.cell
    import homog.harness as harness
    import homog.solve
    import homog.sparse

    original = homog.sparse.cg_solve
    (op,) = workloads.round_ops("convex_study", 3, workloads.TINY)
    config = harness.StudyConfig.from_dict(op["config"])
    counts = []
    for _ in range(2):
        t = tracer.Tracer()
        t.install()
        try:
            assert homog.solve.cg_solve is homog.cell.cg_solve is homog.sparse.cg_solve
            assert homog.sparse.cg_solve is not original
            harness.compute_tensor(config)
        finally:
            t.uninstall()
        assert {("homog.sparse", "cg_solve"), ("homog.cell", "cg_solve"),
                ("homog.solve", "cg_solve")} <= set(t.sites)
        own = tracer.self_times(t.spans)
        root = next(i for i, s in enumerate(t.spans) if s[0] == "harness.compute_tensor")
        under = [o for o, r in zip(own, tracer.roots(t.spans)) if r == root]
        assert sum(under) == pytest.approx(t.spans[root][2] - t.spans[root][1], abs=1e-9)
        counts.append([s[4] for s in t.spans if s[0] == "sparse.cg_solve"])
    assert homog.sparse.cg_solve is original and homog.solve.cg_solve is original
    assert counts[0] == counts[1] and all(c["iters"] > 0 for c in counts[0])


def test_counting_matrix_counts_vector_products_only():
    a = sp.random(30, 30, density=0.2, format="csr", random_state=1) + sp.eye(30, format="csr")
    v = np.arange(30.0)
    view = tracer.counting_matrix(a)
    assert np.array_equal(view @ v, a @ v)
    assert np.array_equal(view.dot(v), a @ v)
    view @ a  # a sparse product is not a matrix-vector product
    assert view.matvecs == 2
    assert np.shares_memory(view.data, a.data)


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "convex_study", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
