"""Benchmark of the homog pipeline.

    python3 perfbench/run.py --workload convex_study --seed 1 --seconds 38 --trace 0

Runs one workload from BENCHMARK.json as a closed loop with one client: each
pipeline call (``run_study`` or ``compute_tensor``) runs in a fresh worker
process, and the next starts when the previous one has ended.  Rounds of the
workload's operations repeat until ``--seconds`` have passed; at least one
round always runs.  The workload's inputs come from ``--seed`` alone.  Every
output passes the correctness gate in workloads.py.

With ``--trace 0`` the end-to-end metrics are measured with tracing off:

- ``run_s``: wall time of the round's pipeline calls, each call taken at its
  median over the rounds and scaled to the reference host speed (see
  ``_scaled_median``);
- ``setup_s``: process start to a built and validated ``StudyConfig``, scaled
  the same way, the median over every worker of the run;
- ``cpu_s``: user plus system CPU of the workers during those calls, taken
  the same way as ``run_s``;
- ``peak_rss_mb``: the largest ``ru_maxrss`` of any worker;
- ``solved_frac``: operations solved and checked over operations attempted.

With ``--trace 1`` one untraced round and two traced rounds run.  The first
traced round gives the per-layer metrics; the second must repeat its solver
counts exactly; ``trace.overhead_s`` is the first traced round's ``run_s``
minus the untraced one, both unscaled.  The spans are written to
``perfbench/out/``.

BLAS and OpenMP threads are pinned to one in every worker.  Workers are not
pinned to a CPU: the scheduler places each one, so a run is not stuck on a CPU
that something else keeps busy.  Lines before the last one are notes starting
with ``#``; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracer
import workloads
from workloads import FULL, HERE, ROOT

OP_TIMEOUT_S = 150
THREAD_LEAK_RATIO = 1.1  # CPU over wall time of a single-threaded call
ACCOUNTING_SLACK_S = 0.01  # wrapper cost between the worker's clock and the root span
TRACE_DIR = HERE / "out"
# a round figure near the median time of the worker's speed probe (0.082 s) on
# the 2-vCPU Xeon VM the benchmark was set up on; times are scaled to a host
# that runs the probe in this time
PROBE_REF_S = 0.09
PIPELINE_CALLS = ("harness.run_study", "harness.compute_tensor")


def spawn(op: dict, trace: bool) -> dict:
    """Run one operation in a fresh worker and return what it reported."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    payload = dict(op, trace=trace, spawned_at=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps(payload), capture_output=True, text=True, env=env,
            cwd=ROOT, timeout=OP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": {"type": "Timeout", "message": f"worker exceeded {OP_TIMEOUT_S} s"}}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": {"type": "WorkerCrash", "message": f"exit {proc.returncode}: {tail[0]}"}}
    outcome = json.loads(lines[-1])
    if not outcome["homog"].startswith(str(ROOT / "src")):
        return {"error": {"type": "WrongPackage", "message": f"imported {outcome['homog']}"}}
    return outcome


def run_round(ops: list, trace: bool, references: dict) -> list:
    calls = []
    for op in ops:
        outcome = spawn(op, trace)
        verdict, problems = workloads.judge(op, outcome, references)
        calls.append({"op": op, "outcome": outcome, "verdict": verdict, "problems": problems})
    return calls


def _round_sum(calls: list, key: str) -> float:
    return sum(c["outcome"].get(key, 0.0) for c in calls)


def _scaled(outcome: dict, key: str) -> float:
    """A reading of one call at the reference host speed: the reading times
    ``PROBE_REF_S`` over the speed probe the worker ran around the call."""
    if "probe_s" not in outcome:
        return 0.0  # the worker crashed; the gate has failed the call
    return outcome.get(key, 0.0) * PROBE_REF_S / outcome["probe_s"]


def _scaled_median(rounds: list, key: str) -> float:
    """Each call's median scaled reading over the rounds, summed over the
    round.

    Other tenants of the host change how fast it runs this VM by up to half,
    in spells of seconds to minutes, so the raw times of ten runs of the same
    code spread by up to 28% between their quartiles.  The probe next to each
    call sees the same spell as the call, and the ratio cancels it.  The
    median over a run drops the calls that a change of spell split.
    """
    return sum(
        statistics.median(_scaled(c["outcome"], key) for c in calls) for calls in zip(*rounds)
    )


def _raw_median(calls: list, key: str) -> float:
    return statistics.median(c["outcome"][key] for c in calls if key in c["outcome"])


def _signature(calls: list) -> list:
    """The solver counters of a round, call by call, in call order."""
    return [
        [(name, attrs.get("iters"), attrs.get("dofs"), attrs.get("nnz"))
         for name, _, _, _, attrs in c["outcome"].get("spans", [])
         if {"iters", "nnz"} & attrs.keys()]
        for c in calls
    ]


def _accounting_problems(calls: list) -> list:
    """Self times of the spans under each pipeline call must add up to its
    root span, and the root span to the call's measured run_s."""
    problems = []
    for c in calls:
        spans = c["outcome"].get("spans", [])
        root_of = tracer.roots(spans)
        own = tracer.self_times(spans)
        for i, (name, start, end, parent, _) in enumerate(spans):
            if parent >= 0 or name not in PIPELINE_CALLS:
                continue
            total = sum(t for t, r in zip(own, root_of) if r == i)
            gap = c["outcome"]["run_s"] - (end - start)
            if abs(total - (end - start)) > 1e-6 or not 0 <= gap <= ACCOUNTING_SLACK_S:
                problems.append(
                    f"{c['op']['name']}: self times sum to {total:.6f} s, root span "
                    f"{end - start:.6f} s, call {c['outcome']['run_s']:.6f} s"
                )
    return problems


def layer_metrics(workload: str, untraced: list, traced: list, again: list) -> tuple[dict, list]:
    span_lists = [c["outcome"].get("spans", []) for c in traced]
    values = tracer.layer_totals(span_lists)
    cg = [
        (spans, i, attrs)
        for spans in span_lists
        for i, (name, _, _, _, attrs) in enumerate(spans)
        if name == "sparse.cg_solve"
    ]
    dof_iters = sum(attrs["dofs"] * attrs["iters"] for _, _, attrs in cg)
    values["sparse.cg_solve.dofs_max"] = max((attrs["dofs"] for _, _, attrs in cg), default=0)
    values["sparse.cg_solve.us_per_dof_iter"] = (
        1e6 * values["sparse.cg_solve.s"] / dof_iters if dof_iters else 0.0
    )
    values["cell.solve_correctors.cg_calls"] = sum(
        tracer.has_ancestor(spans, i, "cell.solve_correctors") for spans, i, _ in cg
    )
    values["trace.overhead_s"] = _round_sum(traced, "run_s") - _round_sum(untraced, "run_s")

    problems = [
        f"traced run never reached {name}"
        for name in workloads.REACHES[workload]
        if not values.get(f"{name}.calls")
    ]
    if _signature(traced) != _signature(again):
        problems.append("solver counts differ between the two traced rounds")
    problems += _accounting_problems(traced) + _accounting_problems(again)
    return values, problems


def _thread_leaks(calls: list) -> list:
    return [
        f"{c['op']['name']}: cpu_s/run_s = {o['cpu_s'] / o['run_s']:.2f}"
        for c in calls
        if (o := c["outcome"]).get("run_s", 0.0) > 0.5
        and o["cpu_s"] / o["run_s"] > THREAD_LEAK_RATIO
    ]


def benchmark(workload: str, seed: int, seconds: float, trace: bool, size=FULL) -> dict:
    """Run one workload and return the result line plus the run's notes."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    ops = workloads.round_ops(workload, seed, size)
    references = workloads.load_references()
    if trace:
        rounds = [run_round(ops, k > 0, references) for k in range(3)]
    else:
        rounds = []
        deadline = time.monotonic() + seconds
        while not rounds or time.monotonic() < deadline:
            rounds.append(run_round(ops, False, references))
    calls = [c for r in rounds for c in r]
    problems = [f"{c['op']['name']}: {p}" for c in calls for p in c["problems"]]
    attempted = sum(workloads.attempted(c["op"]) for c in calls)
    failed = sum(workloads.attempted(c["op"]) for c in calls if c["verdict"] == "failed")
    solved = sum(workloads.attempted(c["op"]) for c in calls if c["verdict"] == "solved")

    if trace:
        values, trace_problems = layer_metrics(workload, *rounds)
        problems += trace_problems
        wanted = spec["per_layer"]
    else:
        values = {
            "run_s": _scaled_median(rounds, "run_s"),
            "setup_s": statistics.median(_scaled(c["outcome"], "setup_s") for c in calls),
            "cpu_s": _scaled_median(rounds, "cpu_s"),
            "peak_rss_mb": max(c["outcome"].get("rss_mb", 0.0) for c in calls),
            "solved_frac": solved / attempted,
        }
        wanted = spec["end_to_end"]
    env = dict(next((c["outcome"]["env"] for c in calls if "env" in c["outcome"]), {}),
               cpus=sorted(os.sched_getaffinity(0)))
    notes = {"env": env, "thread_leaks": _thread_leaks(calls), "problems": problems,
             "round_run_s": [_round_sum(r, "run_s") for r in rounds],
             "raw_medians": {key: _raw_median(calls, key) for key in ("setup_s", "probe_s")},
             "known_defects": sorted({f"{c['op']['name']}: {c['outcome']['error']['type']}"
                                      for c in calls if c["verdict"] == "known"})}
    if trace:
        TRACE_DIR.mkdir(exist_ok=True)
        record = {"workload": workload, "seed": seed, "env": env,
                  "calls": [{"round": k, "op": c["op"]["name"], "run_s": c["outcome"].get("run_s"),
                             "spans": c["outcome"].get("spans", [])}
                            for k, r in enumerate(rounds) for c in r]}
        (TRACE_DIR / f"trace-{workload}-{seed}.json").write_text(json.dumps(record))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted},
    }
    return {"result": result, "notes": notes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    needed = [ROOT / "src" / "homog" / "harness.py", ROOT / "BENCHMARK.json"]
    needed += [ROOT / "configs" / name for name in workloads.STUDY_CONFIGS.values()]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"run.py: not a homog checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    out = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    notes = out["notes"]
    print("# env " + json.dumps(notes["env"], sort_keys=True))
    print("# round run_s " + " ".join(f"{t:.4f}" for t in notes["round_run_s"]))
    print("# unscaled medians " + json.dumps(notes["raw_medians"]))
    for known in notes["known_defects"]:
        print(f"# known defect: {known}")
    for leak in notes["thread_leaks"]:
        print(f"# thread leak: {leak}")
    for problem in notes["problems"]:
        print(f"# problem: {problem}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
