"""One pipeline call of the homog benchmark, in a fresh process.

Reads an operation (JSON) on stdin, builds and validates its
``StudyConfig``, runs ``run_study`` or ``compute_tensor`` on it and prints one
JSON line with the set-up time, the call's wall and CPU time, the host-speed
probe, the peak RSS, a summary of the output for the correctness gate and,
when traced, the recorded spans.

Set-up time runs from ``spawned_at`` (``time.monotonic()`` read by the parent
just before it started this process) to a validated config, so it covers the
interpreter start, the imports and ``validate_ellipticity``.

The probe (``probe_s``) is the mean time of a fixed kernel run just before and
just after the call; it measures how fast the host runs this process around
the call, independently of the homog code.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported
    os.environ[_var] = "1"

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


# 5-point Laplacian of the probe: 256^2 unknowns, about the 65,025 of the
# study workloads' finest system, so that the probe moves through memory as
# the solves do.  A 128^2 probe fits in L2; it missed spells that slowed the
# large solves by 40%, and left twice the spread between runs.
PROBE_GRID = 256
PROBE_CG_ITERS = 75
PROBE_LOOPS = 120_000


class SpeedProbe:
    """A fixed single-threaded kernel, a mix like the pipeline's: sparse
    matrix-vector products and vector updates of an unpreconditioned CG, then
    an interpreter-bound dictionary loop.  About 0.09 s on a 2-vCPU Xeon."""

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp

        t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(PROBE_GRID, PROBE_GRID))
        eye = sp.identity(PROBE_GRID)
        self.matrix = (sp.kron(eye, t) + sp.kron(t, eye)).tocsr()
        self.rhs = np.ones(self.matrix.shape[0])
        self.run(cg_iters=20, loops=1000)  # first touch of the arrays

    def run(self, cg_iters=PROBE_CG_ITERS, loops=PROBE_LOOPS) -> float:
        t0 = time.perf_counter()
        x, r = self.rhs * 0.0, self.rhs.copy()
        p, rr = r.copy(), r @ r
        for _ in range(cg_iters):
            q = self.matrix @ p
            alpha = rr / (p @ q)
            x += alpha * p
            r -= alpha * q
            rr, old = r @ r, rr
            p = r + (rr / old) * p
        counts = {}
        for i in range(loops):
            counts[i % 97] = counts.get(i % 97, 0) + i
        return time.perf_counter() - t0


def duality_defect(tensor, correctors) -> float:
    """Relative gap in A*(A^T) = A*(A)^T, with the adjoint correctors already
    computed for A serving as the correctors of A^T (no extra solve)."""
    import numpy as np
    from homog.cell import CorrectorSet, homogenized_tensor

    field = correctors.coefficient.transposed()
    swapped = CorrectorSet(correctors.cell_mesh, correctors.chi_adjoint, correctors.chi, field)
    adjoint = homogenized_tensor(field, swapped).matrix
    return float(np.abs(adjoint - tensor.matrix.T).max() / np.abs(tensor.matrix).max())


def summary(kind: str, value) -> dict:
    if kind == "study":
        return {
            "tensor": value.tensor.tolist(),
            "reports": [r.as_dict() for r in value.reports],
            "statuses": {c.functional: c.status for c in value.checks},
        }
    tensor, correctors = value
    return {"tensor": tensor.matrix.tolist(), "duality": duality_defect(tensor, correctors)}


def main() -> int:
    op = json.loads(sys.stdin.read())
    import homog.harness as harness

    tracer = None
    if op["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    config = harness.StudyConfig.from_dict(op["config"])
    out = {"setup_s": time.monotonic() - op["spawned_at"], "homog": harness.__file__}
    probe = SpeedProbe()
    before = probe.run()
    call = harness.run_study if op["kind"] == "study" else harness.compute_tensor
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        value = call(config)
    except Exception as exc:  # the gate classifies the failure
        value = None
        out["error"] = {"type": type(exc).__name__, "message": str(exc)}
    out["run_s"] = time.perf_counter() - t0
    out["cpu_s"] = time.process_time() - cpu0
    out["probe_s"] = 0.5 * (before + probe.run())
    if tracer is not None:
        tracer.uninstall()
        out["spans"] = tracer.spans
    if value is not None:
        out["result"] = summary(op["kind"], value)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["env"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
