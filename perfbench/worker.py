"""One pass of one workload in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --mode pass|traced

Run from the repository root by ``run.py``. Imports slitkit from
``./src`` only, sets the workload up (inputs from the seed, warm-up),
runs the task list once and prints one JSON object as its last line of
output. ``t_first`` is the wall-clock
time at which the first task starts, so the parent can measure set-up
from the moment it started this interpreter.
"""

import os

# pin BLAS and OpenMP to one thread before numpy is imported: on a
# two-core machine extra threads oversubscribe and swamp the timings
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import sys
import time
import warnings
from pathlib import Path


def _import_slitkit(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import slitkit

    if Path(slitkit.__file__).resolve().parent != src / "slitkit":
        raise ImportError(f"slitkit imported from {slitkit.__file__}, not from {src}")


def _environment() -> dict:
    import numpy as np
    import scipy
    import sympy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        import pyamg  # noqa: F401  (solver prefers it over Jacobi-CG)
        amg = "imports"
    except ImportError:
        amg = "absent (CG is Jacobi-preconditioned)"
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "pyamg": amg,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("pass", "traced"), required=True)
    args = ap.parse_args()

    root = Path.cwd()
    _import_slitkit(root)
    import sympy.core.cache

    import workloads
    from slitkit.errors import TruncationWarning

    warnings.simplefilter("ignore", TruncationWarning)
    scratch = root / ".perfbench_out" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        inputs, tasks, warmup = workloads.make(args.workload, args.seed, scratch)
        warmup()
        sympy.core.cache.clear_cache()
        tracer = None
        if args.mode == "traced":
            import tracer as tracing

            tracer = tracing.install()
        gc.collect()
        t_first = time.time()
        rec = workloads.Recorder(tracer)
        t0 = time.perf_counter()
        for name, fn, *fn_args in tasks:
            rec.run(name, fn, *fn_args)
        wall = time.perf_counter() - t0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:     # another worker's directory is still there
            pass

    out = {"t_first": t_first, "wall_s": wall,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "inputs": inputs, "tasks": rec.tasks, "oracle_err": rec.oracle_err,
           "rates": rec.rates, "notes": rec.notes, "env": _environment()}
    if tracer is not None:
        out["layers"] = tracer.flat()
        out["harness_s"] = wall - tracer.top_s
        out["stale"] = [b for b in workloads.MUST_CALL[args.workload]
                        if tracer.binding_calls.get(b, 0) == 0]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
