"""slitkit benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload grid3d|exact|planar --seed N \\
        --seconds S --trace 0|1

Run from the repository root; slitkit is imported from ``./src``. Each
pass runs the workload's task list once in a fresh interpreter
(``worker.py``) with BLAS pinned to one thread, so no pass inherits
caches from the one before. A run makes as many passes as fit in
``--seconds``, at least three unless the host is too slow to end them
within the run's time limit. With ``--trace 0`` it reports the
end-to-end metrics named in ``BENCHMARK.json``. With ``--trace 1`` each
repetition is one untraced and one traced pass, and the run reports the
per-layer metrics: calls, inclusive and self seconds of every wrapped
public function, plus the tracing overhead (traced minus untraced wall)
and the harness time.

Human-readable lines come first; the last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``attempted`` counts tasks over all passes and ``failed`` the tasks
whose output check failed or that raised an exception
(``SlitkitError`` or a crash).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("grid3d", "exact", "planar")
WORKER = Path(__file__).resolve().parent / "worker.py"
MIN_PASSES = 3          # per-task medians need at least three samples
RUN_LIMIT_S = 170.0     # every worker is stopped by then
PLAN_LIMIT_S = 120.0    # no repetition starts that would not end by then


class BenchError(Exception):
    pass


def spawn(mode: str, args, env: dict, deadline: float) -> dict:
    """Run one worker to completion; add ``setup_s`` measured from spawn."""
    t_spawn = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), "--workload", args.workload,
             "--seed", str(args.seed), "--mode", mode],
            env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded the {RUN_LIMIT_S:.0f} s run limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    try:
        res = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"{mode} worker printed no result:\n{proc.stdout[-1000:]}"
                         f"\n{proc.stderr[-2000:]}") from exc
    res["setup_s"] = res["t_first"] - t_spawn
    return res


def measure(args, env: dict) -> tuple[list, list]:
    """Untraced passes and, with ``--trace 1``, as many traced passes.

    The first repetition sets how many fit in ``--seconds``; at least
    ``MIN_PASSES`` run, unless the host is so slow that the next one
    would not end by ``PLAN_LIMIT_S``: then the run reports the passes
    it has rather than overrunning its time limit.
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    passes, traced = [], []
    start = time.monotonic()
    target = MIN_PASSES
    rep_s = 0.0
    while len(passes) < target:
        t_rep = time.monotonic()
        passes.append(spawn("pass", args, env, deadline))
        if args.trace:
            traced.append(spawn("traced", args, env, deadline))
        rep_s = max(rep_s, time.monotonic() - t_rep)
        if len(passes) == 1:
            target = max(MIN_PASSES, int(args.seconds // rep_s))
        if time.monotonic() - start + 1.25 * rep_s > PLAN_LIMIT_S:
            break
    if len(passes) < MIN_PASSES:
        print(f"only {len(passes)} of {MIN_PASSES} repetitions fit in {PLAN_LIMIT_S:.0f} s "
              f"(slowest took {rep_s:.1f} s)")
    return passes, traced


def pass_wall(passes: list) -> float:
    """Wall time of one pass: each task's median over the passes, summed,
    plus the median time spent between tasks.

    Per-task medians over interleaved passes discard the bursts in which
    a shared host runs this machine slower, which a whole-pass median of
    a few passes does not.
    """
    n = len(passes[0]["tasks"])
    tasks = sum(statistics.median(p["tasks"][i]["s"] for p in passes) for i in range(n))
    return tasks + statistics.median(p["wall_s"] - sum(t["s"] for t in p["tasks"])
                                     for p in passes)


def report_pass(i: int, p: dict, label: str) -> None:
    bad = [t for t in p["tasks"] if not t["ok"]]
    print(f"{label} {i}: wall {p['wall_s']:.3f} s, set-up {p['setup_s']:.3f} s, "
          f"peak {p['peak_rss_mb']:.0f} MB, {len(p['tasks']) - len(bad)}/{len(p['tasks'])} "
          f"tasks pass")
    for t in p["tasks"] if i == 1 else bad:
        for ok, detail in t["checks"]:
            print(f"  [{'ok' if ok else 'FAIL'}] {t['task']}: {detail}")
    if i == 1:
        for note in p["notes"]:
            print(f"  (reported) {note}")


def end_to_end(passes: list) -> dict:
    return {
        "wall_s": pass_wall(passes),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "oracle_err_max": max(max(p["oracle_err"].values()) for p in passes),
        "rate_exponent_min": min(min(p["rates"].values()) for p in passes),
    }


def per_layer(passes: list, traced: list) -> dict:
    """Layer counters of the median-wall traced pass, so that its self
    times plus harness time add up to its wall exactly."""
    mid = sorted(traced, key=lambda t: t["wall_s"])[len(traced) // 2]
    out = dict(mid["layers"])
    out["trace.wall_s"] = mid["wall_s"]
    out["trace.untraced_wall_s"] = statistics.median(p["wall_s"] for p in passes)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    out["trace.harness_s"] = mid["harness_s"]
    return out


def report_trace(layers: dict) -> None:
    self_s = sorted(((v, k[: -len(".self_s")]) for k, v in layers.items()
                     if k.endswith(".self_s")), reverse=True)
    wall = layers["trace.wall_s"]
    print("top-3 layers by self time: " + ", ".join(
        f"{name} {v:.3f} s ({v / wall:.0%})" for v, name in self_s[:3]))
    print(f"tracing overhead {layers['trace.overhead_s']:+.3f} s on an untraced wall of "
          f"{layers['trace.untraced_wall_s']:.3f} s; sum of self times "
          f"{sum(v for v, _ in self_s):.3f} s + harness {layers['trace.harness_s']:.3f} s "
          f"= traced wall {wall:.3f} s")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "slitkit" / "__init__.py").is_file():
        print(f"no slitkit sources under {root / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
    env.pop("PYTHONPATH", None)
    try:
        passes, traced = measure(args, env)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}, inputs {json.dumps(passes[0]['inputs'])}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in passes[0]["env"].items()))
    for i, p in enumerate(passes, 1):
        report_pass(i, p, "pass")
    for i, t in enumerate(traced, 1):
        report_pass(i + len(passes), t, "traced pass")
    print("task medians: " + ", ".join(
        f"{t['task']} {statistics.median(p['tasks'][i]['s'] for p in passes):.3f} s"
        for i, t in enumerate(passes[0]["tasks"])))
    runs = passes + traced
    attempted = sum(len(p["tasks"]) for p in runs)
    failed = sum(not t["ok"] for p in runs for t in p["tasks"])
    print(f"fail_frac {failed}/{attempted} = {failed / attempted:.4f}")

    if args.trace:
        stale = sorted({b for t in traced for b in t["stale"]})
        if stale:
            print("traced run failed: these bindings recorded no calls on a workload that "
                  "must reach them: " + ", ".join(stale), file=sys.stderr)
            return 1
        values = per_layer(passes, traced)
        report_trace(values)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(passes)
        values["pass_frac"] = 1.0 - failed / attempted
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print("BENCHMARK.json names metrics this run does not measure: "
              + ", ".join(missing), file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
