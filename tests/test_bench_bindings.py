"""The traced benchmark wraps every binding its workloads must reach.

``perfbench/tracer.py`` replaces slitkit functions by name, and the
traced run fails on a ``MUST_CALL`` binding that records no calls.  A
renamed or removed function would break that run; this test makes the
suite fail first.  It runs in a fresh interpreter because ``install``
rebinds module attributes for the life of the process.  The slow test
runs each workload's task list once, traced, as the benchmark does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer, workloads
tr = tracer.install()
print(json.dumps({w: [b for b in bs if b not in tr.binding_calls]
                  for w, bs in workloads.MUST_CALL.items()}))
"""


def test_every_must_call_binding_is_wrapped():
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120, check=True)
    missing = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(missing) == {"grid3d", "exact", "planar"}
    assert missing == {w: [] for w in missing}


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["grid3d", "exact", "planar"])
def test_traced_workload_passes(workload):
    # a failed task or an uncalled binding fails the benchmark run
    out = subprocess.run(
        [sys.executable, "perfbench/worker.py", "--workload", workload, "--seed", "1",
         "--mode", "traced"],
        cwd=ROOT, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert [t["task"] for t in result["tasks"] if not t["ok"]] == []
    assert result["stale"] == []
