"""The traced benchmark wraps every binding its workloads must reach.

``perfbench/tracer.py`` replaces slitkit functions by name, and the
traced run fails on a ``MUST_CALL`` binding that records no calls.  A
renamed or removed function would break that run; this test makes the
suite fail first.  It runs in a fresh interpreter because ``install``
rebinds module attributes for the life of the process.
"""

import json
import subprocess
import sys
from pathlib import Path

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
