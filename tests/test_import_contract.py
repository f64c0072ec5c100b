"""SciPy's sparse and LAPACK layers load at the first grid solve.

Only the finite-volume and disc solves need them, so importing the
package or the CLI, and the CLI kinds that solve no grid, must not load
them.  Each check runs in a fresh interpreter: this test process has
loaded SciPy already (pytest's warning filters name
``scipy.sparse.SparseEfficiencyWarning``).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import slitkit
from slitkit.geometry import flat_geometry
from slitkit.solver import solve_fd

SRC = str(Path(slitkit.__file__).resolve().parents[1])
LAYERS = ("scipy.sparse", "scipy.sparse.linalg", "scipy.linalg")

# prints the solver layers then loaded, as the last line of output
LOADED = f"print(json.dumps([m for m in {LAYERS!r} if m in sys.modules]))"


def _run(code: str, tmp_path=None) -> list:
    """Run ``code`` in a fresh interpreter importing slitkit from ``src``;
    the JSON values of its output lines."""
    out = subprocess.run([sys.executable, "-c", f"import json, sys\n{code}"],
                         cwd=tmp_path or SRC, env={**os.environ, "PYTHONPATH": SRC},
                         capture_output=True, text=True, timeout=300, check=True)
    return [json.loads(line) for line in out.stdout.splitlines()]


def _phi(x, z):
    return np.sqrt((x + np.hypot(x, z)) / 2.0)


def test_import_loads_no_scipy():
    loaded = _run("import slitkit, slitkit.cli\n"
                  "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))")
    assert loaded == [[]]


def test_first_solve_loads_the_layers_and_matches():
    loaded, values = _run(
        "import numpy as np\n"
        "from slitkit.geometry import flat_geometry\n"
        "from slitkit.solver import solve_fd\n"
        "sol = solve_fd(flat_geometry(1), lambda x, z: np.sqrt((x + np.hypot(x, z)) / 2.0),"
        " h=1 / 8, split=True)\n"
        f"{LOADED}\n"
        "print(json.dumps(sol.values.tolist()))")
    assert loaded == list(LAYERS)
    here = solve_fd(flat_geometry(1), _phi, h=1 / 8, split=True)
    assert np.array_equal(np.array(values), here.values)


def test_cli_kinds_without_a_grid_load_no_layer(tmp_path):
    runs = [["neumann", "--k", "1"], ["freeboundary", "--G", "1.03"],
            ["whitney", "--n", "2", "--k", "1"]]
    *codes, loaded = _run(
        "from slitkit import cli\n"
        f"for args in {runs!r}:\n"
        "    print(json.dumps(cli.main([*args, '--output', 'out'])))\n"
        f"{LOADED}", tmp_path)
    assert codes == [0, 0, 0]
    assert loaded == []
