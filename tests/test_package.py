import json
import os
import subprocess
import sys
from pathlib import Path

import oscillab

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# modules that numpy or the standard library load only when reached: of
# them a run needs numpy.fft alone, for the sine transform.  The run's
# PRNG is the standard library's random.Random, the Gauss-Legendre rule of
# the n = 2, 3 masses is built by Newton's method, and the config hash
# reads CPython's built-in sha256, so neither numpy.random (nor OpenSSL's
# _hashlib, which its secrets import loads) nor numpy.polynomial is loaded
_LAZY = ["numpy.random", "numpy.polynomial", "numpy.fft", "_hashlib"]

# flags parse before any numerical module loads, and a run loads no SciPy;
# the configs given run one after another in one process
_IMPORT_PROBE = """
import json, sys

from oscillab import cli

cli._build_parser().parse_args(["run", "--config", "x"])
parsed = sorted(m for m in sys.modules if m.partition(".")[0] in ("numpy", "scipy"))
out, lazy, configs = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3:]
codes = [cli.main(["run", "--config", c, "--out", f"{out}/{i}"]) for i, c in enumerate(configs)]
ran = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
print(json.dumps({"codes": codes, "parsed": parsed, "ran": ran, "lazy": [m for m in lazy if m in sys.modules]}))
"""


def _probe(tmp_path, *configs: str) -> dict:
    src = str(Path(oscillab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(tmp_path / "out"), json.dumps(_LAZY), *(str(CONFIGS / c) for c in configs)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_flags_parse_without_numpy_and_a_run_loads_no_scipy(tmp_path):
    # quick.json's rho-slope scenarios solve n = 2, 3 masses and its
    # operator scenarios take sine transforms: of the lazy modules, only the
    # transform's loads
    got = _probe(tmp_path, "quick.json")
    assert got == {"codes": [0], "parsed": [], "ran": [], "lazy": ["numpy.fft"]}


def test_lacunary_and_pipeline_runs_load_no_lazy_numpy_submodule(tmp_path):
    # neither draws, solves a radial mass nor transforms, so neither loads
    # the sine transform's module either
    got = _probe(tmp_path, "lacunary.json", "pipeline-large.json")
    assert got == {"codes": [0, 0], "parsed": [], "ran": [], "lazy": []}
