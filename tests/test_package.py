import json
import os
import subprocess
import sys
from pathlib import Path

import oscillab

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# flags parse before any numerical module loads, and a run loads no SciPy
_IMPORT_PROBE = """
import json, sys

from oscillab import cli

cli._build_parser().parse_args(["run", "--config", "x"])
parsed = sorted(m for m in sys.modules if m.partition(".")[0] in ("numpy", "scipy"))
code = cli.main(["run", "--config", sys.argv[1], "--out", sys.argv[2]])
ran = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
print(json.dumps({"code": code, "parsed": parsed, "ran": ran}))
"""


def test_flags_parse_without_numpy_and_a_run_loads_no_scipy(tmp_path):
    src = str(Path(oscillab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(CONFIGS / "quick.json"), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got == {"code": 0, "parsed": [], "ran": []}
