import os
import subprocess
import sys
from pathlib import Path

import oscillab
from oscillab.corpus import CORPUS

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_corpus_norms_script_prints_every_member():
    src = str(Path(oscillab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "corpus_norms.py")],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.strip().splitlines()
    assert header.split() == ["member", "bmo", "bmo_l", "size", "tilde", "tent", "ratio"]
    assert [r.split()[0] for r in rows] == [m.name for m in CORPUS]
