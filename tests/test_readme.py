"""The README's Python examples run as written.

Its ```python blocks build on one another (the first defines the grid,
the member and the family the later ones read), so they run in order as
one program, in a subprocess with the package's source on the path.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import oscillab

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) >= 3
    src = str(Path(oscillab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "\n".join(blocks)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    # one printed norm per print() of the examples
    printed = proc.stdout.split()
    assert len(printed) == sum(b.count("print(") for b in blocks)
    assert all(float(v) > 0 for v in printed)
