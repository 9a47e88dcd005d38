"""Every function in src/oscillab is reached by a shipped config, or is on
ALLOWED with the reason it stays.

One subprocess installs a ``sys.setprofile`` hook before it imports
oscillab, runs ``oscillab run`` on configs/full.json (every scenario of
configs/quick.json is also in it, which tests/test_shipped_configs.py
checks), and prints the package functions it entered, keyed by file,
first line and name (the first line of a decorated function is its first
decorator's, as in ``co_firstlineno``).  The test fails on

* a def that no config reaches and ALLOWED does not name: delete it,
  move it to tests/oracles.py when only tests call it (an oracle or a
  test helper has no place in the package), or add an entry;
* an ALLOWED entry that names no def: delete the entry;
* an ALLOWED def that a config reaches: delete the entry.

An entry is keyed ``<file>.py:<qualified name>``, as a failure prints it
(a name that repeats in one file gets ``#2``, ``#3``, ... in source order),
and gives one reason of a kind in REASON_KINDS: what calls or reads it.
"""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import oscillab

PACKAGE = Path(oscillab.__file__).resolve().parent
CONFIGS = Path(__file__).resolve().parents[1] / "configs"

REASON_KINDS = {
    "script": "the script in scripts/ that calls it",
    "cli": "the CLI entry that calls it",
    "config": "the config key, unset in full.json, that reaches it",
    "tracer": "the oscbench/tracing.py span or counter that wraps or reads it",
    "protocol": "the standard-library protocol (copy, pickle) that calls it",
}

ALLOWED = {
    "cli.py:_scenario_from_args": ("cli", "the bmo, tent, pairing and uchiyama shorthands"),
    "corpus.py:corpus_grid": ("script", "corpus_norms.py samples the corpus on it"),
    "family.py:BallFamily.__getnewargs__": ("protocol", "copy, deepcopy and pickle rebuild a family from it"),
    "family.py:BallFamily.centers": ("tracer", "the family.distinct_centers counter and the family_stats digest"),
    "family.py:BallFamily.radii": ("tracer", "the family_stats counter digests the radii"),
    "semigroup.py:apply_spectral": ("tracer", "the semigroup.apply span wraps it"),
}

_PROBE = """
import json, sys
from pathlib import Path

entered = set()


def hook(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(hook)
from oscillab import cli

config, out = sys.argv[1], sys.argv[2]
if cli.main(["run", "--config", config, "--out", out]) != 0:
    sys.exit("full.json did not run cleanly")
sys.setprofile(None)
package = Path(sys.modules["oscillab"].__file__).resolve().parent
print(json.dumps(sorted(
    (Path(c.co_filename).name, c.co_firstlineno, c.co_name)
    for c in entered
    if Path(c.co_filename).resolve().parent == package
)))
"""


def _defs() -> dict[str, tuple[str, int, str]]:
    """Every def of the package: key -> (file, first line, name)."""
    out, seen = {}, Counter()

    def walk(node, file, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                key = f"{file}:{prefix}{child.name}"
                seen[key] += 1
                out[key if seen[key] == 1 else f"{key}#{seen[key]}"] = (file, first, child.name)
                walk(child, file, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, file, f"{prefix}{child.name}.")
            else:
                walk(child, file, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.name, "")
    return out


def _where(key: str, defs) -> str:
    file, line, _ = defs[key]
    return f"src/oscillab/{file}:{line} {key.split(':', 1)[1]}"


def test_every_function_is_reached_or_allowed_with_a_reason(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(CONFIGS / "full.json"), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    reached = {tuple(r) for r in json.loads(proc.stdout.splitlines()[-1])}
    defs = _defs()
    hit = {key for key, d in defs.items() if d in reached}

    kinds = ["the reason kinds of an ALLOWED entry:", *(f"  {k}: {v}" for k, v in REASON_KINDS.items())]
    problems = [f"{key}: reason kind {kind!r} is none of REASON_KINDS"
                for key, (kind, _) in ALLOWED.items() if kind not in REASON_KINDS]
    problems += [f"src/oscillab/{key.replace(':', ' ', 1)}: on ALLOWED but names no function"
                 for key in sorted(set(ALLOWED) - set(defs))]
    problems += [f"{_where(key, defs)}: on ALLOWED but a config reaches it" for key in sorted(hit & set(ALLOWED))]
    problems += [f"{_where(key, defs)}: no config reaches it and ALLOWED does not name it; "
                 "if only tests call it, move it to tests/oracles.py"
                 for key in sorted(set(defs) - hit - set(ALLOWED))]
    assert not problems, "\n".join([*problems, *kinds])
