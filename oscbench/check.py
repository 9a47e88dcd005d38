"""Output checks: a run's summary.json against the reference captured for
its workload at the commit that defined the benchmark.

Every leaf of ``summary["scenarios"]`` that the reference holds is one
check: verdict strings and booleans must match exactly, integers exactly,
other numbers within the reference's ``rtol``/``atol``. A leaf missing from
the output fails; a leaf the output adds is ignored. Leaves excluded below
are not compared:

- echo-only labels (``left``, ``right``, ``member``) repeat the config and
  compute nothing; ``reproducing-pairing`` reports ``right: bump-wide``
  while computing with ``gaussian`` (a known defect whose fix must not read
  as a failure);
- ``arg_sup_ball`` of ``bmo-norms`` falls back to ball 0 when there is no
  supercritical part (a known defect);
- ``slope`` of a jittered ``rho-slope`` depends on the seed and is checked
  through the scenario's own declared slope check instead.
"""

from __future__ import annotations

import math

ECHO_KEYS = frozenset({"left", "right", "member"})
DEFECT_KEYS = frozenset({"arg_sup_ball"})


def _excluded(path: tuple, jittered: frozenset) -> bool:
    if any(k in ECHO_KEYS or k in DEFECT_KEYS for k in path if isinstance(k, str)):
        return True
    return len(path) == 2 and path[0] in jittered and path[1] == "slope"


def jittered_scenarios(config: dict) -> frozenset:
    return frozenset(s.get("name", s["id"]) for s in config["scenarios"] if s.get("jitter"))


def leaves(summary: dict, config: dict) -> dict:
    """Comparable leaves of summary["scenarios"], keyed by '/'-joined path."""
    jittered = jittered_scenarios(config)
    out = {}

    def walk(node, path):
        if isinstance(node, dict):
            for k in sorted(node):
                walk(node[k], path + (k,))
        elif isinstance(node, list):
            for i, v in enumerate(node):
                walk(v, path + (i,))
        elif not _excluded(path, jittered):
            out["/".join(str(p) for p in path)] = node

    walk(summary["scenarios"], ())
    return out


def _matches(got, want, rtol: float, atol: float) -> bool:
    if isinstance(want, bool) or isinstance(got, bool):
        return got is want
    if isinstance(want, int) and isinstance(got, int):
        return got == want
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        return math.isfinite(got) and abs(got - want) <= atol + rtol * abs(want)
    return got == want


def compare(summary: dict, config: dict, reference: dict) -> tuple[int, list[str]]:
    """(checks attempted, mismatch messages) for one run's summary."""
    got = leaves(summary, config)
    rtol, atol = reference["rtol"], reference["atol"]
    bad = []
    for path, want in reference["values"].items():
        if path not in got:
            bad.append(f"{path}: missing (reference {want!r})")
        elif not _matches(got[path], want, rtol, atol):
            bad.append(f"{path}: {got[path]!r} != reference {want!r}")
    return len(reference["values"]), bad
