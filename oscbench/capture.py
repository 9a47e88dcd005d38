"""Capture the reference outputs that ``run.py`` checks every run against.

    python3 oscbench/capture.py [--seed 0] [--workload NAME ...]

Run from the root of a source checkout at the commit whose outputs are the
reference; writes ``oscbench/reference/<workload>.json``. Recapturing at a
later commit would hide any change in results, so do it only when a change
of results is intended and reviewed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from check import leaves
from run import HERE, ROOT, Measurement
from workloads import WORKLOADS

# Numbers match when |got - ref| <= ATOL + RTOL * |ref|. RTOL admits a change
# of summation order (a different BLAS thread count moves the last digits);
# ATOL admits the rounding noise of values that are zero in theory, such as
# the far-field oscillation of the gaussian (about 1e-15 here) or of a
# constant (below 1e-6 on the corpus grid).
RTOL = 1e-6
ATOL = 1e-6


def capture(workload: str, seed: int) -> dict:
    work = ROOT / ".oscbench" / f"capture-{os.getpid()}-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        m = Measurement(workload, seed, False, work, None)
        rep = m.child()
        if m.failures:
            raise SystemExit(f"{workload}: run failed, nothing captured:\n" + "\n".join(m.failures))
        values = leaves(json.loads(rep["summary_text"]), m.config)
        return {"captured_with_seed": seed, "rtol": RTOL, "atol": ATOL, "values": values}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workload", nargs="*", choices=WORKLOADS, default=list(WORKLOADS))
    args = ap.parse_args()
    for w in args.workload:
        ref = capture(w, args.seed)
        path = HERE / "reference" / f"{w}.json"
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{w}: {len(ref['values'])} reference values -> {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
