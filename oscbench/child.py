"""One measured oscillab run, executed in a fresh process by ``run.py``.

    python3 oscbench/child.py --config CFG --out DIR --result FILE [--trace FILE] [--setup-only]

Set-up ends once numpy, scipy and oscillab are imported and
``ExperimentConfig.from_dict`` has validated the config; its end is reported
on the system-wide monotonic clock so the parent can measure it from the
moment it spawned this process. The run itself is timed around
``oscillab.experiments.run``. The BLAS thread pins come from the
environment the parent sets before this process imports numpy.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback


def _tree_bytes(root: str) -> int:
    total = 0
    for d, _, files in os.walk(root):
        total += sum(os.path.getsize(os.path.join(d, f)) for f in files)
    return total


def _blas_version(np) -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import numpy as np
    import scipy
    import oscillab
    from oscillab import experiments
    from oscillab.errors import CriterionFailure

    with open(args.config, encoding="utf-8") as fh:
        cfg = experiments.ExperimentConfig.from_dict(json.load(fh))
    setup_end = time.monotonic()

    result = {
        "setup_end_monotonic": setup_end,
        "oscillab_file": os.path.abspath(oscillab.__file__),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": _blas_version(np),
        },
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracing import Tracer, install

            tracer = Tracer(run_id=os.path.basename(args.trace))
            result["trace_sites"] = install(tracer)
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        try:
            experiments.run(cfg, out_dir=args.out)
            result["failure"] = None
        except CriterionFailure as e:
            result["failure"] = str(e)
        except Exception:  # report any crash to the parent as a failed run
            result["failure"] = "crash: " + traceback.format_exc()
        t1 = time.perf_counter()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        result.update({
            "wall_s": t1 - t0,
            "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
            "peak_rss_mb": ru1.ru_maxrss / 1024.0,
            "bundle_bytes": _tree_bytes(args.out),
        })
        if tracer is not None:
            with open(args.trace, "w", encoding="utf-8") as fh:
                json.dump(tracer.dump(), fh)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
