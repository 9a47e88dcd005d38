"""Command-line front end.

`oscillab run --config cfg.json` executes the scenarios named in the
config; the other subcommands are shorthands that synthesize a one-scenario
config from flags.  Exit codes: 0 all checks passed, 2 configuration
problem, 3 a declared check failed (the report bundle is still written).

--threads pins the BLAS pools through OMP_NUM_THREADS, OPENBLAS_NUM_THREADS
and MKL_NUM_THREADS, which BLAS reads only when numpy loads; so the heavy
imports happen inside main() after the environment is set, and a call made
after numpy is already loaded is refused (exit 2) rather than ignored.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=int, default=None, help="BLAS/OpenMP thread count")
    common.add_argument("--seed", type=int, default=None, help="seed for the run's PRNG stream")
    common.add_argument("--out", default=None, help="output directory for the report bundle")
    common.add_argument("--op-cap", type=int, default=None, help="max grid samples (walls included) of an operator scenario")
    common.add_argument(
        "--interior-window",
        type=float,
        default=None,
        help="interior fraction used by boundary-sensitive checks (0, 1]",
    )

    ap = argparse.ArgumentParser(
        prog="oscillab",
        description="Oscillation, tent-space, and critical-radius experiments.",
        parents=[common],
    )
    sub = ap.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", parents=[common], help="execute the scenarios in a JSON config")
    runp.add_argument("--config", required=True, help="path to the JSON config")

    bmop = sub.add_parser(
        "bmo", parents=[common], help="oscillation norms and verdicts for one corpus member"
    )
    bmop.add_argument("--member", default="bump-narrow")
    bmop.add_argument("--halfwidth", type=float, default=16.0)
    bmop.add_argument("--spacing", type=float, default=2.0**-6)

    tentp = sub.add_parser("tent", parents=[common], help="tent norms of the square-function field")
    tentp.add_argument("--member", default="bump-narrow")
    tentp.add_argument("--halfwidth", type=float, default=16.0)
    tentp.add_argument("--spacing", type=float, default=2.0**-6)

    pairp = sub.add_parser("pairing", parents=[common], help="reproducing-formula pairing cross-check")
    pairp.add_argument("--left", default="gaussian")
    pairp.add_argument("--right", default="gaussian")
    pairp.add_argument("--halfwidth", type=float, default=16.0)
    pairp.add_argument("--spacing", type=float, default=2.0**-6)
    pairp.add_argument("--tolerance", type=float, default=None, help="fail above this relative error")

    uchp = sub.add_parser(
        "uchiyama", parents=[common], help="region-dependent dyadic averaging with the P1/P2 gate"
    )
    uchp.add_argument("--member", default="bump-narrow")
    uchp.add_argument("--halfwidth", type=float, default=64.0)
    uchp.add_argument("--spacing", type=float, default=2.0**-5)
    uchp.add_argument("--eps", type=float, default=None, help="absolute approximation budget")
    uchp.add_argument("--eps-fraction", type=float, default=0.1, help="eps as a fraction of the norm")
    uchp.add_argument("--osc-fraction", type=float, default=None, help="oscillation share of eps")
    return ap


def _scenario_from_args(args: argparse.Namespace) -> dict:
    if args.command == "bmo":
        return {
            "id": "bmo-norms",
            "member": args.member,
            "halfwidth": args.halfwidth,
            "spacing": args.spacing,
        }
    if args.command == "tent":
        return {
            "id": "tent-norms",
            "member": args.member,
            "halfwidth": args.halfwidth,
            "spacing": args.spacing,
        }
    if args.command == "pairing":
        s = {
            "id": "reproducing-pairing",
            "left": args.left,
            "right": args.right,
            "halfwidth": args.halfwidth,
            "spacing": args.spacing,
        }
        if args.tolerance is not None:
            s["tolerance"] = args.tolerance
        return s
    if args.command == "uchiyama":
        s = {
            "id": "averaging-pipeline",
            "member": args.member,
            "halfwidth": args.halfwidth,
            "spacing": args.spacing,
        }
        if args.eps is not None:
            s["eps"] = args.eps
        else:
            s["eps_fraction"] = args.eps_fraction
        if args.osc_fraction is not None:
            s["osc_fraction"] = args.osc_fraction
        return s
    raise AssertionError(args.command)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.threads is not None:
        if args.threads < 1:
            print("config error: --threads must be >= 1", file=sys.stderr)
            return 2
        if "numpy" in sys.modules:
            print(
                "config error: --threads must be given before numpy is loaded "
                "(numpy is already imported in this process); set "
                "OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and MKL_NUM_THREADS instead",
                file=sys.stderr,
            )
            return 2
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)

    from .errors import ConfigError, CriterionFailure, OscillabError
    from .experiments import ExperimentConfig, run

    if args.command == "run":
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as e:
            print(f"config error: cannot read {args.config}: {e}", file=sys.stderr)
            return 2
        except json.JSONDecodeError as e:
            print(f"config error: {args.config} is not valid JSON: {e}", file=sys.stderr)
            return 2
        if not isinstance(doc, dict):
            print("config error: config root must be a JSON object", file=sys.stderr)
            return 2
    else:
        doc = {"scenarios": [_scenario_from_args(args)]}

    if args.seed is not None:
        doc["seed"] = args.seed
    if args.out is not None:
        doc["out_dir"] = args.out
    if args.op_cap is not None:
        doc["op_cap"] = args.op_cap
    if args.interior_window is not None:
        doc["interior_window"] = args.interior_window

    try:
        cfg = ExperimentConfig.from_dict(doc)
        summary = run(cfg)
    except CriterionFailure as e:
        print(f"FAIL: {e}", file=sys.stderr)
        return 3
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except OscillabError as e:
        # geometry/solver errors triggered by config-chosen parameters
        print(f"config error: {e}", file=sys.stderr)
        return 2

    out = doc.get("out_dir", "oscillab-out")
    n = len(summary["scenarios"])
    print(f"ok: {n} scenario{'s' if n != 1 else ''}, bundle in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
