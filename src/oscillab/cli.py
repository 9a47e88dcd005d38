"""Command-line front end.

`oscillab run --config cfg.json` executes the scenarios named in the
config; the other subcommands are shorthands that synthesize a one-scenario
config from flags.  Exit codes: 0 all checks passed, 2 configuration
problem, 3 a declared check failed (the report bundle is still written).
The numerical modules load inside main(), after the flags are parsed.
"""

from __future__ import annotations

import argparse
import json
import sys


def _build_parser() -> argparse.ArgumentParser:
    # before or after the subcommand: a flag that is not given sets nothing,
    # so the subcommand's parser keeps what the top level parsed
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, help="seed for the run's PRNG stream")
    common.add_argument("--out", help="output directory for the report bundle")
    common.add_argument("--op-cap", type=int, help="max grid samples (walls included) of an operator scenario")
    common.add_argument("--interior-window", type=float, help="interior fraction used by boundary-sensitive checks (0, 1]")

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
    bmop.add_argument("--member")
    bmop.add_argument("--halfwidth", type=float)
    bmop.add_argument("--spacing", type=float)

    tentp = sub.add_parser("tent", parents=[common], help="tent norms of the square-function field")
    tentp.add_argument("--member")
    tentp.add_argument("--halfwidth", type=float)
    tentp.add_argument("--spacing", type=float)

    pairp = sub.add_parser("pairing", parents=[common], help="reproducing-formula pairing cross-check")
    pairp.add_argument("--left")
    pairp.add_argument("--right")
    pairp.add_argument("--halfwidth", type=float)
    pairp.add_argument("--spacing", type=float)
    pairp.add_argument("--tolerance", type=float, help="fail above this relative error")

    uchp = sub.add_parser(
        "uchiyama", parents=[common], help="region-dependent dyadic averaging with the P1/P2 gate"
    )
    uchp.add_argument("--member")
    uchp.add_argument("--halfwidth", type=float)
    uchp.add_argument("--spacing", type=float)
    uchp.add_argument("--eps", type=float, help="absolute approximation budget")
    uchp.add_argument("--eps-fraction", type=float, help="eps as a fraction of the norm")
    uchp.add_argument("--osc-fraction", type=float, help="oscillation share of eps")
    return ap


# shorthand subcommand -> the scenario it runs
_SHORTHANDS = {
    "bmo": "bmo-norms",
    "tent": "tent-norms",
    "pairing": "reproducing-pairing",
    "uchiyama": "averaging-pipeline",
}

# flag dest -> the config key it sets; every other given flag of a
# shorthand is a scenario parameter of the same name
_CONFIG_FLAGS = {"seed": "seed", "out": "out_dir", "op_cap": "op_cap", "interior_window": "interior_window"}


def _scenario_from_args(args: argparse.Namespace) -> dict:
    """The shorthand's scenario with the flags that were given; the
    scenario's parameter table supplies the rest."""
    skip = {"command", *_CONFIG_FLAGS}
    given = {k: v for k, v in vars(args).items() if v is not None and k not in skip}
    return {"id": _SHORTHANDS[args.command], **given}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    from .errors import CriterionFailure, OscillabError
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

    for flag, key in _CONFIG_FLAGS.items():
        if flag in args:
            doc[key] = getattr(args, flag)

    try:
        cfg = ExperimentConfig.from_dict(doc)
        summary = run(cfg)
    except CriterionFailure as e:
        print(f"FAIL: {e}", file=sys.stderr)
        return 3
    except OscillabError as e:
        # a ConfigError, or a geometry or solver error that config-chosen
        # parameters set off
        print(f"config error: {e}", file=sys.stderr)
        return 2

    n = len(summary["scenarios"])
    print(f"ok: {n} scenario{'s' if n != 1 else ''}, bundle in {cfg.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
