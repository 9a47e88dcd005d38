"""Print the sha256 of every file of one report bundle, or compare two.

    python scripts/bundle_digests.py BUNDLE            one line per file: digest and path
    python scripts/bundle_digests.py CONFIG.json       run the config into a temporary bundle first
    python scripts/bundle_digests.py A B               compare two bundles (or configs)
    python scripts/bundle_digests.py --workload NAME --seed N
                                                       the bundle of a benchmark workload
    python scripts/bundle_digests.py --shipped         every configs/*.json and every workload at seed 1

A path that names a file is read as a run config and run with the oscillab
on the import path; a directory is read as a finished bundle.  --workload
runs the config that oscbench/workloads.py writes for the workload and the
seed.  --shipped lists the bundles of every shipped config and of every
benchmark workload at seed 1 at once, each path prefixed by its bundle's
label (the config's name, or workload-NAME), so that a diff of two trees'
listings is the whole byte-identity check.  Paths are relative to the
bundle root, sorted.  A comparison prints one line per file that differs
or exists on one side only, and exits 1 if there is any; it exits 0 when
the two bundles are byte-identical.  A config whose declared checks fail
still leaves its bundle, so its digests are printed too.
"""

import argparse
import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "oscbench" / "workloads.py"
SHIPPED_SEED = 1


def digests(root: Path) -> dict[str, str]:
    """sha256 of each file under root, by its path relative to root."""
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def run_digests(config: dict, label: str) -> dict[str, str]:
    """The digests of the bundle that config writes."""
    from oscillab.errors import CriterionFailure
    from oscillab.experiments import run

    with tempfile.TemporaryDirectory() as out:
        try:
            run(config, out_dir=out)
        except CriterionFailure as e:
            print(f"bundle_digests.py: {label}: checks failed: {e}", file=sys.stderr)
        return digests(Path(out))


def bundle_digests(path: Path) -> dict[str, str]:
    """The digests of the bundle at path, or of the bundle its config writes."""
    if path.is_dir():
        return digests(path)
    return run_digests(json.loads(path.read_text(encoding="utf-8")), str(path))


def _workloads():
    """oscbench/workloads.py, loaded by its path."""
    spec = importlib.util.spec_from_file_location("oscbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def workload_config(name: str, seed: int) -> dict:
    """The run config of one benchmark workload, from oscbench/workloads.py."""
    return _workloads().workload_config(name, seed)


def shipped_digests() -> dict[str, str]:
    """The digests of the bundles of every configs/*.json and of every
    benchmark workload at SHIPPED_SEED, by label/path."""
    workloads = _workloads()
    bundles = [(p.stem, json.loads(p.read_text(encoding="utf-8"))) for p in sorted((ROOT / "configs").glob("*.json"))]
    bundles += [(f"workload-{name}", workloads.workload_config(name, SHIPPED_SEED)) for name in workloads.WORKLOADS]
    return {f"{label}/{name}": digest for label, config in bundles for name, digest in run_digests(config, label).items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("bundles", nargs="*", type=Path, metavar="BUNDLE", help="a bundle directory or a run config")
    ap.add_argument("--workload", metavar="NAME", help="digest the bundle of this benchmark workload")
    ap.add_argument("--seed", type=int, help="the workload's seed")
    ap.add_argument("--shipped", action="store_true", help="digest every shipped config and workload at seed 1")
    args = ap.parse_args()
    if args.shipped:
        if args.bundles or args.workload is not None or args.seed is not None:
            ap.error("--shipped takes no bundle, --workload or --seed")
        sides = [shipped_digests()]
    elif args.workload is not None:
        if args.bundles or args.seed is None:
            ap.error("--workload takes --seed and no bundle")
        try:
            config = workload_config(args.workload, args.seed)
        except ValueError as e:
            ap.error(str(e))
        sides = [run_digests(config, f"workload {args.workload}")]
    elif args.seed is not None:
        ap.error("--seed goes with --workload")
    elif not 1 <= len(args.bundles) <= 2:
        ap.error("give one bundle to list or two to compare")
    else:
        sides = [bundle_digests(p) for p in args.bundles]
    if len(sides) == 1:
        for name, digest in sides[0].items():
            print(f"{digest}  {name}")
        return 0
    a, b = sides
    differ = [
        f"{'differs' if name in a and name in b else 'only in ' + ('A' if name in a else 'B')}  {name}"
        for name in sorted(set(a) | set(b))
        if a.get(name) != b.get(name)
    ]
    print("\n".join(differ) if differ else f"identical: {len(a)} files")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
