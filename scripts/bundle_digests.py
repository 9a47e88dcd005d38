"""Print the sha256 of every file of one report bundle, or compare two.

    python scripts/bundle_digests.py BUNDLE            one line per file: digest and path
    python scripts/bundle_digests.py CONFIG.json       run the config into a temporary bundle first
    python scripts/bundle_digests.py A B               compare two bundles (or configs)
    python scripts/bundle_digests.py --workload NAME --seed N
                                                       the bundle of a benchmark workload
    python scripts/bundle_digests.py --shipped         every configs/*.json and every workload at seed 1

A path that names a file is read as a run config and run with the oscillab
of this checkout: its src/, when there is one, goes first on the import
path, as oscbench/run.py pins its runs, and the file of the oscillab
imported is printed to stderr.  A directory is read as a finished bundle.
--workload runs the config that oscbench/workloads.py writes for the
workload and the seed.  --shipped lists the bundles of every shipped config
and of every benchmark workload at seed 1 at once, each path prefixed by
its bundle's label (the config's name, or workload-NAME), so that a diff of
two trees' listings is the whole byte-identity check.  Paths are relative
to the bundle root, sorted.  A comparison prints one line per file that
differs or exists on one side only, and exits 1 if there is any; it exits 0
when the two bundles are byte-identical.  Under a JSON file that differs,
it prints one indented line per leaf whose value differs, by its path of
keys and list indices, with A's and B's values (repr, so every digit shows;
a leaf on one side only reads "absent") and, for two numbers with A's not
0, the relative change (B - A) / |A|.  A config whose declared checks fail
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
if (ROOT / "src" / "oscillab").is_dir():
    sys.path.insert(0, str(ROOT / "src"))
WORKLOADS = ROOT / "oscbench" / "workloads.py"
SHIPPED_SEED = 1


def digests(root: Path) -> dict[str, str]:
    """sha256 of each file under root, by its path relative to root."""
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def run_bundle(config: dict, label: str, out: str) -> Path:
    """The bundle that config writes into the directory out."""
    from oscillab.errors import CriterionFailure
    from oscillab.experiments import run

    try:
        run(config, out_dir=out)
    except CriterionFailure as e:
        print(f"bundle_digests.py: {label}: checks failed: {e}", file=sys.stderr)
    return Path(out)


def run_digests(config: dict, label: str) -> dict[str, str]:
    """The digests of the bundle that config writes."""
    with tempfile.TemporaryDirectory() as out:
        return digests(run_bundle(config, label, out))


def bundle_dir(path: Path, out: str) -> Path:
    """The bundle at path, or the one its config writes into out."""
    if path.is_dir():
        return path
    return run_bundle(json.loads(path.read_text(encoding="utf-8")), str(path), out)


def leaves(doc, path: str = "") -> dict:
    """Each leaf of a parsed JSON document, an empty container included,
    by its path of keys and list indices, /-joined."""
    if not (isinstance(doc, (dict, list)) and doc):
        return {path or "/": doc}
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    return {p: v for k, child in items for p, v in leaves(child, f"{path}/{k}").items()}


def leaf_changes(a: Path, b: Path) -> list[str]:
    """A line per leaf whose value differs between the JSON files a and b:
    its path, both values and, for two numbers, the relative change."""
    la, lb = (leaves(json.loads(p.read_text(encoding="utf-8"))) for p in (a, b))
    absent = object()
    lines = []
    for path in dict.fromkeys([*la, *lb]):
        va, vb = la.get(path, absent), lb.get(path, absent)
        if va == vb and type(va) is type(vb):
            continue
        line = f"  {path}  {'absent' if va is absent else repr(va)}  {'absent' if vb is absent else repr(vb)}"
        if all(type(v) in (int, float) for v in (va, vb)) and va != 0:
            line += f"  rel {(vb - va) / abs(va):+.3g}"
        lines.append(line)
    return lines


def compare(a: Path, b: Path) -> int:
    """Print the files of bundles a and b that differ, each JSON one with
    its changed leaves; 1 if any file differs, else 0."""
    da, db = digests(a), digests(b)
    differ = []
    for name in sorted(set(da) | set(db)):
        if da.get(name) == db.get(name):
            continue
        if name not in da or name not in db:
            differ.append(f"only in {'A' if name in da else 'B'}  {name}")
            continue
        differ.append(f"differs  {name}")
        if name.endswith(".json"):
            differ += leaf_changes(a / name, b / name)
    print("\n".join(differ) if differ else f"identical: {len(da)} files")
    return 1 if differ else 0


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
    import oscillab

    print(f"bundle_digests.py: oscillab from {oscillab.__file__}", file=sys.stderr)
    if args.shipped:
        if args.bundles or args.workload is not None or args.seed is not None:
            ap.error("--shipped takes no bundle, --workload or --seed")
        listing = shipped_digests()
    elif args.workload is not None:
        if args.bundles or args.seed is None:
            ap.error("--workload takes --seed and no bundle")
        try:
            config = workload_config(args.workload, args.seed)
        except ValueError as e:
            ap.error(str(e))
        listing = run_digests(config, f"workload {args.workload}")
    elif args.seed is not None:
        ap.error("--seed goes with --workload")
    elif not 1 <= len(args.bundles) <= 2:
        ap.error("give one bundle to list or two to compare")
    else:
        with tempfile.TemporaryDirectory() as out:
            roots = [bundle_dir(p, f"{out}/{i}") for i, p in enumerate(args.bundles)]
            if len(roots) == 2:
                return compare(*roots)
            listing = digests(roots[0])
    for name, digest in listing.items():
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
