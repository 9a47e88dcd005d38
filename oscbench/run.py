"""oscillab benchmark: runs one workload through ``oscillab.experiments.run``.

    python3 oscbench/run.py --workload {lacunary,pipeline,spectral,all} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; oscillab is imported from ``src/``.
Each run happens in a fresh child process (``child.py``), one after another
from this single parent process: a closed loop with one client. The BLAS pools of
the children are pinned to one thread through the environment, before they
import numpy.

With ``--trace 0`` the workload runs back to back until ``--seconds`` have
passed (at least once), after a few set-up-only children, and the
end-to-end metrics are medians over those runs. With ``--trace 1`` it runs
once untraced and once with spans recorded from outside the package
(``tracing.py``); the per-layer metrics come from the traced run, and the
tracing overhead is the traced wall time minus the untraced one.

Every run's outputs are checked (``check.py``). The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the command exits 1 if any check failed, 2 if the checkout
holds no oscillab sources. Results with host facts go to
``.oscbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from check import compare  # noqa: E402
from workloads import WORKLOADS, workload_config  # noqa: E402

SETUP_PROBES = 5  # set-up-only children per invocation, for a steady setup_s median
DEADLINE_S = 170.0  # one workload's invocation must end within 180 s
BLAS_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
OVERHEAD_METRIC = "trace.overhead_s"
RESULTS = ROOT / ".oscbench" / "results"


class Measurement:
    """Child runs of one workload invocation and the checks made on them."""

    def __init__(self, workload: str, seed: int, small: bool, work: Path, reference: dict | None):
        self.workload = workload
        self.seed = seed
        self.small = small
        self.work = work
        self.config = workload_config(workload, seed, small=small)
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=1), encoding="utf-8")
        self.reference = reference
        self.started = time.monotonic()
        self.attempted = 0
        self.failures: list[str] = []
        self._n = 0

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok

    def child(self, trace: bool = False, setup_only: bool = False) -> dict:
        """Run one child to completion; returns its report (empty on failure)."""
        self._n += 1
        tag = f"{self._n:03d}"
        out = self.work / f"out-{tag}"
        result = self.work / f"result-{tag}.json"
        trace_file = self.work / f"trace-{tag}.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--config", str(self.config_path),
               "--out", str(out), "--result", str(result)]
        if trace:
            cmd += ["--trace", str(trace_file)]
        if setup_only:
            cmd.append("--setup-only")
        env = dict(os.environ, **BLAS_PINS, PYTHONPATH=str(ROOT / "src"))
        timeout = max(1.0, DEADLINE_S - (time.monotonic() - self.started))
        err_path = self.work / f"stderr-{tag}.txt"
        spawned = time.monotonic()
        with err_path.open("wb") as err:
            try:
                code = subprocess.run(cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                      stdout=subprocess.DEVNULL, stderr=err, timeout=timeout).returncode
            except subprocess.TimeoutExpired:
                code = f"timeout after {timeout:.0f} s"
        rep = json.loads(result.read_text(encoding="utf-8")) if code == 0 and result.exists() else {}
        tail = err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        if not self.check(bool(rep), f"run {tag}: child exit {code}: {tail}"):
            return {}
        rep["setup_s"] = rep["setup_end_monotonic"] - spawned
        src = str(ROOT / "src") + os.sep
        if not self.check(rep["oscillab_file"].startswith(src), f"run {tag}: oscillab loaded from {rep['oscillab_file']}"):
            return {}
        if setup_only:
            return rep
        self.check(rep["failure"] is None, f"run {tag}: {rep['failure']}")
        summary_path = out / "summary.json"
        if not self.check(summary_path.exists(), f"run {tag}: no summary.json"):
            return rep
        rep["summary_text"] = summary_path.read_text(encoding="utf-8")
        summary = json.loads(rep["summary_text"])
        self.check(summary["provenance"]["seed"] == self.seed, f"run {tag}: provenance seed differs from {self.seed}")
        if self.reference is not None:
            n, bad = compare(summary, self.config, self.reference)
            self.attempted += n
            self.failures += [f"run {tag}: {b}" for b in bad]
        if trace:
            rep["trace"] = json.loads(trace_file.read_text(encoding="utf-8"))
            size = "-small" if self.small else ""
            shutil.copy(trace_file, RESULTS / f"{self.workload}{size}-seed{self.seed}-spans.json")
        shutil.rmtree(out, ignore_errors=True)
        return rep

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)


def load_reference(workload: str) -> dict:
    return json.loads((HERE / "reference" / f"{workload}.json").read_text(encoding="utf-8"))


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def measure(workload: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """Run one workload invocation; returns the report written to results/."""
    work = ROOT / ".oscbench" / f"work-{os.getpid()}-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    try:
        m = Measurement(workload, seed, small, work, None if small else load_reference(workload))
        probes = 0 if trace else SETUP_PROBES
        setups = [r["setup_s"] for r in (m.child(setup_only=True) for _ in range(probes)) if r]
        runs = []
        first = time.monotonic()
        while True:
            r = m.child()
            if r:
                runs.append(r)
                setups.append(r["setup_s"])
            elapsed = time.monotonic() - first
            if trace or not r or elapsed >= seconds or m.remaining() < 1.5 * elapsed / len(runs):
                break
        report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "small": small,
                  "runs": len(runs), "setup_samples": len(setups)}
        if runs:
            report["versions"] = runs[0]["versions"]
            report["blas_threads_env"] = runs[0]["blas_threads_env"]
        if trace and runs:
            t = m.child(trace=True)
            if t:
                m.check(t.get("summary_text") == runs[0].get("summary_text"),
                         "traced and untraced summary.json differ")
                if "trace" in t:
                    metrics = tracing.layer_metrics(t["trace"], t["bundle_bytes"])
                    metrics[OVERHEAD_METRIC] = t["wall_s"] - runs[0]["wall_s"]
                    report["metrics"] = {k: {"value": v, "unit": tracing.LAYER_METRICS.get(k, "s")}
                                         for k, v in metrics.items()}
                    report["traced_wall_s"] = t["wall_s"]
                    report["untraced_wall_s"] = runs[0]["wall_s"]
                    report["layer_shares"] = tracing.layer_shares(t["trace"], t["wall_s"])
                    report["trace_sites"] = t["trace_sites"]
        elif runs:
            values = {
                "wall_s": [r["wall_s"] for r in runs],
                "cpu_s": [r["cpu_s"] for r in runs],
                "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
                "setup_s": setups,
            }
            report["samples"] = values
            report["metrics"] = {k: {"value": _median(v), "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        report.setdefault("metrics", {})
        report["attempted"] = m.attempted
        report["failed"] = len(m.failures)
        report["failures"] = m.failures
        report["fail_ratio"] = report["failed"] / report["attempted"]
        report["host"] = host_facts()
        report["blas_threads_pinned"] = BLAS_PINS
        return report
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text(encoding="utf-8").strip() if ref_file.is_file() else ref
    return ref


def host_facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "python_executable": sys.executable,
        "git_commit": _git_commit(),
    }


def _print_report(r: dict) -> None:
    print(f"workload {r['workload']} seed {r['seed']} trace {int(r['trace'])}: "
          f"{r['runs']} run(s), {r['setup_samples']} set-up sample(s), BLAS threads pinned to 1")
    samples = r.get("samples", {})
    for name, m in r["metrics"].items():
        n = f"  median of {len(samples[name])}" if name in samples else ""
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']:6s}{n}")
    if "layer_shares" in r:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in r["layer_shares"].items())
        print(f"  self-time share of traced wall: {shares}")
    print(f"  fail_ratio {r['failed']}/{r['attempted']} = {r['fail_ratio']:.4g}")
    for f in r["failures"][:20]:
        print(f"  FAILED {f}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into an exception, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "oscillab" / "__init__.py").is_file():
        print(f"oscbench: no oscillab sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = [measure(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    for r in reports:
        _print_report(r)
        path = RESULTS / f"{r['workload']}-seed{r['seed']}-trace{int(r['trace'])}.json"
        path.write_text(json.dumps(r, indent=1, sort_keys=True), encoding="utf-8")

    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in reports for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
