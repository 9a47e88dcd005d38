"""Run the lacunary separation experiment and print the per-mode curves.

The grid, the ball family and k_max come from the plan of a
lacunary-separation scenario, built as ``oscillab run`` builds it; the
scenario's defaults are the headline run (halfwidth 2^14, spacing 2^-8,
bumps at 3^k for k <= 8), which takes 0.17 to 0.18 s at 32.8 MB peak RSS
(2 vCPUs, numpy 2.4.6).  The separation needs that many decades: --small
runs a cut-down box in 0.17 to 0.18 s at 32.9 MB that exercises the plumbing
but usually reports INCONCLUSIVE.  Before the closing line, the run's
family scan prints its step count and the tracemalloc peak of
family_stats.
"""

import argparse
import tracemalloc

from oscillab import reports
from oscillab.experiments import plan_scenarios
from oscillab.oscillation import family_stats
from oscillab.reports import exp_lacunary


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--small",
        action="store_true",
        help="cut-down box for quick iteration; verdicts are usually INCONCLUSIVE",
    )
    args = ap.parse_args()

    scenario = {"id": "lacunary-separation"}
    if args.small:
        scenario.update(
            k_max=6,
            halfwidth=1024.0,
            spacing=2.0**-6,
            stride=0.5,
            radius_max=512.0,
            distance_max=512.0,
        )
    (plan,) = plan_scenarios({"scenarios": [scenario]})
    scans = []

    def traced(f, family):
        """family_stats, keeping the scan's step count and tracemalloc peak."""
        tracemalloc.start()
        try:
            st = family_stats(f, family)
            scans.append((st.oscillation.starts.size, tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
        return st

    reports.family_stats = traced
    try:
        rep = exp_lacunary(plan.family, plan.params["k_max"])
    finally:
        reports.family_stats = family_stats

    for mode in sorted(rep.curves):
        curve = rep.curves[mode]
        v = rep.verdicts[mode]
        print(f"{mode}: {v.verdict} (terminal {v.terminal:.4f}, tol {v.tol:.4f})")
        for a, val, cnt in zip(curve.ladder, curve.values, curve.counts):
            mark = "" if cnt else "  (no balls)"
            print(f"    a={a:<10.4g} sup={val:.5f} over {cnt} balls{mark}")
    for steps, peak in scans:
        print(f"family_stats: {steps} steps, tracemalloc peak {peak / 2**20:.3f} MiB")
    trend = "n/a" if rep.trend_exponent is None else f"{rep.trend_exponent:.3f}"
    print(
        f"far floor {rep.floor:.4f} (required {rep.floor_required:.4f}, ok={rep.floor_ok}), "
        f"trend exponent {trend}, {rep.n_balls} balls total"
    )


if __name__ == "__main__":
    main()
