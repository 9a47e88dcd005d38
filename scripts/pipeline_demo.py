"""Run the cutoff/average/compare pipeline on one corpus member and report.

Every flag is a key of one approximation-pipeline scenario, checked and
planned as ``oscillab run`` checks and plans it: a bad value exits 2 with
the config error on stderr.  The default
geometry is small enough for a laptop.  The headline run uses
--halfwidth 65536 --spacing 0.00390625 --eps-fraction 0.1, which takes
about 0.17 to 0.19 s at 31.5 MB peak memory (2 vCPUs, numpy 2.4.6); see
configs/pipeline-large.json for this geometry driven through the CLI, with
the constant counterexample (about 0.16 to 0.17 s at 30.8 MB).
"""

import argparse
import sys

from oscillab.errors import ConfigError
from oscillab.experiments import plan_scenarios
from oscillab.reports import exp_pipeline


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--member", default="bump-narrow")
    ap.add_argument("--halfwidth", type=float, default=256.0)
    ap.add_argument("--spacing", type=float, default=2.0**-6)
    ap.add_argument("--eps-fraction", type=float, default=0.7)
    ap.add_argument("--osc-fraction", type=float, default=0.25)
    args = ap.parse_args()

    scenario = {"id": "approximation-pipeline", **vars(args)}
    try:
        (plan,) = plan_scenarios({"scenarios": [scenario]})
    except ConfigError as e:
        print(f"pipeline_demo.py: {e}", file=sys.stderr)
        sys.exit(2)
    params = dict(plan.params)
    del params["expect"]  # a config's verdict check; the demo prints the verdict
    rep = exp_pipeline(fam=plan.family, **params)
    print(f"{rep.member}: {rep.verdict} (eps {rep.eps:.5f}, norm {rep.norm:.5f})")
    if rep.verdict != "MEMBER":
        print(f"  scan exhausted: {rep.exhausted_condition}")
        return
    th = rep.thresholds
    print(f"  cutoffs: fine 2^-{th.fine_exponent}, core 2^{th.core_exponent}, outer 2^{th.outer_exponent}")
    print(f"  gate: p1 sup {rep.p1_sup:.5f} ok={rep.p1_ok}, p2 max {rep.p2_max:.5f} ok={rep.p2_ok}, sizes ok={rep.size_ratio_ok}")
    print(f"  distances: averaged {rep.distance_averaged:.6f}, full {rep.distance_full:.6f}")
    print(f"  budgets: case {rep.case_bound:.5f}, corpus {rep.corpus_bound:.5f}, mollifier t {rep.t_eps}")


if __name__ == "__main__":
    main()
