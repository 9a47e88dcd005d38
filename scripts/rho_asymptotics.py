"""Print fitted critical-radius growth exponents for a grid of potentials.

For the power potential |x|^a the fitted log-log slope should sit near
1 - a/2; for a constant potential it should sit near 0.  Useful as a quick
sanity sweep after touching the radius solver.
"""

import argparse

from oscillab.errors import ConfigError
from oscillab.reports import exp_rho_slope
from oscillab.potential import power_potential


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dims", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--exponents", type=float, nargs="+", default=[0.5, 1.0, 1.5, 1.9])
    ap.add_argument("--points", type=int, default=24)
    args = ap.parse_args()

    print(f"{'n':>3} {'exponent':>9} {'fitted':>9} {'expected':>9} {'rel err':>9}")
    for n in args.dims:
        for a in args.exponents:
            try:
                rep = exp_rho_slope(power_potential(a, n), points=args.points)
            except ConfigError:
                # exponents at or below 2 - n are not locally integrable
                print(f"{n:>3} {a:>9.3f} {'--':>9} {'--':>9} {'skipped':>9}")
                continue
            rel = abs(rep.slope - rep.expected) / max(abs(rep.expected), 1e-12)
            print(f"{n:>3} {a:>9.3f} {rep.slope:>9.5f} {rep.expected:>9.5f} {rel:>9.2e}")


if __name__ == "__main__":
    main()
