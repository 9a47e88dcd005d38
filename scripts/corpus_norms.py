"""Tabulate oscillation and tent norms for every corpus member.

Builds the shared corpus grid and operator once, then prints one row per
member: the plain oscillation norm, the split norm with its size part,
the semigroup variant, and the tent norm of the square-function field
with the resulting tent/oscillation ratio.
"""

import argparse

import numpy as np

from oscillab.corpus import CORPUS, corpus_grid, corpus_operator
from oscillab.reports import RHO_CONSTANT_UNIT
from oscillab.family import FamilyPolicy, make_ball_family
from oscillab.oscillation import bmo_l_norm, bmo_norm, family_stats, tilde_bmo_l_norm
from oscillab.semigroup import default_ladder, square_function_field
from oscillab.tent import family_box_values, hmo_norm


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--per-decade", type=int, default=16)
    args = ap.parse_args()

    grid = corpus_grid()
    op = corpus_operator(grid)
    fam = make_ball_family(
        grid, FamilyPolicy(center_stride=0.5, radius_min=0.125, radius_max=4.0)
    )
    ladder = default_ladder(grid, per_decade=args.per_decade)

    print(f"{'member':>12} {'bmo':>8} {'bmo_l':>8} {'size':>8} {'tilde':>8} {'tent':>8} {'ratio':>7}")
    for m in CORPUS:
        f = m.build(grid)
        st = family_stats(f, fam)
        plain = bmo_norm(st).value
        split = bmo_l_norm(st, RHO_CONSTANT_UNIT)
        tilde = tilde_bmo_l_norm(f, op, fam).value
        tent = hmo_norm(np.sqrt(family_box_values(square_function_field(op, f, ladder), fam)), fam).value
        ratio = tent / split.value if split.value > 0 else float("nan")
        print(
            f"{m.name:>12} {plain:>8.4f} {split.value:>8.4f} {split.size_part:>8.4f} "
            f"{tilde:>8.4f} {tent:>8.4f} {ratio:>7.3f}"
        )


if __name__ == "__main__":
    main()
