"""Exhaustive check of the separation verdicts against a linear program.

For every 0/1 series of length 3 to 12 and every order 1 to 3 whose
design has more responses than coefficients, ``autologistic.fit`` must
raise ``SeparationError`` exactly when ``oracles.lp_separated`` finds the
design separated.  Designs on which ``fit`` raises
``SingularModelError`` are rank-deficient; they are counted and left out
of the comparison.  The LP runs once per set of distinct (row, response)
pairs, on which separation alone depends.

Usage, from the root of a checkout:

    PYTHONPATH=src python tests/separation_sweep.py

Prints the counts per order and exits 0 when every verdict agrees with
the LP, 1 otherwise.  It takes about 10 s on a 2-core host.  The tier-1
test ``test_every_separation_verdict_is_lp_separated`` stops at length
10; this script, not collected by pytest, runs as its own CI step.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter

import numpy as np

import oracles
from vulnseries.autologistic import build_lag_design, fit
from vulnseries.errors import SeparationError, SingularModelError
from vulnseries.vectorize import BinarySeries


def main() -> int:
    memo: dict[bytes, bool] = {}
    counts: Counter = Counter()
    disagreements = []
    for length in range(3, 13):
        for values in itertools.product((0, 1), repeat=length):
            for order in range(1, 4):
                if length - order < order + 1:
                    continue
                design = build_lag_design(BinarySeries("sweep", values), order)
                try:
                    fit(design)
                    separated = False
                except SeparationError:
                    separated = True
                except SingularModelError:
                    counts[order, "singular"] += 1
                    continue
                rows = np.unique(np.column_stack([design.X, design.y]), axis=0)
                key = rows.tobytes()
                if key not in memo:
                    memo[key] = oracles.lp_separated(rows[:, :-1], rows[:, -1])
                counts[order, "separated" if separated else "fitted"] += 1
                if separated != memo[key]:
                    disagreements.append((values, order, separated))
    for order in range(1, 4):
        print(
            f"order {order}: {counts[order, 'separated']} separated, "
            f"{counts[order, 'fitted']} fitted, {counts[order, 'singular']} singular"
        )
    for values, order, separated in disagreements[:20]:
        verdict = "raises SeparationError" if separated else "fits"
        print(f"disagrees with the LP: {''.join(map(str, values))} at order {order}: fit {verdict}")
    print(f"{len(disagreements)} disagreements")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
