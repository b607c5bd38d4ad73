#!/usr/bin/env python3
"""Print the per-block divergence ledger for a counterexample plan.

For each block k the table shows alpha_k, the size of the Cesaro index
q(alpha_k), the certified lower bound LB_k for ||sigma_{q_k} f||_{1/2},
and the sqrt(alpha_k) growth rate it witnesses.  Optionally dumps the
summary CSV, the (sqrt(alpha_k), LB_k^2) plot data, and the full JSON
report next to it.

Example:
    python3 scripts/divergence_table.py --group const:2 --kmax 8 --csv out/
"""

import argparse
import math
import os
import sys

from vilenkin.counterexample import build_alpha_sequence, divergence_report
from vilenkin.group import parse_group_text
from vilenkin.serialize import (
    DecimalText,
    canonical_parts,
    divergence_to_doc,
    int_str,
    plot_csv,
    summary_csv,
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--group", default="const:2", help="digit pattern, e.g. const:2 or 2,3")
    ap.add_argument("--kmax", type=int, default=8, help="number of blocks to certify")
    ap.add_argument("--alpha0", type=int, default=6, help="first sparse order")
    ap.add_argument("--csv", metavar="DIR", help="also write summary/plot CSV and JSON here")
    args = ap.parse_args(argv)

    pattern, _ = parse_group_text(args.group)
    seq = build_alpha_sequence(pattern, args.kmax, alpha0=args.alpha0)
    report = divergence_report(seq)

    print(f"pattern {args.group}  bound M = {pattern.bound}  blocks = {args.kmax}")
    print(f"{'k':>2} {'alpha_k':>9} {'digits(q_k)':>12} {'LB_k':>12} "
          f"{'sqrt(alpha_k)':>14} {'LB_k/sqrt(a)':>13}  verdict")
    for row, ledger in zip(report.rows, report.ledgers):
        lb = math.sqrt(float(row.lb_squared))
        ra = math.sqrt(row.alpha)
        q_digits = len(int_str(row.q_index))
        ok = "ok" if ledger.all_ok else "FAIL"
        print(f"{row.k:>2} {row.alpha:>9} {q_digits:>12} {lb:>12.6g} "
              f"{ra:>14.6g} {lb / ra:>13.3e}  {ok}")

    verdict = "divergence certified" if report.passed else f"FAILED: {report.first_failure()}"
    print(f"sqrt-weight sum {report.series.weight_sqrt_sum:.6f} "
          f"(majorant {report.series.geometric_majorant:.6f}) -> f in H_1/2: "
          f"{'ok' if report.series.ok else 'FAIL'}")
    print(verdict)

    if args.csv:
        os.makedirs(args.csv, exist_ok=True)
        base = os.path.join(args.csv, f"divergence_{args.group.replace(':', '_').replace(',', '-')}")
        with open(base + "_summary.csv", "w") as fh:
            fh.write(summary_csv(report))
        with open(base + "_plot.csv", "w") as fh:
            fh.write(plot_csv(report))
        with open(base + ".json", "w") as fh:
            text = DecimalText()
            fh.writelines(canonical_parts(divergence_to_doc(report, text), text))
            fh.write("\n")
        print(f"wrote {base}_summary.csv, {base}_plot.csv, {base}.json")

    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
