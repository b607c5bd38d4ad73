#!/usr/bin/env python3
"""Measure how much slack the region kernel floor has in practice.

The divergence argument only needs ``q' |K_{q'}(x)| >= M_{2 eta} M_{2 s} / 4``
on each region, but the brute-force minima sit well above 1/4.  This sweep
evaluates every region at every level that fits in the point cap, for a
few digit patterns, and reports the minimum ratio per level plus the
worst region.  Handy for checking whether the constant could be tightened
on a given group before trusting it in a hand computation.

    python3 scripts/kernel_margin_sweep.py --levels 3:7 --out margins.csv
"""

import argparse
import sys

from vilenkin.counterexample import LEMMA2_CAP, lemma2_verify
from vilenkin.errors import CapExceededError
from vilenkin.group import parse_group_text


def sweep(pattern_text, levels, cap):
    pattern, _ = parse_group_text(pattern_text)
    rows = []
    for level in levels:
        try:
            report = lemma2_verify(pattern, level, cap=cap)
        except CapExceededError as exc:
            print(f"# {pattern_text} level {level}: {exc}", file=sys.stderr)
            break
        worst = min(report.regions, key=lambda r: r.min_ratio)
        rows.append((pattern_text, level, report.kernel_order, len(report.regions),
                     report.global_min_ratio, worst.eta, worst.s))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--groups", default="const:2,const:3,const:4",
                    help="comma list of patterns (mixed ones use ; e.g. '2;3')")
    ap.add_argument("--levels", default="3:6", help="level range lo:hi inclusive")
    ap.add_argument("--cap", type=int, default=LEMMA2_CAP, help="grid point cap")
    ap.add_argument("--out", help="write CSV here instead of stdout")
    args = ap.parse_args(argv)

    lo, hi = (int(part) for part in args.levels.split(":"))
    levels = range(lo, hi + 1)
    rows = []
    for text in args.groups.split(","):
        rows.extend(sweep(text.replace(";", ","), levels, args.cap))

    lines = ["pattern,level,kernel_order,regions,global_min_ratio,worst_eta,worst_s"]
    for row in rows:
        text, level, order, nregions, ratio, eta, s = row
        lines.append(f"{text},{level},{order},{nregions},{ratio:.12g},{eta},{s}")
    body = "\n".join(lines) + "\n"

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(body)
        print(f"wrote {args.out} ({len(rows)} rows)")
    else:
        sys.stdout.write(body)

    floor_ok = all(row[4] >= 0.25 for row in rows)
    print(f"# floor 1/4 {'holds' if floor_ok else 'VIOLATED'} on all "
          f"{len(rows)} (pattern, level) pairs", file=sys.stderr)
    return 0 if floor_ok else 1


if __name__ == "__main__":
    sys.exit(main())
