#!/usr/bin/env python3
"""Measure how branch-and-bound solve time grows with instance size.

Times the solver over seeded random instances, fits log(seconds) against
log(n) by ordinary least squares, and writes the per-size means as CSV with
the fit in a trailing comment row.  The fitted slope is the apparent
polynomial degree at this scale.

Example:
  python scripts/scaling_bench.py --sizes 4,6,8,10,12,16,20 --reps 10 --seed 0
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from allocflow.cli import _non_negative, _positive, _size_list
from allocflow.simulate import GenParams, scaling_benchmark


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=_size_list, default=[4, 6, 8, 10, 12, 16, 20])
    parser.add_argument("--reps", type=_positive, default=10, help="instances per size")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--fog", type=_non_negative, default=1, help="fog nodes per instance")
    parser.add_argument("--cloud", type=_non_negative, default=1, help="cloud nodes per instance")
    parser.add_argument("--out", help="write CSV here instead of stdout")
    args = parser.parse_args(argv)

    params = GenParams(fog_nodes=args.fog, cloud_nodes=args.cloud)
    result = scaling_benchmark(args.sizes, reps=args.reps, seed=args.seed, params=params)

    lines = ["n,mean_seconds"]
    lines += [f"{n},{s!r}" for n, s in result.points]
    if result.slope is not None:
        lines.append(
            f"# slope={result.slope!r} intercept={result.intercept!r}"
            f" r2={result.r_squared!r}"
        )
        print(
            f"fitted seconds ~ n^{result.slope:.2f} (r2={result.r_squared:.4f})",
            file=sys.stderr,
        )

    text = "".join(f"{line}\n" for line in lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
