#!/usr/bin/env python3
"""Scan the two-color failure bound along k = c sqrt(n/ln n).

Shows how slowly the value k(1-p)^n + k^2 p approaches its limit c^2/2:
the gap decays like ln(ln n)/ln(n), so even n = 10^6 sits ~29% above the
limit for c = 1.4.

Example:
    python scripts/limit_scan.py --c 1.4 --out limit.csv
"""

import argparse
import csv
from math import log, sqrt

from hgcolor import max_k_2col, optimize_p, two_color_bound


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--c", type=float, default=1.4)
    ap.add_argument(
        "--n", type=int, nargs="*", default=[10**3, 10**4, 10**5, 10**6, 10**7]
    )
    ap.add_argument("--out", default="limit.csv")
    args = ap.parse_args()

    limit = args.c**2 / 2
    with open(args.out, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["n", "k", "p_reference", "value_at_reference_p", "value_at_optimal_p",
             "limit", "excess_over_limit", "max_k_2col_ratio"]
        )
        for n in args.n:
            k = args.c * sqrt(n / log(n))
            p_ref = log(n / k) / n
            v_ref = two_color_bound(k, p_ref, n)
            opt = optimize_p(k, n)
            ratio = max_k_2col(n) / sqrt(n / log(n))
            writer.writerow(
                [n, f"{k:.4f}", f"{p_ref:.3e}", f"{v_ref:.6f}",
                 f"{opt.best_value:.6f}", f"{limit:.6f}",
                 f"{v_ref - limit:.6f}", f"{ratio:.4f}"]
            )
            print(
                f"n={n:>9}  value={v_ref:.5f}  optimal={opt.best_value:.5f}  "
                f"limit={limit:.3f}  certified-k ratio={ratio:.4f}"
            )
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
