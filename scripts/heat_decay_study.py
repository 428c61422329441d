#!/usr/bin/env python3
"""Decay-slope study for the heat semigroup across (p, q) pairs.

Writes one CSV row per pair: the fitted log-log slope of
||e^{t Lap} x0||_q / ||x0||_p over a decade-and-a-half of times, next to the
predicted envelope exponent -(d/2)(1/p - 1/q).
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from qeuclid.harness import MoyalBackend, fit_decay_slope, heat_decay_ratios


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--h", type=float, default=1.0)
    ap.add_argument("--N", type=int, default=128)
    ap.add_argument("--n", type=int, default=64)
    ap.add_argument("--tmin", type=float, default=0.5)
    ap.add_argument("--tmax", type=float, default=20.0)
    ap.add_argument("--npts", type=int, default=10)
    ap.add_argument("--out", default="heat_decay_slopes.csv")
    args = ap.parse_args()

    backend = MoyalBackend(h=args.h, fock_dim=args.N, half_width=8.0, n=args.n)
    probe = backend.heat_probe()
    ts = np.geomspace(args.tmin, args.tmax, args.npts)
    pairs = [(4 / 3, 4.0), (4 / 3, 2.0), (1.5, 3.0), (2.0, 4.0), (2.0, 6.0)]

    rows = ["p,q,slope,envelope_exponent"]
    for p, q in pairs:
        slope = fit_decay_slope(heat_decay_ratios(backend, probe, p, q, ts))
        gamma = (backend.dim / 2) * (1 / p - 1 / q)
        rows.append(f"{p},{q},{slope!r},{-gamma!r}")
        print(f"p={p:.4g} q={q:.4g}: slope {slope:+.4f}  envelope {-gamma:+.4f}")

    Path(args.out).write_text("\n".join(rows) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
