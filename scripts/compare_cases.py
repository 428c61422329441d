#!/usr/bin/env python3
"""Compare two ``cases.csv`` reports of ``qeuclid verify`` row by row.

    python3 scripts/compare_cases.py OLD/cases.csv NEW/cases.csv

The two reports must hold the same trials: each row's theorem, trial, seed,
params, passed and reason must match.  If they do not, the script prints the
first rows that differ and exits 1.  Otherwise it prints, per suite, the
largest relative move |new - old| / max(|old|, |new|) of lhs, rhs and ratio,
and exits 0.  Rows that read a trace norm (params with p = 1) get their own
columns: a Schatten 1-norm sums every singular value, including the ~N at the
rounding floor of a truncated Fock matrix, so these rows move with entry-level
rounding far more than the others.
"""

import argparse
import csv
import json
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

KEYS = ("theorem", "trial", "seed", "params", "passed", "reason")
VALUES = ("lhs", "rhs", "ratio")
MAX_SHOWN = 5  # mismatched rows printed before giving up


def read_cases(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def is_trace_norm_row(row: dict) -> bool:
    return json.loads(row["params"]).get("p") == 1.0


def relative_moves(old: list[dict], new: list[dict]) -> np.ndarray:
    """(rows, 3): |new - old| / max(|old|, |new|) of lhs, rhs and ratio; 0 where both read
    the same, inf where only one side is finite."""
    a = np.array([[float(r[k]) for k in VALUES] for r in old]).reshape(-1, len(VALUES))
    b = np.array([[float(r[k]) for k in VALUES] for r in new]).reshape(-1, len(VALUES))
    with np.errstate(invalid="ignore", divide="ignore"):
        move = np.abs(b - a) / np.maximum(np.abs(a), np.abs(b))
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    return np.where(same, 0.0, np.where(np.isnan(move), np.inf, move))


def key_mismatches(old: list[dict], new: list[dict]) -> list[str]:
    if len(old) != len(new):
        return [f"row counts differ: {len(old)} against {len(new)}"]
    out = []
    for i, (r, s) in enumerate(zip(old, new)):
        diff = [k for k in KEYS if r[k] != s[k]]
        if diff:
            out.append(f"row {i + 2}: " + ", ".join(f"{k} {r[k]!r} -> {s[k]!r}" for k in diff))
    return out


def suite_table(old: list[dict], new: list[dict]) -> list[tuple]:
    """(theorem, rows, moves of the other rows, trace-norm rows, their moves) per suite,
    in report order; a move triple is None where the suite has no such rows."""
    moves = relative_moves(old, new)
    groups = defaultdict(lambda: ([], []))
    for row, move in zip(old, moves):
        groups[row["theorem"]][is_trace_norm_row(row)].append(move)

    def largest(moves):
        return np.max(moves, axis=0) if moves else None

    return [(tid, len(other), largest(other), len(trace), largest(trace)) for tid, (other, trace) in groups.items()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args(argv)
    old, new = read_cases(args.old), read_cases(args.new)
    bad = key_mismatches(old, new)
    if bad:
        print(f"{len(bad)} row(s) differ in {', '.join(KEYS)}:")
        print("\n".join(bad[:MAX_SHOWN]))
        return 1
    print(f"{len(old)} rows; theorem, trial, seed, params, passed and reason match")
    print("largest relative move per suite (lhs, rhs, ratio), trace-norm rows (p = 1) apart")

    def fmt(m):
        return "          -          -          -" if m is None else " ".join(f"{v:10.2e}" for v in m)

    columns = " ".join(f"{v:>10}" for v in VALUES)
    print(f"{'suite':6} {'rows':>5} {columns}  {'p=1':>5} {columns}")
    for tid, n_other, other, n_trace, trace in suite_table(old, new):
        print(f"{tid:6} {n_other:5d} {fmt(other)}  {n_trace:5d} {fmt(trace)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
