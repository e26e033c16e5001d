#!/usr/bin/env python3
"""Compares two sets of benchmark runs (A = before, B = after).

Usage:
  python3 bench/perf/compare.py A B [--benchmark BENCHMARK.json]

A and B are each a directory of captured run outputs (every regular file
in it is read) or a single file. A run output is what run.py prints: a
{"host": ...} line followed by the result line; files may hold several
runs one after another. For every workload and end-to-end metric the
report gives each side's median and quartiles, the share of pairs B won
(runs paired by seed, else by order) and a verdict against the metric's
bound from BENCHMARK.json:

  worse       B's median is worse than A's by more than the bound;
  improved    B won at least nine tenths of the pairs and its median is
              better by more than A's spread (quartile distance / median);
  unresolved  either side's spread is wider than the bound, and not every
              B run reads better than every A run;
  no worse    otherwise: B's median is within the bound of A's.

Traced runs (--trace 1) are summarised as per-layer median deltas.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def read_runs(path: Path) -> list[dict]:
    files = sorted(p for p in path.iterdir() if p.is_file()) if path.is_dir() else [path]
    runs = []
    for f in files:
        host = None
        for line in f.read_text().splitlines():
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue
            if "host" in obj:
                host = obj["host"]
            elif "metrics" in obj and host is not None:
                runs.append({"host": host, **obj})
                host = None
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def group(runs: list[dict], trace: int) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for r in runs:
        if r["host"].get("trace") == trace:
            out.setdefault(r["host"]["workload"], []).append(r)
    return out


def pairs(a: list[dict], b: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {r["host"]["seed"]: r for r in b}
    paired = [(r, by_seed[r["host"]["seed"]]) for r in a if r["host"]["seed"] in by_seed]
    return paired if paired else list(zip(a, b))


def verdict(spec: dict, a: list[float], b: list[float], won: float) -> str:
    sign = 1.0 if spec["better"] == "lower" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b = qa[1], qb[1]
    if med_a == 0:
        return "unresolved"
    worse_by = sign * (med_b - med_a) / abs(med_a)  # > 0: B is worse
    spread_a = (qa[2] - qa[0]) / abs(med_a)
    spread_b = (qb[2] - qb[0]) / abs(med_b) if med_b else 0.0
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if worse_by > spec["bound"]:
        return "worse"
    if won >= 0.9 and -worse_by > spread_a:
        return "improved"
    if max(spread_a, spread_b) > spec["bound"] and not all_better:
        return "unresolved"
    return "no worse"


def fmt(x: float) -> str:
    return f"{x:.4g}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path)
    ap.add_argument("b", type=Path)
    ap.add_argument("--benchmark", type=Path,
                    default=Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json")
    args = ap.parse_args()
    spec = json.loads(args.benchmark.read_text())
    runs_a, runs_b = read_runs(args.a), read_runs(args.b)
    if not runs_a or not runs_b:
        print("compare.py: no runs found on one side", file=sys.stderr)
        return 1

    plain_a, plain_b = group(runs_a, 0), group(runs_b, 0)
    print(f"{'workload':<12} {'metric':<16} {'A median [q1, q3]':<32} "
          f"{'B median [q1, q3]':<32} {'delta':>8} {'won':>5}  verdict")
    for workload in sorted(set(plain_a) & set(plain_b)):
        a_runs, b_runs = plain_a[workload], plain_b[workload]
        for m in spec["end_to_end"]:
            name = m["name"]
            a = [r["metrics"][name]["value"] for r in a_runs if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in b_runs if name in r["metrics"]]
            if not a or not b:
                continue
            sign = 1.0 if m["better"] == "lower" else -1.0
            ps = [(x["metrics"][name]["value"], y["metrics"][name]["value"])
                  for x, y in pairs(a_runs, b_runs)]
            won = sum(1 for x, y in ps if sign * (y - x) < 0) / len(ps)
            qa, qb = quartiles(a), quartiles(b)
            delta = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else float("nan")
            print(f"{workload:<12} {name:<16} "
                  f"{fmt(qa[1]) + ' [' + fmt(qa[0]) + ', ' + fmt(qa[2]) + ']':<32} "
                  f"{fmt(qb[1]) + ' [' + fmt(qb[0]) + ', ' + fmt(qb[2]) + ']':<32} "
                  f"{delta:>+8.1%} {won:>5.2f}  {verdict(m, a, b, won)}")
        fa = sum(r["failed"] for r in a_runs) / max(1, sum(r["attempted"] for r in a_runs))
        fb = sum(r["failed"] for r in b_runs) / max(1, sum(r["attempted"] for r in b_runs))
        bad = [r["host"]["seed"] for r in a_runs + b_runs if not r["correct"]]
        print(f"{workload:<12} failed share A {fa:.4f}, B {fb:.4f}; "
              f"incorrect runs (seeds): {bad if bad else 'none'}")

    traced_a, traced_b = group(runs_a, 1), group(runs_b, 1)
    for workload in sorted(set(traced_a) & set(traced_b)):
        print(f"\nper-layer medians, traced runs of {workload} (B vs A):")
        names = [m["name"] for m in spec["per_layer"]]
        for name in names:
            a = [r["metrics"][name]["value"] for r in traced_a[workload]
                 if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in traced_b[workload]
                 if name in r["metrics"]]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            if ma == mb:
                continue  # unchanged counters are the common case; list only moves
            delta = f"{(mb - ma) / abs(ma):+.1%}" if ma else "new"
            print(f"  {name:<28} {fmt(ma):>12} -> {fmt(mb):>12}  {delta}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
