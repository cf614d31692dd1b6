#!/usr/bin/env python3
"""Same-machine A/B comparison of two sets of benchmark runs.

    python3 perfbench/compare.py BASE_DIR CANDIDATE_DIR [--benchmark BENCHMARK.json]

Each directory holds the JSON reports `run.py` writes to `.bench_out`, for
example one directory per commit, both measured on this machine with the
same seeds and run length. For every workload and end-to-end metric the
tool prints each side's median and quartiles and a verdict:

  improved    the candidate wins at least nine tenths of the pairs (ties
              count for neither) and the medians differ by more than the
              base's own spread, the distance between its quartiles;
  regressed   the candidate's median is worse than the base's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  the run-to-run spread is wider than the bound, so "no worse
              than the bound" cannot be shown, and not every candidate run
              beats every base run;
  unchanged   otherwise.

Runs pair by seed when both sides hold the same seeds, else by order.
Traced reports contribute their per-layer medians, shown without a
verdict. The tool also checks, within each side, that the traced and the
untraced run of a workload and seed reach the same golden hash.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(directory):
    """Reports in a directory, grouped by (workload, trace)."""
    runs = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        report = json.loads(path.read_text())
        runs[(report["workload"], report["trace"])].append(report)
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, cand, better, bound):
    """Verdict for one metric, from paired base and candidate values."""
    sign = 1.0 if better == "higher" else -1.0
    bq1, bmed, bq3 = quartiles([v for v, _ in base])
    cq1, cmed, cq3 = quartiles([v for v, _ in cand])
    by_seed_b = {s: v for v, s in base}
    by_seed_c = {s: v for v, s in cand}
    if len(by_seed_b) == len(base) and by_seed_b.keys() == by_seed_c.keys():
        pairs = [(by_seed_b[s], by_seed_c[s]) for s in sorted(by_seed_b)]
    else:
        pairs = list(zip([v for v, _ in base], [v for v, _ in cand]))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    if pairs and wins >= 0.9 * len(pairs) and sign * (cmed - bmed) > abs(bq3 - bq1):
        return "improved"
    spread = max(abs(bq3 - bq1) / abs(bmed) if bmed else 0.0,
                 abs(cq3 - cq1) / abs(cmed) if cmed else 0.0)
    if spread > bound:
        every = all(sign * (c - b) > 0 for c, _ in cand for b, _ in base)
        return "unchanged" if every else "unresolved"
    if bmed and sign * (cmed - bmed) / abs(bmed) < -bound:
        return "regressed"
    return "unchanged"


def metric_values(reports, section, name):
    return [(r[section][name]["value"], r["seed"]) for r in reports if name in r[section]]


def hash_agreement(runs, label):
    ok = True
    for (workload, trace), reports in runs.items():
        if trace != 0:
            continue
        traced = {r["seed"]: r for r in runs.get((workload, 1), [])}
        for r in reports:
            t = traced.get(r["seed"])
            for key in ("golden_hash", "snapshot_golden_hash"):
                if t and key in r["info"] and r["info"][key] != t["info"].get(key):
                    print(f"{label}: {workload} seed {r['seed']}: traced {key} "
                          f"{t['info'].get(key)} != untraced {r['info'][key]}")
                    ok = False
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("candidate")
    parser.add_argument("--benchmark", default=str(HERE.parent / "BENCHMARK.json"))
    args = parser.parse_args()
    bench = json.loads(Path(args.benchmark).read_text())
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    base, cand = load(args.base), load(args.candidate)

    machines = {json.dumps(r["machine"], sort_keys=True)
                for side in (base, cand) for rs in side.values() for r in rs}
    for m in sorted(machines):
        print(f"machine: {m}")
    if len(machines) > 1:
        print("warning: the runs come from more than one machine or toolchain")

    regressed = False
    workloads = sorted({w for w, t in base if t == 0} | {w for w, t in cand if t == 0})
    print(f"{'workload':<12} {'metric':<16} {'base median [q1, q3]':>34} "
          f"{'candidate median [q1, q3]':>34} {'ratio':>7}  verdict")
    for w in workloads:
        b_runs, c_runs = base.get((w, 0), []), cand.get((w, 0), [])
        for name, m in e2e.items():
            b, c = metric_values(b_runs, "end_to_end", name), metric_values(c_runs, "end_to_end", name)
            if not b or not c:
                print(f"{w:<12} {name:<16} missing on one side")
                continue
            v = verdict(b, c, m["better"], m["bound"])
            regressed |= v == "regressed"
            bq1, bmed, bq3 = quartiles([x for x, _ in b])
            cq1, cmed, cq3 = quartiles([x for x, _ in c])
            ratio = cmed / bmed if bmed else float("nan")
            print(f"{w:<12} {name:<16} {bmed:>14.6g} [{bq1:.6g}, {bq3:.6g}]"
                  f" {cmed:>14.6g} [{cq1:.6g}, {cq3:.6g}] {ratio:>7.3f}  {v}"
                  f"  (n={len(b)}/{len(c)})")

    for w in sorted({w for w, t in base if t == 1} & {w for w, t in cand if t == 1}):
        b_runs, c_runs = base[(w, 1)], cand[(w, 1)]
        names = sorted(set(b_runs[0]["per_layer"]) & set(c_runs[0]["per_layer"]))
        print(f"\n{w}: per-layer medians (traced runs, n={len(b_runs)}/{len(c_runs)})")
        for name in names:
            bmed = statistics.median(v for v, _ in metric_values(b_runs, "per_layer", name))
            cmed = statistics.median(v for v, _ in metric_values(c_runs, "per_layer", name))
            if bmed or cmed:
                unit = b_runs[0]["per_layer"][name]["unit"]
                print(f"  {name:<28} {bmed:>14.6g} {cmed:>14.6g} {unit}")

    hashes_ok = hash_agreement(base, "base") & hash_agreement(cand, "candidate")
    return 1 if regressed or not hashes_ok else 0


if __name__ == "__main__":
    sys.exit(main())
