#!/usr/bin/env python3
"""Summarize or compare flow-benchmark result files.

    python3 flowbench/compare.py RESULTS            # quartiles and spreads
    python3 flowbench/compare.py BASE HEAD          # per-metric deltas

With one file, prints for each workload and metric the first quartile,
median and third quartile over its runs, and the spread (quartile distance
over median) against the metric's bound. With two, prints both sides'
quartiles and the delta of the medians with its base, and flags each
end-to-end metric `regressed` when the head's median is worse than the
base's by more than the benchmark's bound, or `unresolved` when a side's
spread is wider than the bound. Exits 1 when a metric regressed or a spread
exceeds its bound.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench  # noqa: E402


def fmt(v):
    return f"{v:.5g}"


def summarize(records, benchmark):
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    units = bench.record_units(records)
    bad = False
    print(f"{'workload':12s} {'metric':30s} {'n':>3s} {'q1':>11s} {'median':>11s} {'q3':>11s}"
          f" {'spread':>7s} {'bound':>6s}")
    for (workload, name), values in sorted(bench.group_values(records).items()):
        q1, q2, q3 = bench.quartiles(values)
        s = bench.spread(values)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and s > bound:
            flag, bad = "  WIDE", True
        print(f"{workload:12s} {name:30s} {len(values):3d} {fmt(q1):>11s} {fmt(q2):>11s}"
              f" {fmt(q3):>11s} {s:7.3f} {'' if bound is None else bound:>6} {units[name]}{flag}")
    return bad


def diff(base, head, benchmark):
    rows = bench.compare(base, head, benchmark)
    print(f"{'workload':12s} {'metric':30s} {'base q1/med/q3':>32s} {'head q1/med/q3':>32s}"
          f" {'delta':>8s}  verdict")
    bad = False
    for r in rows:
        b = "/".join(fmt(v) for v in r["base"])
        h = "/".join(fmt(v) for v in r["head"])
        verdict = r["verdict"] or ""
        bad |= verdict == "regressed"
        print(f"{r['workload']:12s} {r['metric']:30s} {b:>32s} {h:>32s} {r['delta']:+8.2%}"
              f"  {verdict} ({r['unit']}, n={r['n'][0]}/{r['n'][1]})")
    metas = [recs[0]["meta"] for recs in (base, head) if recs]
    for label, m in zip(("base", "head"), metas):
        print(f"{label}: rev {m.get('git_rev')} sources {str(m.get('source_sha256'))[:12]}"
              f" nproc {m.get('nproc')} cpu {m.get('cpu_model')} {m.get('rustc')}")
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("files", nargs="+", metavar="RESULTS")
    ap.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = ap.parse_args()
    if len(args.files) > 2:
        ap.error("give one or two result files")
    with open(args.benchmark, encoding="utf-8") as fh:
        benchmark = json.load(fh)
    records = [bench.load_results(p) for p in args.files]
    if len(records) == 1:
        bad = summarize(records[0], benchmark)
    else:
        bad = diff(records[0], records[1], benchmark)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
