"""Shared logic of the flow benchmark: workload table, correctness gate,
metric assembly, statistics, result files and their comparison.

`run.py` drives one run, `compare.py` diffs two result files, and
`test_bench.py` tests this module. Standard library only.
"""

import json
import math
import statistics

# Designs placed per run, each generated from its own sub-seed of the run's
# seed. Averaging over several designs keeps a run's figures steady across
# seeds; the count is fixed per workload so that every run of a seed places
# the same inputs, whatever the machine's speed.
WORKLOADS = {
    "ispd05-16k": {"designs": 3},
    "mms-8k": {"designs": 3},
    "peko-8k": {"designs": 4},
}

SUBSEED_STRIDE = 1000


def subseeds(seed, designs):
    """The generator seeds of a run's designs."""
    return [seed * SUBSEED_STRIDE + i for i in range(designs)]


def quartiles(values):
    """(first quartile, median, third quartile) as
    `statistics.quantiles(values, n=4)` gives them; a single value is its
    own quartiles."""
    values = list(values)
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return math.inf if q3 != q1 else 0.0
    return (q3 - q1) / abs(q2)


def gate_flows(flows, history_bits):
    """Applies the correctness gate to the flows of one run.

    `flows` are the records `flowbench` prints, each tagged with its
    design's sub-seed under `"subseed"`. A flow fails when the program
    reported a failure (an `Err`, an illegal placement, a non-finite HPWL,
    an HPWL below the certified optimum) or when its HPWL differs in any
    bit from an earlier run's on the same design (`history_bits`: sub-seed
    -> hex bits from earlier runs of the same sources). Returns (attempted,
    failures) with one message per failed flow.
    """
    failures = []
    for flow in flows:
        sub = flow["subseed"]
        problem = flow.get("failure")
        bits = flow.get("hpwl_bits")
        if problem is None and history_bits.get(sub, bits) != bits:
            problem = (
                f"HPWL bits {bits} differ from an earlier run's {history_bits[sub]}"
                f" on sub-seed {sub}"
            )
        if problem is not None:
            failures.append(f"sub-seed {sub}: {problem}")
    return len(flows), failures


def mean_of(flows, key):
    """Mean of `key` over the flows that passed, or None when none did."""
    values = [f[key] for f in flows if f.get("failure") is None and f.get(key) is not None]
    return statistics.fmean(values) if values else None


def end_to_end(out):
    """End-to-end values of one timed run from the output of `flowbench run`,
    which places each design once.

    `flow_s` is the mean flow time over the designs, failed ones included.
    `hpwl`, `subopt_ratio`, `mgp_overflow` and `mgp_converged` (the share of
    designs whose mGP reached the target) are means over the flows that
    passed, and left out when none did; `subopt_ratio` only exists where a
    certified optimum does. `setup_s` is the median of every set-up.
    """
    flows = out["flows"]
    values = {
        "flow_s": statistics.fmean(f["flow_s"] for f in flows),
        "setup_s": statistics.median(out["setup_s"]),
        "hpwl": mean_of(flows, "hpwl"),
        "subopt_ratio": mean_of(flows, "subopt_ratio"),
        "mgp_overflow": mean_of(flows, "mgp_overflow"),
        "peak_rss_mb": out["peak_rss_mb"],
        "mgp_converged": mean_of(flows, "mgp_converged"),
    }
    return {k: v for k, v in values.items() if v is not None}


def metric_specs(benchmark, trace):
    """name -> spec of the metrics a run reports, from BENCHMARK.json."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m for m in benchmark[key]}


def measured(value):
    return isinstance(value, (int, float)) and math.isfinite(value)


def result_line(correct, attempted, failed, values, specs):
    """The run's last stdout line: every metric in `specs`, with its unit.

    A correct run must have measured every metric. A failed run reports the
    ones it has: a failed flow leaves no legal HPWL to report, and the line
    still says `correct: false`.
    """
    missing = [name for name in specs if not measured(values.get(name))]
    if missing and correct:
        raise ValueError(f"metrics missing from the run: {', '.join(missing)}")
    metrics = {
        name: {"value": values[name], "unit": spec["unit"]}
        for name, spec in specs.items()
        if measured(values.get(name))
    }
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def parse_result_line(text):
    """Parses a run's stdout: the last non-empty line must be the result
    object with exactly the keys correct, attempted, failed and metrics."""
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        raise ValueError("empty output")
    obj = json.loads(lines[-1])
    if set(obj) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected keys {sorted(obj)}")
    if not isinstance(obj["correct"], bool):
        raise ValueError("correct must be a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(obj[k], int) or isinstance(obj[k], bool) or obj[k] < 0:
            raise ValueError(f"{k} must be a whole number")
    if obj["attempted"] < 1 or obj["failed"] > obj["attempted"]:
        raise ValueError("need 1 <= attempted and failed <= attempted")
    for name, m in obj["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            raise ValueError(f"bad metric {name}")
    return obj


def load_results(path):
    """Reads a result file: one JSON record per line, as `run.py` appends
    them. Blank lines are skipped; a malformed line is an error."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}:{n}: {e}") from None
            for k in ("workload", "seed", "trace", "metrics", "meta"):
                if k not in rec:
                    raise ValueError(f"{path}:{n}: record lacks {k!r}")
            records.append(rec)
    return records


def group_values(records):
    """(workload, metric) -> list of values over the records."""
    out = {}
    for rec in records:
        for name, m in rec["metrics"].items():
            out.setdefault((rec["workload"], name), []).append(m["value"])
    return out


def record_units(records):
    """metric -> unit, as the records give them."""
    return {name: m["unit"] for rec in records for name, m in rec["metrics"].items()}


def compare(base, head, benchmark):
    """Rows comparing two sets of result records, workload by metric.

    Each row has both sides' quartiles, the delta of the medians with its
    base, and a verdict for end-to-end metrics: `regressed` when the head's
    median is worse than the base's by more than the metric's bound,
    `unresolved` when either side's spread is wider than the bound (unless
    every head value beats every base value), else `ok`. Per-layer metrics,
    and the records' metrics that BENCHMARK.json does not list
    (`subopt_ratio`, `mgp_converged`, `fail_frac`), get no verdict.
    """
    specs = {m["name"]: m for m in benchmark["end_to_end"]}
    units = record_units(base + head)
    units.update({m["name"]: m["unit"] for m in benchmark["per_layer"] + benchmark["end_to_end"]})
    b_vals, h_vals = group_values(base), group_values(head)
    rows = []
    for key in sorted(set(b_vals) & set(h_vals)):
        workload, name = key
        bq, hq = quartiles(b_vals[key]), quartiles(h_vals[key])
        delta = (hq[1] - bq[1]) / abs(bq[1]) if bq[1] else math.inf
        verdict = None
        if name in specs:
            spec = specs[name]
            lower = spec["better"] == "lower"
            worse = delta if lower else -delta
            bound = spec["bound"]
            all_better = (
                max(h_vals[key]) < min(b_vals[key])
                if lower
                else min(h_vals[key]) > max(b_vals[key])
            )
            if worse > bound:
                verdict = "regressed"
            elif (spread(b_vals[key]) > bound or spread(h_vals[key]) > bound) and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
        rows.append(
            {
                "workload": workload,
                "metric": name,
                "unit": units[name],
                "base": bq,
                "head": hq,
                "n": (len(b_vals[key]), len(h_vals[key])),
                "delta": delta,
                "verdict": verdict,
            }
        )
    return rows
