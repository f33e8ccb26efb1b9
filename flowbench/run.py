#!/usr/bin/env python3
"""One run of the flow benchmark.

    python3 flowbench/run.py --workload W --seed N --seconds S --trace 0|1
                             [--results FILE]

Builds the `flowbench` binary from the checkout, generates the workload's
designs from the seed as Bookshelf files, and then either times the full
`Placer::run` flow once on each (`--trace 0`, the end-to-end metrics) or
makes the traced run on the first design (`--trace 1`, the per-layer
metrics). The number of designs is fixed per workload, so that a seed always
gives the same inputs, and sized so that a run's flows take about the
`run_seconds` of BENCHMARK.json; `--seconds` is stored in the run's
metadata. Every result is checked. The run appends a record with its
metadata to the result file (default `flowbench/out/results.jsonl`), prints
a readable summary, and prints as its last line one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`; a failed flow or replay
is counted there, with `correct` false. The run exits non-zero, without that
line, when nothing could be measured (for example when the build fails).
"""

import argparse
import datetime
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import bench  # noqa: E402

# A run must end within 180 s; leave room for the summary.
RUN_DEADLINE_S = 170
# The first run in a checkout also builds the program.
BUILD_TIMEOUT_S = 870
# Share of the traced replay that timed stage calls must cover.
MIN_STAGE_COVER = 0.95
DEFAULT_RESULTS = os.path.join(HERE, "out", "results.jsonl")


class Abort(Exception):
    """Nothing could be measured."""


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise Abort(f"build failed: {e}") from None
    if done.returncode != 0:
        raise Abort(f"build failed with exit code {done.returncode}")
    return os.path.join(ROOT, target, "release", "flowbench")


def call(exe, args, deadline):
    """Runs the binary, waits for it, and returns its JSON output line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise Abort("out of time before " + args[0])
    try:
        done = subprocess.run(
            [exe] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        raise Abort(f"flowbench {args[0]} ran out of time") from None
    if done.returncode != 0:
        raise Abort(f"flowbench {args[0]} exited with code {done.returncode}")
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if not lines:
        raise Abort(f"flowbench {args[0]} printed nothing")
    return json.loads(lines[-1])


def source_digest():
    """SHA-256 over the sources the program is built from."""
    h = hashlib.sha256()
    tops = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    trees = [os.path.join(ROOT, "crates"), HERE]
    files = [p for p in tops if os.path.isfile(p)]
    for tree in trees:
        for dirpath, dirnames, filenames in os.walk(tree):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "out"))
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock", ".py")):
                    files.append(os.path.join(dirpath, name))
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def metadata(args, designs):
    return {
        "git_rev": command_output(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "rustc": command_output(["rustc", "--version"]),
        "seed": args.seed,
        "subseeds": designs,
        "flow_threads": 1,
        "probe_threads": [1, 2] if args.trace else None,
        "seconds": args.seconds,
        "time_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def history_bits(path, workload, digest):
    """sub-seed -> HPWL bits from earlier runs of the same sources."""
    if not os.path.exists(path):
        return {}
    bits = {}
    for rec in bench.load_results(path):
        if rec["workload"] == workload and rec["meta"].get("source_sha256") == digest:
            bits.update({int(k): v for k, v in rec.get("hpwl_bits", {}).items()})
    return bits


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--results", default=DEFAULT_RESULTS)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_DEADLINE_S

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        specs = bench.metric_specs(json.load(fh), args.trace)
    exe = build()
    # The build may take long on the first run; the deadline covers the rest.
    deadline = max(deadline, time.monotonic() + RUN_DEADLINE_S - 10)

    count = 1 if args.trace else bench.WORKLOADS[args.workload]["designs"]
    designs = bench.subseeds(args.seed, count)
    # Only this run's designs are kept on disk.
    work = os.path.join(HERE, "out", "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    dirs = []
    for sub in designs:
        d = os.path.join(work, str(sub))
        call(exe, ["gen", "--workload", args.workload, "--seed", str(sub), "--dir", d], deadline)
        dirs.append(d)

    meta = metadata(args, designs)
    history = history_bits(args.results, args.workload, meta["source_sha256"])
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "meta": meta}
    if args.trace:
        out = call(exe, ["trace", "--workload", args.workload, "--dir", dirs[0]], deadline)
        flows = [{"subseed": designs[0], "failure": out["failure"], "hpwl_bits": out["hpwl_bits"]}]
        attempted, failures = bench.gate_flows(flows, history)
        values = {k: v for k, v in out["metrics"].items() if v is not None}
        if out["replay_failure"] is not None:
            failures.append(f"traced replay: {out['replay_failure']}")
        else:
            if out["replay_hpwl_bits"] != out["hpwl_bits"]:
                failures.append(
                    f"replay HPWL bits {out['replay_hpwl_bits']} differ from the untraced"
                    f" flow's {out['hpwl_bits']}: the trace measured another program"
                )
            cover = values.get("flow.stage_cover")
            if not (bench.measured(cover) and cover >= MIN_STAGE_COVER):
                failures.append(
                    f"timed stages cover {cover} of the replay, below {MIN_STAGE_COVER}"
                )
            record["replay_s"] = out["replay_s"]
        record["untraced_flow_s"] = out["flow_s"]
    else:
        out = call(exe, ["run", "--workload", args.workload]
                   + [a for d in dirs for a in ("--dir", d)], deadline)
        flows = out["flows"]
        for f in flows:
            f["subseed"] = designs[f["design"]]
        attempted, failures = bench.gate_flows(flows, history)
        values = bench.end_to_end(out)
        values["fail_frac"] = len(failures) / attempted
        record["flows"] = flows
        record["setup_samples_s"] = out["setup_s"]
    # Only flows that passed the program's own checks set the bits later
    # runs must match.
    record["hpwl_bits"] = {
        str(f["subseed"]): f["hpwl_bits"] for f in flows if f["failure"] is None
    }
    failed = min(attempted, len(failures))
    correct = not failures
    record["metrics"] = {
        k: {"value": v, "unit": specs[k]["unit"] if k in specs else "ratio"}
        for k, v in values.items()
    }
    record["attempted"], record["failed"], record["failures"] = attempted, failed, failures

    os.makedirs(os.path.dirname(os.path.abspath(args.results)), exist_ok=True)
    with open(args.results, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    try:
        line = bench.result_line(correct, attempted, failed, values, specs)
        bench.parse_result_line(line)
    except ValueError as e:
        raise Abort(str(e)) from None
    print(f"flowbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} attempted, {failed} failed; sub-seeds {designs}")
    for msg in failures:
        print(f"  FAILED {msg}")
    for k, m in record["metrics"].items():
        print(f"  {k:32s} {m['value']:.6g} {m['unit']}")
    print(line, flush=True)


if __name__ == "__main__":
    try:
        main()
    except Abort as e:
        print(f"flowbench: {e}", file=sys.stderr, flush=True)
        sys.exit(1)
