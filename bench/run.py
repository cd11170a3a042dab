"""The coidem benchmark: one command, every metric by name with its unit.

    python3 bench/run.py --workload harness|lattice|check --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
`src/`).  Every repetition of a workload runs in a fresh interpreter, since
the engine's functools caches are process-wide and every real `coidem`
invocation pays to fill them.

--trace 0  measures set-up (several fresh interpreters, median), then runs
           repetitions while the next one is predicted to end within
           --seconds of measured time (set-up plus operations, in
           reference-speed seconds; at least one), and prints the
           end-to-end metrics.
--trace 1  runs one untraced and one traced repetition and prints the
           per-layer metrics, the tracing overhead among them.

Times of --trace 0 are in reference-speed seconds (speedclock.py), which
cancel the swings of a shared host's core speed; raw times are recorded too.

Metric names and units come from BENCHMARK.json.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The full
record (provenance, per-operation digests and latencies, per-repetition
numbers) goes to .bench_out/<workload>-seed<N>-trace<T>.json.

Answer checks: each operation's answer is digested; digests must agree
between repetitions, between the traced and untraced runs, and with
bench/expected/<workload>.json (the seed only reorders operations).  The
workloads add their own checks (see workloads.py).  `failed` counts every
operation with a problem; ok_frac = 1 - failed / attempted.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 5
# a run must end within 180 s: no repetition starts when it is predicted to
# end after HARD_LIMIT_S, and any process still running at KILL_AFTER_S is
# stopped (the run then fails without a result)
HARD_LIMIT_S = 150.0
KILL_AFTER_S = 175.0
STARTED = time.monotonic()


def spawn_rep(args, out: Path, *flags) -> dict:
    cmd = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
        "--out", str(out), *flags,
    ]
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned", repr(spawned)], cwd=ROOT,
        timeout=max(1.0, KILL_AFTER_S - (spawned - STARTED)),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"repetition exited with {proc.returncode}: {' '.join(cmd)}")
    result = json.loads(out.read_text())
    out.unlink()
    result["elapsed_s"] = time.monotonic() - spawned
    return result


def percentile(values, q: float):
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def load_expected(path: Path, args):
    if not path.exists():
        return None
    blob = json.loads(path.read_text())
    return blob["digests"] if blob["size"] == args.size else None


def check_answers(reps, expected) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every operation of every repetition."""
    first = {row["id"]: row["digest"] for row in reps[0]["ops"]}
    attempted = failed = 0
    problems = []
    for rep in reps:
        ids = {row["id"] for row in rep["ops"]}
        bad = [f"run: {k}: {v}" for k, v in rep["run_failures"].items()]
        if expected is not None:
            bad += [f"{k}: expected operation did not run" for k in expected.keys() - ids]
        for row in rep["ops"]:
            attempted += 1
            why = row["problem"]
            if why is None and row["digest"] != first[row["id"]]:
                why = "answer differs between repetitions"
            if why is None and expected is not None and expected.get(row["id"]) != row["digest"]:
                why = "answer digest differs from the expected one"
            if why is not None:
                bad.append(f"{row['id']}: {why}")
        failed += len(bad)
        problems += bad
    return attempted, min(failed, attempted), problems


def provenance(args) -> dict:
    sha = None  # a source checkout without git metadata
    if (ROOT / ".git").exists():  # git would otherwise search parent directories
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
    }


def end_to_end(record) -> dict:
    setup = [s["setup_s"] for s in record["setup_samples"]]
    reps = record["reps"]
    latencies = [row["ms"] for rep in reps for row in rep["ops"]]
    p90, beyond = percentile(latencies, 0.9)
    record["op_p90_samples"] = {"samples": len(latencies), "beyond": beyond}
    return {
        "setup_s": statistics.median(setup + [r["setup_s"] for r in reps]),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "op_p50_ms": percentile(latencies, 0.5)[0],
        "op_p90_ms": p90,
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "witness_checks": statistics.median(r["witness_checks"] for r in reps),
    }


def per_layer(names, record) -> dict:
    plain, traced = record["reps"]
    stats = traced["trace"]
    out = {}
    for name in names:
        if name == "trace_overhead_frac":
            out[name] = traced["wall_s"] / plain["wall_s"] - 1.0
            continue
        layer, stat = name.rsplit(".", 1)
        out[name] = stats.get(layer, {}).get(stat, 0)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("harness", "lattice", "check"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few operations per workload, for the smoke test")
    parser.add_argument("--expected", type=Path, default=None,
                        help="expected answer digests (default: bench/expected/<workload>.json)")
    args = parser.parse_args()
    if not (ROOT / "src" / "coidem" / "__init__.py").is_file():
        print(f"error: no coidem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    rep_file = OUT_DIR / f"{tag}.rep.json"
    record = {"provenance": provenance(args), "setup_samples": [], "reps": []}

    # the first import compiles bytecode; no user pays that twice
    spawn_rep(args, rep_file, "--setup-only")
    if args.trace:
        record["reps"].append(spawn_rep(args, rep_file, "--raw"))
        record["reps"].append(spawn_rep(args, rep_file, "--trace"))
        spans = OUT_DIR / f"{tag}.rep.spans.json"
        spans.replace(OUT_DIR / f"{tag}.spans.json")
    else:
        for _ in range(SETUP_SAMPLES):
            record["setup_samples"].append(spawn_rep(args, rep_file, "--setup-only"))
        # the count of repetitions follows measured (reference-speed) time, so
        # it does not change with the host's speed; raw time only caps it
        start = time.monotonic()
        while True:
            reps = record["reps"]
            reps.append(spawn_rep(args, rep_file))
            more = (len(reps) + 1) / len(reps)
            measured = sum(r["setup_s"] + r["wall_s"] for r in reps)
            if measured * more > args.seconds or (time.monotonic() - start) * more > HARD_LIMIT_S:
                break

    expected = load_expected(args.expected or HERE / "expected" / f"{args.workload}.json", args)
    attempted, failed, problems = check_answers(record["reps"], expected)
    if args.trace:
        unreached = record["reps"][1]["trace_problems"]
        problems += unreached
        failed = min(attempted, failed + len(unreached))
        wanted = [m["name"] for m in spec["per_layer"]]
        values = per_layer(wanted, record)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = end_to_end(record)
        values["ok_frac"] = 1.0 - failed / attempted
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    record.update(metrics=metrics, attempted=attempted, failed=failed, problems=problems)
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1))

    prov = record["provenance"]
    loads = [round(x, 2) for r in record["reps"] for x in r["loadavg_1m"]]
    print(f"# {tag}: {len(record['reps'])} repetitions, git {prov['git_sha']}, "
          f"python {prov['python']}, nproc {prov['nproc']}, load avg (1 min) {loads}")
    if "op_p90_samples" in record:
        s = record["op_p90_samples"]
        print(f"# op_p90_ms over {s['samples']} operations, {s['beyond']} above it")
    for line in problems[:20]:
        print(f"# problem: {line}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
