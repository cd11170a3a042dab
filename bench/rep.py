"""One repetition of a workload, in a fresh interpreter.

    python3 bench/rep.py --workload NAME --seed N --size full|tiny \
        --spawned T --out FILE [--trace | --raw] [--setup-only]

`--spawned` is the parent's time.monotonic() just before it started this
process, so set-up time covers interpreter start, importing `coidem` and
building the workload's inputs.  The result goes to FILE as JSON; run.py
reads it.  Operations are timed one by one; answer checks that need
`coidem` run after the clock stops (and after tracing is removed).

Times are in reference-speed seconds (speedclock.py), with the raw times
kept alongside, unless `--raw` or `--trace` is given: traced repetitions and
their untraced twin are timed raw, so spans carry no reference chunks.
"""

from __future__ import annotations

import sys

from speedclock import SpeedClock

# the clock starts before any other import, so that set-up is on it too; the
# interpreter's start-up before this line is counted raw (see SpeedClock.since)
SPEED = None
if "--raw" not in sys.argv and "--trace" not in sys.argv:
    SPEED = SpeedClock()
    SPEED.start()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    speed = SPEED
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--raw", action="store_true")
    args = parser.parse_args()
    load_start = os.getloadavg()[0]

    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.size)
    ops = workload.build(args.seed)
    set_up = time.monotonic()
    result = {"setup_s": set_up - args.spawned, "raw_setup_s": set_up - args.spawned}
    if args.setup_only:
        if speed:
            speed.stop()
            result["setup_s"] = speed.since(args.spawned, set_up)
        Path(args.out).write_text(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer, unreached

        tracer = Tracer()
        tracer.install()
    rows, done = [], []
    if workload.FRESH_HEAP:
        gc.freeze()
    clock = time.monotonic
    for op_id, op in ops:
        start = clock()
        try:
            if tracer:
                digest, problem, value = tracer.span("op", workload.run, op)
            else:
                digest, problem, value = workload.run(op)
        except Exception as exc:  # one failed operation must not end the run
            digest, problem, value = None, f"raised {exc!r}", None
        rows.append({"id": op_id, "span": (start, clock()), "digest": digest, "problem": problem})
        if value is not None:
            done.append({"id": op_id, "op": op, "value": value})
        if workload.FRESH_HEAP:
            # off the clock: collect this operation's garbage and set its
            # survivors aside, so the next operation's collections scan only
            # its own objects, as in a separate `coidem` process
            gc.collect()
            gc.freeze()
    cpu_end = time.process_time()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result.update(cpu_s=cpu_end, raw_cpu_s=cpu_end)
    spans = [row.pop("span") for row in rows]
    for row, (start, end) in zip(rows, spans):
        row["ms"] = row["raw_ms"] = (end - start) * 1000.0
    if speed:
        speed.stop()
        result["setup_s"] = speed.since(args.spawned, set_up)
        result["cpu_s"] = speed.cpu(cpu_end)
        for row, (start, end) in zip(rows, spans):
            row["ms"] = speed.between(start, end) * 1000.0
        result.update(reference_chunks=len(speed.chunks), reference_s=speed.reference_s)
    if tracer:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        result["trace_problems"] = unreached(args.workload, args.size, result["trace"])
        Path(args.out).with_suffix(".spans.json").write_text(json.dumps(tracer.spans))

    try:
        failures, witness_checks = workload.finish(done)
    except Exception as exc:  # a broken answer must be reported, not crash the run
        failures, witness_checks = {"answer checks": f"raised {exc!r}"}, 0
    for row in rows:
        why = failures.pop(row["id"], None)
        if row["problem"] is None:
            row["problem"] = why
    result.update(
        wall_s=sum(row["ms"] for row in rows) / 1000.0,
        raw_wall_s=sum(row["raw_ms"] for row in rows) / 1000.0,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        ops=rows,
        run_failures=failures,  # checks over the whole run, not one operation
        witness_checks=witness_checks,
        loadavg_1m=[load_start, os.getloadavg()[0]],
    )
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
