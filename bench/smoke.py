"""Smoke test of the benchmark itself, at a tiny size (about half a minute).

    python3 bench/smoke.py

For each workload it checks that both modes print every metric named in
BENCHMARK.json with its unit and find no failures, and that a corrupted
expected digest is counted as a failure.  It also checks that the command
fails, without a result line, in a directory that holds only the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def bench(*args, cwd=ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "0", "--seconds", "1", "--size", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout


def result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in ("harness", "lattice", "check"):
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            code, out = bench("--workload", workload, "--trace", trace)
            res = result(out)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            assert code == 0 and res["correct"] and res["failed"] == 0, (workload, trace, out)
            assert got == want, (workload, trace, set(got) ^ set(want))
            assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())

        record = json.loads((OUT / f"{workload}-seed0-trace0.json").read_text())
        digests = {row["id"]: row["digest"] for row in record["reps"][0]["ops"]}
        first = sorted(digests)[0]
        digests[first] = "0" * 64
        corrupt = OUT / f"smoke-{workload}-expected.json"
        corrupt.write_text(json.dumps({"size": "tiny", "digests": digests}))
        code, out = bench("--workload", workload, "--trace", "0", "--expected", str(corrupt))
        res = result(out)
        assert code == 0 and not res["correct"] and res["failed"] >= 1, (workload, out)
        assert res["metrics"]["ok_frac"]["value"] < 1.0, res
        print(f"ok {workload}")

    bare = OUT / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, out = bench("--workload", "check", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert code != 0 and not out.strip(), (code, out)
    print("ok benchmark-only directory fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
