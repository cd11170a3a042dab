"""Store a run's answer digests as the expected ones for a workload.

    python3 bench/run.py --workload NAME --seed 0 --trace 0
    python3 bench/record_expected.py NAME

The seed only reorders a workload's operations, so the digests hold for
every seed.  Record only from a commit whose answers are known good, e.g.
one whose harness report matches the anchor in workloads.py.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(workload: str) -> int:
    record = json.loads((ROOT / ".bench_out" / f"{workload}-seed0-trace0.json").read_text())
    if record["failed"] or record["problems"]:
        print("error: that run has failures; fix them before recording", file=sys.stderr)
        return 1
    blob = {
        "size": record["provenance"]["size"],
        "recorded_at": record["provenance"]["git_sha"],
        "digests": {row["id"]: row["digest"] for row in record["reps"][0]["ops"]},
    }
    out = Path(__file__).resolve().parent / "expected" / f"{workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(blob, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(blob['digests'])} digests to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
