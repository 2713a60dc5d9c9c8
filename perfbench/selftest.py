"""Tiny-scale self-test of the benchmark itself.

Usage::

    python3 perfbench/selftest.py

Runs every workload on 1000-transaction inputs for about a second and
checks that

* every metric named in ``BENCHMARK.json`` is emitted with its unit, for
  ``--trace 0`` (end to end) and ``--trace 1`` (per layer), with no op
  failing;
* a corrupted reference makes every op count as failed;
* two seeds generate different data with the same metric set.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

TINY = 1000


def bench(workload: str, seed: int, trace: int, *extra: str) -> dict:
    completed = subprocess.run(
        [sys.executable, str(common.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--transactions", str(TINY), *extra],
        cwd=common.ROOT, capture_output=True, text=True, timeout=600,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} exited {completed.returncode}:\n"
                           f"{completed.stderr[-3000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def units(result: dict) -> dict:
    return {name: entry["unit"] for name, entry in result["metrics"].items()}


def main() -> int:
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for workload in workloads:
        plain = bench(workload, 1, 0)
        expect(units(plain) == end_to_end,
               f"{workload}: every end-to-end metric with its unit")
        expect(plain["correct"] and plain["failed"] == 0 and plain["attempted"] > 0,
               f"{workload}: all {plain['attempted']} ops checked and correct")
        traced = bench(workload, 1, 1)
        expect(units(traced) == per_layer,
               f"{workload}: every per-layer metric with its unit")
        expect(traced["correct"] and traced["failed"] == 0,
               f"{workload}: traced ops correct")
        corrupted = bench(workload, 1, 0, "--corrupt-reference")
        expect(not corrupted["correct"]
               and corrupted["failed"] == corrupted["attempted"] > 0,
               f"{workload}: a corrupted reference fails all "
               f"{corrupted['attempted']} ops (failed {corrupted['failed']})")

    first = Path(common.make_inputs(1, TINY)["base"]).read_bytes()
    second = Path(common.make_inputs(2, TINY)["base"]).read_bytes()
    expect(first != second, "seeds 1 and 2 generate different data")
    other = bench(workloads[0], 2, 0)
    expect(units(other) == end_to_end and other["correct"],
           "seed 2 reports the same metric set, correctly")

    print("self-test " + ("passed" if not failures else
                          f"FAILED: {len(failures)} check(s)"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
