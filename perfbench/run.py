"""The repository's benchmark: default-path mining, measured from outside.

Usage::

    python3 perfbench/run.py --workload mine-spill-pool --seed 1 --seconds 45 --trace 0

Workloads (why each exists is in ``perfbench/NOTES.md``):

* ``mine-spill-pool`` — ``run_query`` of a MINE statement over a CSV file
  under ``WITH memory_budget, workers``, planned onto spill + worker pool;
* ``serve-mixed``     — ``repro serve`` processes, one per block of an
  append, anchored queries, cached mines and incremental refreshes.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Every
op's output is checked against an untimed reference (the faithful
``setm`` engine); a mismatch counts the op as failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import layers  # noqa: E402

#: Fresh program processes per ``mine-spill-pool`` run: each times its set-up
#: (the reported ``setup_s`` is their median) and runs a share of the loop.
MINE_PROCESSES = 3
CHILD_TIMEOUT_S = 150

MINE_WORKLOADS = {
    "mine-spill-pool": {
        "support": 0.008,
        "confidence": 0.6,
        "with": " WITH memory_budget = '1400K', workers = 2",
    },
}

END_TO_END = {
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def reference_digest(manifest: dict, spec: dict, corrupt: bool) -> str:
    """Digest of the faithful ``setm`` result, cached per seed and spec."""
    cached = Path(manifest["base"]).with_name(
        f"reference-{spec['support']}-{spec['confidence']}.sha256"
    )
    if cached.is_file() and not corrupt:
        return cached.read_text()
    base = manifest["transactions"][: manifest["base_transactions"]]
    form = common.reference_form(
        common.reference_result(base, spec["support"]), spec["confidence"]
    )
    if corrupt:
        return common.digest(common.corrupted(form))
    reference = common.digest(form)
    cached.write_text(reference)
    return reference


def run_mine(workload: str, seed: int, seconds: float, trace: bool,
             transactions: int, corrupt: bool) -> dict:
    spec = MINE_WORKLOADS[workload]
    manifest = common.make_inputs(seed, transactions)
    reference = reference_digest(manifest, spec, corrupt)
    csv_path = Path(manifest["base"]).relative_to(common.ROOT)
    text = (
        f"MINE RULES FROM '{csv_path}' WHERE support >= {spec['support']} "
        f"AND confidence >= {spec['confidence']}{spec['with']}"
    )
    reports = []
    span_files = []
    used = 0.0
    for index in range(MINE_PROCESSES):
        # What earlier processes overran comes off the later ones' shares,
        # so a run's loops add up to about ``seconds``.
        share = max(0.0, seconds - used) / (MINE_PROCESSES - index)
        out = common.WORK / f"{workload}-seed{seed}-child{index}.json"
        spans = common.WORK / f"{workload}-seed{seed}-child{index}-spans.json"
        command = [
            sys.executable, str(common.HERE / "mine_child.py"),
            "--query", text, "--reference", reference,
            "--seconds", str(share / 2 if trace else share),
            "--out", str(out),
        ]
        if trace:
            command += ["--traced-seconds", str(share / 2), "--spans", str(spans)]
            span_files.append(spans)
        out.unlink(missing_ok=True)
        code = common.reap(common.start(command, stdout=sys.stderr),
                           CHILD_TIMEOUT_S)
        if code != 0 or not out.is_file():
            raise RuntimeError(f"{workload} process {index} exited {code}")
        reports.append(json.loads(out.read_text()))
        used += reports[-1]["loop_s"] + reports[-1]["traced_loop_s"]

    ops = [t for r in reports for t in r["ops"]]
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    run = {
        "correct": failed == 0 and all(r["cold_ok"] for r in reports),
        "attempted": attempted,
        "failed": failed,
        "ops": ops,
        "samples": {"setup_s": [r["setup_s"] for r in reports]},
        "e2e": {
            "ops_per_s": len(ops) / sum(r["loop_s"] for r in reports),
            "peak_rss_mb": common.median([r["peak_rss_mb"] for r in reports]),
            "setup_s": common.median([r["setup_s"] for r in reports]),
        },
    }
    if trace:
        traced = [t for r in reports for t in r["traced_ops"]]
        run["layers"] = layers.mine_layers(
            span_files,
            untraced_ops=ops,
            traced_ops=traced,
            rules_returned=sum(r["traced_rules_returned"] for r in reports),
            worker_peak_rss_mb=max(r["worker_peak_rss_mb"] for r in reports),
        )
    return run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*MINE_WORKLOADS, "serve-mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test only (selftest.py): input scale, and a deliberately wrong
    # reference that must make every op fail.
    parser.add_argument("--transactions", type=int,
                        default=common.BASE_TRANSACTIONS, help=argparse.SUPPRESS)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not common.program_available():
        print(f"perfbench: no program under {common.SRC}; nothing to measure",
              file=sys.stderr)
        return 2
    common.WORK.mkdir(parents=True, exist_ok=True)

    probe_before = common.host_probe()
    if args.workload == "serve-mixed":
        import serve_load

        run = serve_load.run_serve(args.seed, args.seconds, bool(args.trace),
                                   args.transactions, args.corrupt_reference)
    else:
        run = run_mine(args.workload, args.seed, args.seconds, bool(args.trace),
                       args.transactions, args.corrupt_reference)
    probe_after = common.host_probe()

    if args.trace:
        metrics = layers.emit(run["layers"], (probe_before, probe_after), sys.stdout)
    else:
        metrics = {
            name: common.metric(run["e2e"][name], unit)
            for name, unit in END_TO_END.items()
        }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host_probe_s": {"before": probe_before, "after": probe_after},
        "ops_s": run["ops"],
        "ops_detail": run.get("detail"),
        "samples": run.get("samples"),
        "metrics": metrics,
    }
    runs = common.WORK / "runs"
    runs.mkdir(exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(f"host probe: before {probe_before:.4f} s, after {probe_after:.4f} s; "
          f"ops measured: {len(run['ops'])}")
    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
