"""One fresh program process of the ``mine-spill-pool`` workload.

Usage (the harness starts it; see ``run.py``)::

    python3 perfbench/mine_child.py --query TEXT --reference DIGEST \
        --seconds S [--traced-seconds S] --out RESULT.json [--spans FILE]

Set-up is timed from this file's first statement: the program's imports
plus one cold op, which is checked like every other op.  Then a closed
loop with one caller runs ops back to back for ``--seconds``; with
``--traced-seconds`` a second loop follows with the layer hooks of
``tracer.py`` installed.  Each op is ``run_query`` of the MINE statement
(default options, ``load_dataset`` as the loader) followed by
``json.dumps`` of the document, exactly what a caller of the public front
door does.  Outputs are checked against the reference digest after each
op's timer stops.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import canonical_document, digest, use_program  # noqa: E402

use_program()

import repro.data.ingest as ingest  # noqa: E402
from repro.query import run_query  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--query", required=True)
    parser.add_argument("--reference", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced-seconds", type=float, default=0.0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    report = {"attempted": 0, "failed": 0, "ops": [], "traced_ops": [],
              "traced_rules_returned": 0, "traced_loop_s": 0.0}

    def run(timed: list, tracer=None) -> None:
        report["attempted"] += 1
        token = tracer.begin("op") if tracer is not None else None
        started = time.perf_counter()
        try:
            document = run_query(args.query, {}, loader=ingest.load_dataset)
            json_token = tracer.begin("protocol.json") if tracer is not None else None
            size = len(json.dumps(document))
            if tracer is not None:
                tracer.end(json_token, {"bytes": size})
                report["traced_rules_returned"] += len(document.get("rules") or ())
        except Exception:  # a failed op is counted, never fatal
            traceback.print_exc(file=sys.stderr)
            report["failed"] += 1
            return
        finally:
            if token is not None:
                tracer.end(token)
        elapsed = time.perf_counter() - started
        if digest(canonical_document(document)) != args.reference:
            print("perfbench: op output differs from the reference",
                  file=sys.stderr)
            report["failed"] += 1
        else:
            timed.append(elapsed)

    cold: list = []
    run(cold)
    report["setup_s"] = time.perf_counter() - STARTED
    report["cold_ok"] = bool(cold)

    loop_started = time.perf_counter()
    while True:
        run(report["ops"])
        if time.perf_counter() - loop_started >= args.seconds:
            break
    report["loop_s"] = time.perf_counter() - loop_started

    if args.traced_seconds > 0:
        from tracer import Tracer, install

        tracer = install(Tracer())
        tracer.installed.add("protocol.json")  # timed here, around json.dumps
        traced_started = time.perf_counter()
        while True:
            run(report["traced_ops"], tracer)
            if time.perf_counter() - traced_started >= args.traced_seconds:
                break
        report["traced_loop_s"] = time.perf_counter() - traced_started
        tracer.dump(Path(args.spans))

    # Release the engine's worker pools so their peak RSS is reported
    # (terminated, waited-for children count in RUSAGE_CHILDREN).
    try:
        from repro.core.setm_parallel import shutdown_worker_pools
    except ImportError:
        shutdown_worker_pools = None
    if shutdown_worker_pools is not None:
        shutdown_worker_pools()
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["worker_peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    )
    Path(args.out).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
