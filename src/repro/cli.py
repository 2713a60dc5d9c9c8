"""Command-line interface: ``python -m repro <command>``.

Seven subcommands cover the library's main workflows without writing
any Python:

* ``mine`` — mine a transaction file (``.basket`` or ``SALES`` CSV) and
  print patterns and rules;
* ``query`` — run a declarative ``MINE`` statement (:mod:`repro.query`)
  (``USING ENGINE``, ``WITH state`` or the default engine, with the
  ``WITH`` options passed through);
  ``--explain`` prints the plan (with every decision's reason) without
  mining;
* ``serve`` — host transaction files behind the long-lived JSON/HTTP
  mining service (:mod:`repro.serve`);
* ``engines`` — list every registered mining engine with its
  representation and capability metadata;
* ``generate`` — produce one of the bundled data sets as a file;
* ``sql`` — print the paper's generated SQL script for inspection or for
  feeding to another database;
* ``analyze`` — print the Section 3.2 / 4.3 cost analyses.

Examples::

    python -m repro generate --dataset retail --scale 0.1 --output r.basket
    python -m repro mine r.basket --minsup 0.01 --minconf 0.7
    python -m repro mine r.basket --minsup-count 25 --algorithm setm-disk \\
        --buffer-pages 128
    python -m repro mine r.basket --engine setm --json
    python -m repro mine r.basket --memory-budget 64M
    python -m repro mine r.basket --workers 4
    python -m repro mine r.basket --memory-budget 64M --workers 4
    python -m repro mine r.basket --state state/ --minsup 0.01
    python -m repro mine r.basket --append day2.basket --state state/
    python -m repro query "MINE RULES FROM r WHERE support >= 0.01 \\
        AND confidence >= 0.7" r=r.basket
    python -m repro query "MINE ITEMSETS FROM r WHERE support >= 0.01 \\
        WITH workers = 4, memory_budget = '64M'" r=r.basket --explain
    python -m repro engines --json
    python -m repro sql --k 3 --strategy sort-merge
    python -m repro analyze
    python -m repro serve r.basket --port 8937 --queue-depth 16
    python -m repro serve sales=r.basket other=o.csv --port 0
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.cost_model import (
    nested_loop_c2_cost,
    sort_merge_page_accesses,
    sort_merge_relation_pages,
    strategy_speedup,
)
from repro.analysis.report import format_kv_block, format_table
from repro.config import (
    DEFAULT_ENGINE,
    INPUT_FORMATS,
    TRANSPORT_CHOICES,
    MiningConfig,
)
from repro.core.transactions import TransactionDatabase
from repro.errors import ReproError
from repro.miner import Miner
from repro.registry import (
    ENGINE_ALIASES,
    available_engines,
    engine_specs,
    get_engine,
)
from repro.data.example import paper_example_database
from repro.data.hypothetical import generate_hypothetical_database
from repro.data.io import (
    read_basket_file,
    read_sales_csv,
    write_basket_file,
    write_sales_csv,
)
from repro.data.quest import QuestConfig, generate_quest_dataset
from repro.data.retail import generate_retail_dataset
from repro.sql import generator as sqlgen

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SETM association-rule mining (Houtsma & Swami, ICDE 1995)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    mine = commands.add_parser("mine", help="mine a transaction file")
    mine.add_argument("input", help=".basket file or SALES .csv")
    mine.add_argument("--minsup", type=float, default=0.01,
                      help="minimum support fraction (default 0.01)")
    mine.add_argument("--minsup-count", type=int, default=None,
                      help="minimum support as an absolute transaction "
                           "count (overrides --minsup)")
    mine.add_argument("--minconf", type=float, default=0.5,
                      help="minimum confidence fraction (default 0.5)")
    mine.add_argument("--algorithm", "--engine", dest="algorithm",
                      default=DEFAULT_ENGINE,
                      choices=[*available_engines(), *ENGINE_ALIASES],
                      help=f"mining engine (default {DEFAULT_ENGINE}; "
                           "setm is the faithful tuple-at-a-time "
                           "reference; setm-columnar-disk, setm-parallel "
                           "and setm-spill-parallel are deprecated aliases "
                           "of setm-columnar); --engine is an alias")
    mine.add_argument("--max-length", type=int, default=None,
                      help="cap on pattern length")
    mine.add_argument("--buffer-pages", type=int, default=None,
                      help="buffer-pool pages for the disk engines "
                           "(e.g. setm-disk)")
    mine.add_argument("--memory-budget", type=_parse_bytes, default=None,
                      metavar="BYTES",
                      help="resident-memory budget of setm-columnar: "
                           "levels priced above a quarter of it run as "
                           "key ranges with spilled R_k shares (default: "
                           "none, every level in memory); accepts plain "
                           "bytes or K/M/G suffixes, e.g. 64M")
    mine.add_argument("--workers", type=int, default=None, metavar="N",
                      help="worker threads of setm-columnar (default 1, "
                           "inline); with N > 1 the key ranges of big "
                           "levels are counted on a thread pool, under "
                           "--memory-budget or a 128M default")
    mine.add_argument("--transport", default=None,
                      choices=TRANSPORT_CHOICES,
                      help="deprecated, no effect (workers are threads); "
                           "removed in 1.12")
    mine.add_argument("--input-format", default=None,
                      choices=list(INPUT_FORMATS),
                      help="decode the input through the streaming ingest "
                           "layer: auto sniffs magic bytes/extension; "
                           "parquet/arrow need the optional pyarrow "
                           "dependency and read only the projected "
                           "trans_id/item columns")
    mine.add_argument("--chunk-rows", type=int, default=None, metavar="N",
                      help="rows per ingest chunk (enables streaming "
                           "ingest; peak ingest memory is O(chunk + "
                           "catalog) instead of O(dataset))")
    mine.add_argument("--append", action="append", default=None,
                      metavar="FILE",
                      help="append this file's transactions onto the "
                           "input before mining (repeatable, applied in "
                           "order; trans_ids must continue ascending); "
                           "with --state, only the appended delta is "
                           "re-counted")
    mine.add_argument("--state", default=None, metavar="DIR",
                      help="directory for the materialized incremental "
                           "count state: the first run mines fully and "
                           "saves it, later runs over appended data "
                           "count only the delta (routes through the "
                           "setm-incremental engine; results are "
                           "byte-identical to a from-scratch mine)")
    mine.add_argument("--patterns", action="store_true",
                      help="also print every frequent pattern")
    mine.add_argument("--json", action="store_true",
                      help="emit a JSON document (patterns, rules, "
                           "iteration stats, per-iteration timings) "
                           "instead of text")

    query = commands.add_parser(
        "query", help="run a declarative MINE statement"
    )
    query.add_argument(
        "query", metavar="STATEMENT",
        help="the MINE statement, e.g. \"MINE RULES FROM r WHERE "
             "support >= 0.01 AND confidence >= 0.7\"; thresholds, "
             "HAS/length constraints, USING ENGINE and WITH options "
             "all live in the statement"
    )
    query.add_argument(
        "inputs", nargs="*", metavar="[NAME=]PATH",
        help="datasets the statement's FROM may name; NAME defaults to "
             "the file's stem (not needed when FROM quotes a file path "
             "directly)"
    )
    query.add_argument("--explain", action="store_true",
                       help="print the plan — engine choice, options, "
                            "every decision's reason — "
                            "without mining anything")
    query.add_argument("--patterns", action="store_true",
                       help="also print every frequent pattern")
    query.add_argument("--json", action="store_true",
                       help="emit the full query document (canonical "
                            "query, engine, result, rules) as JSON")

    serve = commands.add_parser(
        "serve", help="host transaction files behind the mining service"
    )
    serve.add_argument(
        "inputs", nargs="+", metavar="[NAME=]PATH",
        help=".basket/.csv files to host; NAME defaults to the "
             "file's stem"
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8937,
                       help="port to listen on; 0 picks a free port "
                            "(the printed 'listening on' line has it)")
    serve.add_argument("--queue-depth", type=int, default=16, metavar="N",
                       help="bounded request queue size; requests beyond "
                            "it are rejected as busy (default 16)")
    serve.add_argument("--serve-workers", type=int, default=2, metavar="N",
                       help="request worker threads (default 2; mining "
                            "itself may use engine worker threads)")
    serve.add_argument("--request-timeout", type=float, default=60.0,
                       metavar="SECONDS",
                       help="default per-request deadline (default 60)")
    serve.add_argument("--cache-entries", type=int, default=32, metavar="N",
                       help="per-dataset result-cache bound (default 32)")
    serve.add_argument("--spill-root", default=None, metavar="DIR",
                       help="directory out-of-core engines spill under "
                            "(default: a private temporary directory)")
    serve.add_argument("--input-format", default=None,
                       choices=list(INPUT_FORMATS),
                       help="stream-encode the hosted files at startup "
                            "through the ingest layer (cuts server boot "
                            "memory; parquet/arrow need pyarrow)")
    serve.add_argument("--chunk-rows", type=int, default=None, metavar="N",
                       help="rows per ingest chunk for startup "
                            "stream-encoding (enables streaming ingest)")

    generate = commands.add_parser("generate", help="write a bundled data set")
    generate.add_argument("--dataset", required=True,
                          choices=["example", "retail", "quest", "hypothetical"])
    generate.add_argument("--output", required=True,
                          help="output path (.basket or .csv)")
    generate.add_argument("--scale", type=float, default=1.0,
                          help="scale factor for retail/hypothetical")
    generate.add_argument("--transactions", type=int, default=None,
                          help="transaction count for quest")
    generate.add_argument("--seed", type=int, default=None,
                          help="seed for quest")

    engines = commands.add_parser(
        "engines", help="list registered engines and their capabilities"
    )
    engines.add_argument("--json", action="store_true",
                         help="emit the engine table as a JSON document")

    sql = commands.add_parser("sql", help="print the generated mining SQL")
    sql.add_argument("--k", type=int, default=3,
                     help="generate statements up to pattern length k")
    sql.add_argument("--strategy", default="sort-merge",
                     choices=["sort-merge", "nested-loop"])
    sql.add_argument("--item-type", default="INTEGER",
                     choices=["INTEGER", "TEXT"])

    commands.add_parser("analyze", help="print the paper's cost analyses")
    return parser


def _parse_bytes(text: str) -> int:
    """A byte count, optionally suffixed: ``65536``, ``64K``, ``64M``, ``1G``."""
    units = {"K": 2**10, "M": 2**20, "G": 2**30}
    raw = text.strip()
    multiplier = 1
    if raw and raw[-1].upper() in units:
        multiplier = units[raw[-1].upper()]
        raw = raw[:-1]
    try:
        value = int(raw) * multiplier
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a byte count like 65536, 64K, 64M or 1G; got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"memory budget must be positive; got {text!r}"
        )
    return value


def _load(path: str) -> TransactionDatabase:
    if path.endswith(".csv"):
        return read_sales_csv(path)
    return read_basket_file(path)


def _load_streamed(
    path: str,
    args: argparse.Namespace,
    *,
    memory_budget_bytes: int | None = None,
):
    """Stream-encode ``path`` per the ``--input-format``/``--chunk-rows`` flags."""
    from repro.data.ingest import load_dataset

    return load_dataset(
        path,
        input_format=args.input_format or "auto",
        chunk_rows=args.chunk_rows,
        memory_budget_bytes=memory_budget_bytes,
    )


def _wants_streaming(args: argparse.Namespace) -> bool:
    return args.input_format is not None or args.chunk_rows is not None


def _mining_report(result, rules) -> dict:
    """The ``--json`` document for one mining run."""
    return {
        "algorithm": result.algorithm,
        "num_transactions": result.num_transactions,
        "minimum_support": result.minimum_support,
        "support_threshold": result.support_threshold,
        "elapsed_seconds": result.elapsed_seconds,
        "num_patterns": sum(
            len(rel) for rel in result.count_relations.values()
        ),
        "max_pattern_length": result.max_pattern_length,
        "patterns": [
            {
                "items": [str(item) for item in pattern],
                "count": count,
            }
            for pattern, count in result.iter_patterns()
        ],
        "rules": [str(rule) for rule in rules],
        "iterations": [
            {
                "k": stats.k,
                "candidate_instances": stats.candidate_instances,
                "supported_instances": stats.supported_instances,
                "candidate_patterns": stats.candidate_patterns,
                "supported_patterns": stats.supported_patterns,
                "r_kbytes": stats.r_kbytes,
            }
            for stats in result.iterations
        ],
        "iteration_seconds": {
            str(k): seconds
            for k, seconds in result.extra.get(
                "iteration_seconds", {}
            ).items()
        },
        # Loop-level peak resident memory (tracemalloc); None for engines
        # that do not run through the shared Figure-4 loop.
        "peak_memory_bytes": result.extra.get("peak_memory_bytes"),
        "memory_budget_bytes": result.extra.get("memory_budget_bytes"),
        "spill": result.extra.get("spill"),
        "workers": result.extra.get("workers"),
        "parallel": result.extra.get("parallel"),
        # Streaming-ingest telemetry (chunks, rows, bytes decoded,
        # bytes_read_reduction); None when the input was whole-file read.
        "ingest": result.extra.get("ingest"),
        # Incremental-mining telemetry (mode full/delta, delta rows,
        # state hits, recount fraction); None off the incremental engine.
        "incremental": result.extra.get("incremental"),
    }


def _cmd_mine(args: argparse.Namespace, out) -> int:
    # Appends and incremental state both need the encoded columnar form
    # (append_chunks / delta slicing), so they force the streamed path.
    if _wants_streaming(args) or args.append or args.state:
        database = _load_streamed(
            args.input, args, memory_budget_bytes=args.memory_budget
        )
        for extra_path in args.append or ():
            from repro.data.formats import open_chunk_source

            info = database.append_chunks(
                open_chunk_source(
                    extra_path,
                    input_format=args.input_format or "auto",
                    chunk_rows=args.chunk_rows,
                ),
                memory_budget_bytes=args.memory_budget,
            )
            if not args.json:
                print(
                    f"appended {info['transactions']:,} transactions "
                    f"({info['rows']:,} rows) from {extra_path} "
                    f"(generation {info['generation']})",
                    file=out,
                )
        num_items = len(database.catalog)
    else:
        database = _load(args.input)
        num_items = len(database.distinct_items())
    if not args.json:
        print(
            f"{database.num_transactions:,} transactions, "
            f"{database.num_sales_rows:,} rows, "
            f"{num_items} items",
            file=out,
        )
    options: dict[str, object] = {}
    if args.buffer_pages is not None:
        options["buffer_pages"] = args.buffer_pages
    if args.memory_budget is not None:
        options["memory_budget_bytes"] = args.memory_budget
    if args.workers is not None:
        options["workers"] = args.workers
    if args.transport is not None:
        options["transport"] = args.transport
    if args.json:
        # The document reports peak_memory_bytes, and metering is
        # opt-in: ask whichever engine will run (--state reroutes to
        # the incremental engine) when it offers it.
        spec = get_engine(args.algorithm)
        if args.state is not None and not spec.incremental:
            spec = get_engine("setm-incremental")
        if "measure_memory" in spec.accepted_options:
            options["measure_memory"] = True
    config = MiningConfig(
        support=(
            args.minsup_count if args.minsup_count is not None else args.minsup
        ),
        confidence=args.minconf,
        algorithm=args.algorithm,
        max_length=args.max_length,
        options=options,
        input_format=args.input_format,
        chunk_rows=args.chunk_rows,
        state_dir=args.state,
    )
    miner = Miner(database)
    if args.state is not None:
        result = miner.mine_delta(config)
        # mine_delta may have rerouted to an incremental engine; align
        # the config so the rules pass reuses the cached result.
        config = config.replace(algorithm=result.algorithm)
    else:
        result = miner.frequent_itemsets(config)
    rules = miner.rules(config)
    if args.json:
        json.dump(_mining_report(result, rules), out, indent=2)
        print(file=out)
        return 0
    total = sum(len(rel) for rel in result.count_relations.values())
    print(
        f"{result.algorithm}: {total} frequent patterns "
        f"(longest {result.max_pattern_length}), "
        f"{len(rules)} rules, {result.elapsed_seconds:.3f}s",
        file=out,
    )
    if args.patterns:
        for pattern, count in result.iter_patterns():
            rendered = " ".join(str(item) for item in pattern)
            print(f"  {rendered}  [{count}]", file=out)
    for rule in rules:
        print(f"  {rule}", file=out)
    return 0


def _cmd_query(args: argparse.Namespace, out) -> int:
    """Parse, plan, and (unless ``--explain``) execute a MINE statement."""
    # Imported here, like serve: the query front-end is only worth
    # importing for this one subcommand.
    from repro.query import explain_query, parse_query, run_query

    parsed = parse_query(args.query)

    def load(path: str) -> TransactionDatabase:
        # The statement's own WITH options drive the load, so a quoted
        # ``FROM 'path'`` streams exactly like ``mine --chunk-rows``.
        chunk_rows = parsed.option("chunk_rows")
        input_format = parsed.option("input_format")
        if (
            chunk_rows is not None
            or input_format is not None
            or parsed.option("state") is not None
        ):
            from repro.data.ingest import load_dataset

            return load_dataset(
                path,
                input_format=input_format or "auto",
                chunk_rows=chunk_rows,
            )
        return _load(path)

    source: dict[str, TransactionDatabase] = {}
    if not parsed.dataset_is_path:
        mapping: dict[str, str] = {}
        for spec in args.inputs:
            name, sep, path = spec.partition("=")
            if not sep:
                name, path = Path(spec).stem, spec
            if name in mapping:
                print(
                    f"error: duplicate dataset name {name!r}", file=sys.stderr
                )
                return 2
            mapping[name] = path
        if parsed.dataset not in mapping:
            known = ", ".join(sorted(mapping)) or "(none)"
            print(
                f"error: FROM names unknown dataset {parsed.dataset!r}; "
                f"available datasets: {known}",
                file=sys.stderr,
            )
            return 2
        # Only the dataset the statement actually names is loaded.
        source = {parsed.dataset: load(mapping[parsed.dataset])}

    if args.explain:
        print(explain_query(args.query, source, loader=load), file=out)
        return 0
    document = run_query(args.query, source, loader=load)
    if args.json:
        json.dump(document, out, indent=2)
        print(file=out)
        return 0
    result = document["result"]
    rules = document["rules"]
    header = (
        f"{document['engine']}: {result['num_patterns']} frequent patterns "
        f"(longest {result['max_pattern_length']})"
    )
    if rules is not None:
        header += f", {len(rules)} rules"
    print(header, file=out)
    if args.patterns:
        for entry in result["patterns"]:
            rendered = " ".join(str(item) for item in entry["items"])
            print(f"  {rendered}  [{entry['count']}]", file=out)
    for rule in rules or ():
        print(f"  {rule['text']}", file=out)
    return 0


def _cmd_serve(args: argparse.Namespace, out) -> int:
    """Load the datasets, start the service, serve until drained."""
    # Imported here: the serve machinery (HTTP plumbing, scheduler) is
    # only worth importing for this one subcommand.
    from repro.serve.server import run_server
    from repro.serve.service import MiningService

    datasets: dict[str, TransactionDatabase] = {}
    for spec in args.inputs:
        name, sep, path = spec.partition("=")
        if not sep:
            name, path = Path(spec).stem, spec
        if name in datasets:
            print(f"error: duplicate dataset name {name!r}", file=sys.stderr)
            return 2
        if _wants_streaming(args):
            # Stream-encode at startup: the server never materializes
            # labelled Python transactions while loading.
            database = _load_streamed(path, args)
        else:
            database = _load(path)
        datasets[name] = database
        print(
            f"hosting {name!r}: {database.num_transactions:,} transactions, "
            f"{database.num_sales_rows:,} rows",
            file=out,
        )
    service = MiningService(
        datasets,
        queue_depth=args.queue_depth,
        workers=args.serve_workers,
        default_timeout=args.request_timeout,
        cache_entries=args.cache_entries,
        spill_root=args.spill_root,
    )
    out.flush()
    return run_server(service, host=args.host, port=args.port, out=out)


def _cmd_engines(args: argparse.Namespace, out) -> int:
    """List every registered engine with its capability metadata."""
    specs = engine_specs()
    if args.json:
        document = [
            {
                "name": spec.name,
                "description": spec.description,
                "representation": spec.representation,
                "supports_max_length": spec.supports_max_length,
                "reports_page_accesses": spec.reports_page_accesses,
                "out_of_core": "memory_budget_bytes" in spec.accepted_options,
                "parallel": "workers" in spec.accepted_options,
                "streaming_ingest": spec.streaming_ingest,
                "incremental": spec.incremental,
                "accepted_options": sorted(spec.accepted_options),
            }
            for spec in specs
        ]
        json.dump(document, out, indent=2)
        print(file=out)
        return 0
    rows = [
        (
            spec.name,
            spec.representation,
            "yes" if "memory_budget_bytes" in spec.accepted_options else "no",
            "yes" if "workers" in spec.accepted_options else "no",
            "yes" if spec.streaming_ingest else "no",
            "yes" if spec.incremental else "no",
            "yes" if spec.reports_page_accesses else "no",
            ", ".join(sorted(spec.accepted_options)) or "-",
        )
        for spec in specs
    ]
    print(
        format_table(
            ["engine", "representation", "out-of-core", "parallel",
             "streaming", "incremental", "page I/O", "options"],
            rows,
            title=f"{len(specs)} registered engines",
        ),
        file=out,
    )
    for spec in specs:
        if spec.description:
            print(f"  {spec.name}: {spec.description}", file=out)
    return 0


def _cmd_generate(args: argparse.Namespace, out) -> int:
    if args.dataset == "example":
        database = paper_example_database()
    elif args.dataset == "retail":
        database = generate_retail_dataset(scale=args.scale)
    elif args.dataset == "hypothetical":
        database = generate_hypothetical_database(scale=args.scale)
    else:
        config = QuestConfig()
        if args.transactions is not None:
            config = QuestConfig(num_transactions=args.transactions)
        if args.seed is not None:
            config = QuestConfig(
                num_transactions=config.num_transactions, seed=args.seed
            )
        database = generate_quest_dataset(config)

    path = Path(args.output)
    if path.suffix == ".csv":
        write_sales_csv(database, path)
    else:
        write_basket_file(database, path)
    print(
        f"wrote {database.num_transactions:,} transactions "
        f"({database.num_sales_rows:,} rows) to {path}",
        file=out,
    )
    return 0


def _cmd_sql(args: argparse.Namespace, out) -> int:
    statements = [
        sqlgen.create_sales_table(args.item_type),
        sqlgen.create_r_table(1, args.item_type),
        sqlgen.insert_r1_query(),
        sqlgen.create_c_table(1, args.item_type),
        sqlgen.insert_c1_query(),
    ]
    for k in range(2, args.k + 1):
        statements.append(sqlgen.create_c_table(k, args.item_type))
        if args.strategy == "sort-merge":
            statements.append(sqlgen.create_r_table(k, args.item_type, prime=True))
            statements.append(sqlgen.insert_rk_prime_query(k))
            statements.append(sqlgen.insert_ck_query(k))
            statements.append(sqlgen.create_r_table(k, args.item_type))
            statements.append(sqlgen.insert_rk_filter_query(k))
        else:
            statements.append(sqlgen.insert_ck_nested_loop_query(k))
    for sql in statements:
        print(f"{sql};", file=out)
    return 0


def _cmd_analyze(out) -> int:
    nested = nested_loop_c2_cost()
    merged = sort_merge_page_accesses(sort_merge_relation_pages(), 3)
    print(
        format_kv_block(
            {
                "nested-loop page fetches": nested.page_fetches,
                "nested-loop modelled time (s)": nested.seconds,
                "sort-merge page accesses": merged.page_accesses,
                "sort-merge modelled time (s)": merged.seconds,
                "speedup": round(strategy_speedup(nested, merged), 1),
            },
            title="Hypothetical database (1,000 items, 200k transactions)",
        ),
        file=out,
    )
    print(
        format_table(
            ["index", "leaf pages", "non-leaf pages", "levels"],
            [
                (
                    "(item, trans_id)",
                    nested.item_index.leaf_pages,
                    nested.item_index.nonleaf_pages,
                    nested.item_index.levels,
                ),
                (
                    "(trans_id)",
                    nested.tid_index.leaf_pages,
                    nested.tid_index.nonleaf_pages,
                    nested.tid_index.levels,
                ),
            ],
            title="B+-tree sizing (Section 3.2)",
        ),
        file=out,
    )
    return 0


def main(argv: list[str] | None = None, out=None) -> int:
    """Entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        if args.command == "mine":
            return _cmd_mine(args, out)
        if args.command == "query":
            return _cmd_query(args, out)
        if args.command == "serve":
            return _cmd_serve(args, out)
        if args.command == "engines":
            return _cmd_engines(args, out)
        if args.command == "generate":
            return _cmd_generate(args, out)
        if args.command == "sql":
            return _cmd_sql(args, out)
        if args.command == "analyze":
            return _cmd_analyze(out)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: exit quietly, as CLI
        # tools are expected to.
        return 0
    except ReproError as error:
        # Structured API errors (bad support, unknown engine, rejected
        # option) become a one-line message and a conventional exit code.
        print(f"error: {error}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
