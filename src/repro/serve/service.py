"""The transport-agnostic serve core: datasets, miners, stats, drain.

A :class:`MiningService` owns, per hosted dataset, **one**
dictionary-encoded :class:`~repro.core.transactions.TransactionDatabase`
(encoded once at startup; every concurrent request mines the same
object) and **one** :class:`~repro.miner.Miner` whose bounded per-config
result cache makes repeated questions about the same config free.
Query-shaped requests — ``mine``, ``patterns``, ``support_of``,
``rules_about``, and the declarative ``query`` op (a
:mod:`repro.query` ``MINE`` statement planned server-side) — run
through the bounded :class:`~repro.serve.scheduler.RequestScheduler`;
control-plane requests (``ping``, ``stats``, ``drain``) are answered
inline so a saturated queue can still be observed and drained.

Datasets registered in stream-encoded form
(:class:`~repro.data.ingest.EncodedDataset`) stay *live*: the ``append``
op stream-encodes a server-visible file onto them (bumping the
generation every result cache keys on) and ``refresh`` re-mines through
the incremental engine (:mod:`repro.core.incremental`), counting only
the appended delta against the service-owned per-dataset state — rules
refresh as data lands instead of re-encoding + re-mining.

Spill discipline: the service owns a spill root directory and injects it
(as *namespaced* engine options, so non-spilling engines never see it)
into every request config.  Graceful drain finishes in-flight work,
stops the shared worker threads via
:func:`~repro.core.setm_parallel.shutdown_worker_pools`, and reports the
number of leftover spill files — zero, unless an engine leaked.

Responses are decoded back to the datasets' original item labels before
serialization, so they are byte-for-byte what a direct
:class:`~repro.miner.Miner` over the raw data would serialize to.
"""

from __future__ import annotations

import functools
import shutil
import tempfile
import threading
import time
from collections import Counter, OrderedDict
from collections.abc import Mapping
from pathlib import Path
from typing import Any

from repro.config import MiningConfig, _validate_confidence
from repro.core.result import MiningResult
from repro.core.rules import generate_rules
from repro.core.setm_parallel import pool_stats, shutdown_worker_pools
from repro.core.transactions import ItemCatalog, TransactionDatabase
from repro.errors import (
    IngestError,
    InvalidConfigError,
    ProtocolError,
    ReproError,
    UnknownDatasetError,
)
from repro.miner import Miner
from repro.registry import available_engines, engine_specs
from repro.serve.protocol import (
    Request,
    error_payload,
    parse_request,
    result_payload,
    rules_payload,
)
from repro.serve.scheduler import RequestScheduler

__all__ = ["MiningService", "pool_crash_signature"]


@functools.cache
def _spill_engines() -> tuple[str, ...]:
    """Engines that honour a ``spill_dir`` option, read off the registry once.

    The service pins them to its own spill root (namespaced, so other
    engines never see the key).
    """
    return tuple(
        spec.name
        for spec in engine_specs()
        if "spill_dir" in spec.accepted_options
    )


def pool_crash_signature(error: BaseException) -> bool:
    """Whether an exception smells like a dead/broken worker pool.

    ``pool_map`` evicts a dead pool from its cache when the dispatch
    fails, so a retry transparently builds a fresh pool — these are the
    failures worth exactly one requeue.  Genuine mining errors (bad
    data, engine bugs) do not match and fail fast.
    """
    if isinstance(
        error, (BrokenPipeError, ConnectionResetError, EOFError)
    ):
        return True
    return "Pool not running" in str(error)


class _HostedDataset:
    """One dataset: its shared encoded database, catalog, and miner."""

    __slots__ = (
        "name",
        "database",
        "catalog",
        "miner",
        "decoded",
        "ingest",
        "encoded_dataset",
        "lock",
    )

    def __init__(
        self,
        name: str,
        database: TransactionDatabase,
        catalog: ItemCatalog,
        miner: Miner,
        *,
        ingest: dict[str, Any] | None = None,
        encoded_dataset=None,
    ) -> None:
        self.name = name
        self.database = database
        self.catalog = catalog
        self.miner = miner
        # Streaming-ingest telemetry when the dataset was registered as
        # an EncodedDataset; None for whole-file registrations.
        self.ingest = ingest
        # The live EncodedDataset when registered stream-encoded — kept
        # (not just materialized away) so the ``append`` op can extend
        # it in place and the miner sees every generation bump.
        self.encoded_dataset = encoded_dataset
        # Serializes dataset mutation (append) against in-flight mining
        # of the same dataset; different datasets stay concurrent.
        self.lock = threading.RLock()
        # Decoded views of cached results, keyed by id(result).  The
        # strong reference to the result keeps the id stable; entries
        # are bounded alongside the miner's own cache.
        self.decoded: OrderedDict[
            int, tuple[MiningResult, MiningResult]
        ] = OrderedDict()


class MiningService:
    """The serve layer's core: request execution over shared sessions.

    Parameters
    ----------
    datasets:
        ``{name: TransactionDatabase}`` — each is dictionary-encoded
        once and shared by every request addressing it.  A value may
        also be a stream-encoded
        :class:`~repro.data.ingest.EncodedDataset` (see
        :func:`repro.data.ingest.load_dataset`): its catalog and
        encoded columns are adopted directly — the whole-dataset
        labelled database is never materialized at startup — and its
        ingest telemetry is surfaced in :meth:`stats`.
    queue_depth:
        Bound of the request queue (admission control rejects beyond
        it with a typed ``ServerBusyError``).
    workers:
        Scheduler worker threads (the mining itself may additionally
        fan out to ``setm_parallel``'s thread pools).
    default_timeout:
        Per-request deadline in seconds when the request carries none;
        ``None`` disables the default deadline.
    cache_entries:
        Bound of each dataset's per-config :class:`Miner` result cache.
    spill_root:
        Directory the out-of-core engines spill under (default: a fresh
        temporary directory owned — and removed at drain — by the
        service).
    """

    def __init__(
        self,
        datasets: Mapping[str, TransactionDatabase],
        *,
        queue_depth: int = 16,
        workers: int = 2,
        default_timeout: float | None = 60.0,
        cache_entries: int = 32,
        spill_root: str | Path | None = None,
    ) -> None:
        if not datasets:
            raise InvalidConfigError("a server needs at least one dataset")
        self._datasets: dict[str, _HostedDataset] = {}
        for name, database in datasets.items():
            if not isinstance(name, str) or not name:
                raise InvalidConfigError(
                    f"dataset names must be non-empty strings; got {name!r}"
                )
            ingest = None
            if isinstance(database, TransactionDatabase):
                encoded, catalog = database.encoded()
                self._datasets[name] = _HostedDataset(
                    name,
                    encoded,
                    catalog,
                    Miner(encoded, cache_entries=cache_entries),
                    ingest=ingest,
                )
            else:
                # A stream-encoded EncodedDataset stays live: its
                # catalog travels with it, the miner binds the dataset
                # itself (so the ``append`` op's generation bumps
                # invalidate cached results), and engines without the
                # streaming capability materialize on demand.
                catalog = database.catalog
                stats = database.stats
                ingest = stats.as_dict() if stats is not None else None
                self._datasets[name] = _HostedDataset(
                    name,
                    database,
                    catalog,
                    Miner(database, cache_entries=cache_entries),
                    ingest=ingest,
                    encoded_dataset=database,
                )
        self._owns_spill_root = spill_root is None
        self._spill_root = Path(
            tempfile.mkdtemp(prefix="repro-serve-spill-")
            if spill_root is None
            else spill_root
        )
        self._spill_root.mkdir(parents=True, exist_ok=True)
        # Per-dataset incremental mining state (``refresh`` op) lives
        # outside the spill root so the drain audit's leftover-spill
        # count stays meaningful; always service-owned.
        self._state_root = Path(tempfile.mkdtemp(prefix="repro-serve-state-"))
        self._scheduler = RequestScheduler(
            queue_depth=queue_depth,
            workers=workers,
            default_timeout=default_timeout,
            retryable=pool_crash_signature,
        ).start()
        self._lock = threading.Lock()
        self._by_op: Counter[str] = Counter()
        self._by_engine: Counter[str] = Counter()
        self._started_monotonic = time.monotonic()
        self._drain_lock = threading.Lock()
        self._drain_report: dict[str, Any] | None = None

    # -- request entry point --------------------------------------------------------

    @property
    def scheduler(self) -> RequestScheduler:
        return self._scheduler

    @property
    def spill_root(self) -> Path:
        return self._spill_root

    def dataset_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._datasets))

    def handle(self, payload: object) -> tuple[int, dict[str, Any]]:
        """Answer one decoded JSON request: ``(http_status, document)``.

        Never raises for request-shaped problems — every error of the
        :class:`ReproError` hierarchy becomes a structured ``ok: false``
        envelope with the matching status code.
        """
        op = payload.get("op") if isinstance(payload, dict) else None
        try:
            request = parse_request(payload)
            if request.op == "ping":
                document: dict[str, Any] = {"result": self._ping()}
            elif request.op == "stats":
                document = {"result": self.stats()}
            elif request.op == "drain":
                document = {"result": self.drain()}
            else:
                if request.timeout is None:
                    document = self._scheduler.submit(
                        lambda: self._execute(request)
                    )
                else:
                    document = self._scheduler.submit(
                        lambda: self._execute(request),
                        timeout=request.timeout,
                    )
                document["dataset"] = request.dataset
            with self._lock:
                self._by_op[request.op] += 1
            return 200, {"ok": True, "op": request.op, **document}
        except ReproError as error:
            status, document = error_payload(error)
            return status, {"ok": False, "op": op, "error": document}
        except Exception as error:  # pragma: no cover - defensive: bugs
            return 500, {
                "ok": False,
                "op": op,
                "error": {
                    "type": "InternalError",
                    "status": 500,
                    "message": f"{type(error).__name__}: {error}",
                },
            }

    # -- op execution (scheduler worker threads) ------------------------------------

    def _execute(self, request: Request) -> dict[str, Any]:
        hosted = self._datasets.get(request.dataset)
        if hosted is None:
            raise UnknownDatasetError(request.dataset, self._datasets)
        if request.op == "append":
            return self._op_append(request, hosted)
        if request.op == "query":
            return self._op_query(request, hosted)
        config = self._pin_spill_dir(request.config)
        if request.op == "refresh":
            config = self._pin_state_dir(request.dataset, config)
        hosted.miner.engine_spec(config)  # fail typed before any work
        cache_info_before = hosted.miner.cache_info()
        with hosted.lock:
            if request.op == "refresh":
                result = hosted.miner.mine_delta(config)
            else:
                result = hosted.miner.frequent_itemsets(config)
        # Stream-encoded datasets mine in label space already (their
        # kernels decode through the live catalog); only whole-file
        # registrations need the id-to-label pass.
        if hosted.encoded_dataset is not None:
            decoded = result
        else:
            decoded = self._decoded(hosted, result)
        engine_name = result.extra.get("session", {}).get(
            "engine", config.algorithm
        )
        with self._lock:
            self._by_engine[engine_name] += 1
        handler = getattr(self, f"_op_{request.op}")
        document = handler(request, config, decoded)
        if request.op == "refresh":
            document["incremental"] = result.extra.get("incremental")
        document["server"] = {
            "engine": engine_name,
            "cache_hit": (
                hosted.miner.cache_info()["hits"]
                > cache_info_before["hits"]
            ),
        }
        return document

    def _op_mine(
        self,
        request: Request,
        config: MiningConfig,
        decoded: MiningResult,
    ) -> dict[str, Any]:
        include_rules = request.params.get("include_rules")
        if include_rules is None:
            include_rules = config.confidence is not None
        rules = None
        if include_rules:
            if config.confidence is None:
                raise InvalidConfigError(
                    "mine with include_rules needs config.confidence"
                )
            rules = rules_payload(
                generate_rules(decoded, config.confidence)
            )
        return {"result": result_payload(decoded), "rules": rules}

    def _op_patterns(
        self,
        request: Request,
        config: MiningConfig,
        decoded: MiningResult,
    ) -> dict[str, Any]:
        length = request.params.get("length")
        containing = request.params.get("containing")
        min_count = request.params.get("min_count")
        wanted = set(containing) if containing is not None else None
        patterns = []
        for pattern, count in decoded.iter_patterns():
            if length is not None and len(pattern) != length:
                continue
            if wanted is not None and not wanted.issubset(pattern):
                continue
            if min_count is not None and count < min_count:
                continue
            patterns.append({"items": list(pattern), "count": count})
        return {"patterns": patterns}

    def _op_support_of(
        self,
        request: Request,
        config: MiningConfig,
        decoded: MiningResult,
    ) -> dict[str, Any]:
        items = tuple(request.params["items"])
        try:
            count = decoded.support_count(items)
        except TypeError:
            raise ProtocolError(
                f"items {items!r} are not mutually comparable"
            ) from None
        return {
            "items": list(items),
            "count": count,
            "support": (
                count / decoded.num_transactions
                if count is not None
                else None
            ),
        }

    def _op_rules_about(
        self,
        request: Request,
        config: MiningConfig,
        decoded: MiningResult,
    ) -> dict[str, Any]:
        confidence = request.params.get("confidence")
        if confidence is None:
            confidence = config.confidence
        if confidence is None:
            raise InvalidConfigError(
                "rules_about needs a confidence threshold (request "
                "'confidence' or config.confidence)"
            )
        _validate_confidence(confidence)
        item = request.params["item"]
        rules = [
            rule
            for rule in generate_rules(decoded, confidence)
            if item in rule.pattern
        ]
        return {"item": item, "rules": rules_payload(rules)}

    def _op_append(
        self, request: Request, hosted: _HostedDataset
    ) -> dict[str, Any]:
        """Stream-encode a server-visible file onto a hosted dataset.

        Only datasets registered in stream-encoded form can grow; the
        append bumps the dataset generation, so every cached result
        goes stale at once (the next ``refresh`` counts just the delta).
        """
        if hosted.encoded_dataset is None:
            raise InvalidConfigError(
                f"dataset {hosted.name!r} was loaded whole-file and cannot "
                "be appended to; host it stream-encoded "
                "(serve --input-format/--chunk-rows) to enable appends"
            )
        # Imported here, like the rest of the data layer: the serve core
        # stays importable without the optional decoders.
        from repro.data.formats import open_chunk_source

        path = Path(request.params["path"])
        if not path.is_file():
            reason = "is a directory" if path.is_dir() else "does not exist"
            raise IngestError(f"cannot append {str(path)!r}: the path {reason}")
        source = open_chunk_source(
            path,
            input_format=request.params.get("input_format") or "auto",
            chunk_rows=request.params.get("chunk_rows"),
        )
        with hosted.lock:
            info = hosted.encoded_dataset.append_chunks(source)
            stats = hosted.encoded_dataset.stats
            if stats is not None:
                hosted.ingest = stats.as_dict()
        return {"result": info}

    def _op_query(
        self, request: Request, hosted: _HostedDataset
    ) -> dict[str, Any]:
        """Plan and (unless ``explain``) execute one ``MINE`` statement.

        The protocol layer already parsed the statement (the AST rides
        in ``params``); here the hosted dataset is measured, the planner
        picks the engine, and the plan's config runs through the same
        shared :class:`Miner` every other op uses — so results stay
        byte-identical to a direct run of the planned config.
        """
        # Lazy, like the data layer: the serve core stays importable
        # without dragging the query front-end in for servers that
        # never see a ``query`` request.
        from repro.query import build_document, dataset_stats, plan_query
        from repro.query.plan import render_plan

        ast = request.params["ast"]
        cache_info_before = hosted.miner.cache_info()
        with hosted.lock:
            stats = dataset_stats(
                hosted.database,
                name=hosted.name,
                state_dir=ast.option("state"),
            )
            plan = plan_query(ast, stats)
            if request.params.get("explain"):
                return {"explain": render_plan(plan), "engine": plan.engine}
            # Spill pinning happens *after* the explain short-circuit so
            # rendered plans never leak the service's temp directories.
            plan.config = self._pin_spill_dir(plan.config)
            result = hosted.miner.frequent_itemsets(plan.config)
        if hosted.encoded_dataset is not None:
            decoded = result
        else:
            decoded = self._decoded(hosted, result)
        rules = None
        if ast.target == "rules":
            rules = generate_rules(decoded, plan.config.confidence)
        document = build_document(plan, decoded, rules)
        with self._lock:
            self._by_engine[plan.engine] += 1
        document["server"] = {
            "engine": plan.engine,
            "cache_hit": (
                hosted.miner.cache_info()["hits"]
                > cache_info_before["hits"]
            ),
        }
        return document

    _op_refresh = _op_mine

    # -- shared mining plumbing -----------------------------------------------------

    def _pin_state_dir(self, name: str, config: MiningConfig) -> MiningConfig:
        """Default ``refresh`` runs to the service's per-dataset state dir.

        A client-chosen ``state_dir`` always wins; the service-owned
        default lives under a private root removed at drain.
        """
        if config.state_dir is not None:
            return config
        return config.replace(state_dir=str(self._state_root / name))

    def _pin_spill_dir(self, config: MiningConfig) -> MiningConfig:
        """Point every engine that spills at the service's spill root.

        Uses *namespaced* options so engines without a ``spill_dir``
        option never see the key, and never overrides a spill_dir the
        client chose explicitly (plain or namespaced).
        """
        if "spill_dir" in config.options:
            return config
        options = dict(config.options)
        changed = False
        for engine in _spill_engines():
            key = f"{engine}.spill_dir"
            if key not in options:
                options[key] = str(self._spill_root)
                changed = True
        return config.replace(options=options) if changed else config

    def _decoded(
        self, hosted: _HostedDataset, result: MiningResult
    ) -> MiningResult:
        """The label-decoded view of an (encoded-item) mining result.

        Cached per result object so post-hoc queries against a cached
        run never pay the decode twice; bounded alongside the miner's
        result cache (the strong result reference keeps ``id(result)``
        stable while the entry lives).
        """
        with self._lock:
            entry = hosted.decoded.get(id(result))
            if entry is not None:
                hosted.decoded.move_to_end(id(result))
                return entry[1]
        decode = hosted.catalog.label_of
        decoded = MiningResult(
            algorithm=result.algorithm,
            num_transactions=result.num_transactions,
            minimum_support=result.minimum_support,
            support_threshold=result.support_threshold,
            count_relations={
                k: {
                    tuple(decode(item) for item in pattern): count
                    for pattern, count in relation.items()
                }
                for k, relation in result.count_relations.items()
            },
            unfiltered_item_counts={
                decode(item): count
                for item, count in result.unfiltered_item_counts.items()
            },
            iterations=list(result.iterations),
            elapsed_seconds=result.elapsed_seconds,
        )
        with self._lock:
            hosted.decoded[id(result)] = (result, decoded)
            bound = max(1, hosted.miner.cache_info()["max_entries"])
            while len(hosted.decoded) > bound:
                hosted.decoded.popitem(last=False)
        return decoded

    # -- control plane --------------------------------------------------------------

    def _ping(self) -> dict[str, Any]:
        from repro import __version__

        return {
            "status": "draining" if self._scheduler.draining else "ok",
            "version": __version__,
            "datasets": list(self.dataset_names()),
        }

    def stats(self) -> dict[str, Any]:
        """Introspection: queue, caches, pools, per-engine traffic."""
        from repro import __version__

        cache_totals = {"entries": 0, "hits": 0, "misses": 0, "evictions": 0}
        per_dataset: dict[str, Any] = {}
        for name, hosted in sorted(self._datasets.items()):
            info = hosted.miner.cache_info()
            for key in cache_totals:
                cache_totals[key] += info[key]
            current_catalog = (
                hosted.encoded_dataset.catalog
                if hosted.encoded_dataset is not None
                else hosted.catalog
            )
            per_dataset[name] = {
                "transactions": hosted.database.num_transactions,
                "sales_rows": hosted.database.num_sales_rows,
                "distinct_items": len(current_catalog),
                # The append counter result caches key on; None for
                # whole-file registrations (which cannot grow).
                "generation": getattr(
                    hosted.encoded_dataset, "generation", None
                ),
                "cache": info,
                "ingest": hosted.ingest,
            }
        lookups = cache_totals["hits"] + cache_totals["misses"]
        with self._lock:
            by_op = dict(sorted(self._by_op.items()))
            by_engine = dict(sorted(self._by_engine.items()))
        return {
            "server": {
                "version": __version__,
                "uptime_seconds": round(
                    time.monotonic() - self._started_monotonic, 3
                ),
                "datasets": per_dataset,
                "engines": list(available_engines()),
            },
            "queue": self._scheduler.stats(),
            "requests": {
                "total": sum(by_op.values()),
                "by_op": by_op,
                "by_engine": by_engine,
            },
            "cache": {
                **cache_totals,
                "hit_rate": (
                    round(cache_totals["hits"] / lookups, 4)
                    if lookups
                    else None
                ),
            },
            "pools": pool_stats(),
        }

    def drain(self) -> dict[str, Any]:
        """Graceful shutdown: finish in-flight work, release every pool.

        Admission closes immediately (new submissions get the typed
        draining error); queued and in-flight requests complete and
        their waiting clients are answered; the shared worker pools are
        stopped; the spill root is audited (the report carries the
        leftover file count — zero unless an engine leaked) and, when
        service-owned, removed.  Idempotent: repeat drains return the
        first report.
        """
        with self._drain_lock:
            if self._drain_report is not None:
                return self._drain_report
            self._scheduler.drain()
            shutdown_worker_pools()
            leftover = 0
            if self._spill_root.exists():
                leftover = sum(
                    1
                    for path in self._spill_root.rglob("*")
                    if path.is_file()
                )
                if self._owns_spill_root:
                    shutil.rmtree(self._spill_root, ignore_errors=True)
            # Incremental state is expected to persist between requests;
            # it is service-owned and simply removed, never counted as
            # a leak.
            shutil.rmtree(self._state_root, ignore_errors=True)
            self._drain_report = {
                "drained": True,
                "queue": self._scheduler.stats(),
                "leftover_spill_files": leftover,
                "pools": pool_stats(),
            }
            return self._drain_report

    close = drain

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = ", ".join(self.dataset_names())
        return f"MiningService(datasets=[{names}])"
