"""The :class:`Miner` facade — a typed mining session over one database.

This is the front door of the package::

    from repro import Miner, MiningConfig

    miner = Miner(database)
    config = MiningConfig(support=0.30, confidence=0.70)
    result = miner.frequent_itemsets(config)   # MiningResult
    rules = miner.rules(config)                # list[Rule]
    print(miner.explain(config))               # the resolved plan

A ``Miner`` resolves the engine through :mod:`repro.registry`, rejects
unknown engine options *before* mining, times every run, and caches
results per config so the selective post-hoc queries — ``patterns()``,
``support_of()``, ``rules_about()`` — answer from the cached
:class:`~repro.core.result.MiningResult` instead of re-mining.  That
query-shaped access to an already-mined result echoes the selective
rule generation of Hahsler et al.: mine once, then ask narrow questions.
"""

from __future__ import annotations

import inspect
import threading
import time
from collections import OrderedDict
from collections.abc import Iterable, Iterator

from repro.config import MiningConfig, _validate_confidence
from repro.core.result import MiningResult, Pattern
from repro.core.rules import Rule, generate_rules
from repro.core.transactions import Item, TransactionDatabase
from repro.errors import EngineOptionError, InvalidConfigError, ReproError
from repro.registry import EngineSpec, get_engine

__all__ = ["Miner"]

#: Default result-cache bound; a session rarely sweeps more configs.
_CACHE_LIMIT = 8


class Miner:
    """A mining session bound to one :class:`TransactionDatabase`.

    Parameters
    ----------
    database:
        The transactions every call of this session mines — a
        :class:`TransactionDatabase`, or a stream-encoded
        :class:`~repro.data.ingest.EncodedDataset` (engines without the
        ``streaming_ingest`` capability transparently mine its
        materialized decoded form; see :meth:`EngineSpec.run`).
    default_config:
        Config used when a call omits one (default: ``MiningConfig()``,
        i.e. :data:`~repro.config.DEFAULT_ENGINE` at 1% support).
    cache_entries:
        Bound of the per-config result cache (LRU eviction).  ``0``
        disables caching entirely — every call re-mines, though
        :attr:`last_result` still tracks the latest run.
    """

    def __init__(
        self,
        database: TransactionDatabase,
        *,
        default_config: MiningConfig | None = None,
        cache_entries: int = _CACHE_LIMIT,
    ) -> None:
        if (
            isinstance(cache_entries, bool)
            or not isinstance(cache_entries, int)
            or cache_entries < 0
        ):
            raise InvalidConfigError(
                f"cache_entries must be an integer >= 0; got {cache_entries!r}"
            )
        self._database = database
        self._default_config = default_config or MiningConfig()
        # LRU (least-recently-used first) cache of mined results, keyed
        # by the config fields that determine the pattern set.
        self._results: OrderedDict[tuple, MiningResult] = OrderedDict()
        self._cache_entries = cache_entries
        self._cache_lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._last_result: MiningResult | None = None

    # -- config plumbing ----------------------------------------------------------

    @property
    def database(self) -> TransactionDatabase:
        return self._database

    @property
    def default_config(self) -> MiningConfig:
        return self._default_config

    def _resolve_config(
        self, config: MiningConfig | None, overrides: dict[str, object]
    ) -> MiningConfig:
        base = config if config is not None else self._default_config
        if not isinstance(base, MiningConfig):
            raise InvalidConfigError(
                f"expected a MiningConfig; got {base!r} "
                "(build one with MiningConfig(support=...))"
            )
        return base.replace(**overrides) if overrides else base

    def _pattern_key(self, config: MiningConfig) -> tuple:
        """A hashable key of the fields that determine the pattern set.

        Confidence is excluded (it only shapes rule generation), as are
        the ingest fields ``input_format``/``chunk_rows`` (they shape
        how a file is decoded, never the pattern set) and ``state_dir``
        (delta-merged results are byte-identical to from-scratch ones);
        the support *type* is included (``support=1`` means one absolute
        transaction; ``support=1.0`` means everything — ``==`` on the
        config would conflate them), and option values are keyed by
        ``repr`` so unhashable values (lists, dicts) never break caching.
        The dataset *generation* leads the key: an
        :meth:`~repro.data.ingest.EncodedDataset.append_chunks` bumps
        it, so every pre-append entry goes stale at once and an appended
        dataset can never be served pre-append patterns.
        """
        return (
            getattr(self._database, "generation", None),
            config.support,
            config.is_absolute_support,
            config.algorithm,
            config.max_length,
            tuple(sorted((k, repr(v)) for k, v in config.options.items())),
        )

    # -- mining -------------------------------------------------------------------

    def frequent_itemsets(
        self, config: MiningConfig | None = None, **overrides: object
    ) -> MiningResult:
        """Mine (or return the cached) frequent itemsets under ``config``.

        Keyword overrides refine the config for this call, e.g.
        ``miner.frequent_itemsets(algorithm="apriori", max_length=2)``.

        Raises
        ------
        UnknownAlgorithmError
            ``config.algorithm`` is not registered.
        EngineOptionError
            ``config.options`` contains an option the engine rejects
            (raised before any mining work happens).
        """
        config = self._resolve_config(config, overrides)
        key = self._pattern_key(config)
        with self._cache_lock:
            cached = self._results.get(key)
            if cached is not None:
                self._hits += 1
                self._results.move_to_end(key)
                self._last_result = cached
                return cached
            self._misses += 1
        spec = get_engine(config.algorithm)
        options = config.options_for(spec.name)
        if config.state_dir is not None and spec.incremental:
            # The config-level state handle only reaches engines that
            # maintain state; everything else would reject the option.
            options.setdefault("state_dir", config.state_dir)
        started = time.perf_counter()
        result = spec.run(
            self._database,
            config.support,
            max_length=config.max_length,
            options=options,
        )
        elapsed = time.perf_counter() - started
        result.extra.setdefault("session", {}).update(
            {"engine": spec.name, "api_elapsed_seconds": elapsed}
        )
        with self._cache_lock:
            self._last_result = result
            if self._cache_entries > 0:
                self._results[key] = result
                self._results.move_to_end(key)
                while len(self._results) > self._cache_entries:
                    self._results.popitem(last=False)
                    self._evictions += 1
        return result

    def rules(
        self, config: MiningConfig | None = None, **overrides: object
    ) -> list[Rule]:
        """Mine (or reuse) patterns under ``config`` and generate its rules.

        Requires ``config.confidence`` to be set.
        """
        config = self._resolve_config(config, overrides)
        if config.confidence is None:
            raise InvalidConfigError(
                "rule generation needs a confidence threshold; "
                "set MiningConfig(confidence=...)"
            )
        result = self.frequent_itemsets(config)
        return generate_rules(result, config.confidence)

    def mine_delta(
        self, config: MiningConfig | None = None, **overrides: object
    ) -> MiningResult:
        """Re-mine after appends, counting only the delta where possible.

        Resolves ``config`` like :meth:`frequent_itemsets`, then ensures
        the run goes through an ``incremental``-capable engine (a
        non-incremental ``algorithm`` is switched to
        ``"setm-incremental"`` — results are byte-identical by the
        conformance contract) with the config's ``state_dir``.  On that
        switch, each plain option the incremental engine does not take
        (``setm-columnar``'s ``memory_budget_bytes`` or ``workers``, say)
        moves into the namespace of the engine the caller named
        (``"<engine>.<option>"``), after being checked against that
        engine, so it neither reaches nor fails the incremental run.  The
        first call over a dataset performs a full mine that materializes
        the state; every call after an
        :meth:`~repro.data.ingest.EncodedDataset.append_chunks` counts
        only the appended transactions and merges
        (``result.extra["incremental"]`` reports delta rows, state hits,
        and the targeted-recount fraction).  The result cache keys on
        the dataset generation, so served entries are always post-append.

        Raises
        ------
        InvalidConfigError
            No ``state_dir`` is configured — delta mining needs
            somewhere to keep the materialized counts.
        EngineOptionError
            A plain option is accepted by neither the named engine nor
            the incremental one.
        StateMismatchError
            The saved state does not cover this dataset/config.
        StateVersionError
            The saved state was written by a different format version.
        """
        config = self._resolve_config(config, overrides)
        if config.state_dir is None:
            raise InvalidConfigError(
                "mine_delta needs MiningConfig(state_dir=...) to hold the "
                "materialized count state between runs"
            )
        spec = get_engine(config.algorithm)
        if not spec.incremental:
            incremental = get_engine("setm-incremental")
            options: dict[str, object] = {}
            moved = set()
            for key, value in config.options.items():
                if "." in key or key in incremental.accepted_options:
                    options[key] = value
                else:
                    moved.add(key)
                    # A namespaced entry already given wins, as in
                    # MiningConfig.options_for.
                    options.setdefault(f"{spec.name}.{key}", value)
            unknown = moved - spec.accepted_options
            if unknown:
                raise EngineOptionError(
                    spec.name, unknown, spec.accepted_options
                )
            config = config.replace(
                algorithm=incremental.name, options=options
            )
        return self.frequent_itemsets(config)

    def explain(self, config: MiningConfig | None = None, **overrides: object) -> str:
        """Describe how ``config`` would run — without mining anything.

        Resolves the engine, validates the options, and reports the
        capability flags (``out of core`` and ``parallel`` read off the
        options the engine accepts) and the absolute support threshold
        the run would apply.  Raises the same errors
        ``frequent_itemsets`` would, so ``explain`` doubles as a dry-run
        validator.
        """
        config = self._resolve_config(config, overrides)
        spec = get_engine(config.algorithm)
        options = config.options_for(spec.name)
        spec.validate_options(options, max_length=config.max_length)

        n = self._database.num_transactions
        threshold = config.support_threshold(n)
        support = (
            f"{config.support} transactions (absolute)"
            if config.is_absolute_support
            else f"{config.support:g} of {n:,} transactions"
        )
        accepted = ", ".join(sorted(spec.accepted_options)) or "(none)"
        lines = [
            f"engine: {spec.name}"
            + (f" — {spec.description}" if spec.description else ""),
            f"  supports max_length: {'yes' if spec.supports_max_length else 'no'}",
            f"  representation: {spec.representation}",
            "  reports page accesses: "
            + ("yes" if spec.reports_page_accesses else "no"),
            "  out of core: "
            + (
                "yes (honours memory_budget_bytes)"
                if "memory_budget_bytes" in spec.accepted_options
                else "no"
            ),
            "  parallel: "
            + (
                f"yes (workers={self._resolve_workers(spec, options)})"
                if "workers" in spec.accepted_options
                else "no"
            ),
            "  streaming ingest: "
            + (
                "yes (mines stream-encoded datasets directly)"
                if spec.streaming_ingest
                else "no (streamed inputs are materialized first)"
            ),
            "  incremental: "
            + (
                "yes (state_dir enables delta-only re-mining)"
                if spec.incremental
                else "no"
            ),
            f"  accepted options: {accepted}",
            f"minimum support: {support} -> threshold {threshold}",
            "minimum confidence: "
            + (
                f"{config.confidence:g}"
                if config.confidence is not None
                else "(not set — patterns only)"
            ),
            "max pattern length: "
            + (str(config.max_length) if config.max_length else "unbounded"),
            "options: "
            + (
                ", ".join(f"{k}={v!r}" for k, v in sorted(options.items()))
                or "(none)"
            ),
            "cached: "
            + ("yes" if self._find_cached(config) is not None else "no"),
        ]
        return "\n".join(lines)

    @staticmethod
    def _resolve_workers(spec: EngineSpec, options: dict[str, object]) -> object:
        """The worker count the engine would actually use.

        The engine's own ``workers`` default (an alias's included) when
        the options name none; ``None`` means the CPU count.
        """
        if "workers" in options:
            workers = options["workers"]
        else:
            default = inspect.signature(spec.runner).parameters.get("workers")
            workers = None if default is None else default.default
        if workers is not None:
            return workers
        # Imported lazily: explain() must not drag the pool module in
        # for sessions that never touch a pool.
        from repro.core.setm_parallel import default_workers

        return default_workers()

    # -- post-hoc queries over the cached result ----------------------------------

    def _find_cached(self, config: MiningConfig | None) -> MiningResult | None:
        with self._cache_lock:
            if config is None:
                return self._last_result
            return self._results.get(self._pattern_key(config))

    @property
    def last_result(self) -> MiningResult | None:
        """The most recently mined (or cache-served) result, if any."""
        return self._last_result

    def _require_result(self) -> MiningResult:
        result = self.last_result
        if result is None:
            raise ReproError(
                "no mining run cached yet; call frequent_itemsets() first"
            )
        return result

    def patterns(
        self,
        *,
        length: int | None = None,
        containing: Iterable[Item] | None = None,
        min_count: int | None = None,
    ) -> Iterator[tuple[Pattern, int]]:
        """Selectively iterate the cached patterns.

        Parameters
        ----------
        length:
            Only patterns of exactly this length.
        containing:
            Only patterns containing every one of these items.
        min_count:
            Only patterns with at least this absolute support count.
        """
        result = self._require_result()
        wanted = set(containing) if containing is not None else None
        for pattern, count in result.iter_patterns():
            if length is not None and len(pattern) != length:
                continue
            if wanted is not None and not wanted.issubset(pattern):
                continue
            if min_count is not None and count < min_count:
                continue
            yield pattern, count

    def support_of(self, *items: Item) -> float | None:
        """Fractional support of an itemset in the cached result.

        Items may be given in any order; returns ``None`` when the
        itemset is not frequent at the mined threshold.
        """
        return self._require_result().support_fraction(tuple(items))

    def rules_about(
        self,
        item: Item,
        *,
        confidence: float | None = None,
    ) -> list[Rule]:
        """Rules from the cached result that mention ``item`` on either side.

        ``confidence`` defaults to the session default config's value and
        must be set one way or the other.
        """
        if confidence is None:
            confidence = self._default_config.confidence
        if confidence is None:
            raise InvalidConfigError(
                "rules_about needs a confidence threshold; pass confidence=..."
            )
        _validate_confidence(confidence)
        result = self._require_result()
        return [
            rule
            for rule in generate_rules(result, confidence)
            if item in rule.pattern
        ]

    # -- introspection ------------------------------------------------------------

    def engine_spec(self, config: MiningConfig | None = None) -> EngineSpec:
        """The :class:`EngineSpec` that ``config`` resolves to."""
        config = self._resolve_config(config, {})
        return get_engine(config.algorithm)

    def cache_info(self) -> dict[str, object]:
        """A snapshot of the result cache: bound, fill, and hit counters.

        ``hit_rate`` is ``hits / (hits + misses)`` rounded to 4 places,
        or ``None`` before the first lookup.
        """
        with self._cache_lock:
            lookups = self._hits + self._misses
            return {
                "entries": len(self._results),
                "max_entries": self._cache_entries,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "hit_rate": (
                    round(self._hits / lookups, 4) if lookups else None
                ),
            }

    def __repr__(self) -> str:
        return (
            f"Miner(transactions={self._database.num_transactions}, "
            f"cached_runs={len(self._results)})"
        )
