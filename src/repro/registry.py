"""Capability-aware engine registry.

Every mining engine in this package registers itself with
:func:`register_engine` at import time, carrying not just a callable but
*capability metadata*: which options it accepts, whether it honours
``max_length``, whether it reports page accesses.  The :class:`Miner`
facade resolves names here and rejects unknown options **before** the
engine runs — a typo costs an exception, never a mining pass.

Registering a new engine takes one decorator::

    from repro.registry import register_engine

    @register_engine(
        "my-engine",
        description="frequent patterns via my clever method",
        accepted_options=("fanout",),
    )
    def my_engine(database, minimum_support, *, max_length=None, fanout=4):
        ...
        return MiningResult(...)

The engine contract is unchanged from the original flat API: a callable
``(database, minimum_support, **options) -> MiningResult`` whose result
agrees with every other engine (the differential tests hold all
registered engines to ``bruteforce``'s patterns).
"""

from __future__ import annotations

import importlib
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import (
    EngineOptionError,
    InvalidConfigError,
    UnknownAlgorithmError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.result import MiningResult

__all__ = [
    "EngineSpec",
    "available_engines",
    "engine_specs",
    "find_engine",
    "get_engine",
    "register_engine",
    "unregister_engine",
]

#: Modules whose import registers the built-in engines.  This is the
#: only place the built-ins are listed; each module carries its own
#: capability metadata at the ``@register_engine`` site.
_BUILTIN_ENGINE_MODULES = (
    "repro.core.setm",
    "repro.core.setm_columnar",
    "repro.core.setm_columnar_disk",
    "repro.core.setm_spill_parallel",
    "repro.core.setm_disk",
    "repro.core.setm_sql",
    "repro.core.nested_loop",
    "repro.sqlbridge.sqlite_miner",
    "repro.baselines.apriori",
    "repro.baselines.ais",
    "repro.baselines.bruteforce",
    "repro.core.incremental",
)

_REGISTRY: dict[str, "EngineSpec"] = {}
_builtins_loaded = False
_builtins_loading = False


@dataclass(frozen=True)
class EngineSpec:
    """One registered engine: its callable plus capability metadata.

    Attributes
    ----------
    name:
        Registry key, e.g. ``"setm-disk"``.
    runner:
        The engine callable ``(database, minimum_support, **options)``.
    description:
        One-line description shown by ``Miner.explain`` and the CLI.
    supports_max_length:
        Whether the engine honours a ``max_length`` pattern-length cap.
    reports_page_accesses:
        Whether ``result.extra`` carries measured page-access counts
        (the disk engines do; the in-memory ones cannot).
    representation:
        How the engine stores its ``R_k`` relations: ``"tuples"``
        (row-at-a-time Python tuples, the faithful default),
        ``"columnar"`` (dictionary-encoded ``array`` columns, see
        :mod:`repro.core.columns`), ``"paged"`` (the simulated-disk heap
        files), or ``"sql"`` (relations live in a SQL engine).
    out_of_core:
        Whether the engine bounds resident memory by spilling
        intermediate relations to disk (honours a
        ``memory_budget_bytes`` option), so it can mine databases whose
        ``R'_k`` relations exceed RAM.
    parallel:
        Whether the engine distributes iteration work across worker
        processes (honours a ``workers`` option, defaulting to
        ``os.cpu_count()``; ``workers=1`` forces serial execution).
    streaming_ingest:
        Whether the engine mines a stream-encoded
        :class:`~repro.data.ingest.EncodedDataset` directly (its kernel
        reads the encoded ``R_1`` columns without materializing Python
        transaction objects).  Engines without the capability still
        accept one — :meth:`run` transparently materializes the classic
        decoded :class:`TransactionDatabase` first — but lose the
        bounded-memory benefit.
    incremental:
        Whether the engine maintains a materialized
        :class:`~repro.core.incremental.MiningState` under appends
        (honours a ``state_dir`` option): with saved state covering a
        prefix of the dataset it counts **only the appended delta** and
        merges, byte-identical to a from-scratch mine.  Engines with
        this flag must appear in the conformance delta tier.
    accepted_options:
        Option names the engine accepts beyond the standard
        ``(database, minimum_support, max_length)``.
    """

    name: str
    runner: Callable[..., "MiningResult"]
    description: str = ""
    supports_max_length: bool = True
    reports_page_accesses: bool = False
    representation: str = "tuples"
    out_of_core: bool = False
    parallel: bool = False
    streaming_ingest: bool = False
    incremental: bool = False
    accepted_options: frozenset[str] = frozenset()

    def validate_options(
        self, options: Iterable[str], *, max_length: int | None = None
    ) -> None:
        """Raise :class:`EngineOptionError` for anything this engine rejects."""
        if max_length is not None and not self.supports_max_length:
            raise EngineOptionError(
                self.name, ["max_length"], self.accepted_options
            )
        unknown = set(options) - self.accepted_options
        if unknown:
            raise EngineOptionError(self.name, unknown, self.accepted_options)

    def run(
        self,
        database: object,
        support: float | int,
        *,
        max_length: int | None = None,
        options: dict[str, object] | None = None,
    ) -> "MiningResult":
        """Validate ``options`` against this spec, then run the engine.

        A stream-encoded :class:`~repro.data.ingest.EncodedDataset` is
        handed straight to engines carrying the ``streaming_ingest``
        capability; for every other engine it is first materialized back
        into the classic decoded :class:`TransactionDatabase`, so any
        engine mines a streamed file with identical results.
        """
        options = dict(options or {})
        self.validate_options(options, max_length=max_length)
        if max_length is not None:
            options["max_length"] = max_length
        if not self.streaming_ingest:
            # Imported lazily: the registry must stay importable without
            # dragging in the data layer (and its optional decoders).
            from repro.data.ingest import EncodedDataset

            if isinstance(database, EncodedDataset):
                database = database.database(decoded=True)
        return self.runner(database, support, **options)


def register_engine(
    name: str,
    *,
    description: str = "",
    supports_max_length: bool = True,
    reports_page_accesses: bool = False,
    representation: str = "tuples",
    out_of_core: bool = False,
    parallel: bool = False,
    streaming_ingest: bool = False,
    incremental: bool = False,
    accepted_options: Iterable[str] = (),
    replace: bool = False,
) -> Callable[[Callable[..., "MiningResult"]], Callable[..., "MiningResult"]]:
    """Decorator: register the decorated callable as engine ``name``.

    The callable is returned unchanged, so direct calls keep working.
    Re-registering an existing name raises :class:`InvalidConfigError`
    unless ``replace=True``.
    """

    def decorator(
        runner: Callable[..., "MiningResult"],
    ) -> Callable[..., "MiningResult"]:
        _register(
            EngineSpec(
                name=name,
                runner=runner,
                description=description,
                supports_max_length=supports_max_length,
                reports_page_accesses=reports_page_accesses,
                representation=representation,
                out_of_core=out_of_core,
                parallel=parallel,
                streaming_ingest=streaming_ingest,
                incremental=incremental,
                accepted_options=frozenset(accepted_options),
            ),
            replace=replace,
        )
        return runner

    return decorator


def _register(spec: EngineSpec, *, replace: bool = False) -> None:
    if not spec.name:
        raise InvalidConfigError("engine name must be a non-empty string")
    if not replace and spec.name in _REGISTRY:
        raise InvalidConfigError(
            f"engine {spec.name!r} is already registered; "
            "pass replace=True to override it"
        )
    _REGISTRY[spec.name] = spec


def unregister_engine(name: str) -> EngineSpec:
    """Remove and return engine ``name`` (plugins and tests clean up with this)."""
    _ensure_builtin_engines()
    try:
        return _REGISTRY.pop(name)
    except KeyError:
        raise UnknownAlgorithmError(name, _REGISTRY) from None


def find_engine(name: str) -> EngineSpec | None:
    """Engine ``name`` or ``None`` — the non-raising lookup."""
    _ensure_builtin_engines()
    return _REGISTRY.get(name)


def get_engine(name: str) -> EngineSpec:
    """Engine ``name`` or :class:`UnknownAlgorithmError` listing the registry."""
    spec = find_engine(name)
    if spec is None:
        raise UnknownAlgorithmError(name, _REGISTRY)
    return spec


def available_engines() -> tuple[str, ...]:
    """Sorted names of every registered engine."""
    _ensure_builtin_engines()
    return tuple(sorted(_REGISTRY))


def engine_specs() -> tuple[EngineSpec, ...]:
    """Every registered :class:`EngineSpec`, sorted by name."""
    _ensure_builtin_engines()
    return tuple(spec for _, spec in sorted(_REGISTRY.items()))


def _ensure_builtin_engines() -> None:
    """Import the built-in engine modules (each self-registers on import).

    The loaded flag is only set once every import succeeded, so a failed
    engine import surfaces on *every* registry call (and is retried)
    rather than leaving a silently half-populated registry.  The
    in-progress flag guards against recursion if an engine module ever
    queries the registry while being imported.
    """
    global _builtins_loaded, _builtins_loading
    if _builtins_loaded or _builtins_loading:
        return
    _builtins_loading = True
    try:
        for module in _BUILTIN_ENGINE_MODULES:
            importlib.import_module(module)
        _builtins_loaded = True
    finally:
        _builtins_loading = False
