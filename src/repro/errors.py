"""Structured errors for the mining API.

Every error the public API raises deliberately derives from
:class:`ReproError`, so callers can catch the whole family with one
``except`` clause.  Each class *also* inherits the closest stdlib
exception (``ValueError`` for bad parameters, ``TypeError`` for bad
engine options), so code written against the pre-1.1 API — which raised
plain ``ValueError`` — keeps working unchanged.

Hierarchy::

    ReproError (Exception)
    ├── InvalidConfigError (+ ValueError)     bad MiningConfig field
    │   └── InvalidSupportError               bad support / confidence value
    ├── UnknownAlgorithmError (+ ValueError)  name not in the registry
    ├── EngineOptionError (+ TypeError)       option the engine rejects
    ├── IngestError (+ ValueError)            malformed or unsorted input file
    ├── StateError                            incremental mining state
    │   ├── StateVersionError (+ ValueError)  on-disk state version skew
    │   └── StateMismatchError (+ ValueError) state does not cover the run
    ├── QueryError                            MINE query front-end
    │   ├── QueryParseError (+ ValueError)    syntax/semantic error with position
    │   └── PlanError (+ ValueError)          no executable plan for the query
    └── ServeError                            mining-as-a-service layer
        ├── ProtocolError (+ ValueError)      malformed serve request
        ├── UnknownDatasetError (+ LookupError)  dataset not hosted
        ├── ServerBusyError                   request queue at capacity
        ├── ServerDrainingError               server is shutting down
        ├── RequestTimeoutError (+ TimeoutError)  per-request deadline hit
        └── WorkerCrashError                  work lost to a crashed worker

The serve family carries a ``status`` attribute — the HTTP-ish status
code the protocol layer answers with — so the transport never has to
maintain its own exception-to-status table.
"""

from __future__ import annotations

from collections.abc import Iterable

__all__ = [
    "EngineOptionError",
    "IngestError",
    "InvalidConfigError",
    "InvalidSupportError",
    "PlanError",
    "ProtocolError",
    "QueryError",
    "QueryParseError",
    "ReproError",
    "RequestTimeoutError",
    "ServeError",
    "ServerBusyError",
    "ServerDrainingError",
    "StateError",
    "StateMismatchError",
    "StateVersionError",
    "UnknownAlgorithmError",
    "UnknownDatasetError",
    "WorkerCrashError",
]


class ReproError(Exception):
    """Base class of every error raised by the repro mining API."""


class InvalidConfigError(ReproError, ValueError):
    """A :class:`~repro.config.MiningConfig` field failed validation."""


class InvalidSupportError(InvalidConfigError):
    """Minimum support or confidence is outside its legal range.

    Attributes
    ----------
    parameter:
        ``"minimum_support"`` or ``"minimum_confidence"``.
    value:
        The offending value, verbatim.
    """

    def __init__(self, parameter: str, value: object, requirement: str) -> None:
        self.parameter = parameter
        self.value = value
        super().__init__(f"{parameter} must be {requirement}; got {value!r}")


class IngestError(ReproError, ValueError):
    """Ingest rejected the input (see :mod:`repro.data.ingest`).

    Raised for malformed input — a bad header, a short row or a
    ``trans_id`` that is not an integer (these name ``path:line``), or
    item labels of types that cannot be ordered together — and when a
    chunked source violates the streaming contract: rows not grouped by
    ascending ``trans_id``, or a ``trans_id`` group reappearing after it
    was flushed.  The whole-file readers tolerate unsorted input (they
    buffer everything and can regroup) but a bounded-memory single pass
    cannot, so those messages name the offending ``trans_id`` and point
    at the whole-file path as the fallback.
    """


class UnknownAlgorithmError(ReproError, ValueError):
    """The requested algorithm name is not in the engine registry.

    Attributes
    ----------
    algorithm:
        The unknown name as requested.
    known:
        The registered engine names at the time of the lookup.
    """

    def __init__(self, algorithm: str, known: Iterable[str]) -> None:
        self.algorithm = algorithm
        self.known = tuple(sorted(known))
        choices = ", ".join(self.known)
        super().__init__(
            f"unknown algorithm {algorithm!r}; choose from: {choices}"
        )


class EngineOptionError(ReproError, TypeError):
    """An engine was handed an option it does not accept.

    Raised *before* the engine runs, so a typo never costs a mining pass.

    Attributes
    ----------
    engine:
        Name of the engine that rejected the options.
    options:
        The rejected option names.
    accepted:
        The option names the engine does accept.
    """

    def __init__(
        self,
        engine: str,
        options: Iterable[str],
        accepted: Iterable[str],
    ) -> None:
        self.engine = engine
        self.options = tuple(sorted(options))
        self.accepted = tuple(sorted(accepted))
        rejected = ", ".join(self.options)
        legal = ", ".join(self.accepted) or "(none)"
        super().__init__(
            f"engine {engine!r} does not accept option(s) {rejected}; "
            f"accepted options: {legal}"
        )


class StateError(ReproError):
    """A failure in the materialized incremental-mining state layer
    (:mod:`repro.core.incremental`)."""


class StateVersionError(StateError, ValueError):
    """A saved :class:`~repro.core.incremental.MiningState` carried an
    unknown on-disk format version.

    Raised *instead of* a garbled load when state written by a different
    library version is opened — the reader refuses outright and names
    both versions, so the operator sees a deployment-skew problem (clear
    or rebuild the state directory), not a corrupt-data one.

    Attributes
    ----------
    expected:
        The state format version this process writes and reads.
    found:
        The version carried by the rejected state (``None`` when the
        manifest predates versioning entirely).
    """

    def __init__(self, expected: int, found: object) -> None:
        self.expected = expected
        self.found = found
        origin = (
            "a pre-versioning release"
            if found is None
            else f"state version {found!r}"
        )
        super().__init__(
            f"mining state from {origin} cannot be read by this process "
            f"(expects version {expected}); clear the state directory to "
            "rebuild it from scratch"
        )


class StateMismatchError(StateError, ValueError):
    """Saved mining state does not cover the requested delta run.

    Raised when the dataset is not an append-extension of the dataset
    the state was mined from (fewer transactions, a diverging base
    prefix, items missing from the catalog) or when the run's config
    identity (support threshold semantics, ``max_length``) differs from
    the one the state was built under.  Delta counts merged across
    mismatched runs would be silently wrong, so the engine refuses;
    clearing the state directory forces a full re-mine that rebuilds it.
    """


class QueryError(ReproError):
    """A failure in the ``MINE`` query front-end (:mod:`repro.query`).

    Both concrete subclasses carry ``status = 400``: a query that does
    not parse or cannot be planned is always the *request's* fault, so
    the serve layer answers it as a client error.
    """

    status = 400


class QueryParseError(QueryError, ValueError):
    """A ``MINE`` query failed to lex, parse, or validate.

    Every parser-side failure — an unexpected character, a misplaced
    token, a semantic violation like ``lhs HAS`` on an ``ITEMSETS``
    query — raises exactly this class, carrying the offending position,
    so callers (and the grammar fuzzer) never see a bare exception.

    Attributes
    ----------
    position:
        0-based character offset of the offending token in the query
        text (``None`` only when the query text itself was missing).
    line, column:
        1-based position of the same spot, as rendered in the message.
    found:
        What the parser actually saw there, as a short display string
        (e.g. ``"'WHERE'"`` or ``"end of query"``).
    """

    def __init__(
        self,
        message: str,
        *,
        position: int | None = None,
        line: int | None = None,
        column: int | None = None,
        found: str | None = None,
    ) -> None:
        self.position = position
        self.line = line
        self.column = column
        self.found = found
        where = (
            f" at line {line}, column {column}"
            if line is not None and column is not None
            else ""
        )
        super().__init__(f"{message}{where}")


class PlanError(QueryError, ValueError):
    """A parsed ``MINE`` query admits no executable plan.

    Raised by the planner — never mid-mine — when the query names an
    unknown dataset or engine.  The message names what was asked for
    and what the registry offers.
    """


class ServeError(ReproError):
    """Base class of mining-as-a-service errors (:mod:`repro.serve`).

    Attributes
    ----------
    status:
        The HTTP status code the protocol layer maps this error to.
    """

    status = 500


class ProtocolError(ServeError, ValueError):
    """A serve request was structurally malformed (not a mining failure)."""

    status = 400


class UnknownDatasetError(ServeError, LookupError):
    """The requested dataset is not hosted by this server.

    Attributes
    ----------
    dataset:
        The unknown dataset name as requested.
    known:
        The dataset names the server does host.
    """

    status = 404

    def __init__(self, dataset: str, known: Iterable[str] = ()) -> None:
        self.dataset = dataset
        self.known = tuple(sorted(known))
        hosted = ", ".join(self.known) or "(none)"
        super().__init__(
            f"unknown dataset {dataset!r}; hosted datasets: {hosted}"
        )


class ServerBusyError(ServeError):
    """The bounded request queue is full — admission control rejected.

    This is back-pressure, not failure: the client should retry later
    (or against a replica).  ``queue_depth`` is the configured bound the
    request bounced off.
    """

    status = 429

    def __init__(
        self, message: str | None = None, *, queue_depth: int | None = None
    ) -> None:
        self.queue_depth = queue_depth
        if message is None:
            bound = "" if queue_depth is None else f" (depth {queue_depth})"
            message = f"server busy: request queue is full{bound}"
        super().__init__(message)


class ServerDrainingError(ServeError):
    """The server is draining: finishing in-flight work, accepting nothing."""

    status = 503

    def __init__(self, message: str | None = None) -> None:
        super().__init__(
            message or "server is draining and not accepting new requests"
        )


class RequestTimeoutError(ServeError, TimeoutError):
    """A request exceeded its (per-request or server-default) deadline."""

    status = 504

    def __init__(
        self,
        message: str | None = None,
        *,
        timeout_seconds: float | None = None,
    ) -> None:
        self.timeout_seconds = timeout_seconds
        if message is None:
            deadline = (
                "" if timeout_seconds is None else f" of {timeout_seconds:g}s"
            )
            message = f"request exceeded its deadline{deadline}"
        super().__init__(message)


class WorkerCrashError(ServeError):
    """A request was lost to crashed workers even after requeueing.

    Attributes
    ----------
    attempts:
        How many executions were attempted before giving up.
    """

    status = 500

    def __init__(
        self, message: str | None = None, *, attempts: int | None = None
    ) -> None:
        self.attempts = attempts
        if message is None:
            tries = "" if attempts is None else f" after {attempts} attempts"
            message = f"request failed on crashed workers{tries}"
        super().__init__(message)
