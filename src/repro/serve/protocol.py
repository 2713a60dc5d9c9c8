"""The serve layer's JSON vocabulary: requests, payloads, error mapping.

One request is one JSON object with an ``op``:

=============  ==================================================  =========
op             fields                                              queued?
=============  ==================================================  =========
``ping``       —                                                   no
``stats``      —                                                   no
``drain``      —                                                   no
``mine``       ``dataset``, ``config``, ``include_rules``          yes
``patterns``   ``dataset``, ``config``, ``length``, ``containing``,
               ``min_count``                                       yes
``support_of`` ``dataset``, ``config``, ``items``                  yes
``rules_about``  ``dataset``, ``config``, ``item``, ``confidence``  yes
``append``     ``dataset``, ``path``, ``input_format``,
               ``chunk_rows``                                      yes
``refresh``    ``dataset``, ``config``, ``include_rules``          yes
``query``      ``query`` (a ``MINE`` statement), ``explain``       yes
=============  ==================================================  =========

``query`` carries a :mod:`repro.query` ``MINE`` statement instead of a
``config``: the statement itself names the hosted dataset (``FROM``)
and every threshold/option, and the server's planner picks the engine.
The statement is parsed *here*, so a malformed query fails typed
(:class:`~repro.errors.QueryParseError`, HTTP 400, with the token
position) before touching the queue; ``explain: true`` returns the
rendered plan without mining.

``append`` stream-encodes a *server-visible* file onto a hosted
dataset registered in stream-encoded form (bumping its generation);
``refresh`` re-mines through the incremental engine so only the
appended delta is counted (the response carries the
``extra["incremental"]`` telemetry).  Both are queued: appends
serialize against in-flight mining of the same dataset.

``config`` carries :class:`~repro.config.MiningConfig` fields verbatim
(``support``, ``confidence``, ``algorithm``, ``max_length``,
``options``, ``input_format``, ``chunk_rows``, ``state_dir``); every
queued op may also carry ``timeout`` seconds.

Responses are ``{"ok": true, "op": ..., ...}`` or ``{"ok": false,
"error": {...}}`` where the error payload names the *type* from the
:class:`~repro.errors.ReproError` hierarchy, so a client can re-raise
the same exception class the server raised
(:func:`rebuild_error` does exactly that).

:func:`result_payload` is deliberately **deterministic**: it contains
no timings and no host-dependent extras, so a response is byte-for-byte
identical to serializing a direct :class:`~repro.miner.Miner` run of
the same config — the serve conformance tests hold the server to that.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from typing import Any

from repro import errors as _errors
from repro.config import MiningConfig
from repro.core.result import MiningResult
from repro.core.rules import Rule
from repro.errors import ProtocolError, ReproError, ServeError

__all__ = [
    "QUEUED_OPS",
    "Request",
    "config_from_payload",
    "error_payload",
    "parse_request",
    "rebuild_error",
    "result_payload",
    "rules_payload",
]

#: Ops that go through the bounded queue (they may mine); the rest are
#: control-plane and answered inline even when the queue is saturated.
QUEUED_OPS = frozenset(
    {
        "mine",
        "patterns",
        "support_of",
        "rules_about",
        "append",
        "refresh",
        "query",
    }
)

#: Control-plane ops handled without touching the queue.
INLINE_OPS = frozenset({"ping", "stats", "drain"})

#: Keys a ``config`` payload may carry — exactly MiningConfig's fields.
_CONFIG_KEYS = frozenset(
    {
        "support",
        "confidence",
        "algorithm",
        "max_length",
        "options",
        "input_format",
        "chunk_rows",
        "state_dir",
    }
)

#: Per-op request keys beyond ``op`` itself.
_REQUEST_KEYS = {
    "ping": frozenset(),
    "stats": frozenset(),
    "drain": frozenset(),
    "mine": frozenset({"dataset", "config", "include_rules", "timeout"}),
    "patterns": frozenset(
        {"dataset", "config", "length", "containing", "min_count", "timeout"}
    ),
    "support_of": frozenset({"dataset", "config", "items", "timeout"}),
    "rules_about": frozenset(
        {"dataset", "config", "item", "confidence", "timeout"}
    ),
    "append": frozenset(
        {"dataset", "path", "input_format", "chunk_rows", "timeout"}
    ),
    "refresh": frozenset({"dataset", "config", "include_rules", "timeout"}),
    "query": frozenset({"query", "explain", "timeout"}),
}


class Request:
    """A parsed, structurally validated serve request."""

    __slots__ = ("op", "dataset", "config", "timeout", "params")

    def __init__(
        self,
        op: str,
        *,
        dataset: str | None = None,
        config: MiningConfig | None = None,
        timeout: float | None = None,
        params: dict[str, Any] | None = None,
    ) -> None:
        self.op = op
        self.dataset = dataset
        self.config = config
        self.timeout = timeout
        self.params = params or {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Request(op={self.op!r}, dataset={self.dataset!r})"


def config_from_payload(payload: object) -> MiningConfig:
    """A validated :class:`MiningConfig` from a request's ``config`` object.

    Missing fields take ``MiningConfig``'s defaults; unknown fields are
    a :class:`ProtocolError` (a typo must not silently mine the default
    config).  Field-level validation is ``MiningConfig``'s own.
    """
    if payload is None:
        payload = {}
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"config must be a JSON object; got {type(payload).__name__}"
        )
    unknown = set(payload) - _CONFIG_KEYS
    if unknown:
        raise ProtocolError(
            f"unknown config field(s) {', '.join(sorted(unknown))}; "
            f"accepted: {', '.join(sorted(_CONFIG_KEYS))}"
        )
    return MiningConfig(**payload)


def _parse_timeout(value: object) -> float | None:
    if value is None:
        return None
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or value <= 0
    ):
        raise ProtocolError(
            f"timeout must be a positive number of seconds; got {value!r}"
        )
    return float(value)


def parse_request(payload: object) -> Request:
    """Validate a decoded JSON request into a :class:`Request`.

    Structural problems (missing op, unknown op, unknown fields, bad
    field types) raise :class:`ProtocolError`; config-value problems
    raise the config's own :class:`~repro.errors.InvalidConfigError`
    family — both land in the same structured error envelope.
    """
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"request must be a JSON object; got {type(payload).__name__}"
        )
    op = payload.get("op")
    if op not in _REQUEST_KEYS:
        known = ", ".join(sorted(_REQUEST_KEYS))
        raise ProtocolError(
            f"unknown op {op!r}; expected one of: {known}"
        )
    unknown = set(payload) - _REQUEST_KEYS[op] - {"op"}
    if unknown:
        raise ProtocolError(
            f"op {op!r} does not accept field(s) "
            f"{', '.join(sorted(unknown))}"
        )
    if op in INLINE_OPS:
        return Request(op)
    if op == "query":
        return _parse_query_request(payload)

    dataset = payload.get("dataset")
    if not isinstance(dataset, str) or not dataset:
        raise ProtocolError(
            f"op {op!r} needs a non-empty string 'dataset'; "
            f"got {dataset!r}"
        )
    config = config_from_payload(payload.get("config"))
    timeout = _parse_timeout(payload.get("timeout"))
    params = {
        key: payload[key]
        for key in _REQUEST_KEYS[op] - {"dataset", "config", "timeout"}
        if key in payload
    }
    _validate_params(op, params)
    return Request(
        op, dataset=dataset, config=config, timeout=timeout, params=params
    )


def _parse_query_request(payload: dict[str, Any]) -> Request:
    """A ``query`` request: the MINE statement is parsed server-side.

    The routing dataset comes out of the statement's ``FROM`` clause,
    so a syntax error (typed, positioned) or a path-valued ``FROM``
    fails before the request ever reaches the queue.  The parsed AST
    rides along in ``params`` so the service does not re-parse.
    """
    text = payload.get("query")
    if not isinstance(text, str) or not text.strip():
        raise ProtocolError(
            f"op 'query' needs a non-empty string 'query'; got {text!r}"
        )
    explain = payload.get("explain")
    if explain is not None and not isinstance(explain, bool):
        raise ProtocolError(
            f"query 'explain' must be a boolean; got {explain!r}"
        )
    # Lazy: repro.query's executor imports this module for the payload
    # builders, so a top-level import here would be circular.
    from repro.query.parser import parse_query

    ast = parse_query(text)
    if ast.dataset_is_path:
        raise _errors.PlanError(
            f"FROM {ast.dataset!r} names a file path, but the server only "
            "serves hosted datasets; use a dataset name"
        )
    return Request(
        "query",
        dataset=ast.dataset,
        timeout=_parse_timeout(payload.get("timeout")),
        params={"query": text, "explain": bool(explain), "ast": ast},
    )


def _validate_params(op: str, params: dict[str, Any]) -> None:
    """Structural checks for the op-specific fields."""
    if op == "support_of":
        items = params.get("items")
        if not isinstance(items, list) or not items:
            raise ProtocolError(
                "support_of needs a non-empty 'items' list; "
                f"got {items!r}"
            )
    if op == "rules_about" and "item" not in params:
        raise ProtocolError("rules_about needs an 'item' field")
    if op == "patterns":
        length = params.get("length")
        if length is not None and (
            isinstance(length, bool)
            or not isinstance(length, int)
            or length < 1
        ):
            raise ProtocolError(
                f"patterns 'length' must be a positive integer; got {length!r}"
            )
        containing = params.get("containing")
        if containing is not None and not isinstance(containing, list):
            raise ProtocolError(
                f"patterns 'containing' must be a list; got {containing!r}"
            )
        min_count = params.get("min_count")
        if min_count is not None and (
            isinstance(min_count, bool) or not isinstance(min_count, int)
        ):
            raise ProtocolError(
                f"patterns 'min_count' must be an integer; got {min_count!r}"
            )
    if op in ("mine", "refresh"):
        include_rules = params.get("include_rules")
        if include_rules is not None and not isinstance(include_rules, bool):
            raise ProtocolError(
                f"{op} 'include_rules' must be a boolean; "
                f"got {include_rules!r}"
            )
    if op == "append":
        path = params.get("path")
        if not isinstance(path, str) or not path:
            raise ProtocolError(
                f"append needs a non-empty server-visible 'path'; got {path!r}"
            )
        input_format = params.get("input_format")
        if input_format is not None and not isinstance(input_format, str):
            raise ProtocolError(
                f"append 'input_format' must be a string; got {input_format!r}"
            )
        chunk_rows = params.get("chunk_rows")
        if chunk_rows is not None and (
            isinstance(chunk_rows, bool)
            or not isinstance(chunk_rows, int)
            or chunk_rows < 1
        ):
            raise ProtocolError(
                f"append 'chunk_rows' must be a positive integer; "
                f"got {chunk_rows!r}"
            )


# -- response payloads ---------------------------------------------------------------

def result_payload(result: MiningResult) -> dict[str, Any]:
    """The deterministic JSON document for one :class:`MiningResult`.

    Contains everything two runs of the same config must agree on —
    patterns, counts, iteration statistics — and *nothing* they may
    legitimately differ on (timings, memory, per-host extras).  The
    serve conformance tests compare these documents byte-for-byte
    against direct ``Miner`` runs.
    """
    return {
        "algorithm": result.algorithm,
        "num_transactions": result.num_transactions,
        "minimum_support": result.minimum_support,
        "support_threshold": result.support_threshold,
        "num_patterns": sum(
            len(rel) for rel in result.count_relations.values()
        ),
        "max_pattern_length": result.max_pattern_length,
        "patterns": [
            {"items": list(pattern), "count": count}
            for pattern, count in result.iter_patterns()
        ],
        "iterations": [
            {
                "k": stats.k,
                "candidate_instances": stats.candidate_instances,
                "supported_instances": stats.supported_instances,
                "candidate_patterns": stats.candidate_patterns,
                "supported_patterns": stats.supported_patterns,
            }
            for stats in result.iterations
        ],
    }


def rules_payload(rules: Iterable[Rule]) -> list[dict[str, Any]]:
    """Rules as JSON objects plus the paper's rendering, deterministically."""
    return [
        {
            "antecedent": list(rule.antecedent),
            "consequent": list(rule.consequent),
            "support_count": rule.support_count,
            "support": rule.support,
            "confidence": rule.confidence,
            "lift": rule.lift,
            "text": rule.as_paper_line(),
        }
        for rule in rules
    ]


# -- error mapping -------------------------------------------------------------------

#: Context attributes worth forwarding to clients, per error family.
_ERROR_ATTRS = (
    "parameter",
    "algorithm",
    "known",
    "engine",
    "options",
    "accepted",
    "dataset",
    "queue_depth",
    "timeout_seconds",
    "attempts",
    "expected",
    "found",
    "position",
    "line",
    "column",
)


def _json_safe(value: Any) -> Any:
    try:
        json.dumps(value)
    except (TypeError, ValueError):
        return repr(value)
    return value


def error_status(error: ReproError) -> int:
    """The HTTP status code for one API error."""
    status = getattr(error, "status", None)
    if isinstance(status, int):
        return status
    if isinstance(error, _errors.UnknownAlgorithmError):
        return 404
    if isinstance(
        error,
        (
            _errors.InvalidConfigError,
            _errors.EngineOptionError,
            _errors.IngestError,
        ),
    ):
        return 400
    return 500


def error_payload(error: ReproError) -> tuple[int, dict[str, Any]]:
    """``(status, document)`` for one error of the ReproError hierarchy.

    The document carries the concrete ``type`` name, the message, and
    any recognized context attributes (``queue_depth``, ``algorithm``,
    ...) in JSON-safe form.
    """
    status = error_status(error)
    document: dict[str, Any] = {
        "type": type(error).__name__,
        "status": status,
        "message": str(error),
    }
    for attr in _ERROR_ATTRS:
        value = getattr(error, attr, None)
        if value is not None:
            document[attr] = _json_safe(value)
    return status, document


def _error_types() -> dict[str, type[ReproError]]:
    return {
        name: value
        for name, value in vars(_errors).items()
        if isinstance(value, type) and issubclass(value, ReproError)
    }


def rebuild_error(document: dict[str, Any]) -> ReproError:
    """The client-side inverse of :func:`error_payload`.

    Rebuilds the *same exception class* the server raised (falling back
    to :class:`ServeError` for unknown names) without running the
    class's constructor — the message is already rendered, and the
    context attributes are restored verbatim, so ``except
    ServerBusyError`` works identically on both sides of the wire.
    """
    cls = _error_types().get(str(document.get("type")), ServeError)
    error = cls.__new__(cls)
    Exception.__init__(error, str(document.get("message", "serve error")))
    for attr in _ERROR_ATTRS:
        if attr in document:
            try:
                setattr(error, attr, document[attr])
            except AttributeError:  # pragma: no cover - slotted subclass
                pass
    return error
