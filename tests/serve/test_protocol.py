"""Protocol layer: request validation, payload shape, error round trips."""

from __future__ import annotations

import json

import pytest

from repro import Miner, MiningConfig
from repro.errors import (
    EngineOptionError,
    InvalidConfigError,
    InvalidSupportError,
    PlanError,
    ProtocolError,
    QueryParseError,
    RequestTimeoutError,
    ServeError,
    ServerBusyError,
    UnknownAlgorithmError,
    UnknownDatasetError,
)
from repro.serve.protocol import (
    INLINE_OPS,
    QUEUED_OPS,
    config_from_payload,
    error_payload,
    error_status,
    parse_request,
    rebuild_error,
    result_payload,
    rules_payload,
)


class TestParseRequest:
    def test_minimal_mine(self):
        request = parse_request({"op": "mine", "dataset": "d"})
        assert request.op == "mine"
        assert request.dataset == "d"
        assert request.config == MiningConfig()
        assert request.timeout is None
        assert request.params == {}

    def test_config_fields_become_a_mining_config(self):
        request = parse_request(
            {
                "op": "mine",
                "dataset": "d",
                "config": {
                    "support": 0.25,
                    "confidence": 0.5,
                    "algorithm": "apriori",
                    "max_length": 3,
                    "options": {"setm-columnar.workers": 2},
                },
            }
        )
        assert request.config == MiningConfig(
            support=0.25,
            confidence=0.5,
            algorithm="apriori",
            max_length=3,
            options={"setm-columnar.workers": 2},
        )

    def test_inline_ops_take_no_fields(self):
        for op in sorted(INLINE_OPS):
            assert parse_request({"op": op}).op == op
            with pytest.raises(ProtocolError):
                parse_request({"op": op, "dataset": "d"})

    @pytest.mark.parametrize(
        "payload",
        [
            None,
            [],
            "mine",
            {},
            {"op": "frobnicate"},
            {"op": "mine"},  # no dataset
            {"op": "mine", "dataset": ""},
            {"op": "mine", "dataset": 7},
            {"op": "mine", "dataset": "d", "extra": 1},
            {"op": "mine", "dataset": "d", "config": []},
            {"op": "mine", "dataset": "d", "config": {"supprt": 0.1}},
            {"op": "mine", "dataset": "d", "timeout": 0},
            {"op": "mine", "dataset": "d", "timeout": "fast"},
            {"op": "mine", "dataset": "d", "timeout": True},
            {"op": "mine", "dataset": "d", "include_rules": "yes"},
            {"op": "support_of", "dataset": "d"},
            {"op": "support_of", "dataset": "d", "items": []},
            {"op": "support_of", "dataset": "d", "items": "bread"},
            {"op": "rules_about", "dataset": "d"},
            {"op": "patterns", "dataset": "d", "length": 0},
            {"op": "patterns", "dataset": "d", "length": True},
            {"op": "patterns", "dataset": "d", "containing": "bread"},
            {"op": "patterns", "dataset": "d", "min_count": "many"},
        ],
    )
    def test_malformed_requests_raise_protocol_errors(self, payload):
        with pytest.raises(ProtocolError):
            parse_request(payload)

    def test_config_value_errors_keep_their_own_types(self):
        with pytest.raises(InvalidSupportError):
            parse_request(
                {"op": "mine", "dataset": "d", "config": {"support": -1.0}}
            )

    def test_queued_and_inline_partition_the_ops(self):
        assert QUEUED_OPS | INLINE_OPS == {
            "mine", "patterns", "support_of", "rules_about",
            "append", "refresh", "query",
            "ping", "stats", "drain",
        }
        assert not QUEUED_OPS & INLINE_OPS


class TestQueryOp:
    """The ``query`` op: the MINE statement is parsed at the protocol
    layer, so routing and errors are settled before the queue."""

    def test_dataset_comes_from_the_statement(self):
        request = parse_request(
            {
                "op": "query",
                "query": "MINE RULES FROM sales WHERE support >= 0.1",
            }
        )
        assert request.op == "query"
        assert request.dataset == "sales"
        assert request.config is None
        assert request.params["explain"] is False
        assert request.params["ast"].target == "rules"

    def test_explain_flag_is_validated_and_forwarded(self):
        request = parse_request(
            {"op": "query", "query": "MINE ITEMSETS FROM d", "explain": True}
        )
        assert request.params["explain"] is True
        with pytest.raises(ProtocolError, match="explain"):
            parse_request(
                {"op": "query", "query": "MINE ITEMSETS FROM d", "explain": 1}
            )

    @pytest.mark.parametrize(
        "payload",
        [
            {"op": "query"},
            {"op": "query", "query": ""},
            {"op": "query", "query": "   "},
            {"op": "query", "query": 7},
            # query carries no dataset/config fields — the statement does.
            {"op": "query", "query": "MINE RULES FROM d", "dataset": "d"},
            {"op": "query", "query": "MINE RULES FROM d", "config": {}},
            {"op": "query", "query": "MINE RULES FROM d", "timeout": 0},
        ],
    )
    def test_malformed_query_requests_raise_protocol_errors(self, payload):
        with pytest.raises(ProtocolError):
            parse_request(payload)

    def test_syntax_errors_are_typed_and_positioned(self):
        text = "MINE RULES FROM sales WHERE support >= banana"
        with pytest.raises(QueryParseError) as excinfo:
            parse_request({"op": "query", "query": text})
        error = excinfo.value
        assert error.position == text.index("banana")
        assert error.line == 1

    def test_path_from_is_rejected_server_side(self):
        with pytest.raises(PlanError, match="hosted dataset"):
            parse_request(
                {"op": "query", "query": "MINE RULES FROM '/tmp/x.basket'"}
            )


class TestQueryErrorRoundTrip:
    """Clients re-raise the server's typed query errors, position intact."""

    def test_query_parse_error_maps_to_400_with_position(self):
        try:
            parse_request({"op": "query", "query": "MINE RULES FROM"})
        except QueryParseError as error:
            status, document = error_payload(error)
        assert status == 400
        assert document["type"] == "QueryParseError"
        assert document["position"] == 15
        assert document["line"] == 1
        assert document["column"] == 16

    def test_rebuilt_query_parse_error_keeps_class_and_position(self):
        try:
            parse_request({"op": "query", "query": "MINE RULES FROM"})
        except QueryParseError as error:
            _, document = error_payload(error)
        rebuilt = rebuild_error(json.loads(json.dumps(document)))
        assert isinstance(rebuilt, QueryParseError)
        assert rebuilt.position == 15
        assert rebuilt.line == 1
        assert rebuilt.column == 16
        assert "end of query" in str(rebuilt)

    def test_plan_error_maps_to_400_and_rebuilds(self):
        error = PlanError("no engine for you")
        status, document = error_payload(error)
        assert status == 400
        assert document["type"] == "PlanError"
        rebuilt = rebuild_error(json.loads(json.dumps(document)))
        assert isinstance(rebuilt, PlanError)
        assert str(rebuilt) == "no engine for you"


class TestConfigFromPayload:
    def test_none_is_the_default_config(self):
        assert config_from_payload(None) == MiningConfig()

    def test_unknown_field_is_rejected(self):
        with pytest.raises(ProtocolError, match="unknown config field"):
            config_from_payload({"minsup": 0.1})


class TestResultPayload:
    def test_matches_direct_miner_byte_for_byte(self, example_db):
        config = MiningConfig(support=0.3)
        result = Miner(example_db).frequent_itemsets(config)
        document = result_payload(result)
        again = result_payload(
            Miner(example_db).frequent_itemsets(config)
        )
        assert json.dumps(document, sort_keys=True) == json.dumps(
            again, sort_keys=True
        )
        assert document["num_patterns"] == len(
            list(result.iter_patterns())
        )
        # Deterministic by construction: no timings, no extras.
        assert "elapsed_seconds" not in document
        assert "extra" not in document

    def test_rules_payload_carries_the_paper_line(self, example_db):
        miner = Miner(example_db)
        rules = miner.rules(MiningConfig(support=0.3, confidence=0.5))
        payload = rules_payload(rules)
        assert len(payload) == len(rules)
        for line, rule in zip(payload, rules):
            assert line["text"] == rule.as_paper_line()
            assert line["support_count"] == rule.support_count


class TestErrorMapping:
    @pytest.mark.parametrize(
        ("error", "status"),
        [
            (ProtocolError("bad"), 400),
            (UnknownDatasetError("d", ["a"]), 404),
            (ServerBusyError(queue_depth=4), 429),
            (RequestTimeoutError(timeout_seconds=1.5), 504),
            (UnknownAlgorithmError("nope", ["setm"]), 404),
            (InvalidConfigError("bad"), 400),
            (EngineOptionError("setm", ["z"], ["a"]), 400),
            (ServeError("boom"), 500),
        ],
    )
    def test_status_codes(self, error, status):
        assert error_status(error) == status
        got_status, document = error_payload(error)
        assert got_status == status
        assert document["status"] == status
        assert document["type"] == type(error).__name__

    def test_rebuild_round_trip_preserves_class_and_context(self):
        _, document = error_payload(ServerBusyError(queue_depth=4))
        rebuilt = rebuild_error(json.loads(json.dumps(document)))
        assert isinstance(rebuilt, ServerBusyError)
        assert rebuilt.queue_depth == 4
        assert str(rebuilt) == str(ServerBusyError(queue_depth=4))

    def test_rebuild_unknown_algorithm_keeps_known_list(self):
        _, document = error_payload(UnknownAlgorithmError("x", ["setm"]))
        rebuilt = rebuild_error(json.loads(json.dumps(document)))
        assert isinstance(rebuilt, UnknownAlgorithmError)
        assert rebuilt.known == ["setm"]

    def test_rebuild_unknown_type_falls_back_to_serve_error(self):
        rebuilt = rebuild_error({"type": "Quux", "message": "m"})
        assert type(rebuilt) is ServeError
        assert str(rebuilt) == "m"

    def test_rebuild_never_runs_the_constructor(self):
        # UnknownDatasetError's constructor renders a message; rebuild
        # must restore the wire message verbatim instead.
        _, document = error_payload(UnknownDatasetError("d", ["a", "b"]))
        rebuilt = rebuild_error(json.loads(json.dumps(document)))
        assert isinstance(rebuilt, UnknownDatasetError)
        assert rebuilt.known == ["a", "b"]
        assert "hosted datasets: a, b" in str(rebuilt)
