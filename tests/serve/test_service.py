"""MiningService: conformance to the direct Miner, errors, stats, drain."""

from __future__ import annotations

import json
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import Miner, MiningConfig
from repro.config import DEFAULT_ENGINE
from repro.core.result import MiningResult
from repro.core.transactions import TransactionDatabase
from repro.data.ingest import load_dataset
from repro.errors import ServerBusyError, ServerDrainingError
from repro.core.setm_columnar_disk import SpillingColumnarKernel
from repro.registry import ENGINE_ALIASES, register_engine, unregister_engine
from repro.serve.protocol import result_payload, rules_payload
from repro.serve.service import (
    MiningService,
    _spill_engines,
    pool_crash_signature,
)


@pytest.fixture
def service(example_db):
    service = MiningService(
        {"example": example_db}, queue_depth=8, workers=2,
        default_timeout=30.0,
    )
    yield service
    service.drain()


def ok(status_document):
    status, document = status_document
    assert status == 200, document
    assert document["ok"] is True
    return document


class TestConformance:
    """Serve responses must be byte-identical to direct Miner output."""

    def test_mine_matches_direct_miner(self, service, example_db):
        document = ok(
            service.handle(
                {
                    "op": "mine",
                    "dataset": "example",
                    "config": {"support": 0.3, "confidence": 0.5},
                }
            )
        )
        miner = Miner(example_db)
        config = MiningConfig(support=0.3, confidence=0.5)
        expected = result_payload(miner.frequent_itemsets(config))
        assert json.dumps(document["result"], sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )
        expected_rules = rules_payload(miner.rules(config))
        assert json.dumps(document["rules"], sort_keys=True) == json.dumps(
            expected_rules, sort_keys=True
        )

    @pytest.mark.parametrize(
        "algorithm", ["setm", "setm-columnar", "apriori", "setm-sql"]
    )
    def test_every_engine_shape_matches(self, service, example_db, algorithm):
        document = ok(
            service.handle(
                {
                    "op": "mine",
                    "dataset": "example",
                    "config": {"support": 0.3, "algorithm": algorithm},
                }
            )
        )
        expected = result_payload(
            Miner(example_db).frequent_itemsets(
                MiningConfig(support=0.3, algorithm=algorithm)
            )
        )
        assert document["result"] == expected
        assert document["rules"] is None
        assert document["server"]["engine"] == algorithm

    def test_support_of_matches_direct(self, service, example_db):
        miner = Miner(example_db)
        miner.frequent_itemsets(MiningConfig(support=0.3))
        document = ok(
            service.handle(
                {
                    "op": "support_of",
                    "dataset": "example",
                    "config": {"support": 0.3},
                    "items": ["B", "A"],
                }
            )
        )
        expected = miner.support_of("B", "A")
        assert document["support"] == expected
        assert document["count"] == round(expected * 10)

    def test_patterns_filters_match_direct(self, service, example_db):
        document = ok(
            service.handle(
                {
                    "op": "patterns",
                    "dataset": "example",
                    "config": {"support": 0.2},
                    "length": 2,
                    "containing": ["A"],
                }
            )
        )
        miner = Miner(example_db)
        miner.frequent_itemsets(MiningConfig(support=0.2))
        expected = [
            {"items": list(pattern), "count": count}
            for pattern, count in miner.patterns(
                length=2, containing=["A"]
            )
        ]
        assert document["patterns"] == expected

    def test_rules_about_matches_direct(self, service, example_db):
        document = ok(
            service.handle(
                {
                    "op": "rules_about",
                    "dataset": "example",
                    "config": {"support": 0.2},
                    "item": "A",
                    "confidence": 0.5,
                }
            )
        )
        miner = Miner(example_db)
        miner.frequent_itemsets(MiningConfig(support=0.2))
        expected = rules_payload(
            miner.rules_about("A", confidence=0.5)
        )
        assert document["rules"] == expected

    def test_concurrent_clients_all_get_identical_documents(
        self, service, example_db
    ):
        payload = {
            "op": "mine",
            "dataset": "example",
            "config": {"support": 0.3},
        }
        with ThreadPoolExecutor(max_workers=6) as pool:
            documents = list(
                pool.map(lambda _: ok(service.handle(dict(payload))), range(6))
            )
        expected = json.dumps(
            result_payload(
                Miner(example_db).frequent_itemsets(
                    MiningConfig(support=0.3)
                )
            ),
            sort_keys=True,
        )
        for document in documents:
            assert json.dumps(document["result"], sort_keys=True) == expected


class TestErrors:
    def test_unknown_dataset_is_404(self, service):
        status, document = service.handle(
            {"op": "mine", "dataset": "nope"}
        )
        assert status == 404
        assert document["ok"] is False
        assert document["error"]["type"] == "UnknownDatasetError"
        assert list(document["error"]["known"]) == ["example"]

    def test_unknown_algorithm_is_404(self, service):
        status, document = service.handle(
            {
                "op": "mine",
                "dataset": "example",
                "config": {"algorithm": "fpgrowth"},
            }
        )
        assert status == 404
        assert document["error"]["type"] == "UnknownAlgorithmError"

    def test_malformed_request_is_400(self, service):
        status, document = service.handle({"op": "mine"})
        assert status == 400
        assert document["error"]["type"] == "ProtocolError"

    def test_bad_support_is_400(self, service):
        status, document = service.handle(
            {
                "op": "mine",
                "dataset": "example",
                "config": {"support": 2.5},
            }
        )
        assert status == 400
        assert document["error"]["type"] == "InvalidSupportError"

    def test_rejected_engine_option_is_400(self, service):
        status, document = service.handle(
            {
                "op": "mine",
                "dataset": "example",
                # Namespaced to the engine that actually runs, so the
                # option reaches it and is rejected.
                "config": {"options": {f"{DEFAULT_ENGINE}.frobnicate": 1}},
            }
        )
        assert status == 400
        assert document["error"]["type"] == "EngineOptionError"


class TestAppendOp:
    """``append`` on a stream-encoded integer dataset."""

    @pytest.fixture
    def int_service(self, tmp_path):
        base = tmp_path / "base.csv"
        base.write_text("trans_id,item\n1,10\n1,30\n2,30\n")
        service = MiningService(
            {"base": load_dataset(base)}, workers=1, default_timeout=30.0
        )
        yield service
        service.drain()

    def _append(self, service, tmp_path, text):
        delta = tmp_path / "delta.csv"
        delta.write_text(text)
        return service.handle(
            {"op": "append", "dataset": "base", "path": str(delta)}
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            ("tid,item\n3,10\n", r"delta\.csv: expected header"),
            (
                "trans_id,item\n3,10\nthree,10\n",
                r"delta\.csv:3: bad trans_id 'three'",
            ),
            ("trans_id,item\n3,10\n3,x\n", "mixed types: int, str"),
            ("trans_id,item\n4,10\n3,20\n", "3 arrived after 4"),
        ],
        ids=["header", "trans_id", "mixed-labels", "descending"],
    )
    def test_bad_delta_is_400_ingest_error(
        self, int_service, tmp_path, text, message
    ):
        status, document = self._append(int_service, tmp_path, text)
        assert status == 400, document
        assert document["ok"] is False
        assert document["error"]["type"] == "IngestError"
        assert re.search(message, document["error"]["message"])
        # The refused delta left the dataset as it was.
        hosted = int_service._datasets["base"].encoded_dataset
        assert hosted.generation == 0
        assert hosted.num_transactions == 2

    @pytest.mark.parametrize(
        "name, reason",
        [("missing.csv", "does not exist"), (".", "is a directory")],
        ids=["missing", "directory"],
    )
    def test_unreadable_path_is_400_ingest_error(
        self, int_service, tmp_path, name, reason
    ):
        path = tmp_path / name
        status, document = int_service.handle(
            {"op": "append", "dataset": "base", "path": str(path)}
        )
        assert status == 400, document
        assert document["error"]["type"] == "IngestError"
        message = document["error"]["message"]
        assert str(path) in message and reason in message
        hosted = int_service._datasets["base"].encoded_dataset
        assert hosted.generation == 0
        assert hosted.num_transactions == 2

    def test_labels_between_existing_ones_remap_base_ids(
        self, int_service, tmp_path
    ):
        status, document = self._append(
            int_service, tmp_path, "trans_id,item\n3,20\n3,30\n4,5\n"
        )
        assert status == 200, document
        info = document["result"]
        assert info["remapped_base_ids"] is True
        assert info["new_items"] == 2
        hosted = int_service._datasets["base"].encoded_dataset
        assert hosted.catalog.labels() == [5, 10, 20, 30]
        grown = TransactionDatabase(
            [(1, [10, 30]), (2, [30]), (3, [20, 30]), (4, [5])]
        )
        assert hosted.database(decoded=True) == grown
        mined = ok(
            int_service.handle(
                {
                    "op": "mine",
                    "dataset": "base",
                    "config": {"support": 0.25},
                }
            )
        )
        expected = result_payload(
            Miner(grown).frequent_itemsets(MiningConfig(support=0.25))
        )
        assert mined["result"] == expected


class TestQueryOp:
    """The declarative ``query`` op: planned server-side, byte-identical
    to a direct run of the planned config."""

    def test_query_matches_direct_miner(self, service, example_db):
        document = ok(
            service.handle(
                {
                    "op": "query",
                    "query": "MINE RULES FROM example WHERE "
                             "support >= 0.3 AND confidence >= 0.5",
                }
            )
        )
        from repro.query import parse_query, plan_for

        plan = plan_for(
            parse_query(
                "MINE RULES FROM example WHERE "
                "support >= 0.3 AND confidence >= 0.5"
            ),
            example_db,
            cpu_count=1,
        )
        miner = Miner(example_db)
        assert document["engine"] == plan.engine
        assert json.dumps(document["result"], sort_keys=True) == json.dumps(
            result_payload(miner.frequent_itemsets(plan.config)),
            sort_keys=True,
        )
        assert json.dumps(document["rules"], sort_keys=True) == json.dumps(
            rules_payload(miner.rules(plan.config)), sort_keys=True
        )
        assert document["dataset"] == "example"
        assert document["server"]["engine"] == plan.engine

    def test_query_using_engine_counts_in_stats(self, service):
        ok(
            service.handle(
                {
                    "op": "query",
                    "query": "MINE ITEMSETS FROM example WHERE "
                             "support >= 0.3 USING ENGINE 'apriori'",
                }
            )
        )
        stats = service.stats()
        assert stats["requests"]["by_op"]["query"] == 1
        assert stats["requests"]["by_engine"]["apriori"] == 1

    def test_explain_renders_the_plan_without_mining(self, service):
        document = ok(
            service.handle(
                {
                    "op": "query",
                    "query": "MINE ITEMSETS FROM example WHERE "
                             "support >= 0.3",
                    "explain": True,
                }
            )
        )
        assert "result" not in document
        assert "mine: " in document["explain"]
        assert document["engine"]
        # Nothing was mined: no engine traffic recorded.
        assert not service.stats()["requests"]["by_engine"]

    def test_explain_never_leaks_the_spill_root(self, service):
        document = ok(
            service.handle(
                {
                    "op": "query",
                    "query": "MINE ITEMSETS FROM example WHERE "
                             "support >= 0.3 WITH memory_budget = '1'",
                    "explain": True,
                }
            )
        )
        assert str(service.spill_root) not in document["explain"]

    def test_lhs_has_filters_rules_and_items_has_filters_patterns(
        self, service
    ):
        document = ok(
            service.handle(
                {
                    "op": "query",
                    "query": "MINE RULES FROM example WHERE support >= 0.3 "
                             "AND confidence >= 0.5 AND lhs HAS 'F'",
                }
            )
        )
        assert document["rules"], "the example data has rules with F on lhs"
        for rule in document["rules"]:
            assert "F" in rule["antecedent"]

        document = ok(
            service.handle(
                {
                    "op": "query",
                    "query": "MINE ITEMSETS FROM example WHERE "
                             "support >= 0.3 AND items HAS 'F'",
                }
            )
        )
        assert document["result"]["patterns"]
        for entry in document["result"]["patterns"]:
            assert "F" in entry["items"]
        assert document["result"]["num_patterns"] == len(
            document["result"]["patterns"]
        )

    def test_query_syntax_error_is_400_with_position(self, service):
        status, document = service.handle(
            {"op": "query", "query": "MINE RULES FROM example WHERE"}
        )
        assert status == 400
        assert document["error"]["type"] == "QueryParseError"
        assert document["error"]["position"] is not None
        assert document["error"]["line"] == 1

    def test_query_unknown_dataset_is_404(self, service):
        status, document = service.handle(
            {"op": "query", "query": "MINE RULES FROM nope"}
        )
        assert status == 404
        assert document["error"]["type"] == "UnknownDatasetError"

    def test_query_path_from_is_400(self, service):
        status, document = service.handle(
            {"op": "query", "query": "MINE RULES FROM '/tmp/x.basket'"}
        )
        assert status == 400
        assert document["error"]["type"] == "PlanError"


class TestAdmissionControl:
    def test_queue_depth_one_returns_busy_under_load(self, example_db):
        """Deterministic busy: a gate engine holds the only worker."""
        gate = threading.Event()
        started = threading.Event()

        @register_engine("test-serve-gate")
        def gated(database, minimum_support, *, max_length=None):
            started.set()
            assert gate.wait(30)
            return MiningResult(
                algorithm="test-serve-gate",
                num_transactions=database.num_transactions,
                minimum_support=0.5,
                support_threshold=5,
                count_relations={},
            )

        service = MiningService(
            {"example": example_db},
            queue_depth=1,
            workers=1,
            default_timeout=30.0,
            cache_entries=0,
        )
        try:
            request = {
                "op": "mine",
                "dataset": "example",
                "config": {"algorithm": "test-serve-gate"},
            }
            results: list[tuple[int, dict]] = []
            threads = [
                threading.Thread(
                    target=lambda: results.append(
                        service.handle(dict(request))
                    )
                )
                for _ in range(2)
            ]
            threads[0].start()
            assert started.wait(10)  # worker occupied
            started.clear()
            threads[1].start()
            deadline = time.monotonic() + 10
            while service.scheduler.stats()["depth"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            # Worker busy + queue slot full: the third request must
            # bounce with the typed busy error, not wait.
            status, document = service.handle(dict(request))
            assert status == 429
            assert document["error"]["type"] == "ServerBusyError"
            assert document["error"]["queue_depth"] == 1

            gate.set()
            for thread in threads:
                thread.join(30)
            assert all(status == 200 for status, _ in results)
            # The inline stats op works even while the queue is full.
            assert service.stats()["queue"]["rejected"] == 1
        finally:
            gate.set()
            service.drain()
            unregister_engine("test-serve-gate")


class TestStats:
    def test_stats_shape(self, service):
        ok(service.handle({"op": "mine", "dataset": "example",
                           "config": {"support": 0.3}}))
        ok(service.handle({"op": "mine", "dataset": "example",
                           "config": {"support": 0.3}}))
        stats = ok(service.handle({"op": "stats"}))["result"]
        assert stats["requests"]["by_op"] == {"mine": 2}
        assert stats["requests"]["by_engine"] == {DEFAULT_ENGINE: 2}
        assert stats["requests"]["total"] == 2
        assert stats["cache"]["hits"] == 1
        assert stats["cache"]["misses"] == 1
        assert stats["cache"]["hit_rate"] == 0.5
        assert stats["queue"]["completed"] == 2
        assert "setm" in stats["server"]["engines"]
        example = stats["server"]["datasets"]["example"]
        assert example["transactions"] == 10
        assert isinstance(stats["pools"], list)
        assert "transport" not in stats

    def test_cache_hit_flag_in_responses(self, service):
        first = ok(service.handle({"op": "mine", "dataset": "example",
                                   "config": {"support": 0.3}}))
        second = ok(service.handle({"op": "mine", "dataset": "example",
                                    "config": {"support": 0.3}}))
        assert first["server"]["cache_hit"] is False
        assert second["server"]["cache_hit"] is True


class TestDrain:
    def test_drain_reports_and_rejects_afterwards(self, service):
        ok(service.handle({"op": "mine", "dataset": "example",
                           "config": {"support": 0.3}}))
        report = ok(service.handle({"op": "drain"}))["result"]
        assert report["drained"] is True
        assert report["leftover_spill_files"] == 0
        assert "leftover_shm_segments" not in report
        assert not service.spill_root.exists()
        status, document = service.handle(
            {"op": "mine", "dataset": "example"}
        )
        assert status == 503
        assert document["error"]["type"] == "ServerDrainingError"

    def test_drain_is_idempotent(self, service):
        first = ok(service.handle({"op": "drain"}))["result"]
        second = ok(service.handle({"op": "drain"}))["result"]
        assert first == second

    def test_close_alias(self, example_db):
        service = MiningService({"example": example_db})
        assert service.close()["drained"] is True

    def test_direct_submit_after_drain_raises(self, service):
        service.drain()
        with pytest.raises(ServerDrainingError):
            service.scheduler.submit(lambda: 1)

    def test_drain_under_in_flight_budget_and_workers(self, example_db):
        """Drain completes budgeted, pooled work and leaves no spill files."""
        service = MiningService(
            {"example": example_db}, queue_depth=8, workers=2,
        )
        request = {
            "op": "mine",
            "dataset": "example",
            "config": {
                "support": 0.2,
                "options": {
                    "memory_budget_bytes": 4096,
                    "workers": 2,
                },
            },
        }
        results: list[tuple[int, dict]] = []
        thread = threading.Thread(
            target=lambda: results.append(service.handle(request))
        )
        thread.start()
        # Drain races the request on purpose: whether it is queued,
        # mining, or already done, it must complete successfully and
        # the spill root must come back empty.
        report = service.drain()
        thread.join(60)
        assert report["leftover_spill_files"] == 0
        assert results, "request thread never finished"
        status, document = results[0]
        if status == 200:
            expected = result_payload(
                Miner(example_db).frequent_itemsets(
                    MiningConfig(support=0.2)
                )
            )
            assert document["result"]["algorithm"] == DEFAULT_ENGINE
            assert document["result"] == expected
        else:
            # Only the draining rejection is acceptable; any other
            # failure is a real bug.
            assert document["error"]["type"] == "ServerDrainingError"

    def test_drain_after_pooled_mine_stops_the_pools(
        self, example_db, monkeypatch
    ):
        """A pooled mine's threads are stopped and its shares audited."""
        from repro.core import setm_columnar_disk

        monkeypatch.setattr(setm_columnar_disk, "POOL_MIN_ROWS", 1)
        service = MiningService({"example": example_db}, workers=2)
        status, document = service.handle({
            "op": "mine",
            "dataset": "example",
            "config": {
                "support": 0.3,
                "options": {"workers": 3, "memory_budget_bytes": 1024},
            },
        })
        assert status == 200, document
        stats = ok(service.handle({"op": "stats"}))["result"]
        assert {"workers": 3} in stats["pools"]  # the pool ran
        report = service.drain()
        assert report["pools"] == []
        assert report["leftover_spill_files"] == 0
        assert not service.spill_root.exists()


class TestSpillDirInjection:
    def test_spill_engines_use_the_service_root(self, service, example_db):
        assert _spill_engines() == ("setm-columnar",)
        config = service._pin_spill_dir(MiningConfig(support=0.2))
        options = config.options_for("setm-columnar")
        assert options["spill_dir"] == str(service.spill_root)
        assert "spill_dir" not in config.options_for("setm")

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    @pytest.mark.parametrize("alias", sorted(ENGINE_ALIASES))
    def test_a_retired_engine_name_spills_under_the_service_root(
        self, service, alias, monkeypatch
    ):
        roots = []
        close = SpillingColumnarKernel.close

        def recording_close(kernel):
            roots.append(kernel._spill_root)
            close(kernel)

        monkeypatch.setattr(SpillingColumnarKernel, "close", recording_close)
        status, document = service.handle({
            "op": "mine",
            "dataset": "example",
            "config": {
                "support": 0.3,
                "algorithm": alias,
                "options": {"memory_budget_bytes": 1024, "workers": 1},
            },
        })
        assert status == 200, document
        assert document["result"]["algorithm"] == "setm-columnar"
        # The 1 KiB budget spills even the example; the run's private
        # root sat under the service's, and is gone.
        assert len(roots) == 1 and roots[0].parent == service.spill_root
        assert not roots[0].exists()

    def test_explicit_spill_dir_wins(self, service, tmp_path):
        config = service._pin_spill_dir(
            MiningConfig(options={"spill_dir": str(tmp_path)})
        )
        assert config.options["spill_dir"] == str(tmp_path)
        namespaced = service._pin_spill_dir(
            MiningConfig(
                options={"setm-columnar.spill_dir": str(tmp_path)}
            )
        )
        assert (
            namespaced.options["setm-columnar.spill_dir"]
            == str(tmp_path)
        )


class TestRetryClassifier:
    @pytest.mark.parametrize(
        "error",
        [
            EOFError("worker gone"),
            BrokenPipeError(),
            ConnectionResetError(),
            ValueError("Pool not running"),
        ],
    )
    def test_pool_crash_signatures_are_retryable(self, error):
        assert pool_crash_signature(error) is True

    @pytest.mark.parametrize(
        "error", [ValueError("bad data"), ZeroDivisionError()]
    )
    def test_real_errors_are_not(self, error):
        assert pool_crash_signature(error) is False
