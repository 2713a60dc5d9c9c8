"""End-to-end: a real ``repro serve`` process, concurrent HTTP clients.

These tests cover the acceptance criteria of the serve subsystem:

* ≥4 concurrent clients against one shared encoded database get
  responses **byte-identical** to a direct :class:`Miner` over the same
  file;
* a ``--queue-depth 1`` server provably answers the typed busy error
  under load (sequenced via the inline ``stats`` op, which works even
  when the queue is saturated);
* graceful drain completes in-flight budgeted, pooled work, leaves zero
  spill files, shuts the pools down, and the process exits 0.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro import Miner, MiningConfig
from repro.data.io import read_basket_file, write_basket_file
from repro.data.quest import QuestConfig, generate_quest_dataset
from repro.errors import ReproError, ServerBusyError, ServerDrainingError
from repro.serve.client import ServeClient
from repro.serve.protocol import result_payload

#: One shared workload for every test in this module: big enough that
#: nested-loop runs take seconds (sequencing the busy test), small
#: enough that setm runs take milliseconds.
QUEST_TRANSACTIONS = 2000
QUEST_SEED = 11

#: A config whose mining takes seconds — holds the queue occupied.
SLOW_CONFIG = {"support": 0.005, "algorithm": "nested-loop"}


@pytest.fixture(scope="module")
def basket_path(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("serve") / "quest.basket"
    write_basket_file(
        generate_quest_dataset(
            QuestConfig(
                num_transactions=QUEST_TRANSACTIONS, seed=QUEST_SEED
            )
        ),
        path,
    )
    return path


class ServerProcess:
    """A ``python -m repro serve`` subprocess plus its parsed address."""

    def __init__(self, basket: Path, *args: str) -> None:
        env = dict(os.environ)
        src = Path(__file__).resolve().parents[2] / "src"
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + env.get("PYTHONPATH", "").split(os.pathsep)
        ).rstrip(os.pathsep)
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                f"quest={basket}", "--port", "0", *args,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        self.port: int | None = None
        deadline = time.monotonic() + 60
        assert self.proc.stdout is not None
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            if line.startswith("listening on "):
                self.port = int(line.rsplit(":", 1)[1])
                break
        if self.port is None:
            self.kill()
            raise AssertionError(
                f"server never announced its port: {self.collect()}"
            )
        self.client = ServeClient(port=self.port, timeout=120.0)

    def collect(self) -> str:
        out, err = self.proc.communicate(timeout=30)
        return f"stdout={out!r} stderr={err!r}"

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.communicate(timeout=30)

    def wait_for_exit(self) -> int:
        self.proc.communicate(timeout=60)
        return self.proc.returncode


@pytest.fixture
def server(basket_path):
    server = ServerProcess(
        basket_path, "--queue-depth", "8", "--serve-workers", "4",
        "--request-timeout", "120",
    )
    try:
        yield server
    finally:
        try:
            if server.proc.poll() is None:
                server.client.drain()
                server.wait_for_exit()
        except (ReproError, OSError):
            pass
        server.kill()


class TestConcurrentConformance:
    def test_four_clients_byte_identical_to_direct_miner(
        self, server, basket_path
    ):
        config = {"support": 0.02, "confidence": 0.5}

        def one_client(_):
            client = ServeClient(port=server.port, timeout=120.0)
            return client.mine("quest", config=dict(config))

        with ThreadPoolExecutor(max_workers=4) as pool:
            documents = list(pool.map(one_client, range(4)))

        # The reference document, computed directly over the same file
        # and serialized the same way (JSON round trip normalizes
        # tuples to lists exactly as the wire does).
        miner = Miner(read_basket_file(basket_path))
        expected = json.loads(
            json.dumps(
                result_payload(
                    miner.frequent_itemsets(
                        MiningConfig(**config)
                    )
                )
            )
        )
        reference = json.dumps(expected, sort_keys=True)
        for document in documents:
            assert (
                json.dumps(document["result"], sort_keys=True) == reference
            )
        # One shared session: the concurrent batch may race the cold
        # cache (no request coalescing, by design), but once warm the
        # next request must be served from it.
        stats = server.client.stats()
        assert stats["requests"]["by_op"]["mine"] == 4
        followup = server.client.mine("quest", config=dict(config))
        assert followup["server"]["cache_hit"] is True
        assert json.dumps(followup["result"], sort_keys=True) == reference

    def test_post_hoc_ops_answer_from_the_shared_cache(self, server):
        document = server.client.mine("quest", support=0.02)
        first = document["result"]["patterns"][0]["items"]
        answer = server.client.support_of("quest", first, support=0.02)
        assert answer["count"] == document["result"]["patterns"][0]["count"]
        assert answer["support"] == answer["count"] / QUEST_TRANSACTIONS
        patterns = server.client.patterns("quest", support=0.02, length=1)
        assert {"items": first, "count": answer["count"]} in patterns
        stats = server.client.stats()
        assert stats["cache"]["hits"] >= 2

    def test_typed_errors_cross_the_wire(self, server):
        from repro.errors import UnknownDatasetError

        with pytest.raises(UnknownDatasetError) as info:
            server.client.mine("nope", support=0.1)
        assert list(info.value.known) == ["quest"]

    def test_query_op_over_http_matches_direct_mine(
        self, server, basket_path
    ):
        document = server.client.query(
            "MINE ITEMSETS FROM quest WHERE support >= 0.02"
        )
        expected = json.dumps(
            json.loads(
                json.dumps(
                    result_payload(
                        Miner(read_basket_file(basket_path))
                        .frequent_itemsets(
                            MiningConfig(
                                support=0.02, algorithm="setm-columnar"
                            )
                        )
                    )
                )
            ),
            sort_keys=True,
        )
        assert json.dumps(document["result"], sort_keys=True) == expected
        assert document["engine"] == "setm-columnar"

        explained = server.client.query(
            "MINE ITEMSETS FROM quest WHERE support >= 0.02", explain=True
        )
        assert "mine: setm-columnar" in explained["explain"]

    def test_query_parse_error_crosses_the_wire_with_position(self, server):
        from repro.errors import QueryParseError

        with pytest.raises(QueryParseError) as info:
            server.client.query("MINE RULES FROM quest WHERE support >=")
        assert info.value.position is not None
        assert info.value.line == 1


class TestAdmissionControlOverHTTP:
    def test_queue_depth_one_returns_busy(self, basket_path):
        server = ServerProcess(
            basket_path, "--queue-depth", "1", "--serve-workers", "1",
            "--request-timeout", "120", "--cache-entries", "0",
        )
        try:
            client = server.client
            outcomes: list[str] = []

            def slow(support):
                config = dict(SLOW_CONFIG, support=support)
                ServeClient(port=server.port, timeout=120.0).mine(
                    "quest", config=config
                )
                outcomes.append("done")

            # A occupies the single worker...
            a = threading.Thread(target=slow, args=(0.005,))
            a.start()
            deadline = time.monotonic() + 30
            while client.stats()["queue"]["in_flight"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.05)
            # ...B occupies the single queue slot...
            b = threading.Thread(target=slow, args=(0.006,))
            b.start()
            while client.stats()["queue"]["depth"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.05)
            # ...so C must bounce with the typed busy error.
            with pytest.raises(ServerBusyError) as info:
                client.mine("quest", config=dict(SLOW_CONFIG))
            assert info.value.queue_depth == 1
            a.join(120)
            b.join(120)
            assert outcomes == ["done", "done"]
            stats = client.stats()
            assert stats["queue"]["rejected"] >= 1
            assert stats["queue"]["completed"] == 2
        finally:
            try:
                if server.proc.poll() is None:
                    server.client.drain()
                    server.wait_for_exit()
            except (ReproError, OSError):
                pass
            server.kill()


class TestGracefulDrain:
    def test_drain_under_in_flight_spill_parallel(self, basket_path):
        server = ServerProcess(
            basket_path, "--queue-depth", "8", "--serve-workers", "2",
            "--request-timeout", "120",
        )
        try:
            outcomes: list[object] = []

            def spill_mine():
                config = {
                    "support": 0.01,
                    "options": {
                        "memory_budget_bytes": 32768,
                        "workers": 2,
                    },
                }
                try:
                    outcomes.append(
                        ServeClient(port=server.port, timeout=120.0).mine(
                            "quest", config=config
                        )
                    )
                except ServerDrainingError as error:
                    outcomes.append(error)

            thread = threading.Thread(target=spill_mine)
            thread.start()
            deadline = time.monotonic() + 30
            while server.client.stats()["queue"]["accepted"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.05)

            report = server.client.drain()
            thread.join(120)

            # In-flight work finished (the accepted request was not
            # dropped), no spill files survive, the pools are gone.
            assert report["drained"] is True
            assert report["leftover_spill_files"] == 0
            assert report["queue"]["depth"] == 0
            assert report["queue"]["in_flight"] == 0
            assert report["pools"] == []
            assert len(outcomes) == 1
            assert not isinstance(outcomes[0], ServerDrainingError), (
                "request was accepted before the drain; it must finish"
            )
            assert outcomes[0]["result"]["algorithm"] == "setm-columnar"

            assert server.wait_for_exit() == 0
        finally:
            server.kill()
