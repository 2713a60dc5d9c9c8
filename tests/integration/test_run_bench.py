"""The performance-baseline runner (benchmarks/run_bench.py).

The CI smoke step runs ``run_bench.py --tiny`` and validates the
produced ``BENCH_setm.json`` against the schema; these tests keep that
path honest inside the tier-1 suite (no timing assertions — only that
the runner produces well-formed, agreement-checked output).
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_BENCH_PATH = (
    Path(__file__).resolve().parent.parent.parent
    / "benchmarks"
    / "run_bench.py"
)


@pytest.fixture(scope="module")
def run_bench():
    spec = importlib.util.spec_from_file_location("run_bench", _BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTinyRun:
    @pytest.fixture(scope="class")
    def document(self, run_bench, tmp_path_factory):
        output = tmp_path_factory.mktemp("bench") / "BENCH_setm.json"
        code = run_bench.main(
            ["--tiny", "--rounds", "1", "--output", str(output)]
        )
        assert code == 0
        return json.loads(output.read_text())

    def test_schema_validates(self, run_bench, document):
        assert run_bench.validate(document) == []

    def test_both_engines_measured_and_agree(self, document):
        workload = document["workloads"][0]
        assert workload["agreement"] is True
        for engine in ("setm", "setm-columnar"):
            measurements = workload["engines"][engine]
            assert measurements["elapsed_seconds"] > 0
            assert measurements["peak_r_prime_instances"] > 0
            assert measurements["rows_per_second"] > 0
            assert measurements["iteration_seconds"]
            assert measurements["peak_memory_bytes"] > 0
        assert (
            workload["engines"]["setm"]["patterns"]
            == workload["engines"]["setm-columnar"]["patterns"]
        )

    def test_constrained_memory_scenario_recorded(self, document):
        """The tiny smoke exercises the out-of-core spill path."""
        constrained = document["workloads"][0]["constrained_memory"]
        assert constrained["engine"] == "setm-columnar"
        assert constrained["agreement"] is True
        assert constrained["max_partitions"] >= 2
        assert constrained["spill_bytes_written"] > 0
        assert constrained["peak_memory_bytes"] > 0

    def test_validate_cli_mode(self, run_bench, document, tmp_path, capsys):
        path = tmp_path / "copy.json"
        path.write_text(json.dumps(document))
        assert run_bench.main(["--validate", str(path)]) == 0
        assert "well-formed" in capsys.readouterr().out

    def test_incremental_batches_did_delta_work_only(self, document):
        """Deterministic work bound: no batch re-mined or recounted it all."""
        runs = document["workloads"][0]["incremental"]["runs"]
        assert runs
        for run in runs:
            assert run["mode"] == "delta"
            assert run["delta_rows"] == run["total_rows"] - run["base_rows"]
            assert run["state_hits"] > 0
            assert run["recount_fraction"] < 1


class TestTinyWorkerSweep:
    """``--workers 2`` (the CI smoke flags) pools the tiny smoke's levels."""

    @pytest.fixture(scope="class")
    def document(self, run_bench, tmp_path_factory):
        output = tmp_path_factory.mktemp("bench") / "BENCH_setm.json"
        code = run_bench.main(
            [
                "--tiny", "--rounds", "1", "--workers", "2",
                "--output", str(output),
            ]
        )
        assert code == 0
        return json.loads(output.read_text())

    def test_schema_validates(self, run_bench, document):
        assert run_bench.validate(document) == []

    def test_spill_parallel_scenario_recorded(self, document):
        """--workers extends the combined scenario to the tiny smoke:
        pooled counting of on-disk partitions runs on every CI push."""
        combined = document["workloads"][0]["spill_parallel"]
        assert combined["engine"] == "setm-columnar"
        assert combined["memory_budget_bytes"] > 0
        assert [entry["workers"] for entry in combined["runs"]] == [1, 2]
        for entry in combined["runs"]:
            assert entry["agreement"] is True
            assert entry["elapsed_seconds"] > 0
            assert entry["partitions"]
            assert entry["spill_bytes_written"] > 0
        assert combined["runs"][-1]["parallel_iterations"]


class TestValidator:
    def test_rejects_missing_workloads(self, run_bench):
        errors = run_bench.validate({"schema_version": 4})
        assert any("workloads" in error for error in errors)

    def test_rejects_wrong_version(self, run_bench):
        errors = run_bench.validate({"schema_version": 99, "workloads": []})
        assert any("version" in error for error in errors)

    def test_rejects_malformed_engine_block(self, run_bench, tmp_path):
        document = {
            "schema_version": 4,
            "generated_at": "now",
            "python": "3",
            "tiny": True,
            "workloads": [
                {
                    "name": "w",
                    "minsup": 0.1,
                    "agreement": True,
                    "dataset": {
                        "transactions": 1,
                        "sales_rows": 1,
                        "distinct_items": 1,
                    },
                    "engines": {"setm": {}, "setm-columnar": {}},
                }
            ],
        }
        errors = run_bench.validate(document)
        assert any("elapsed_seconds" in error for error in errors)

    def test_validate_cli_mode_fails_on_bad_file(self, run_bench, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 1}))
        assert run_bench.main(["--validate", str(path)]) == 1

    def test_rejects_single_partition_constrained_scenario(self, run_bench):
        document = {
            "schema_version": 4,
            "generated_at": "now",
            "python": "3",
            "tiny": True,
            "workloads": [
                {
                    "name": "w",
                    "minsup": 0.1,
                    "agreement": True,
                    "dataset": {
                        "transactions": 1,
                        "sales_rows": 1,
                        "distinct_items": 1,
                    },
                    "engines": {"setm": {}, "setm-columnar": {}},
                    "constrained_memory": {
                        "engine": "setm-columnar",
                        "memory_budget_bytes": 1024,
                        "elapsed_seconds": 0.1,
                        "peak_memory_bytes": 10,
                        "agreement": True,
                        "spill_partitions": {"2": 1},
                        "max_partitions": 1,
                    },
                }
            ],
        }
        errors = run_bench.validate(document)
        assert any("max_partitions" in error for error in errors)

    def test_rejects_untagged_single_cpu_speedup(self, run_bench):
        """The stale worker-sweep caveat: a numeric speedup from a
        1-CPU host must fail validation unless tagged."""
        document = {
            "schema_version": 4,
            "generated_at": "now",
            "python": "3",
            "tiny": True,
            "workloads": [
                {
                    "name": "w",
                    "minsup": 0.1,
                    "agreement": True,
                    "dataset": {
                        "transactions": 1,
                        "sales_rows": 1,
                        "distinct_items": 1,
                    },
                    "engines": {"setm": {}, "setm-columnar": {}},
                    "worker_sweep": {
                        "engine": "setm-columnar",
                        "cpus": 1,
                        "runs": [
                            {
                                "workers": 2,
                                "elapsed_seconds": 0.2,
                                "agreement": True,
                                "partitions": {"2": 2},
                                "parallel_iterations": [2],
                                "speedup_vs_columnar": 0.51,
                            }
                        ],
                    },
                }
            ],
        }
        errors = run_bench.validate(document)
        assert any("coordination_overhead_only" in e for e in errors)
        assert any("speedup_vs_columnar" in e for e in errors)

    def test_rejects_pool_less_multiworker_spill_parallel_run(
        self, run_bench
    ):
        document = {
            "schema_version": 4,
            "generated_at": "now",
            "python": "3",
            "tiny": True,
            "workloads": [
                {
                    "name": "w",
                    "minsup": 0.1,
                    "agreement": True,
                    "dataset": {
                        "transactions": 1,
                        "sales_rows": 1,
                        "distinct_items": 1,
                    },
                    "engines": {"setm": {}, "setm-columnar": {}},
                    "spill_parallel": {
                        "engine": "setm-columnar",
                        "memory_budget_bytes": 65536,
                        "cpus": 2,
                        "runs": [
                            {
                                "workers": 2,
                                "elapsed_seconds": 0.2,
                                "agreement": True,
                                "partitions": {"2": 2},
                                "parallel_iterations": [],
                                "spill_bytes_written": 10,
                            }
                        ],
                    },
                }
            ],
        }
        errors = run_bench.validate(document)
        assert any("must have reached the pool" in e for e in errors)
