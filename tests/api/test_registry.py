"""The capability-aware engine registry."""

from __future__ import annotations

import pytest

from repro.baselines.bruteforce import bruteforce
from repro.config import MiningConfig
from repro.errors import (
    EngineOptionError,
    InvalidConfigError,
    UnknownAlgorithmError,
)
from repro.miner import Miner
from repro.registry import (
    available_engines,
    engine_specs,
    find_engine,
    get_engine,
    register_engine,
    unregister_engine,
)


def _spec(name):
    spec = find_engine(name)
    assert spec is not None, name
    return spec


class TestLookup:
    def test_available_engines_is_sorted_and_complete(self):
        names = available_engines()
        assert names == tuple(sorted(names))
        assert {"setm", "setm-disk", "bruteforce"} <= set(names)

    def test_get_engine_unknown_name(self):
        with pytest.raises(UnknownAlgorithmError) as excinfo:
            get_engine("magic")
        assert excinfo.value.algorithm == "magic"
        assert "setm" in excinfo.value.known

    def test_find_engine_returns_none_for_unknown(self):
        assert find_engine("magic") is None

    def test_engine_specs_match_available_names(self):
        assert tuple(s.name for s in engine_specs()) == available_engines()


class TestRegistration:
    def test_duplicate_name_rejected(self):
        with pytest.raises(InvalidConfigError, match="already registered"):

            @register_engine("setm")
            def impostor(database, minimum_support, **options):
                raise AssertionError("never runs")

        # The original registration is untouched.
        assert _spec("setm").accepted_options == frozenset(
            {"count_via", "measure_memory"}
        )

    def test_register_and_unregister_custom_engine(self, example_db):
        @register_engine("test-proxy", accepted_options=("count_via",))
        def proxy(database, minimum_support, **options):
            from repro.core.setm import setm

            return setm(database, minimum_support, **options)

        try:
            assert "test-proxy" in available_engines()
            result = Miner(example_db).frequent_itemsets(
                MiningConfig(support=0.3, algorithm="test-proxy")
            )
            assert result.count_relations[2]
        finally:
            unregister_engine("test-proxy")
        assert find_engine("test-proxy") is None

    def test_unregister_unknown_raises(self):
        with pytest.raises(UnknownAlgorithmError):
            unregister_engine("never-registered")

    def test_decorator_returns_function_unchanged(self):
        def runner(database, minimum_support, **options):
            return None

        try:
            assert register_engine("test-identity")(runner) is runner
        finally:
            unregister_engine("test-identity")


class TestOptionValidation:
    def test_unknown_option_rejected_before_engine_runs(self, example_db):
        calls = []

        @register_engine("test-tracer", accepted_options=("knob",))
        def tracer(database, minimum_support, **options):
            calls.append(options)
            return bruteforce(database, minimum_support)

        try:
            miner = Miner(example_db)
            with pytest.raises(EngineOptionError) as excinfo:
                miner.frequent_itemsets(
                    MiningConfig(
                        support=0.3,
                        algorithm="test-tracer",
                        options={"knbo": 1},  # typo
                    )
                )
            assert calls == [], "engine must not run on a rejected option"
            assert excinfo.value.options == ("knbo",)
            assert excinfo.value.accepted == ("knob",)
        finally:
            unregister_engine("test-tracer")

    def test_buffer_pages_rejected_by_setm(self, example_db):
        with pytest.raises(EngineOptionError, match="buffer_pages"):
            Miner(example_db).frequent_itemsets(
                MiningConfig(
                    support=0.3, options={"buffer_pages": 64}
                )
            )

    def test_accepted_option_passes_through(self, example_db):
        result = Miner(example_db).frequent_itemsets(
            MiningConfig(support=0.3, options={"count_via": "hash"})
        )
        assert result.extra["count_via"] == "hash"

    def test_max_length_gated_by_capability(self, example_db):
        @register_engine("test-nocap", supports_max_length=False)
        def nocap(database, minimum_support, **options):
            return bruteforce(database, minimum_support)

        try:
            with pytest.raises(EngineOptionError, match="max_length"):
                Miner(example_db).frequent_itemsets(
                    MiningConfig(
                        support=0.3, algorithm="test-nocap", max_length=2
                    )
                )
        finally:
            unregister_engine("test-nocap")


class TestCapabilityFlags:
    @pytest.mark.parametrize(
        ("name", "reports_io", "representation", "out_of_core", "accepted"),
        [
            ("setm", False, "tuples", False,
             {"count_via", "measure_memory"}),
            ("setm-columnar", False, "columnar", False,
             {"count_via", "measure_memory"}),
            (
                "setm-parallel",
                False,
                "columnar",
                False,
                {
                    "count_via",
                    "workers",
                    "start_method",
                    "transport",
                    "spill_dir",
                    "measure_memory",
                },
            ),
            (
                "setm-columnar-disk",
                False,
                "columnar",
                True,
                {
                    "count_via",
                    "memory_budget_bytes",
                    "spill_dir",
                    "measure_memory",
                },
            ),
            (
                "setm-spill-parallel",
                False,
                "columnar",
                True,
                {
                    "count_via",
                    "memory_budget_bytes",
                    "spill_dir",
                    "workers",
                    "start_method",
                    "transport",
                    "measure_memory",
                },
            ),
            (
                "setm-disk",
                True,
                "paged",
                False,
                {
                    "buffer_pages",
                    "sort_memory_pages",
                    "track_sort_order",
                    "measure_memory",
                },
            ),
            ("setm-sql", False, "sql", False,
             {"backend", "strategy", "measure_memory"}),
            ("setm-sqlite", False, "sql", False,
             {"strategy", "measure_memory"}),
            ("nested-loop", False, "tuples", False, set()),
            ("nested-loop-disk", True, "paged", False, {"buffer_pages"}),
            ("apriori", False, "tuples", False, {"counting"}),
            ("ais", False, "tuples", False, set()),
            ("bruteforce", False, "tuples", False, set()),
        ],
    )
    def test_flags_per_engine(
        self, name, reports_io, representation, out_of_core, accepted
    ):
        spec = _spec(name)
        assert spec.reports_page_accesses is reports_io
        assert spec.representation == representation
        assert spec.out_of_core is out_of_core
        assert spec.accepted_options == frozenset(accepted)
        assert spec.supports_max_length is True

    def test_out_of_core_engines(self):
        assert [s.name for s in engine_specs() if s.out_of_core] == [
            "setm-columnar-disk",
            "setm-spill-parallel",
        ]

    def test_parallel_engines(self):
        assert [s.name for s in engine_specs() if s.parallel] == [
            "setm-parallel",
            "setm-spill-parallel",
        ]

    def test_exactly_one_engine_with_both_capabilities(self):
        assert [
            s.name for s in engine_specs() if s.parallel and s.out_of_core
        ] == ["setm-spill-parallel"]

    def test_memory_budget_flows_through_miner(self, example_db):
        result = Miner(example_db).frequent_itemsets(
            MiningConfig(
                support=0.3,
                algorithm="setm-columnar-disk",
                options={"memory_budget_bytes": 4096},
            )
        )
        assert result.extra["memory_budget_bytes"] == 4096

    @pytest.mark.parametrize(
        "name", ["setm-disk", "nested-loop-disk"]
    )
    def test_io_reporters_really_report(self, name, example_db):
        result = Miner(example_db).frequent_itemsets(
            MiningConfig(support=0.3, algorithm=name)
        )
        assert "io" in result.extra


class TestDifferentialAgreement:
    """Every registered engine finds exactly bruteforce's patterns."""

    @pytest.mark.parametrize("name", sorted(set(available_engines())))
    def test_engine_agrees_with_bruteforce(self, name, example_db):
        oracle = bruteforce(example_db, 0.30)
        result = Miner(example_db).frequent_itemsets(
            MiningConfig(support=0.30, algorithm=name)
        )
        assert result.same_patterns_as(oracle), name

    @pytest.mark.parametrize(
        "name", sorted(set(available_engines()) - {"nested-loop-disk"})
    )
    def test_engine_agrees_on_random_db(self, name, make_random_db):
        db = make_random_db(1234, num_transactions=40, num_items=12)
        oracle = bruteforce(db, 0.1)
        result = Miner(db).frequent_itemsets(
            MiningConfig(support=0.1, algorithm=name)
        )
        assert result.same_patterns_as(oracle), name
