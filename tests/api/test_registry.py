"""The capability-aware engine registry and its retired-name aliases."""

from __future__ import annotations

import pytest

from repro.baselines.bruteforce import bruteforce
from repro.config import DEFAULT_MEMORY_BUDGET, MiningConfig
from repro.errors import (
    EngineOptionError,
    InvalidConfigError,
    UnknownAlgorithmError,
)
from repro.miner import Miner
from repro.registry import (
    ENGINE_ALIASES,
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
        ("name", "reports_io", "representation", "accepted"),
        [
            ("setm", False, "tuples", {"count_via", "measure_memory"}),
            (
                "setm-columnar",
                False,
                "columnar",
                {
                    "count_via",
                    "measure_memory",
                    "memory_budget_bytes",
                    "workers",
                    "spill_dir",
                    "start_method",
                    "transport",
                },
            ),
            (
                "setm-disk",
                True,
                "paged",
                {
                    "buffer_pages",
                    "sort_memory_pages",
                    "track_sort_order",
                    "measure_memory",
                },
            ),
            ("setm-sql", False, "sql", {"backend", "strategy", "measure_memory"}),
            ("setm-sqlite", False, "sql", {"strategy", "measure_memory"}),
            ("nested-loop", False, "tuples", set()),
            ("nested-loop-disk", True, "paged", {"buffer_pages"}),
            ("apriori", False, "tuples", {"counting"}),
            ("ais", False, "tuples", set()),
            ("bruteforce", False, "tuples", set()),
        ],
    )
    def test_flags_per_engine(self, name, reports_io, representation, accepted):
        spec = _spec(name)
        assert spec.reports_page_accesses is reports_io
        assert spec.representation == representation
        assert spec.accepted_options == frozenset(accepted)
        assert spec.supports_max_length is True

    def test_one_engine_takes_a_budget_and_workers(self):
        """Out of core and parallel are options, not engines: exactly
        one engine accepts each (derived, as ``engines`` and
        ``Miner.explain`` derive them)."""
        for option in ("memory_budget_bytes", "workers"):
            assert [
                s.name for s in engine_specs() if option in s.accepted_options
            ] == ["setm-columnar"]

    def test_capability_fields_are_gone(self):
        spec = _spec("setm-columnar")
        assert not hasattr(spec, "out_of_core")
        assert not hasattr(spec, "parallel")

    def test_memory_budget_flows_through_miner(self, example_db):
        result = Miner(example_db).frequent_itemsets(
            MiningConfig(support=0.3, options={"memory_budget_bytes": 4096})
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
    """Every registered engine, and every retired name, finds exactly
    bruteforce's patterns."""

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    @pytest.mark.parametrize(
        "name", sorted({*available_engines(), *ENGINE_ALIASES})
    )
    def test_engine_agrees_with_bruteforce(self, name, example_db):
        oracle = bruteforce(example_db, 0.30)
        result = Miner(example_db).frequent_itemsets(
            MiningConfig(support=0.30, algorithm=name)
        )
        assert result.same_patterns_as(oracle), name

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    @pytest.mark.parametrize(
        "name",
        sorted({*available_engines(), *ENGINE_ALIASES} - {"nested-loop-disk"}),
    )
    def test_engine_agrees_on_random_db(self, name, make_random_db):
        db = make_random_db(1234, num_transactions=40, num_items=12)
        oracle = bruteforce(db, 0.1)
        result = Miner(db).frequent_itemsets(
            MiningConfig(support=0.1, algorithm=name)
        )
        assert result.same_patterns_as(oracle), name


#: What each retired engine gave at 1.10 on T10.I4.D10K (seed 7) at 1%
#: support — ``(options, spill.partitions, parallel_iterations)``; the
#: pooled ones with 2 workers.  ``setm-columnar-disk`` reported no
#: parallel block: it pooled no level.
ALIAS_BASELINES = {
    "setm-columnar-disk": ({}, {}, []),
    "setm-parallel": ({"workers": 2}, {2: 7}, [2]),
    "setm-spill-parallel": ({"workers": 2}, {2: 7}, [2]),
}


class TestEngineAliases:
    """The retired engine names run ``setm-columnar`` with their defaults."""

    def test_registry_lists_eleven_engines_and_no_alias(self):
        names = available_engines()
        assert len(names) == 11
        assert not set(ENGINE_ALIASES) & set(names)
        assert set(ALIAS_BASELINES) == set(ENGINE_ALIASES)

    @pytest.mark.parametrize("alias", sorted(ENGINE_ALIASES))
    def test_alias_resolves_with_a_deprecation_warning(self, alias):
        with pytest.warns(DeprecationWarning, match="removed in 1.12"):
            spec = get_engine(alias)
        target, defaults = ENGINE_ALIASES[alias]
        assert spec.name == target == "setm-columnar"
        assert spec.runner.keywords == defaults
        assert spec.accepted_options == _spec("setm-columnar").accepted_options

    @pytest.fixture(scope="class")
    def t10_resident(self, quest_t10_db):
        return Miner(quest_t10_db).frequent_itemsets(MiningConfig(support=0.01))

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    @pytest.mark.parametrize("alias", sorted(ALIAS_BASELINES))
    def test_alias_matches_the_retired_engine(
        self, alias, quest_t10_db, t10_resident
    ):
        options, partitions, pooled = ALIAS_BASELINES[alias]
        result = Miner(quest_t10_db).frequent_itemsets(
            MiningConfig(support=0.01, algorithm=alias, options=options)
        )
        assert result.same_patterns_as(t10_resident)
        assert result.iterations == t10_resident.iterations
        assert result.extra["spill"]["partitions"] == partitions
        assert result.extra["parallel"]["parallel_iterations"] == pooled
        budget = ENGINE_ALIASES[alias][1].get("memory_budget_bytes")
        assert result.extra["memory_budget_bytes"] == (
            budget or DEFAULT_MEMORY_BUDGET
        )

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_alias_default_workers_is_the_cpu_count(
        self, example_db, monkeypatch
    ):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        result = get_engine("setm-parallel").run(example_db, 0.3)
        assert result.extra["workers"] == 3
        # A caller's option wins over the alias default: one worker and
        # no budget is the in-memory kernel.
        result = get_engine("setm-parallel").run(
            example_db, 0.3, options={"workers": 1}
        )
        assert "workers" not in result.extra
