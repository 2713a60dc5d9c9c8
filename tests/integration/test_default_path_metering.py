"""The default mining path never meters memory.

``tracemalloc`` taxes every allocation 5-10x, so ``measure_memory`` is
opt-in.  Driven from the registry: every engine that accepts the option
— ``setm-columnar`` also under a budget, with workers and with both —
is mined through each front door with default options — ``Miner``,
``run_query``, and a ``MiningService`` ``mine`` + ``refresh`` — and must
neither touch the trace nor report ``peak_memory_bytes``.  Asked
explicitly, each still reports a positive peak.  A future engine that
meters by default fails here.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro import MiningConfig
from repro.miner import Miner
from repro.query import run_query
from repro.registry import engine_specs
from repro.serve import MiningService

#: ``setm-columnar``'s storage and execution options, as engine options
#: and as the WITH clause that sets them.
_COLUMNAR_CONFIGURATIONS = [
    ({"memory_budget_bytes": 1024}, "WITH memory_budget = '1K'"),
    ({"workers": 2}, "WITH workers = 2"),
    (
        {"memory_budget_bytes": 1024, "workers": 2},
        "WITH memory_budget = '1K', workers = 2",
    ),
]

#: ``(engine, options, WITH clause)`` per metered configuration.
METERED_CONFIGURATIONS = [
    (spec.name, {}, "")
    for spec in engine_specs()
    if "measure_memory" in (spec.accepted_options or ())
] + [
    ("setm-columnar", options, clause)
    for options, clause in _COLUMNAR_CONFIGURATIONS
]


def test_every_figure4_engine_offers_metering():
    assert len(METERED_CONFIGURATIONS) >= 9


@pytest.fixture
def trace_calls(monkeypatch):
    """Record every call that would start a trace or reset its peak."""
    assert not tracemalloc.is_tracing()
    calls: list[str] = []
    for name in ("start", "reset_peak"):
        real = getattr(tracemalloc, name)

        def spy(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(tracemalloc, name, spy)
    yield calls
    assert not tracemalloc.is_tracing()


@pytest.mark.parametrize(
    ("engine", "options", "clause"),
    METERED_CONFIGURATIONS,
    ids=[
        engine + "".join(f"[{key}]" for key in options)
        for engine, options, _ in METERED_CONFIGURATIONS
    ],
)
class TestDefaultPathIsUnmetered:
    def test_miner(self, engine, options, clause, example_db, trace_calls):
        result = Miner(example_db).frequent_itemsets(
            MiningConfig(support=0.3, algorithm=engine, options=options)
        )
        assert "peak_memory_bytes" not in result.extra
        assert trace_calls == []

    def test_run_query(self, engine, options, clause, example_db, trace_calls):
        session = Miner(example_db)
        document = run_query(
            "MINE ITEMSETS FROM example WHERE support >= 0.3 "
            f"USING ENGINE '{engine}' {clause}",
            {"example": example_db},
            miner=session,
        )
        assert document["engine"] == engine
        assert "peak_memory_bytes" not in session.last_result.extra
        assert trace_calls == []

    def test_serve_mine_and_refresh(
        self, engine, options, clause, example_db, trace_calls
    ):
        service = MiningService({"example": example_db}, workers=2)
        try:
            for op in ("mine", "refresh"):
                status, document = service.handle(
                    {
                        "op": op,
                        "dataset": "example",
                        "config": {
                            "support": 0.3,
                            "algorithm": engine,
                            # Namespaced: refresh reroutes to the
                            # incremental engine, which takes neither.
                            "options": {
                                f"{engine}.{key}": value
                                for key, value in options.items()
                            },
                        },
                    }
                )
                assert status == 200, document
        finally:
            service.drain()
        assert trace_calls == []

    def test_opt_in_reports_a_positive_peak(
        self, engine, options, clause, example_db
    ):
        result = Miner(example_db).frequent_itemsets(
            MiningConfig(
                support=0.3,
                algorithm=engine,
                options={**options, "measure_memory": True},
            )
        )
        assert result.extra["peak_memory_bytes"] > 0
        assert not tracemalloc.is_tracing()
