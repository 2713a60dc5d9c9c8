"""The engine a caller gets by naming none, at every front door.

``MiningConfig``, the ``Miner`` session, ``run_query``, serve and
``repro mine`` all default to :data:`repro.config.DEFAULT_ENGINE`.
Whatever that engine is, its answers must equal the faithful tuple
engine ``setm`` in every field except the engine name — on the paper's
example dataset and on a QUEST grid point.
"""

from __future__ import annotations

import io
import json

import pytest

from repro import Miner, MiningConfig
from repro.cli import main
from repro.config import DEFAULT_ENGINE
from repro.data.example import paper_example_database
from repro.data.io import write_basket_file
from repro.data.quest import QuestConfig, generate_quest_dataset
from repro.query import run_query
from repro.serve.protocol import result_payload
from repro.serve.service import MiningService

#: ``name -> (database factory, minimum support)``.
DATASETS = {
    "example": (paper_example_database, 0.3),
    "quest": (
        lambda: generate_quest_dataset(
            QuestConfig(
                num_transactions=150,
                avg_transaction_len=6,
                avg_pattern_len=2,
                seed=0,
            )
        ),
        0.02,
    ),
}

#: ``mine --json`` fields that are wall-clock or memory measurements.
_MEASURED = ("elapsed_seconds", "iteration_seconds", "peak_memory_bytes")


@pytest.fixture(scope="module", params=sorted(DATASETS))
def dataset(request):
    factory, support = DATASETS[request.param]
    database = factory()
    reference = result_payload(
        Miner(database).frequent_itemsets(
            MiningConfig(support=support, algorithm="setm")
        )
    )
    assert reference["algorithm"] == "setm"
    assert reference["num_patterns"] > 0
    return database, support, reference


def _as_setm(payload: dict) -> dict:
    """``payload`` with the default engine's name swapped for ``setm``."""
    assert payload["algorithm"] == DEFAULT_ENGINE
    return {**payload, "algorithm": "setm"}


def test_default_engine_is_not_the_tuple_reference():
    assert MiningConfig().algorithm == DEFAULT_ENGINE
    assert DEFAULT_ENGINE != "setm"


def test_miner(dataset):
    database, support, reference = dataset
    result = Miner(database).frequent_itemsets(MiningConfig(support=support))
    assert result.extra["session"]["engine"] == DEFAULT_ENGINE
    assert _as_setm(result_payload(result)) == reference


def test_run_query(dataset):
    database, support, reference = dataset
    document = run_query(
        f"MINE ITEMSETS FROM db WHERE support >= {support}", {"db": database}
    )
    assert document["engine"] == DEFAULT_ENGINE
    assert _as_setm(document["result"]) == reference


def test_serve_mine(dataset):
    database, support, reference = dataset
    service = MiningService({"db": database}, workers=1)
    try:
        status, document = service.handle(
            {"op": "mine", "dataset": "db", "config": {"support": support}}
        )
    finally:
        service.drain()
    assert status == 200, document
    assert document["server"]["engine"] == DEFAULT_ENGINE
    assert _as_setm(document["result"]) == reference


def test_cli_mine_json(dataset, tmp_path):
    database, support, _ = dataset
    path = tmp_path / "input.basket"
    write_basket_file(database, path)

    def mine(*argv: str) -> dict:
        out = io.StringIO()
        assert main(
            ["mine", str(path), "--minsup", str(support), "--json", *argv],
            out=out,
        ) == 0
        document = json.loads(out.getvalue())
        for field in _MEASURED:
            document.pop(field)
        return document

    default = mine()
    assert default["num_patterns"] > 0
    assert _as_setm(default) == mine("--algorithm", "setm")
