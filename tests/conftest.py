"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.core.transactions import TransactionDatabase
from repro.data.example import paper_example_database
from repro.data.quest import QuestConfig, generate_quest_dataset
from repro.data.retail import generate_retail_dataset


@pytest.fixture(scope="session")
def example_db() -> TransactionDatabase:
    """The 10-transaction worked example of Section 4.2 (Figure 1)."""
    return paper_example_database()


@pytest.fixture(scope="session")
def small_retail_db() -> TransactionDatabase:
    """A 1/20-scale calibrated retail database (~2,300 transactions)."""
    return generate_retail_dataset(scale=0.05)


@pytest.fixture(scope="session")
def quest_t10_db() -> TransactionDatabase:
    """QUEST T10.I4.D10K, seed 7 (100,747 SALES rows; ``|R'_2|`` is
    530,543 at 1% support)."""
    return generate_quest_dataset(QuestConfig(seed=7))


def random_database(
    seed: int,
    *,
    num_transactions: int = 80,
    num_items: int = 20,
    max_basket: int = 7,
) -> TransactionDatabase:
    """A reproducible random database for differential tests."""
    rng = random.Random(seed)
    return TransactionDatabase(
        (tid, rng.sample(range(1, num_items + 1), rng.randint(1, max_basket)))
        for tid in range(1, num_transactions + 1)
    )


@pytest.fixture
def make_random_db():
    """Factory fixture: ``make_random_db(seed, **kwargs)``."""
    return random_database


def deep_wide_database() -> tuple[TransactionDatabase, float]:
    """A wide catalog with deep frequent patterns, and its support.

    Items 1..3,000 each sit once in 600 five-item transactions, so the
    item radix is 3,001.  An eight-item core is bought 12 times, eight
    of them with one of two extra items, so at support 0.006 (4 of 612
    transactions) 9-patterns are frequent.  Packing a 9-pattern as nine
    mixed-radix digits would need ``3001**9 > 2**63``; the kernels' rank
    keys stay below ``|F_{k-1}| * 3001`` at every level.
    """
    items = list(range(1, 3001))
    transactions = [
        (tid, items[5 * (tid - 1) : 5 * tid]) for tid in range(1, 601)
    ]
    core = [3, 401, 977, 1500, 1999, 2400, 2718, 2998]
    baskets = [core] * 4 + [core + [1234]] * 4 + [core + [2222]] * 4
    transactions += list(enumerate(baskets, start=601))
    return TransactionDatabase(transactions), 0.006


@pytest.fixture(scope="session")
def deep_wide_db() -> tuple[TransactionDatabase, float]:
    """``(database, minsup)`` from :func:`deep_wide_database`."""
    return deep_wide_database()
