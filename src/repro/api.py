"""Front-door mining API.

The typed entry point is the :class:`~repro.miner.Miner` session facade
with a :class:`~repro.config.MiningConfig`:

>>> from repro import Miner, MiningConfig, TransactionDatabase
>>> db = TransactionDatabase([(1, ["bread", "butter", "milk"]),
...                           (2, ["bread", "butter"]),
...                           (3, ["beer"])])
>>> miner = Miner(db)
>>> rules = miner.rules(MiningConfig(support=0.5, confidence=0.9))
>>> [str(r) for r in rules]
['butter ==> bread, [100.0%, 66.7%]', 'bread ==> butter, [100.0%, 66.7%]']

``MiningConfig.algorithm`` selects the engine; the default is
:data:`repro.config.DEFAULT_ENGINE` (``"setm-columnar"``, the paper's
SETM on array columns).  ``"setm"``, Figure 4 transliterated tuple by
tuple, is the opt-in faithful reference.  All engines return identical
patterns — the test suite holds them to that — so the choice only
affects *how* the work is done.  Engines self-register in
:mod:`repro.registry` with capability metadata;
``repro.registry.available_engines()`` lists them:

===================  ==========================================================
``setm``             In-memory Algorithm SETM (Figure 4)
``setm-columnar``    SETM on dictionary-encoded array columns (fast in-memory)
``setm-disk``        SETM on the paged storage engine (reports page accesses)
``setm-sql``         SETM as generated SQL on the bundled engine (Section 4.1)
``setm-sqlite``      The same SQL on stdlib sqlite3
``nested-loop``      The Section 3.1 formulation, in memory
``nested-loop-disk`` Section 3.2's physical plan over real B+-tree indexes
``apriori``          Apriori baseline (VLDB '94)
``ais``              AIS baseline (SIGMOD '93, the paper's reference [4])
``bruteforce``       Exhaustive oracle (small inputs only)
===================  ==========================================================

This module keeps the original flat functions —
:func:`mine_frequent_itemsets`, :func:`mine_association_rules`, and the
``ALGORITHMS`` mapping — as thin compatibility wrappers over the session
layer.  ``ALGORITHMS`` is a read-only view of the engine registry
(register engines with :func:`repro.registry.register_engine`).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping

from repro.config import DEFAULT_ENGINE, MiningConfig
from repro.core.result import MiningResult
from repro.errors import InvalidSupportError
from repro.core.rules import Rule
from repro.core.transactions import TransactionDatabase
from repro.miner import Miner
from repro.registry import available_engines, find_engine

__all__ = ["ALGORITHMS", "mine_association_rules", "mine_frequent_itemsets"]


def _legacy_config(
    minimum_support: float,
    minimum_confidence: float | None,
    algorithm: str,
    options: dict[str, object],
) -> MiningConfig:
    """Translate a flat legacy call into a :class:`MiningConfig`.

    The legacy functions documented ``minimum_support`` as a *fraction*,
    so an integer ``1`` here historically meant 100% — coerce to float to
    preserve that reading (``MiningConfig`` treats bare ints as absolute
    counts).
    """
    if isinstance(minimum_support, int) and not isinstance(minimum_support, bool):
        if minimum_support > 1:
            # Don't let the coercion produce a confusing "absolute count
            # >= 1 ... got 5.0" message: name the actual contract here.
            raise InvalidSupportError(
                "minimum_support",
                minimum_support,
                "a fraction in (0, 1] in this legacy function "
                "(use MiningConfig(support=<int>) for absolute counts)",
            )
        minimum_support = float(minimum_support)
    options = dict(options)
    max_length = options.pop("max_length", None)
    return MiningConfig(
        support=minimum_support,
        confidence=minimum_confidence,
        algorithm=algorithm,
        max_length=max_length,
        options=options,
    )


def mine_frequent_itemsets(
    database: TransactionDatabase,
    minimum_support: float,
    *,
    algorithm: str = DEFAULT_ENGINE,
    **options: object,
) -> MiningResult:
    """Find all patterns with support at least ``minimum_support``.

    Compatibility wrapper over ``Miner(database).frequent_itemsets(...)``.

    Parameters
    ----------
    database:
        The transactions to mine.
    minimum_support:
        Fraction of transactions in ``(0, 1]`` a pattern must appear in.
    algorithm:
        A registered engine name (default
        :data:`~repro.config.DEFAULT_ENGINE`).
    options:
        Passed through to the engine (e.g. ``max_length=3``,
        ``buffer_pages=128`` for ``setm-disk``) after validation against
        the engine's accepted options.
    """
    config = _legacy_config(minimum_support, None, algorithm, options)
    return Miner(database).frequent_itemsets(config)


def mine_association_rules(
    database: TransactionDatabase,
    minimum_support: float,
    minimum_confidence: float,
    *,
    algorithm: str = DEFAULT_ENGINE,
    **options: object,
) -> tuple[MiningResult, list[Rule]]:
    """Mine patterns, then generate the Section 5 rules from them.

    Compatibility wrapper over ``Miner``; returns the
    :class:`MiningResult` (for its iteration statistics and count
    relations) together with the qualifying rules.
    """
    config = _legacy_config(minimum_support, minimum_confidence, algorithm, options)
    miner = Miner(database)
    result = miner.frequent_itemsets(config)
    return result, miner.rules(config)


class _AlgorithmsView(Mapping):
    """Legacy ``ALGORITHMS`` mapping, live-backed by the engine registry.

    Reading (``ALGORITHMS["setm"]``, iteration, ``len``) reflects the
    current registry.  The view is read-only — item assignment and
    deletion raise :class:`TypeError`; new engines register through
    :func:`repro.registry.register_engine`, which also carries
    capability metadata.
    """

    def __getitem__(self, name: str) -> Callable[..., MiningResult]:
        spec = find_engine(name)
        if spec is None:
            raise KeyError(name)
        return spec.runner

    def __iter__(self) -> Iterator[str]:
        return iter(available_engines())

    def __len__(self) -> int:
        return len(available_engines())

    def copy(self) -> dict[str, Callable[..., MiningResult]]:
        """A plain-dict snapshot — dict-API parity for old read-side code."""
        return {name: self[name] for name in self}

    def __repr__(self) -> str:
        return f"ALGORITHMS({', '.join(available_engines())})"


#: Legacy algorithm registry view: name -> callable(db, minsup, **kwargs).
ALGORITHMS: Mapping[str, Callable[..., MiningResult]] = _AlgorithmsView()
