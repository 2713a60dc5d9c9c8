"""repro — a full reproduction of Houtsma & Swami's SETM (ICDE 1995).

*Set-Oriented Mining for Association Rules in Relational Databases*
expressed association-rule mining as plain SQL — sorting, merge-scan
joins, ``GROUP BY``/``HAVING`` — and showed the resulting Algorithm SETM
to be simple, fast, and stable across minimum-support values.

This package rebuilds the whole system:

* :mod:`repro.core` — Algorithm SETM in four guises (in-memory tuples,
  columnar arrays, SQL, paged-disk), the nested-loop strategy it
  rejects, and rule generation;
* :mod:`repro.sql` + :mod:`repro.relational` — a SQL subset engine, so
  the paper's queries run verbatim (``sqlite3`` is supported too);
* :mod:`repro.storage` — a simulated disk, buffer pool, external sort,
  merge-scan join and B+-tree matching the paper's cost-model constants;
* :mod:`repro.baselines` — AIS, Apriori, and a brute-force oracle;
* :mod:`repro.data` — the Figure 1 example, a generator calibrated to the
  paper's retail data set, Quest workloads, and the hypothetical analysis
  database;
* :mod:`repro.analysis` — the Section 3.2 / 4.3 cost models, to the page;
* :mod:`repro.serve` — mining as a service: a long-lived JSON/HTTP
  server (``python -m repro serve``) with admission control, shared
  session caches, and graceful drain.

The public API is the typed session layer: a :class:`MiningConfig`
(validated support as fraction *or* absolute count, confidence,
``max_length``, engine options) handed to a :class:`Miner` facade, which
resolves the engine through the capability-aware :mod:`repro.registry`
and caches the :class:`MiningResult` for selective follow-up queries.

Quickstart::

    from repro import Miner, MiningConfig, TransactionDatabase

    db = TransactionDatabase([(1, ["bread", "butter", "milk"]),
                              (2, ["bread", "butter"])])
    miner = Miner(db)
    config = MiningConfig(support=0.5, confidence=0.9)
    result = miner.frequent_itemsets(config)
    rules = miner.rules(config)
    print(miner.explain(config))          # the resolved plan, no mining
    miner.support_of("bread", "butter")   # post-hoc query, no re-mining

The flat pre-1.1 API (:func:`mine_frequent_itemsets`,
:func:`mine_association_rules`, ``ALGORITHMS``) remains as thin
compatibility wrappers over the session layer.

All errors raised at the API boundary derive from
:class:`~repro.errors.ReproError`; see :mod:`repro.errors`.
"""

from repro.api import ALGORITHMS, mine_association_rules, mine_frequent_itemsets
from repro.config import MiningConfig
from repro.core.result import IterationStats, MiningResult
from repro.core.rules import Rule, generate_rules
from repro.core.setm import setm
from repro.core.setm_columnar import setm_columnar
from repro.core.transactions import (
    ItemCatalog,
    Transaction,
    TransactionDatabase,
)
from repro.errors import (
    EngineOptionError,
    InvalidConfigError,
    InvalidSupportError,
    ReproError,
    ServeError,
    UnknownAlgorithmError,
)
from repro.miner import Miner
from repro.registry import (
    EngineSpec,
    available_engines,
    engine_specs,
    get_engine,
    register_engine,
)

__version__ = "1.11.0"

__all__ = [
    "ALGORITHMS",
    "EngineOptionError",
    "EngineSpec",
    "InvalidConfigError",
    "InvalidSupportError",
    "ItemCatalog",
    "IterationStats",
    "Miner",
    "MiningConfig",
    "MiningResult",
    "ReproError",
    "Rule",
    "ServeError",
    "Transaction",
    "TransactionDatabase",
    "UnknownAlgorithmError",
    "__version__",
    "available_engines",
    "engine_specs",
    "generate_rules",
    "get_engine",
    "mine_association_rules",
    "mine_frequent_itemsets",
    "register_engine",
    "setm",
    "setm_columnar",
]
