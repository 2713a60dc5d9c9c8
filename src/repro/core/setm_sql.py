"""SETM executed as SQL statements — the paper's headline claim, live.

    "The major contribution of this paper is that it shows that at least
    some aspects of data mining can be carried out by using general query
    languages such as SQL, rather than by developing specialized black
    box algorithms."

:func:`setm_sql` drives Figure 4's loop by issuing the *generated* SQL of
Sections 3.1/4.1 (see :mod:`repro.sql.generator`) against any backend
implementing the three-method :class:`SQLBackend` protocol.  Two backends
ship:

* :class:`NativeBackend` — the bundled SQL engine
  (:class:`repro.sql.database.SQLDatabase`);
* ``repro.sqlbridge.SQLiteBackend`` — the stdlib ``sqlite3``.

Both produce bit-identical count relations to the in-memory
:func:`repro.core.setm.setm`; the integration tests assert it.

Like every other SETM engine, the SQL variant is a kernel plugged into
the one shared :func:`~repro.core.setm.run_figure4_loop`:
:class:`SQLKernel`'s relations are *table names* and its five Figure-4
steps are the generated ``CREATE``/``INSERT`` statements, so the
``extra["statements"]`` transcript records a replayable script while the
loop owns the control flow, the iteration statistics, and the
peak-memory accounting.

:func:`setm_sql` can also run the **nested-loop formulation** (Section
3.1): pass ``strategy="nested-loop"`` and each ``C_k`` is produced by the
``C_{k-1} × SALES^k`` join instead of the materialized ``R'_k`` pipeline
(the kernel then reports no ``R'_k`` cardinalities — the join never
materializes them, and the supported-instance count is the sum of the
``C_k`` counts, exactly as before the port).
"""

from __future__ import annotations

from typing import Any, Protocol

from repro.core.result import MiningResult, Pattern
from repro.core.setm import KernelLifecycle, run_figure4_loop
from repro.core.transactions import TransactionDatabase
from repro.registry import register_engine
from repro.sql import generator as gen

__all__ = ["NativeBackend", "SQLBackend", "SQLKernel", "setm_sql"]


class SQLBackend(Protocol):
    """What :func:`setm_sql` needs from a database."""

    def execute(
        self, sql: str, params: dict[str, object] | None = None
    ) -> list[tuple] | None:
        """Run one statement; SELECTs return rows, others may return None."""

    def query_count(self, table: str) -> int:
        """``SELECT COUNT(*) FROM table``."""

    def item_type(self) -> str:
        """SQL type of the item column: ``"INTEGER"`` or ``"TEXT"``."""


class NativeBackend:
    """The bundled SQL engine as a :class:`SQLBackend`."""

    def __init__(self, database: TransactionDatabase) -> None:
        from repro.sql.database import SQLDatabase  # local to avoid cycles

        self.db = SQLDatabase()
        items = database.distinct_items()
        self._item_type = (
            "TEXT"
            if any(isinstance(item, str) for item in items)
            else "INTEGER"
        )
        self.db.execute(gen.create_sales_table(self._item_type))
        self.db.insert_rows("SALES", database.sales_rows())

    def execute(
        self, sql: str, params: dict[str, object] | None = None
    ) -> list[tuple] | None:
        result = self.db.execute(sql, params)
        if result is None or isinstance(result, int):
            return None
        return list(result.rows)

    def query_count(self, table: str) -> int:
        result = self.db.execute(f"SELECT COUNT(*) FROM {table} t")
        assert result is not None and not isinstance(result, int)
        return result.rows[0][0]

    def item_type(self) -> str:
        return self._item_type


#: Relation placeholder for the nested-loop strategy's ``R'_k`` — the
#: ``C_{k-1} × SALES^k`` join never materializes instance relations, so
#: the kernel reports an empty one (``candidate_instances = 0``, as the
#: paper's Section 3.1 analysis also never prices ``|R'_k|``).
_NOT_MATERIALIZED = "(not materialized)"


class SQLKernel(KernelLifecycle):
    """Figure 4's steps as generated SQL against a :class:`SQLBackend`.

    Relations are table names (``"SALES"``, ``"R2"``, ...); pattern keys
    are the label tuples read back from the ``C_k`` tables, so
    :meth:`decode` is the identity.  Every statement issued through the
    kernel is recorded in order — ``extra["statements"]`` replays as a
    complete mining script.

    For ``strategy="nested-loop"`` the count relations double as the
    loop's ``R_k`` stand-ins: ``size`` of a ``{pattern: count}`` mapping
    is the summed instance count, which both terminates the loop at the
    right moment and reproduces the strategy's ``supported_instances``
    accounting.
    """

    def __init__(
        self,
        database: TransactionDatabase,
        threshold: int,
        backend: SQLBackend,
        strategy: str,
    ) -> None:
        self._backend = backend
        self._strategy = strategy
        self._item_type = backend.item_type()
        self._params: dict[str, object] = {"minsupport": threshold}
        self.statements: list[str] = []
        self._k = 1

    def _run(self, sql: str) -> None:
        self.statements.append(sql)
        self._backend.execute(sql, self._params)

    def _read_counts(self, k: int) -> dict[Pattern, int]:
        rows = self._backend.execute(f"SELECT * FROM {gen.SQLNames.c(k)} t")
        assert rows is not None
        return {tuple(row[:-1]): row[-1] for row in rows}

    # -- Figure-4 steps -------------------------------------------------------------

    def make_sales(self) -> str:
        # R_1 := SALES (uniform item1 schema); C_1 with HAVING (Section
        # 3.1).  The SALES table itself pre-exists on the backend.
        self._run(gen.create_r_table(1, self._item_type))
        self._run(gen.insert_r1_query())
        self._run(gen.create_c_table(1, self._item_type))
        self._run(gen.insert_c1_query(filtered=True))
        return "SALES"

    def c1_counts(self, sales: str) -> list[tuple[Pattern, int]]:
        # The unfiltered C_1 of Figure 4's pseudocode; read directly (not
        # part of the mining script, which uses the HAVING form above).
        rows = self._backend.execute(
            "SELECT s.item, COUNT(*) FROM SALES s GROUP BY s.item"
        )
        assert rows is not None
        return [((item,), count) for item, count in rows]

    def resort_by_tid(self, r: str) -> str:
        # Sort orders live inside the generated execution plans; a table
        # name needs no re-sorting.
        return r

    def merge_extend(self, r: str, sales: str) -> str:
        self._run(gen.create_c_table(self._k, self._item_type))
        if self._strategy != "sort-merge":
            return _NOT_MATERIALIZED
        self._run(gen.create_r_table(self._k, self._item_type, prime=True))
        self._run(gen.insert_rk_prime_query(self._k))
        return gen.SQLNames.r_prime(self._k)

    def count_and_filter(
        self, r_prime: str, threshold: int
    ) -> tuple[int, dict[Pattern, int], Any]:
        k = self._k
        if self._strategy == "sort-merge":
            self._run(gen.insert_ck_query(k))
            c_next = self._read_counts(k)
            self._run(gen.create_r_table(k, self._item_type))
            self._run(gen.insert_rk_filter_query(k))
            return len(c_next), c_next, gen.SQLNames.r(k)
        self._run(gen.insert_ck_nested_loop_query(k))
        c_next = self._read_counts(k)
        return len(c_next), c_next, c_next

    def size(self, r: Any) -> int:
        if r == _NOT_MATERIALIZED:
            return 0
        if isinstance(r, dict):  # nested-loop: C_k stands in for R_k
            return sum(r.values())
        return self._backend.query_count(r)

    def decode(self, key: Pattern, k: int) -> Pattern:
        return key

    # -- lifecycle ------------------------------------------------------------------

    def begin_iteration(self, k: int) -> None:
        self._k = k

    def extra_stats(self) -> dict[str, Any]:
        return {"statements": self.statements, "strategy": self._strategy}


@register_engine(
    "setm-sql",
    description="SETM as generated SQL on the bundled engine (Section 4.1)",
    representation="sql",
    accepted_options=("backend", "strategy", "measure_memory"),
)
def setm_sql(
    database: TransactionDatabase,
    minimum_support: float,
    *,
    backend: SQLBackend | None = None,
    strategy: str = "sort-merge",
    max_length: int | None = None,
    measure_memory: bool = False,
) -> MiningResult:
    """Mine ``database`` by executing the paper's SQL on ``backend``.

    Parameters
    ----------
    database:
        Transactions to mine.  When ``backend`` is provided it must already
        contain this database's ``SALES`` table (the bundled backends load
        it themselves).
    minimum_support:
        Fractional minimum support in ``(0, 1]``.
    backend:
        A :class:`SQLBackend`; defaults to a fresh :class:`NativeBackend`.
    strategy:
        ``"sort-merge"`` (Section 4.1: materialize ``R'_k``, count, filter)
        or ``"nested-loop"`` (Section 3.1: join ``C_{k-1}`` with ``k``
        copies of ``SALES``).
    max_length:
        Optional cap on pattern length.
    measure_memory:
        Record loop peak memory in ``extra["peak_memory_bytes"]``; off
        by default (see :func:`repro.core.setm.setm`).

    Returns
    -------
    MiningResult
        ``algorithm`` is ``"setm-sql"`` or ``"setm-sql-nested-loop"``;
        ``extra["statements"]`` records every SQL statement executed, in
        order — the full script is replayable.
    """
    if strategy not in ("sort-merge", "nested-loop"):
        raise ValueError(f"unknown strategy {strategy!r}")
    threshold = database.absolute_support(minimum_support)
    backend = backend if backend is not None else NativeBackend(database)
    return run_figure4_loop(
        database,
        minimum_support,
        SQLKernel(database, threshold, backend, strategy),
        algorithm=(
            "setm-sql" if strategy == "sort-merge" else "setm-sql-nested-loop"
        ),
        max_length=max_length,
        measure_memory=measure_memory,
    )
