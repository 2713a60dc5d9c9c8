"""sqlite3 backend: the paper's SQL running on a stock RDBMS.

The strongest form of the paper's claim — mining in a general query
language — is running the generated statements on a database engine we
did not write.  :class:`SQLiteBackend` adapts the stdlib ``sqlite3`` to
the :class:`repro.core.setm_sql.SQLBackend` protocol, and
:func:`sqlite_mine` is the one-call version.

sqlite3 accepts the generated SQL verbatim (``:name`` parameters included);
the only adaptation is parameter filtering, since sqlite rejects bindings
for parameters a statement does not mention.
"""

from __future__ import annotations

import re
import sqlite3

from repro.core.result import MiningResult
from repro.core.setm_sql import setm_sql
from repro.core.transactions import TransactionDatabase
from repro.registry import register_engine
from repro.sql.generator import create_sales_table

__all__ = ["SQLiteBackend", "sqlite_mine"]

_PARAM_PATTERN = re.compile(r":(\w+)")


class SQLiteBackend:
    """A :class:`~repro.core.setm_sql.SQLBackend` over ``sqlite3``.

    Parameters
    ----------
    database:
        Transactions to load into a fresh in-memory sqlite database.
    connection:
        Alternatively, an existing connection already holding ``SALES``
        (items must be in a column named ``item``, trans ids in
        ``trans_id``).
    """

    def __init__(
        self,
        database: TransactionDatabase | None = None,
        *,
        connection: sqlite3.Connection | None = None,
    ) -> None:
        if (database is None) == (connection is None):
            raise ValueError(
                "provide exactly one of `database` or `connection`"
            )
        if connection is not None:
            self.connection = connection
            row = self.connection.execute(
                "SELECT item FROM SALES LIMIT 1"
            ).fetchone()
            self._item_type = (
                "TEXT" if row and isinstance(row[0], str) else "INTEGER"
            )
        else:
            assert database is not None
            self.connection = sqlite3.connect(":memory:")
            items = database.distinct_items()
            self._item_type = (
                "TEXT"
                if any(isinstance(item, str) for item in items)
                else "INTEGER"
            )
            self.connection.execute(create_sales_table(self._item_type))
            self.connection.executemany(
                "INSERT INTO SALES VALUES (?, ?)", database.sales_rows()
            )
            self.connection.commit()

    def execute(
        self, sql: str, params: dict[str, object] | None = None
    ) -> list[tuple] | None:
        # sqlite3 rejects bindings for parameters the statement does not
        # reference; pass only what the text mentions.
        mentioned = set(_PARAM_PATTERN.findall(sql))
        bound = {
            name: value
            for name, value in (params or {}).items()
            if name in mentioned
        }
        cursor = self.connection.execute(sql, bound)
        if sql.lstrip().upper().startswith("SELECT"):
            return [tuple(row) for row in cursor.fetchall()]
        return None

    def query_count(self, table: str) -> int:
        (count,) = self.connection.execute(
            f"SELECT COUNT(*) FROM {table}"
        ).fetchone()
        return count

    def item_type(self) -> str:
        return self._item_type


@register_engine(
    "setm-sqlite",
    description="the paper's SQL on stdlib sqlite3",
    representation="sql",
    accepted_options=("strategy", "measure_memory"),
)
def sqlite_mine(
    database: TransactionDatabase,
    minimum_support: float,
    *,
    strategy: str = "sort-merge",
    max_length: int | None = None,
    measure_memory: bool = False,
) -> MiningResult:
    """Run SETM's SQL on sqlite3 and return the standard result object."""
    backend = SQLiteBackend(database)
    try:
        result = setm_sql(
            database,
            minimum_support,
            backend=backend,
            strategy=strategy,
            max_length=max_length,
            measure_memory=measure_memory,
        )
    finally:
        backend.connection.close()
    result.algorithm = result.algorithm.replace("setm-sql", "setm-sqlite")
    return result
