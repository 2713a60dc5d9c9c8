"""Lowering of a :class:`MineQuery` to a plan DAG.

The planner makes one judgement call — *which engine runs the mine* —
and it is a short one, because storage and execution are options of
one engine rather than separate engines:

* ``USING ENGINE`` names the engine outright;
* a configured ``state`` directory selects ``setm-incremental`` (an
  existing :class:`~repro.core.incremental.MiningState` means the run
  counts only the appended delta);
* every other query runs :data:`~repro.config.DEFAULT_ENGINE`.

``WITH memory_budget``, ``workers`` and ``transport`` pass through to
the chosen engine as options.  The engine prices every level exactly
and spills only the levels the budget cannot hold, so the planner does
not second-guess it from the scan's estimated footprint (which EXPLAIN
still shows).  An option the engine does not accept is dropped with a
warning.  A targeted ``lhs HAS`` constraint is planned as a post-mine
filter — no registered engine advertises selective generation, and the
decision bullet says so.  Every decision is recorded as a
:class:`~repro.query.plan.Decision` with a reason string, so golden
plans are reviewable diffs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.config import DEFAULT_ENGINE, MiningConfig
from repro.errors import PlanError, StateError
from repro.query.ast_nodes import MineQuery
from repro.query.parser import parse_byte_size
from repro.query.plan import PlanNode, QueryPlan
from repro.registry import ENGINE_ALIASES, engine_specs, find_engine, get_engine

__all__ = ["DatasetStats", "dataset_stats", "plan_query"]

#: Modelled bytes per encoded SALES row: two int64 columns (trans_id
#: and dictionary-encoded item).  Deliberately simple — the estimate is
#: shown in EXPLAIN for the operator to judge; no choice rests on it.
BYTES_PER_ROW = 16

#: Default thresholds when the query leaves them out (the mine CLI's).
DEFAULT_SUPPORT = 0.01
DEFAULT_CONFIDENCE = 0.5

#: The engine a ``state`` directory selects.
INCREMENTAL_ENGINE = "setm-incremental"


@dataclass(frozen=True)
class DatasetStats:
    """What the planner knows about the dataset, and nothing more.

    Pure data, so plans are a function of ``(query, stats, cpu_count)``
    — the golden suite synthesizes these directly and never touches a
    real file or the host's CPU count.
    """

    name: str
    num_transactions: int
    num_sales_rows: int
    estimated_bytes: int
    streamed: bool = False
    generation: int | None = None
    #: Generation of a materialized MiningState found under the query's
    #: ``state`` directory; ``None`` when absent (or unreadable).
    state_generation: int | None = None


def dataset_stats(
    database,
    *,
    name: str = "dataset",
    state_dir: str | None = None,
) -> DatasetStats:
    """Measure ``database`` (a :class:`TransactionDatabase` or
    :class:`~repro.data.ingest.EncodedDataset`) into planner stats."""
    rows = database.num_sales_rows
    generation = getattr(database, "generation", None)
    state_generation = None
    if state_dir is not None:
        # Imported lazily: planning must not drag the incremental
        # engine in for queries that never mention state.
        from repro.core.incremental import MiningState

        try:
            state = MiningState.load(state_dir)
        except StateError:
            state = None  # unreadable state: plan as if absent
        if state is not None:
            state_generation = state.generation
    return DatasetStats(
        name=name,
        num_transactions=database.num_transactions,
        num_sales_rows=rows,
        estimated_bytes=rows * BYTES_PER_ROW,
        streamed=generation is not None,
        generation=generation,
        state_generation=state_generation,
    )


def _fmt_bytes(count: int) -> str:
    for unit, width in (("GiB", 2**30), ("MiB", 2**20), ("KiB", 2**10)):
        if count >= width:
            value = count / width
            text = f"{value:.1f}".rstrip("0").rstrip(".")
            return f"{text} {unit}"
    return f"{count} B"


def plan_query(
    query: MineQuery,
    stats: DatasetStats,
    *,
    cpu_count: int | None = None,
) -> QueryPlan:
    """Lower ``query`` over ``stats`` to an executable :class:`QueryPlan`.

    ``cpu_count`` defaults to the host's (:func:`os.cpu_count`); tests
    and EXPLAIN golden files pin it for deterministic plans.
    """
    cpus = cpu_count if cpu_count is not None else (os.cpu_count() or 1)

    scan = PlanNode("scan", stats.name)
    scan.props["transactions"] = stats.num_transactions
    scan.props["sales_rows"] = stats.num_sales_rows
    scan.props["estimated_size"] = (
        f"{_fmt_bytes(stats.estimated_bytes)} "
        f"({BYTES_PER_ROW} B/row encoded)"
    )
    if stats.streamed:
        scan.props["generation"] = stats.generation
    chunk_rows = query.option("chunk_rows")
    input_format = query.option("input_format")
    if chunk_rows is not None or input_format is not None:
        scan.props["ingest"] = (
            f"streamed (format = {input_format or 'auto'}, "
            f"chunk_rows = {chunk_rows if chunk_rows is not None else 'default'})"
        )
        scan.decide(
            "ingest",
            "streamed",
            "WITH chunk_rows/input_format requests the chunked "
            "out-of-core encode; peak ingest memory is O(chunk + catalog)",
        )
    else:
        scan.props["ingest"] = "whole-file"

    mine = PlanNode("mine", "", children=[scan])

    state_dir = query.option("state")
    if state_dir is not None:
        if stats.state_generation is not None:
            mine.decide(
                "capability",
                "incremental",
                f"materialized MiningState (generation "
                f"{stats.state_generation}) found under {state_dir!r}: "
                "delta-only re-mine of the appended transactions",
            )
        else:
            mine.decide(
                "capability",
                "incremental",
                f"state directory {state_dir!r} holds no MiningState yet: "
                "this full mine will materialize one for later delta runs",
            )
    budget_raw = query.option("memory_budget")
    budget = parse_byte_size(budget_raw) if budget_raw is not None else None
    workers = query.option("workers")

    # -- engine choice ------------------------------------------------------------
    if query.engine is not None:
        spec = find_engine(query.engine)
        if spec is None:
            known = ", ".join(s.name for s in engine_specs())
            raise PlanError(
                f"USING ENGINE names unknown engine {query.engine!r}; "
                f"registered engines: {known}"
            )
        reason = "USING ENGINE overrides the planner's choice"
        if query.engine in ENGINE_ALIASES:
            defaults = ENGINE_ALIASES[query.engine][1]
            reason += (
                f"; {query.engine!r} is a deprecated alias of {spec.name!r} "
                "with "
                + ", ".join(f"{k} = {v!r}" for k, v in defaults.items())
            )
        mine.decide("engine", spec.name, reason)
        if state_dir is not None and not spec.incremental:
            mine.decide(
                "warning",
                "missing incremental",
                f"explicitly chosen engine {spec.name!r} does not maintain "
                "the state the query names; it mines from scratch",
            )
    elif state_dir is not None:
        spec = get_engine(INCREMENTAL_ENGINE)
        mine.decide(
            "engine",
            spec.name,
            "cheapest registered engine with incremental "
            "(capabilities: incremental)",
        )
    else:
        spec = get_engine(DEFAULT_ENGINE)
        mine.decide(
            "engine",
            spec.name,
            "no special capabilities required: fastest serial "
            "in-memory engine (columnar representation preferred)"
            if budget is None and workers is None
            else "the default engine: its memory budget and workers "
            "are options",
        )
    mine.label = spec.name

    # -- thresholds ---------------------------------------------------------------
    support = query.support
    if support is None:
        support = DEFAULT_SUPPORT
        mine.decide(
            "support",
            repr(DEFAULT_SUPPORT),
            "query has no support predicate: default minimum support",
        )
    threshold = MiningConfig(support=support).support_threshold(
        stats.num_transactions
    )
    mine.props["support"] = (
        f"{support!r} ({'absolute' if isinstance(support, int) else 'fraction'}"
        f" -> threshold {threshold} of {stats.num_transactions} transactions)"
    )

    confidence = query.confidence
    if query.target == "rules" and confidence is None:
        confidence = DEFAULT_CONFIDENCE

    # -- engine options, filtered by what the engine accepts ----------------------
    accepted = spec.accepted_options
    options: dict[str, object] = {}

    def offer(option: str, value: object, origin: str) -> bool:
        if option in accepted:
            options[option] = value
            return True
        mine.decide(
            "warning",
            f"dropped {option}",
            f"{origin}, but engine {spec.name!r} does not accept "
            f"{option!r}",
        )
        return False

    if budget is not None and offer(
        "memory_budget_bytes", budget, f"WITH memory_budget = {budget_raw!r}"
    ):
        mine.decide(
            "storage",
            f"budget {_fmt_bytes(budget)}",
            f"a level whose exact R'_k price exceeds a quarter of the "
            f"budget ({_fmt_bytes(budget // 4)}) runs as key ranges, its "
            "R_k shares spilled; smaller levels stay in memory",
        )
    if workers is not None and offer(
        "workers", workers, f"WITH workers = {workers}"
    ):
        mine.decide(
            "execution",
            "pooled" if workers >= 2 else "serial",
            f"workers = {workers} requested (host reports {cpus} CPUs): "
            "the key ranges of levels the budget cuts, and of levels of "
            "at least POOL_MIN_ROWS priced rows, run in a worker pool"
            if workers >= 2
            else "workers = 1 forces serial execution",
        )
    transport = query.option("transport")
    if transport is not None:
        offer("transport", transport, f"WITH transport = {transport!r}")

    # -- length pushdown (where the engine honours max_length) --------------------
    post_length: int | None = None
    max_length: int | None = None
    if query.length is not None:
        if spec.supports_max_length:
            max_length = query.length
            mine.decide(
                "length",
                f"pushdown <= {query.length}",
                f"engine {spec.name!r} honours max_length: the cap "
                "prunes candidate generation inside the mine",
            )
        else:
            post_length = query.length
            mine.decide(
                "length",
                f"post-filter <= {query.length}",
                f"engine {spec.name!r} does not honour max_length: "
                "patterns are trimmed after the mine",
            )
    if options:
        mine.props["options"] = ", ".join(
            f"{k} = {v!r}" for k, v in sorted(options.items())
        )

    config = MiningConfig(
        support=support,
        confidence=confidence,
        # An alias keeps its name: Miner resolves it to its defaults.
        algorithm=query.engine or spec.name,
        max_length=max_length,
        options=options,
        input_format=input_format,
        chunk_rows=chunk_rows,
        state_dir=state_dir,
    )

    # -- post-mine filter node -----------------------------------------------------
    post_filters = tuple((c.side, c.item) for c in query.has)
    tip: PlanNode = mine
    if post_filters or post_length is not None:
        label_parts = [f"{side} HAS {item!r}" for side, item in post_filters]
        if post_length is not None:
            label_parts.append(f"length <= {post_length}")
        filter_node = PlanNode(
            "filter", " AND ".join(label_parts), children=[mine]
        )
        for side, item in post_filters:
            filter_node.decide(
                "has",
                f"post-filter {side} HAS {item!r}",
                "no registered engine advertises selective generation "
                "for targeted item constraints; the full pattern set is "
                "mined once (and cached) and the constraint is applied "
                "to the output",
            )
        tip = filter_node

    # -- projection ----------------------------------------------------------------
    if query.target == "rules":
        project = PlanNode("project", "rules", children=[tip])
        project.props["confidence"] = (
            f"{confidence!r}"
            + (
                ""
                if query.confidence is not None
                else " (default: query has no confidence predicate)"
            )
        )
    else:
        project = PlanNode("project", "itemsets", children=[tip])

    return QueryPlan(
        query=query,
        root=project,
        engine=spec.name,
        config=config,
        post_filters=post_filters,
        post_length=post_length,
    )
