"""Incremental delta mining: materialized count state + delta-only counting.

``setm-incremental`` operationalizes the paper's set-oriented view: the
counted ``(keys, counts)`` summaries of the ``R_k`` relations are a
*materialized view* over the ``SALES`` relation, and a view can be
maintained under appends instead of recomputed.  A run with a
``state_dir`` snapshots, per iteration ``k``, the full pre-HAVING
candidate counts of the Figure-4 loop (:class:`MiningState`, keyed by
the dataset *generation*) as a sorted ``(keys, counts)`` pair of int64
columns; when new transactions land via
:meth:`~repro.data.ingest.EncodedDataset.append_chunks`, the next run
counts **only the appended chunks** and merges with the saved columns.
The state stays in that shape from capture to disk and back: the
capturing kernel keeps the arrays its count step already produced, the
merge folds each smaller part into the sorted state by one
``searchsorted`` and one insertion — O(state + delta), never a re-sort
of the whole state — and save and load move the columns without
conversion.

Correctness sketch (why delta-only counting is exact)
-----------------------------------------------------
Every SETM instance lives inside a single transaction, so per-pattern
counts are additive across disjoint transaction sets:
``count_D(p) = count_B(p) + count_delta(p)``.  Candidacy is structural:
``R_1`` is joined unfiltered (Section 4.1), so at ``k = 2`` every
2-pattern present in the data is a candidate — the base map is complete
there and the state's count of ``p`` (zero when absent) is the exact
base count.  For
``k >= 3`` a pattern is counted iff its ``(k-1)``-prefix is in the
*global* frequent set ``F_{k-1}``, which yields three merge cases per
level:

* prefix frequent before and now — the base count is in the state
  (or genuinely zero): a **state hit**, no base I/O;
* prefix newly frequent (infrequent over the base alone, frequent over
  the union) — the base run never counted its extensions, so they get a
  **targeted recount** over the base rows read through
  ``iter_item_chunks()`` (:func:`_recount_base`), never a full re-mine;
* prefix no longer frequent (the threshold grew with ``N``) — its state
  entries are dropped.

Delta counts come from running the columnar extension loop
(:func:`~repro.core.columns.suffix_extend`) over the appended
transactions only, filtered by the global ``F_k``.  Every
:class:`~repro.core.result.IterationStats` field derives from the merged
maps (candidate instances are the count sums, supported slices are the
``>= threshold`` subsets), so the result — patterns, counts, iteration
trace — is byte-identical to a from-scratch mine of the full dataset;
the append-equivalence suite and the conformance delta tier hold it
there.  The merged columns then *become* the new state: after a delta
mine the whole dataset is the next base.

Survivor cursors are deliberately **not** part of the state: the merged
counts fully determine the result, and cursors could not serve the
newly-frequent-prefix recount anyway (those instances were never
materialized by the base run).

On-disk format (state version 2)
--------------------------------
A state directory holds ``state.json`` (version, dataset fingerprint,
config identity, catalog labels) plus ``levels.bin`` — one serialized
chunk per level reusing the spill-chunk framing of
:meth:`~repro.core.columns.InstanceRelation.to_chunk_bytes` (counts ride
in the ``last_sid`` column, the mining loop's rank keys in ``keys`` as
flat int64).  A level-``k`` key ``rank * base + item`` points at row
``rank`` of the saved ``F_{k-1}`` — the level-``k-1`` keys whose count
reaches the saved run's threshold — so a delta mine re-keys the state
level by level into its own ``F_{k-1}`` (:func:`_translate_level`; a
level whose catalog and ``F_{k-1}`` did not change is kept as loaded).
Loaded columns are read-only views over the file's bytes.
Version 1 stored mixed-radix packed keys, which do not fit 64 bits on
deep patterns; it is refused typed like any other version skew
(:class:`~repro.errors.StateVersionError`): delete the directory and
mine again.  Writes are temp-file + ``os.replace`` atomic with the
manifest as the commit point; a state that does not cover the dataset
or config refuses typed (:class:`~repro.errors.StateMismatchError`).
"""

from __future__ import annotations

import json
import os
import time
from array import array
from itertools import chain
from pathlib import Path
from typing import Any, Literal

import numpy as np

from repro.core.columns import (
    COLUMN_TYPECODE,
    FrequentLevels,
    InstanceRelation,
    _as_int64,
    _member_mask,
    _tally,
    filter_by_keys,
    pack_chunks,
    prefix_ranks,
    suffix_extend,
)
from repro.core.metering import memory_meter
from repro.core.partitioning import decode_buffer_chunks
from repro.core.result import IterationStats, MiningResult
from repro.core.setm import run_figure4_loop
from repro.core.setm_columnar import ColumnarKernel
from repro.core.transactions import absolute_support_threshold
from repro.errors import (
    InvalidConfigError,
    StateError,
    StateMismatchError,
    StateVersionError,
)
from repro.registry import register_engine

__all__ = ["MiningState", "STATE_VERSION", "setm_incremental"]

#: On-disk state format version; bumped on any incompatible change.
#: Version 2 stores rank keys (see :func:`_translate_level`); version 1
#: stored mixed-radix packed keys.
STATE_VERSION = 2

_MANIFEST_NAME = "state.json"
_LEVELS_NAME = "levels.bin"


def _column(values=()) -> array:
    return array(COLUMN_TYPECODE, values)


def _is_absolute(support: float | int) -> bool:
    return isinstance(support, int) and not isinstance(support, bool)


#: A level as parallel int64 ndarray columns ``(keys, counts)``, keys
#: unique and ascending — the exact shape the on-disk chunk format
#: stores, so capture, merge, save and load never convert through dicts.
#: Columns may be read-only (loaded ones view the state file's bytes):
#: nothing writes a level's columns in place.
LevelPair = tuple[np.ndarray, np.ndarray]

_EMPTY_PAIR: LevelPair = (
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.int64),
)


def _pair_from_dict(counts: dict[int, int]) -> LevelPair:
    """A count map as a sorted ``(keys, counts)`` column pair."""
    keys = np.fromiter(counts, dtype=np.int64, count=len(counts))
    values = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
    order = np.argsort(keys)
    return keys[order], values[order]


def _supported(pair: LevelPair, threshold: int) -> LevelPair:
    """The ``>= threshold`` entries of a level pair, in key order."""
    keys, counts = pair
    mask = counts >= threshold
    return keys[mask], counts[mask]


def _combine(parts: list[LevelPair]) -> LevelPair:
    """Sum sorted column pairs into one sorted pair.

    Each input pair must carry unique, ascending keys.  Every smaller
    part is merged into the largest (the state, after a small append)
    by :func:`_merge_into`, so the whole per-level merge (state-kept +
    recount + delta) costs O(state + delta), not a re-sort of the state.
    """
    parts = sorted(
        (part for part in parts if len(part[0])),
        key=lambda part: len(part[0]),
        reverse=True,
    )
    if not parts:
        return _EMPTY_PAIR
    merged = parts[0]
    for part in parts[1:]:
        merged = _merge_into(merged, part)
    return merged


def _merge_into(pair: LevelPair, part: LevelPair) -> LevelPair:
    """``pair`` plus ``part``: one ``searchsorted``, one insertion.

    Keys of ``part`` already in ``pair`` add their counts; the others
    are inserted at their sorted positions.  The sum is built in new
    columns: neither input is written in place.
    """
    keys, counts = pair  # never empty: _combine merges non-empty parts
    add_keys, add_counts = part
    positions = np.searchsorted(keys, add_keys)
    new_at = np.flatnonzero(keys.take(positions, mode="clip") != add_keys)
    if not len(new_at):
        counts = counts.copy()
        counts[positions] += add_counts
        return keys, counts
    # Each key of ``part`` lands at its position in ``keys`` shifted by
    # the new keys before it (``add_keys`` ascends, and a new key sorts
    # before the key its position points at): an inserted key's slot,
    # or the slot its equal key of ``pair`` moved to.
    inserted = np.zeros(len(add_keys), dtype=np.int64)
    inserted[new_at] = 1
    slots = positions + np.cumsum(inserted) - inserted
    new_slots = slots[new_at]
    kept = np.ones(len(keys) + len(new_at), dtype=bool)
    kept[new_slots] = False
    merged_keys = np.empty(len(kept), dtype=np.int64)
    merged_keys[kept] = keys
    merged_keys[new_slots] = add_keys[new_at]
    merged_counts = np.zeros(len(kept), dtype=np.int64)
    merged_counts[kept] = counts
    merged_counts[slots] += add_counts
    return merged_keys, merged_counts


class MiningState:
    """The materialized per-level candidate counts of one mine.

    ``levels[k]`` holds each pattern key the Figure-4 loop
    counted at iteration ``k`` (the *pre*-HAVING counts, so borderline
    ones are preserved) with its transaction count, as a sorted
    ``(keys, counts)`` pair of int64 ndarrays (:data:`LevelPair`) — the
    merge works on whole columns and save/load move them without
    conversion; use :meth:`level_counts` for a dict view.  Keys are the
    mining loop's rank keys in the radix of ``labels``
    (``base = len(labels) + 1``): a
    level-``k`` key ``rank * base + item`` (``k >= 3``) points at row
    ``rank`` of the sorted level-``k-1`` keys whose count reaches the
    threshold over ``num_transactions``, so the levels decode from the
    state alone.  The fingerprint fields
    identify the dataset prefix the counts cover, so a later run can
    verify the current dataset is an append-extension and mine only the
    tail.  Constructor ``levels`` values may be dicts (normalized to
    pairs) or ready column pairs.
    """

    __slots__ = (
        "generation",
        "num_transactions",
        "num_sales_rows",
        "last_trans_id",
        "labels",
        "support",
        "support_is_absolute",
        "max_length",
        "levels",
    )

    def __init__(
        self,
        *,
        generation: int,
        num_transactions: int,
        num_sales_rows: int,
        last_trans_id: int | None,
        labels: list,
        support: float | int,
        max_length: int | None,
        levels: dict[int, "LevelPair | dict[int, int]"],
        support_is_absolute: bool | None = None,
    ) -> None:
        self.generation = generation
        self.num_transactions = num_transactions
        self.num_sales_rows = num_sales_rows
        self.last_trans_id = last_trans_id
        self.labels = list(labels)
        self.support = support
        self.support_is_absolute = (
            _is_absolute(support)
            if support_is_absolute is None
            else support_is_absolute
        )
        self.max_length = max_length
        self.levels = {
            k: _pair_from_dict(value) if isinstance(value, dict) else value
            for k, value in levels.items()
        }

    def level_counts(self, k: int) -> dict[int, int]:
        """Level ``k``'s counts as a plain dict (tests, inspection)."""
        keys, counts = self.levels[k]
        return dict(zip(keys.tolist(), counts.tolist()))

    @classmethod
    def from_full_run(
        cls,
        database,
        level_counts: dict[int, LevelPair],
        minimum_support: float | int,
        max_length: int | None,
    ) -> "MiningState":
        """Snapshot a completed full mine of ``database``."""
        num = database.num_transactions
        if hasattr(database, "trans_ids"):
            last = int(database.trans_ids[-1]) if num else None
            labels = database.catalog.labels()
        else:
            last = database[num - 1].trans_id if num else None
            labels = database.distinct_items()
        return cls(
            generation=getattr(database, "generation", 0),
            num_transactions=num,
            num_sales_rows=database.num_sales_rows,
            last_trans_id=last,
            labels=labels,
            support=minimum_support,
            max_length=max_length,
            levels=level_counts,
        )

    # -- persistence ---------------------------------------------------------------

    def save(self, state_dir: str | os.PathLike) -> None:
        """Atomically persist to ``state_dir`` (created if missing).

        ``levels.bin`` is written and swapped in first, the manifest
        last — the manifest is the commit point, so a crash mid-save
        leaves either the old state or the new one, never a torn mix,
        and the ``finally`` sweep keeps temp files from leaking.
        """
        root = Path(state_dir)
        root.mkdir(parents=True, exist_ok=True)
        # One chunk per level, counts riding in the last_sid column.
        blob = pack_chunks(
            [
                (k, counts, keys)
                for k, (keys, counts) in sorted(self.levels.items())
            ]
        )
        manifest = {
            "version": STATE_VERSION,
            "generation": self.generation,
            "num_transactions": self.num_transactions,
            "num_sales_rows": self.num_sales_rows,
            "last_trans_id": self.last_trans_id,
            "support": self.support,
            "support_is_absolute": self.support_is_absolute,
            "max_length": self.max_length,
            "labels": self.labels,
            "levels": sorted(self.levels),
        }
        try:
            text = json.dumps(manifest, sort_keys=True)
        except TypeError as exc:
            raise StateError(
                "mining state needs JSON-serializable item labels "
                f"(str/int/...); got: {exc}"
            ) from exc
        levels_tmp = root / (_LEVELS_NAME + ".tmp")
        manifest_tmp = root / (_MANIFEST_NAME + ".tmp")
        try:
            levels_tmp.write_bytes(blob)
            manifest_tmp.write_text(text)
            os.replace(levels_tmp, root / _LEVELS_NAME)
            os.replace(manifest_tmp, root / _MANIFEST_NAME)
        finally:
            for tmp in (levels_tmp, manifest_tmp):
                try:
                    tmp.unlink()
                except OSError:
                    pass

    @classmethod
    def load(cls, state_dir: str | os.PathLike) -> "MiningState | None":
        """Load the state saved in ``state_dir``; ``None`` when absent.

        Raises
        ------
        StateVersionError
            The manifest carries a different format version.
        StateError
            The state files are structurally corrupt.
        """
        root = Path(state_dir)
        manifest_path = root / _MANIFEST_NAME
        try:
            doc = json.loads(manifest_path.read_bytes())
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            raise StateError(
                f"unreadable mining-state manifest {manifest_path}: {exc}"
            ) from exc
        if not isinstance(doc, dict):
            raise StateError(
                f"mining-state manifest {manifest_path} is not an object"
            )
        version = doc.get("version")
        if version != STATE_VERSION:
            raise StateVersionError(STATE_VERSION, version)
        try:
            data = (root / _LEVELS_NAME).read_bytes()
        except OSError as exc:
            raise StateError(
                f"mining state in {root} has no readable level maps: {exc}"
            ) from exc
        levels: dict[int, LevelPair] = {
            chunk.k: (chunk.keys, chunk.last_sid)
            for chunk in decode_buffer_chunks(data)[0]
        }
        if sorted(levels) != doc.get("levels"):
            raise StateError(
                f"mining state in {root} is corrupt: level maps "
                f"{sorted(levels)} do not match the manifest "
                f"{doc.get('levels')!r}"
            )
        try:
            return cls(
                generation=doc["generation"],
                num_transactions=doc["num_transactions"],
                num_sales_rows=doc["num_sales_rows"],
                last_trans_id=doc["last_trans_id"],
                labels=doc["labels"],
                support=doc["support"],
                max_length=doc["max_length"],
                levels=levels,
                support_is_absolute=doc["support_is_absolute"],
            )
        except KeyError as exc:
            raise StateError(
                f"mining-state manifest {manifest_path} is missing {exc}"
            ) from exc


# -- state <-> dataset matching ----------------------------------------------------


def _supports_delta(database) -> bool:
    """Only the encoded columnar form can be delta-sliced and rescanned."""
    return (
        hasattr(database, "trans_ids")
        and hasattr(database, "run_lengths")
        and hasattr(database, "iter_item_chunks")
    )


def _check_state_covers(
    state: MiningState,
    dataset,
    minimum_support: float | int,
    max_length: int | None,
) -> None:
    """Raise :class:`StateMismatchError` unless ``dataset`` extends the state."""
    if (
        state.support != minimum_support
        or state.support_is_absolute != _is_absolute(minimum_support)
    ):
        raise StateMismatchError(
            f"saved state was mined at support {state.support!r} "
            f"({'absolute' if state.support_is_absolute else 'fractional'}); "
            f"this run asks for {minimum_support!r} — delta counts cannot "
            "be merged across thresholds (clear the state directory to "
            "rebuild)"
        )
    if state.max_length != max_length:
        raise StateMismatchError(
            f"saved state was mined with max_length={state.max_length!r}; "
            f"this run asks for {max_length!r} (clear the state directory "
            "to rebuild)"
        )
    t_base = state.num_transactions
    if dataset.num_transactions < t_base:
        raise StateMismatchError(
            f"dataset has {dataset.num_transactions} transactions but the "
            f"saved state covers {t_base}; the dataset is not an "
            "append-extension of the state"
        )
    if t_base:
        if int(dataset.trans_ids[t_base - 1]) != state.last_trans_id:
            raise StateMismatchError(
                f"dataset transaction {t_base} has trans_id "
                f"{int(dataset.trans_ids[t_base - 1])!r} where the saved "
                f"state ends at {state.last_trans_id!r}; the base prefix "
                "diverged"
            )
        if sum(dataset.run_lengths[:t_base]) != state.num_sales_rows:
            raise StateMismatchError(
                f"the first {t_base} transactions hold "
                f"{sum(dataset.run_lengths[:t_base])} rows where the saved "
                f"state covers {state.num_sales_rows}; the base prefix "
                "diverged"
            )


def _catalog_remap(state: MiningState, catalog, labels: list) -> np.ndarray:
    """``old id -> new id`` from the state's catalog to the dataset's.

    ``labels`` is the dataset catalog's sorted label list.  Appends can
    grow the catalog, and new labels sorting between old ones shift
    every later id.  Both catalogs list labels sorted, so the remap is
    strictly increasing, and the identity when the vocabulary did not
    grow (returned without a lookup per label).
    """
    if state.labels == labels:
        return np.arange(len(labels) + 1, dtype=np.int64)
    try:
        return np.fromiter(
            chain((0,), map(catalog.id_mapping().__getitem__, state.labels)),
            dtype=np.int64,
            count=len(state.labels) + 1,
        )
    except KeyError as exc:
        raise StateMismatchError(
            f"saved state knows item {exc.args[0]!r} which the dataset's "
            "catalog no longer contains; the base prefix diverged"
        ) from None


def _translate_level(
    pair: LevelPair,
    k: int,
    old_prefixes: np.ndarray,
    levels: FrequentLevels,
    old_to_new: np.ndarray,
    old_base: int,
    threshold_base: int,
) -> tuple[LevelPair, np.ndarray]:
    """One state level, re-keyed from the saved run into this run's keys.

    When the catalog did not grow (``old_base == levels.base``, so the
    remap is the identity) and, at ``k >= 3``, the saved ``F_{k-1}``
    translated to this run's ``F_{k-1}`` row for row, every key keeps
    its value and the level is returned as it is (:func:`_rekey_level`
    would compute the same pair).
    """
    keys, counts = pair
    if old_base == levels.base and (
        k <= 2 or np.array_equal(old_prefixes, levels.prefixes(k - 1))
    ):
        return pair, keys[counts >= threshold_base]
    return _rekey_level(
        pair, k, old_prefixes, levels, old_to_new, old_base, threshold_base
    )


def _rekey_level(
    pair: LevelPair,
    k: int,
    old_prefixes: np.ndarray,
    levels: FrequentLevels,
    old_to_new: np.ndarray,
    old_base: int,
    threshold_base: int,
) -> tuple[LevelPair, np.ndarray]:
    """:func:`_translate_level`'s general path: re-key every entry.

    A saved level-``k`` key ``rank * old_base + item`` names row
    ``rank`` of the *saved* ``F_{k-1}``, whose keys this run already
    translated (``old_prefixes``, aligned with the saved ``F_{k-1}``;
    ``-1`` where dropped).  Each entry goes old rank -> new prefix key ->
    new rank in this run's ``F_{k-1}`` (:meth:`FrequentLevels.prefixes`),
    and is dropped when its prefix is no longer frequent; at ``k <= 2``
    the prefix is an item id and only the catalog remap applies.  Both
    steps are monotone, so kept keys stay sorted.

    Returns ``(kept, frequent)``: the kept ``(keys, counts)`` pair, and
    the translated keys of the saved ``F_k`` (the entries with
    ``count >= threshold_base``, ``-1`` where dropped) for the next
    level's call.
    """
    keys, counts = pair
    if k == 1:
        new = old_to_new[keys]
    else:
        prefix = keys // old_base
        item = old_to_new[keys - prefix * old_base]
        if k == 2:
            new = old_to_new[prefix] * levels.base + item
        else:
            # F_{k-1} is not empty: the loop only reaches level k when
            # level k-1 kept rows.
            frequent = levels.prefixes(k - 1)
            prefix = old_prefixes[prefix]
            ranks = np.searchsorted(frequent, prefix)
            ranks[ranks == len(frequent)] = 0
            hit = frequent[ranks] == prefix
            new = np.where(hit, ranks * levels.base + item, -1)
            return (new[hit], counts[hit]), new[counts >= threshold_base]
    return (new, counts), new[counts >= threshold_base]


# -- the delta mine ----------------------------------------------------------------


def _tail_items(dataset, skip: int) -> array:
    """The encoded item column from global row ``skip`` on, one column."""
    out = _column()
    seen = 0
    for chunk in dataset.iter_item_chunks():
        end = seen + len(chunk)
        if end > skip:
            out.frombytes(_as_int64(chunk[max(0, skip - seen) :]).tobytes())
        seen = end
    return out


class _BaseColumns:
    """The base prefix's raw columns, gathered once per delta mine.

    Only materialized when some level needs a recount, then shared
    across recounting levels.  ``ends[searchsorted(ends, s, 'right')]``
    is the exclusive end position of row ``s``'s transaction — the only
    piece of transaction framing the targeted recount needs, so no
    :class:`~repro.core.columns.SalesIndex` (whose ``ext_counts``
    expansion walks every base row) is ever built here.
    """

    __slots__ = ("items", "ends")

    def __init__(self, dataset, t_base: int, s_base: int) -> None:
        gathered = _column()
        for chunk in dataset.iter_item_chunks():
            take = s_base - len(gathered)
            gathered.extend(chunk if len(chunk) <= take else chunk[:take])
            if len(gathered) == s_base:
                break
        self.items = _as_int64(gathered)
        self.ends = np.cumsum(_as_int64(dataset.run_lengths[:t_base]))

    def extend_instances(self, sids, ranks, base: int):
        """Vectorized merge-scan step over selected instance rows only.

        The ragged-range expansion of
        :func:`~repro.core.columns.suffix_extend` (``ranks`` are the
        rows' prefix ranks), but with each row's extension count derived
        on the fly from its transaction end — O(|selected| log t_base)
        instead of O(base rows).
        """
        ends = self.ends[np.searchsorted(self.ends, sids, side="right")]
        counts = ends - sids - 1
        offsets = np.arange(int(counts.sum())) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        new_sids = np.repeat(sids + 1, counts) + offsets
        new_keys = np.repeat(ranks * base, counts) + self.items[new_sids]
        return new_sids, new_keys


def _recount_base(
    columns: _BaseColumns,
    q_new: np.ndarray,
    levels: FrequentLevels,
    k_prev: int,
) -> tuple[LevelPair, int]:
    """Targeted base recount through a prefix-filtered extension chain.

    Instances of the newly frequent prefixes ``q_new`` (sorted keys of
    ``F_{k_prev}``) are re-derived level by
    level — filter to the length-``j`` prefixes of ``q_new``, extend
    with the later items of the same transaction — so the recount only
    materializes rows that can still reach one of the patterns, instead
    of walking every base transaction.  Every prefix of a frequent
    pattern is frequent, so the chain keys rank into this run's
    ``F_{j-1}`` exactly as the delta loop's do, and a level's wanted
    prefixes are read off the level above (``F_{j-1}[key // base]``).
    Returns the counted extensions as a sorted column pair plus the
    instance rows touched.

    The wanted prefixes are deduplicated by sort-and-mask rather than a
    plain ``np.unique``, which would import ``numpy.ma`` (tens of
    milliseconds) on the first delta mine of a process; membership goes
    through :func:`~repro.core.columns._member_mask` for the same
    reason.
    """
    base = levels.base
    wanted = {k_prev: q_new}
    for j in range(k_prev, 1, -1):
        parents = wanted[j] // base
        if j > 2:
            parents = levels.prefixes(j - 1)[parents]
        parents = np.sort(parents)
        first = np.ones(len(parents), dtype=bool)
        first[1:] = parents[1:] != parents[:-1]
        wanted[j - 1] = parents[first]

    sids = np.flatnonzero(_member_mask(columns.items, wanted[1]))
    keys = columns.items[sids]
    rows = len(sids)
    for j in range(2, k_prev + 1):
        sids, keys = columns.extend_instances(
            sids, prefix_ranks(keys, levels.prefixes(j - 1)), base
        )
        mask = _member_mask(keys, wanted[j])
        sids = sids[mask]
        keys = keys[mask]
        rows += len(sids)
    _, keys = columns.extend_instances(
        sids, prefix_ranks(keys, levels.prefixes(k_prev)), base
    )
    rows += len(keys)
    return np.unique(keys, return_counts=True), rows


def _mine_delta(
    dataset,
    minimum_support: float | int,
    state: MiningState,
    *,
    max_length: int | None,
    count_via: Literal["auto", "sort", "hash"],
    measure_memory: bool,
) -> tuple[MiningResult, MiningState]:
    """Mine only the appended tail of ``dataset`` against ``state``.

    Mirrors :func:`~repro.core.setm.run_figure4_loop` stat-for-stat —
    same loop condition, same ``max_length`` break point, same terminal
    empty iteration — but every level's candidate map is assembled by
    merging the state with counts over the delta transactions only.
    Returns the result plus the merged columns as the next base state.
    """
    started = time.perf_counter()
    with memory_meter(measure_memory) as traced_peak:
        catalog = dataset.catalog
        catalog_labels = catalog.labels()
        # Ids run 1..len(catalog) in label order, as ColumnarKernel.decode.
        labels = [None, *catalog_labels]
        base = dataset.base
        threshold = absolute_support_threshold(
            minimum_support, dataset.num_transactions
        )
        threshold_base = absolute_support_threshold(
            minimum_support, max(1, state.num_transactions)
        )
        old_to_new = _catalog_remap(state, catalog, catalog_labels)
        old_base = len(state.labels) + 1
        levels = FrequentLevels(base)
        t_base = state.num_transactions
        s_base = state.num_sales_rows

        def translate(k: int, old_prefixes: np.ndarray):
            return _translate_level(
                state.levels.get(k, _EMPTY_PAIR),
                k,
                old_prefixes,
                levels,
                old_to_new,
                old_base,
                threshold_base,
            )

        delta_items = _tail_items(dataset, s_base)
        delta_sales = InstanceRelation.sales_from_columns(
            delta_items,
            base=base,
            run_lengths=dataset.run_lengths[t_base:],
            trans_ids=dataset.trans_ids[t_base:],
        )
        index = delta_sales.index

        # k = 1: add the state's C_1 onto the delta's item counts, one
        # direct-address table over the item ids.
        pair1, _ = translate(1, _EMPTY_PAIR[0])
        state_hits = len(pair1[0])
        table = np.bincount(_as_int64(delta_items), minlength=base)
        table[pair1[0]] += pair1[1]
        present = np.flatnonzero(table)
        merged_pair = present, table[present]
        f_keys, f_counts = _supported(merged_pair, threshold)
        count_relations: dict[int, dict] = {
            1: dict(
                zip(
                    zip(map(labels.__getitem__, f_keys.tolist())),
                    f_counts.tolist(),
                )
            )
        }
        num_sales = dataset.num_sales_rows
        iterations = [
            IterationStats(
                k=1,
                candidate_instances=num_sales,
                supported_instances=num_sales,
                candidate_patterns=len(merged_pair[0]),
                supported_patterns=len(f_keys),
            )
        ]
        merged_levels: dict[int, LevelPair] = {1: merged_pair}
        iteration_seconds = {1: time.perf_counter() - started}

        # R_1 is joined unfiltered (Section 4.1): the first extension
        # carries no prefix condition, so no recount at k = 2.
        r_delta = delta_sales
        # The saved F_{k-1} in this run's keys (-1 where dropped).
        old_frequent = _EMPTY_PAIR[0]
        base_columns: _BaseColumns | None = None
        recounted = 0
        base_rows_rescanned = 0
        recount_levels: list[int] = []

        current_size = num_sales
        k = 1
        while current_size:
            k += 1
            if max_length is not None and k > max_length:
                break
            tick = time.perf_counter()
            r_prime = suffix_extend(r_delta, index, levels.prefixes(k - 1))
            kept, next_old_frequent = translate(k, old_frequent)
            state_hits += len(kept[0])

            parts = [kept]
            if k >= 3:
                q_new = f_keys[~_member_mask(f_keys, np.sort(old_frequent))]
                if len(q_new):
                    if base_columns is None:
                        base_columns = _BaseColumns(dataset, t_base, s_base)
                    recount_pair, rows = _recount_base(
                        base_columns, q_new, levels, k - 1
                    )
                    parts.append(recount_pair)
                    recounted += len(recount_pair[0])
                    base_rows_rescanned += rows
                    recount_levels.append(k)
            parts.append(np.unique(_as_int64(r_prime.keys), return_counts=True))
            merged_pair = _combine(parts)

            f_keys, f_counts = _supported(merged_pair, threshold)
            levels.add(k, f_keys)
            supported_instances = int(f_counts.sum())
            iterations.append(
                IterationStats(
                    k=k,
                    candidate_instances=int(merged_pair[1].sum()),
                    supported_instances=supported_instances,
                    candidate_patterns=len(merged_pair[0]),
                    supported_patterns=len(f_keys),
                )
            )
            if len(f_keys):
                count_relations[k] = {
                    tuple(map(labels.__getitem__, levels.items(key, k))): count
                    for key, count in zip(f_keys.tolist(), f_counts.tolist())
                }
            merged_levels[k] = merged_pair
            r_delta = filter_by_keys(r_prime, f_keys)
            old_frequent = next_old_frequent
            current_size = supported_instances
            iteration_seconds[k] = time.perf_counter() - tick

        total_patterns = sum(
            len(keys) for keys, _ in merged_levels.values()
        )
        extra: dict[str, Any] = {
            "count_via": count_via,
            "iteration_seconds": iteration_seconds,
        }
        stats = getattr(dataset, "stats", None)
        if stats is not None:
            extra["ingest"] = stats.as_dict()
        extra["incremental"] = {
            "mode": "delta",
            "generation": getattr(dataset, "generation", 0),
            "base_transactions": t_base,
            "base_rows": s_base,
            "delta_transactions": dataset.num_transactions - t_base,
            "delta_rows": len(delta_items),
            "total_rows": num_sales,
            "state_levels": sorted(state.levels),
            "state_hits": state_hits,
            "recounted_patterns": recounted,
            "recount_levels": recount_levels,
            "recount_fraction": (
                round(recounted / total_patterns, 4) if total_patterns else 0.0
            ),
            "base_rows_rescanned": base_rows_rescanned,
        }
        if traced_peak is not None:
            extra["peak_memory_bytes"] = traced_peak()
        result = MiningResult(
            algorithm="setm-incremental",
            num_transactions=dataset.num_transactions,
            minimum_support=minimum_support,
            support_threshold=threshold,
            count_relations=count_relations,
            unfiltered_item_counts=dict(
                zip(
                    map(labels.__getitem__, merged_levels[1][0].tolist()),
                    merged_levels[1][1].tolist(),
                )
            ),
            iterations=iterations,
            elapsed_seconds=time.perf_counter() - started,
            extra=extra,
        )
        new_state = MiningState(
            generation=getattr(dataset, "generation", 0),
            num_transactions=dataset.num_transactions,
            num_sales_rows=dataset.num_sales_rows,
            last_trans_id=(
                int(dataset.trans_ids[-1])
                if dataset.num_transactions
                else None
            ),
            labels=catalog_labels,
            support=minimum_support,
            max_length=max_length,
            levels=merged_levels,
        )
        return result, new_state


# -- the engine --------------------------------------------------------------------


class _StateCapturingKernel(ColumnarKernel):
    """A :class:`ColumnarKernel` that keeps every level's full counts.

    The shared loop discards the unsupported counts after deriving
    ``candidate_patterns``; state capture needs the whole pre-HAVING
    level (borderline counts included), so this kernel keeps the sorted
    ``(keys, counts)`` arrays its count step produces, per level.
    """

    def __init__(self, database, *, count_via="auto") -> None:
        super().__init__(database, count_via=count_via)
        self.level_counts: dict[int, LevelPair] = {}

    def _capture(self, k: int, keys, span: tuple[int, int]) -> LevelPair:
        unique, counts = _tally(_as_int64(keys), self._count_via, span)
        if self._count_via == "hash":  # the hash pass counts unordered
            order = np.argsort(unique)
            unique, counts = unique[order], counts[order]
        self.level_counts[k] = unique, counts
        return unique, counts

    def c1_counts(self, sales):
        keys, counts = self._capture(1, sales.keys, (0, self._base))
        return list(zip(keys.tolist(), counts.tolist()))

    def count_and_filter(self, r_prime, threshold):
        keys, counts = self._capture(
            r_prime.k, r_prime.keys, self._key_span(r_prime.k)
        )
        supported, counts = _supported((keys, counts), threshold)
        self._levels.add(r_prime.k, supported)
        c_k = dict(zip(supported.tolist(), counts.tolist()))
        return len(keys), c_k, filter_by_keys(r_prime, supported)


@register_engine(
    "setm-incremental",
    description=(
        "SETM with materialized count state: appends re-mine only the "
        "delta chunks"
    ),
    representation="columnar",
    streaming_ingest=True,
    incremental=True,
    accepted_options=("count_via", "measure_memory", "state_dir"),
)
def setm_incremental(
    database,
    minimum_support: float | int,
    *,
    max_length: int | None = None,
    state_dir: str | os.PathLike | None = None,
    count_via: Literal["auto", "sort", "hash"] = "auto",
    measure_memory: bool = False,
) -> MiningResult:
    """SETM whose count state persists, so appends mine only the delta.

    Without a ``state_dir`` (or on the first run with one) this is a
    full columnar mine — identical results to ``setm-columnar`` — that
    additionally materializes the per-level count maps; with a
    ``state_dir`` holding state that covers a prefix of ``database``
    (an append-extended :class:`~repro.data.ingest.EncodedDataset`),
    only the appended transactions are counted and merged with the
    saved maps.  Results are byte-identical either way;
    ``extra["incremental"]`` reports which mode ran, the delta size,
    state hits, and the targeted-recount fraction.
    ``measure_memory=True`` (off by default) records the run's peak
    traced memory in ``extra["peak_memory_bytes"]``, as for ``setm``.

    Raises
    ------
    StateVersionError
        ``state_dir`` holds state written by a different format version.
    StateMismatchError
        The state does not cover this dataset/config (diverged prefix,
        different support semantics or ``max_length``).
    """
    state = None
    if state_dir is not None:
        if not isinstance(state_dir, (str, os.PathLike)):
            raise InvalidConfigError(
                f"state_dir must be a path or None; got {state_dir!r}"
            )
        state = MiningState.load(state_dir)
    if state is not None and _supports_delta(database):
        _check_state_covers(state, database, minimum_support, max_length)
        result, new_state = _mine_delta(
            database,
            minimum_support,
            state,
            max_length=max_length,
            count_via=count_via,
            measure_memory=measure_memory,
        )
        new_state.save(state_dir)
        return result

    kernel = _StateCapturingKernel(database, count_via=count_via)
    result = run_figure4_loop(
        database,
        minimum_support,
        kernel,
        algorithm="setm-incremental",
        max_length=max_length,
        extra={"count_via": count_via},
        measure_memory=measure_memory,
    )
    result.extra["incremental"] = {
        "mode": "full",
        "generation": getattr(database, "generation", 0),
        "base_transactions": 0,
        "base_rows": 0,
        "delta_transactions": database.num_transactions,
        "delta_rows": database.num_sales_rows,
        "total_rows": database.num_sales_rows,
        "state_levels": sorted(kernel.level_counts),
        "state_hits": 0,
        "recounted_patterns": 0,
        "recount_levels": [],
        "recount_fraction": 0.0,
        "base_rows_rescanned": 0,
    }
    if state_dir is not None:
        MiningState.from_full_run(
            database, kernel.level_counts, minimum_support, max_length
        ).save(state_dir)
    return result
