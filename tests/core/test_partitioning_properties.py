"""Property tests for key-range partitioning.

Hypothesis drives :func:`split_by_key_ranges` through adversarial key
distributions — all-equal columns, a single hot range swallowing most
keys — and adversarial boundaries, and checks the two invariants
everything downstream rests on:

* **routing is disjoint and total**: every row lands in exactly one
  partition, and partition ``p``'s keys lie inside the interval
  ``[boundaries[p-1], boundaries[p])`` (unbounded at the ends);
* **partitions load back on a worker thread**: a path- or
  payload-backed :class:`Partition` read by a thread of the shared
  worker pool, as the pooled batches read theirs, yields the exact rows.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columns import InstanceRelation
from repro.core.partitioning import Partition, split_by_key_ranges
from repro.core.setm_parallel import pool_map

# -- adversarial key-column strategies ----------------------------------------------

all_equal_keys = st.integers(
    min_value=-(2**62), max_value=2**62
).flatmap(
    lambda key: st.integers(min_value=1, max_value=64).map(
        lambda n: [key] * n
    )
)

#: ~90% of keys inside a narrow hot range, the rest scattered wide.
hot_range_keys = st.lists(
    st.one_of(
        st.integers(min_value=1000, max_value=1015),
        st.integers(min_value=-(2**62), max_value=2**62),
    ),
    min_size=1,
    max_size=128,
)

uniform_keys = st.lists(
    st.integers(min_value=-(2**62), max_value=2**62),
    min_size=1,
    max_size=128,
)

key_columns = st.one_of(all_equal_keys, hot_range_keys, uniform_keys)

#: Ascending boundaries, some inside the hot range, duplicates allowed.
boundary_lists = st.lists(
    st.one_of(
        st.integers(min_value=1000, max_value=1015),
        st.integers(min_value=-(2**62), max_value=2**62),
    ),
    min_size=1,
    max_size=6,
).map(sorted)


def _relation(keys: list[int]) -> InstanceRelation:
    # last_sid doubles as a unique row id so totality is checkable.
    return InstanceRelation(
        None,
        None,
        last_sid=list(range(len(keys))),
        keys=list(keys),
        k=3,
        index=None,
    )


class TestRoutingInvariants:
    @settings(max_examples=120, deadline=None)
    @given(keys=key_columns, boundaries=boundary_lists)
    def test_split_is_disjoint_total_and_range_respecting(
        self, keys, boundaries
    ):
        relation = _relation(keys)
        bounds = [None, *boundaries, None]
        seen_rows: dict[int, tuple[int, int]] = {}
        for p, rows in split_by_key_ranges(relation, boundaries):
            assert 0 <= p <= len(boundaries)
            low, high = bounds[p], bounds[p + 1]
            for sid, key in zip(rows.last_sid, rows.keys):
                sid, key = int(sid), int(key)
                # Disjoint: no row id appears in two partitions.
                assert sid not in seen_rows
                seen_rows[sid] = (p, key)
                # Range-respecting: low inclusive, high exclusive.
                assert low is None or key >= low
                assert high is None or key < high
        # Total: every input row was routed somewhere.
        assert len(seen_rows) == len(keys)
        assert {key for _, key in seen_rows.values()} == {
            int(k) for k in keys
        }

    @settings(max_examples=40, deadline=None)
    @given(keys=all_equal_keys, boundaries=boundary_lists)
    def test_all_equal_keys_collapse_into_one_partition(
        self, keys, boundaries
    ):
        """Degenerate distributions must not lose or duplicate rows."""
        pieces = list(split_by_key_ranges(_relation(keys), boundaries))
        assert len(pieces) == 1
        (_, rows), = pieces
        assert len(rows) == len(keys)


#: Adversarial columns for the worker-thread round trip (fixed examples,
#: so each case is one pool dispatch).
ADVERSARIAL_COLUMNS = [
    [7] * 33,  # all-equal
    [1000, 1001, 1000, 1002] * 12 + [2**61, -(2**61)],  # hot range
    [0],  # single row
]


def _load_on_a_worker_thread(partition: Partition) -> InstanceRelation:
    ((restored,),) = pool_map(2, Partition.load, [partition], 1)
    return restored


class TestWorkerThreadRoundTrips:
    @pytest.mark.parametrize("keys", ADVERSARIAL_COLUMNS)
    def test_path_backed_partition_loads_on_a_worker_thread(
        self, keys, tmp_path
    ):
        relation = _relation(keys)
        path = tmp_path / "partition.chunks"
        path.write_bytes(relation.to_chunk_bytes())
        partition = Partition(
            relation.k,
            key_low=None,
            key_high=None,
            path=path,
            num_rows=len(relation),
        )
        restored = _load_on_a_worker_thread(partition)
        assert restored.k == relation.k
        assert [int(k) for k in restored.keys] == [int(k) for k in keys]
        assert [int(s) for s in restored.last_sid] == list(range(len(keys)))

    @pytest.mark.parametrize("keys", ADVERSARIAL_COLUMNS)
    def test_payload_backed_partition_loads_on_a_worker_thread(self, keys):
        relation = _relation(keys)
        partition = Partition(
            relation.k,
            payload=relation.to_chunk_bytes(),
            num_rows=len(relation),
        )
        restored = _load_on_a_worker_thread(partition)
        assert [int(k) for k in restored.keys] == [int(k) for k in keys]
