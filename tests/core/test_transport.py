"""Tests for the partition transport layer (ISSUE 7).

Three suites back the zero-copy transport's acceptance criteria:

* **conformance** — every transport × start method × engine (and a
  deep-pattern input) produces patterns and iteration statistics
  byte-identical to ``setm``, with the negotiated mode and
  bytes-moved/copies-avoided telemetry recorded honestly;
* **leak audit** — a worker crash mid-batch (injected through the
  :meth:`PoolTransportMixin._dispatch` seam) leaves **zero** named
  shared-memory segments behind, and every session/envelope teardown
  path is exercised directly (an autouse fixture sweeps
  :func:`leaked_segment_names` after *every* test here);
* **descriptor round-trips** — hypothesis drives
  :class:`~repro.core.partitioning.Partition` pickling across all
  three chunk sources, version skew fails with the typed
  :class:`~repro.errors.PartitionFormatError`, and
  :func:`decode_buffer_chunks` rebuilds exact columns from borrowed
  buffers while crediting only genuinely-viewed bytes.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import columns
from repro.core import setm_spill_parallel as pooled
from repro.core.columns import InstanceRelation
from repro.core.partitioning import (
    PARTITION_PICKLE_VERSION,
    Partition,
    decode_buffer_chunks,
)
from repro.core.setm import run_figure4_loop, setm
from repro.core.setm_columnar_disk import run_range_batch
from repro.core.setm_spill_parallel import (
    SpillParallelKernel,
    setm_parallel,
    setm_spill_parallel,
)
from repro.core.transactions import TransactionDatabase
from repro.core.transport import (
    SEGMENT_PREFIX,
    TRANSPORT_CHOICES,
    TransportSession,
    leaked_segment_names,
    negotiate_pool_transport,
    pack_buffers,
    partition_buffer,
    reset_negotiation_cache,
    resolve_transport,
    transport_totals,
    unpack_buffers,
)
from repro.data.quest import QuestConfig, generate_quest_dataset
from repro.errors import PartitionFormatError, ReproError, TransportError

TRANSPORTS = ("pickle", "shm", "mmap", "auto")

#: Small enough to force >= 2 spill partitions on the grid database.
_SPILL_BUDGET = 16 * 1024


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Every test in this file must leave the shm namespace clean."""
    yield
    assert leaked_segment_names() == ()


@pytest.fixture
def pool_every_level(monkeypatch):
    """``setm-parallel`` pools every non-empty level, however small."""
    monkeypatch.setattr(pooled, "POOL_MIN_ROWS", 1)


@pytest.fixture(scope="module")
def grid():
    """One QUEST database + its ``setm`` reference for the matrix."""
    db = generate_quest_dataset(
        QuestConfig(
            num_transactions=150,
            avg_transaction_len=6,
            avg_pattern_len=2,
            seed=0,
        )
    )
    return db, setm(db, 0.02)


@pytest.fixture(scope="module")
def deep_pattern_grid():
    """Frequent 8-patterns over a wide sample of a 3,000-item range."""
    import random

    rng = random.Random(0)
    items = list(range(1, 3001))
    transactions = [(tid, rng.sample(items, 10)) for tid in range(1, 41)]
    core = rng.sample(items, 8)
    transactions += [
        (tid, core + rng.sample(items, 2)) for tid in range(100, 125)
    ]
    db = TransactionDatabase(transactions)
    reference = setm(db, 0.25)
    assert reference.max_pattern_length >= 8
    return db, reference


class TestConformanceMatrix:
    """Every transport × start method, byte-identical to ``setm``."""

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_parallel_engine(
        self, grid, transport, start_method, pool_every_level
    ):
        db, reference = grid
        result = setm_parallel(
            db,
            0.02,
            workers=2,
            start_method=start_method,
            transport=transport,
        )
        assert result.same_patterns_as(reference)
        assert result.iterations == reference.iterations
        assert result.extra["parallel"]["parallel_iterations"]

        block = result.extra["transport"]
        expected = "mmap" if transport == "auto" else transport
        assert block["requested"] == transport
        assert block["mode"] == expected
        assert block["fallback_reason"] is None
        assert block["sessions"] > 0
        # Tasks carry descriptors only: SALES and the R_k shares travel
        # by path or segment name on every transport.
        assert block["task_bytes_inline"] == 0
        if expected == "shm":
            assert block["task_bytes_shared"] > 0
            assert block["reply_bytes_shared"] > 0
        elif expected == "mmap":
            assert block["task_bytes_spooled"] > 0
        else:
            assert block["reply_bytes_inline"] > 0
            assert block["zero_copy_bytes"] == 0
        if expected in ("shm", "mmap"):
            assert block["zero_copy_bytes"] > 0

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_spill_parallel_engine(self, grid, transport, start_method):
        db, reference = grid
        result = setm_spill_parallel(
            db,
            0.02,
            workers=2,
            memory_budget_bytes=_SPILL_BUDGET,
            start_method=start_method,
            transport=transport,
        )
        assert result.same_patterns_as(reference)
        assert result.iterations == reference.iterations
        assert result.extra["spill"]["max_partitions"] >= 2

        block = result.extra["transport"]
        # The spill kernel's partitions are path-backed, so "auto"
        # prefers mmap; shm still accelerates the reply leg.
        expected = "mmap" if transport == "auto" else transport
        assert block["requested"] == transport
        assert block["mode"] == expected
        assert block["fallback_reason"] is None
        if expected == "shm":
            assert block["reply_bytes_shared"] > 0
        if expected == "mmap":
            assert block["zero_copy_bytes"] > 0

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_deep_patterns(
        self, deep_pattern_grid, transport, start_method, pool_every_level
    ):
        """Deep-level rank keys ride every transport unchanged."""
        db, reference = deep_pattern_grid
        result = setm_parallel(
            db,
            0.25,
            workers=2,
            start_method=start_method,
            transport=transport,
        )
        assert result.same_patterns_as(reference)
        assert result.iterations == reference.iterations
        assert len(result.extra["parallel"]["parallel_iterations"]) >= 2

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_deep_patterns_through_spill_mmap(
        self, deep_pattern_grid, start_method
    ):
        """Deep-level chunks decode straight off an mmap-ed spill file."""
        db, reference = deep_pattern_grid
        result = setm_spill_parallel(
            db,
            0.25,
            workers=2,
            memory_budget_bytes=4096,
            start_method=start_method,
            transport="mmap",
        )
        assert result.same_patterns_as(reference)
        assert result.iterations == reference.iterations


class _CrashAfterFirstReply(SpillParallelKernel):
    """Injects a pool failure *after* batch 0 filled its reply segment.

    The worst-case crash window for the shm transport: the reply
    segment exists under the parent-issued name and batch 0's ``R_k``
    shares sit in the spill root, but the envelope never comes home.
    ``_dispatch`` is the seam built for exactly this.
    """

    def _dispatch(self, func, tasks):
        if func is not run_range_batch:
            return super()._dispatch(func, tasks)  # the shm handshake
        func(tasks[0])  # batch 0 finishes: reply segment now exists
        assert leaked_segment_names() != ()
        assert any(self._spill_root.iterdir())
        raise RuntimeError("worker crashed mid-batch")


class TestLeakAudit:
    def test_worker_crash_leaves_zero_segments(
        self, grid, pool_every_level, tmp_path
    ):
        db, _ = grid
        kernel = _CrashAfterFirstReply(
            db, workers=2, transport="shm", spill_dir=tmp_path
        )
        with pytest.raises(RuntimeError, match="worker crashed"):
            run_figure4_loop(
                db,
                0.02,
                kernel,
                algorithm="setm-parallel",
            )
        assert leaked_segment_names() == ()
        assert list(tmp_path.iterdir()) == []  # the spill root is removed

    def test_uncollected_reply_segment_is_force_unlinked(self):
        """The worker created its reply, then died before returning."""
        with TransportSession("shm") as session:
            name = session.reply_name(0)
            envelope = pack_buffers([b"orphaned reply"], name)
            assert envelope == ("shm", name, [14])
            assert leaked_segment_names() != ()  # it really exists...
        assert leaked_segment_names() == ()  # ...and close reclaims it

    def test_session_close_is_idempotent_and_total(self):
        session = TransportSession("shm")
        published = session.publish(
            [Partition(2, payload=b"\x00" * 64, num_rows=0)]
        )
        assert published[0].shm is not None
        assert leaked_segment_names() != ()
        session.close()
        session.close()
        assert leaked_segment_names() == ()

    def test_mmap_spool_directory_is_removed_on_close(self):
        partition = Partition(2, payload=b"\x01" * 32, num_rows=0)
        with TransportSession("mmap") as session:
            (published,) = session.publish([partition])
            assert published.path is not None
            assert published.path.read_bytes() == partition.payload
            spool_dir = published.path.parent
            assert session.counters["task_bytes_spooled"] == 32
        assert not spool_dir.exists()


class TestSessionSemantics:
    def test_needs_a_concrete_mode(self):
        with pytest.raises(TransportError, match="concrete mode"):
            TransportSession("auto")

    def test_closed_session_refuses_publish(self):
        session = TransportSession("pickle")
        session.close()
        with pytest.raises(TransportError, match="closed"):
            session.publish([])

    def test_pickle_publish_passes_through(self):
        partition = Partition(2, payload=b"x" * 10, num_rows=0)
        with TransportSession("pickle") as session:
            (published,) = session.publish([partition])
            assert published is partition
            assert session.counters["task_bytes_inline"] == 10
            assert session.reply_name(0) is None

    def test_shm_publish_round_trips_every_payload(self):
        parts = [
            Partition(2, payload=bytes([i]) * (i + 1), num_rows=0)
            for i in range(4)
        ]
        with TransportSession("shm") as session:
            published = session.publish(parts)
            assert [p.read_bytes() for p in published] == [
                p.payload for p in parts
            ]
            assert all(p.shm[0].startswith(SEGMENT_PREFIX) for p in published)
            assert session.counters["task_bytes_shared"] == sum(
                len(p.payload) for p in parts
            )

    def test_path_backed_partitions_pass_through(self, tmp_path):
        """Spill files already travel by name on every transport."""
        path = tmp_path / "part.chunks"
        path.write_bytes(b"spilled")
        partition = Partition(2, path=path, num_rows=0)
        for mode in ("pickle", "shm", "mmap"):
            with TransportSession(mode) as session:
                (published,) = session.publish([partition])
                assert published is partition

    def test_reply_names_are_deterministic_per_task(self):
        with TransportSession("shm") as session:
            first, second = session.reply_name(0), session.reply_name(1)
            assert first != second
            assert first == session.reply_name(0)
            assert first.startswith(SEGMENT_PREFIX)

    def test_totals_accumulate_across_sessions(self):
        before = transport_totals()
        with TransportSession("shm") as session:
            session.publish([Partition(2, payload=b"abcd", num_rows=0)])
            session.note_zero_copy(99)
        after = transport_totals()
        assert after["sessions"] == before["sessions"] + 1
        assert after["segments"] == before["segments"] + 1
        assert (
            after["task_bytes_shared"] == before["task_bytes_shared"] + 4
        )
        assert after["zero_copy_bytes"] == before["zero_copy_bytes"] + 99


class TestEnvelopes:
    def test_inline_round_trip_normalizes_buffer_types(self):
        envelope = pack_buffers(
            [b"a", bytearray(b"bb"), memoryview(b"ccc")], None
        )
        parts, shm_bytes = unpack_buffers(envelope)
        assert parts == [b"a", b"bb", b"ccc"]
        assert shm_bytes == 0

    def test_shm_round_trip_drains_and_unlinks(self):
        name = f"{SEGMENT_PREFIX}test_envelope_r0"
        envelope = pack_buffers([b"abc", b"", b"defg"], name)
        assert envelope == ("shm", name, [3, 0, 4])
        assert leaked_segment_names() != ()
        parts, shm_bytes = unpack_buffers(envelope)
        assert parts == [b"abc", b"", b"defg"]
        assert shm_bytes == 7
        assert leaked_segment_names() == ()


class TestPartitionBuffer:
    def test_inline_source(self):
        partition = Partition(2, payload=b"bytes", num_rows=0)
        with partition_buffer(partition, "pickle") as (buffer, source):
            assert (buffer, source) == (b"bytes", "inline")

    def test_shm_source_is_a_borrowed_view(self):
        with TransportSession("shm") as session:
            (published,) = session.publish(
                [Partition(2, payload=b"shared bytes", num_rows=0)]
            )
            with partition_buffer(published, "shm") as (buffer, source):
                assert source == "shm"
                assert isinstance(buffer, memoryview)
                assert bytes(buffer) == b"shared bytes"

    def test_mmap_source_and_empty_file_fallback(self, tmp_path):
        path = tmp_path / "part.chunks"
        path.write_bytes(b"mapped bytes")
        partition = Partition(2, path=path, num_rows=0)
        with partition_buffer(partition, "mmap") as (buffer, source):
            assert source == "mmap"
            assert bytes(buffer[:]) == b"mapped bytes"
        with partition_buffer(partition, "pickle") as (buffer, source):
            assert (buffer, source) == (b"mapped bytes", "read")
        path.write_bytes(b"")  # empty files cannot be mapped
        with partition_buffer(partition, "mmap") as (buffer, source):
            assert (buffer, source) == (b"", "read")

    def test_deleted_partition_raises(self):
        partition = Partition(2, payload=b"x", num_rows=0)
        partition.delete()
        with pytest.raises(ValueError, match="deleted"):
            with partition_buffer(partition):
                pass  # pragma: no cover


class TestNegotiation:
    def test_resolve_names(self):
        assert resolve_transport(None) == "auto"
        assert resolve_transport("SHM") == "shm"
        for name in TRANSPORT_CHOICES:
            assert resolve_transport(name) == name

    def test_resolve_rejects_unknown_typed(self):
        with pytest.raises(TransportError, match="carrier-pigeon"):
            resolve_transport("carrier-pigeon")
        assert issubclass(TransportError, ReproError)

    def test_non_shm_requests_pass_through(self):
        for requested in ("pickle", "mmap"):
            assert negotiate_pool_transport(
                requested,
                start_method="fork",
                workers=9,
                mapper=None,  # must not be called
            ) == (requested, None)

    def test_handshake_failure_demotes_to_pickle_and_caches(self):
        reset_negotiation_cache()
        try:

            def broken(func, tasks):
                raise OSError("shm namespace unavailable")

            mode, reason = negotiate_pool_transport(
                "shm", start_method="fork", workers=9, mapper=broken
            )
            assert mode == "pickle"
            assert "handshake failed" in reason
            # The verdict is cached per pool: a now-healthy mapper is
            # not even consulted.
            mode, reason = negotiate_pool_transport(
                "shm",
                start_method="fork",
                workers=9,
                mapper=lambda func, tasks: [func(t) for t in tasks],
            )
            assert mode == "pickle"
            assert "handshake failed" in reason
        finally:
            reset_negotiation_cache()

    def test_in_process_handshake_accepts_shm(self):
        reset_negotiation_cache()
        try:
            mode, reason = negotiate_pool_transport(
                "shm",
                start_method="fork",
                workers=9,
                mapper=lambda func, tasks: [func(t) for t in tasks],
            )
            assert (mode, reason) == ("shm", None)
        finally:
            reset_negotiation_cache()


# -- descriptor round-trips ---------------------------------------------------------

_bound = st.none() | st.integers(min_value=-(2**70), max_value=2**70)

_sources = st.one_of(
    st.binary(max_size=64).map(lambda blob: {"payload": blob}),
    st.text(alphabet="abc123", min_size=1, max_size=12).map(
        lambda stem: {"path": f"/tmp/{stem}.chunks"}
    ),
    st.tuples(
        st.text(alphabet="0123456789abcdef", min_size=1, max_size=12),
        st.integers(min_value=0, max_value=2**30),
        st.integers(min_value=0, max_value=2**30),
    ).map(
        lambda parts: {
            "shm": (f"{SEGMENT_PREFIX}{parts[0]}", parts[1], parts[2])
        }
    ),
)


class TestDescriptorRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=12),
        key_low=_bound,
        key_high=_bound,
        num_rows=st.integers(min_value=0, max_value=2**40),
        source=_sources,
    )
    def test_pickle_round_trip(self, k, key_low, key_high, num_rows, source):
        partition = Partition(
            k, key_low=key_low, key_high=key_high, num_rows=num_rows, **source
        )
        clone = pickle.loads(pickle.dumps(partition))
        assert clone.k == partition.k
        assert clone.key_low == partition.key_low
        assert clone.key_high == partition.key_high
        assert clone.num_rows == partition.num_rows
        assert clone.payload == partition.payload
        assert clone.path == partition.path
        assert clone.shm == partition.shm

    def test_state_carries_the_wire_version(self):
        partition = Partition(2, payload=b"", num_rows=0)
        assert partition.__getstate__()["v"] == PARTITION_PICKLE_VERSION

    @pytest.mark.parametrize(
        "skew", [1, PARTITION_PICKLE_VERSION + 1, "2", None]
    )
    def test_version_skew_fails_typed(self, skew):
        """A mixed-version pool refuses the pickle, naming both sides."""
        state = Partition(2, payload=b"", num_rows=0).__getstate__()
        if skew is None:
            del state["v"]  # a pre-versioning peer
        else:
            state["v"] = skew
        clone = Partition.__new__(Partition)
        with pytest.raises(PartitionFormatError) as caught:
            clone.__setstate__(state)
        assert caught.value.expected == PARTITION_PICKLE_VERSION
        assert caught.value.found == (None if skew is None else skew)
        assert isinstance(caught.value, ReproError)
        assert "same library version" in str(caught.value)


def _relation(keys: list[int]) -> InstanceRelation:
    return InstanceRelation(
        None,
        None,
        last_sid=list(range(len(keys))),
        keys=list(keys),
        k=2,
        index=None,
    )


class TestDecodeBufferChunks:
    @settings(max_examples=60, deadline=None)
    @given(
        keys=st.lists(
            st.integers(min_value=0, max_value=2**63 - 1),
            min_size=1,
            max_size=64,
        )
    )
    def test_round_trip_from_a_borrowed_buffer(self, keys):
        blob = _relation(keys).to_chunk_bytes()
        chunks, zero_copy = decode_buffer_chunks(memoryview(blob))
        assert [
            int(key) for chunk in chunks for key in chunk.keys
        ] == keys
        assert [
            int(sid) for chunk in chunks for sid in chunk.last_sid
        ] == list(range(len(keys)))
        assert 0 <= zero_copy <= 16 * len(keys)
        del chunks  # views die before the buffer does

    def test_int64_columns_are_views_not_copies(self):
        keys = list(range(100))
        blob = _relation(keys).to_chunk_bytes()
        chunks, zero_copy = decode_buffer_chunks(blob)
        assert zero_copy == 16 * len(keys)
        for chunk in chunks:
            assert not chunk.keys.flags.owndata  # frombuffer view
            assert not chunk.last_sid.flags.owndata


class TestSurvivorColumnsAreBuffers:
    """``last_sid`` round-trips as a flat int64 buffer."""

    def test_numpy_filter_emits_int64_ndarray(self):
        relation = InstanceRelation(
            None,
            None,
            last_sid=np.arange(5, dtype=np.int64),
            keys=np.array([5, 9, 9, 12, 5], dtype=np.int64),
            k=2,
            index=None,
        )
        survivors = columns.filter_by_keys(relation, {9, 12})
        assert survivors.last_sid.dtype == np.int64
        assert columns._int64_column_bytes(survivors.last_sid) == (
            survivors.last_sid.tobytes()
        )
