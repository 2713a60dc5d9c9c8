"""Pluggable partition transport: how chunk bytes cross process borders.

The pooled kernel hands pool workers the run's ``SALES`` columns and
the ``R_k`` shares as :class:`~repro.core.partitioning.Partition`
descriptors and gets ``(keys, counts)`` buffers back.
*How* those bytes move is a transport concern, and this module owns it
behind one small surface with three implementations:

``pickle``
    The original scheme and the conformance oracle: payload bytes ride
    inside the task pickle, replies ride inside the result pickle.
    Every byte is serialized, piped, and deserialized — correct
    everywhere, never zero-copy.

``shm``
    In-memory payloads are placed — once, contiguously — into a named
    :mod:`multiprocessing.shared_memory` segment; the task pickle
    shrinks to a ``(segment, offset, length)`` descriptor and workers
    rebuild int64 columns as ``frombuffer`` views *over the segment*
    (:func:`~repro.core.partitioning.decode_buffer_chunks`).  Replies
    come back the same way: the parent pre-names a reply segment per
    task, the worker fills it, the parent drains and unlinks it.
    Named segments are what make this start-method safe — a spawned
    worker shares no memory with the parent, but it can attach any
    segment by name.

``mmap``
    Path-backed partitions (the spill engines') are *mapped* by the
    worker instead of read whole; in-memory payloads are spooled to a
    per-session temp directory first.  Same zero-copy decode, backed by
    the page cache instead of POSIX shared memory.

Lifecycle is deliberately asymmetric: **the parent owns every named
segment** (the ones it creates for tasks, and the reply names it hands
out), mirroring the spill-root ownership audit of the serve layer.  A
module-level registry tracks live parent segments, ``atexit`` sweeps
them, :func:`leaked_segment_names` audits both the registry and the
``/dev/shm`` namespace so a worker crash mid-count can be *proven* to
leave nothing behind.

Python 3.11's :class:`~multiprocessing.shared_memory.SharedMemory`
registers every segment — even on attach — with the process-wide
``resource_tracker``, which would unlink parent-owned segments when any
attaching process exits.  Every create/attach here therefore goes
through :func:`_open_untracked`, which mutes that registration;
cleanup is this module's job, not the tracker's.
"""

from __future__ import annotations

import atexit
import mmap
import secrets
import shutil
import tempfile
import threading
from contextlib import contextmanager
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from repro.errors import TransportError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.partitioning import Partition

__all__ = [
    "SEGMENT_PREFIX",
    "TRANSPORT_CHOICES",
    "TransportSession",
    "attach_segment",
    "cleanup_segments",
    "leaked_segment_names",
    "live_segment_names",
    "negotiate_pool_transport",
    "pack_buffers",
    "partition_buffer",
    "read_segment_slice",
    "reset_negotiation_cache",
    "reset_transport_totals",
    "resolve_transport",
    "transport_totals",
    "unpack_buffers",
]

#: The legal values of the ``transport`` engine option / ``--transport``
#: CLI flag.  ``auto`` means ``mmap``: every pooled task reads files.
TRANSPORT_CHOICES = ("auto", "pickle", "shm", "mmap")

#: Every segment this library creates is named with this prefix, so the
#: leak audit can sweep the ``/dev/shm`` namespace for strays without
#: touching anyone else's segments.
SEGMENT_PREFIX = "repro_shm_"

_SHM_DIR = Path("/dev/shm")


def resolve_transport(value: str | None) -> str:
    """Validate a transport name (``None`` means ``auto``)."""
    if value is None:
        return "auto"
    name = str(value).lower()
    if name not in TRANSPORT_CHOICES:
        choices = ", ".join(TRANSPORT_CHOICES)
        raise TransportError(
            f"unknown transport {value!r}; choose from: {choices}"
        )
    return name


# --------------------------------------------------------------------------
# Segment registry: the parent-side ownership ledger.

_LIVE_SEGMENTS: dict[str, shared_memory.SharedMemory] = {}
_LIVE_LOCK = threading.Lock()


#: Serializes the register-mute window below.  Only this module opens
#: ``SharedMemory`` objects in this library, so the lock is never
#: contended against a tracked open.
_TRACKER_LOCK = threading.Lock()


@contextmanager
def _tracker_muted() -> Iterator[None]:
    """Silence the resource tracker for this module's segment calls.

    Python 3.11 registers every segment with the process-wide
    ``resource_tracker`` — even on attach — and would unlink
    parent-owned segments when any attaching process exits.  Worse,
    the tracker's name cache is a *set* shared by parent and workers:
    register/attach/unlink messages from several processes collapse on
    add and then underflow on remove, spraying ``KeyError`` tracebacks
    from the tracker process.  Segment ownership in this module is
    explicit (registry + session close + atexit + deterministic reply
    names), so the clean fix is to never talk to the tracker at all:
    the ``shared_memory`` rtype is muted — in both directions — for
    exactly the stdlib call under this context.
    """
    with _TRACKER_LOCK:
        register, unregister = (
            resource_tracker.register,
            resource_tracker.unregister,
        )

        def muted(original):
            def call(name, rtype):
                if rtype != "shared_memory":
                    original(name, rtype)

            return call

        resource_tracker.register = muted(register)
        resource_tracker.unregister = muted(unregister)
        try:
            yield
        finally:
            resource_tracker.register = register
            resource_tracker.unregister = unregister


def _open_untracked(**kwargs) -> shared_memory.SharedMemory:
    """Open a ``SharedMemory`` without resource-tracker registration."""
    with _tracker_muted():
        return shared_memory.SharedMemory(**kwargs)


def _unlink_untracked(segment: shared_memory.SharedMemory) -> None:
    """Unlink a segment without resource-tracker chatter; idempotent."""
    with _tracker_muted():
        try:
            segment.unlink()
        except FileNotFoundError:
            pass


def create_segment(size: int) -> shared_memory.SharedMemory:
    """Create (and register) a parent-owned named segment."""
    name = f"{SEGMENT_PREFIX}{secrets.token_hex(6)}"
    segment = _open_untracked(name=name, create=True, size=max(1, size))
    with _LIVE_LOCK:
        _LIVE_SEGMENTS[segment.name] = segment
    return segment


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment by name (worker side); never unlinks."""
    return _open_untracked(name=name)


def release_segment(name: str) -> None:
    """Close and unlink a registry segment; idempotent."""
    with _LIVE_LOCK:
        segment = _LIVE_SEGMENTS.pop(name, None)
    if segment is None:
        return
    try:
        segment.close()
    except BufferError:  # pragma: no cover - caller kept a view alive
        pass
    _unlink_untracked(segment)


def _force_unlink(name: str) -> bool:
    """Unlink a segment by bare name (crash cleanup for reply segments)."""
    try:
        segment = _open_untracked(name=name)
    except FileNotFoundError:
        return False
    segment.close()
    _unlink_untracked(segment)
    return True


def live_segment_names() -> tuple[str, ...]:
    """Names of parent-owned segments currently in the registry."""
    with _LIVE_LOCK:
        return tuple(sorted(_LIVE_SEGMENTS))


def leaked_segment_names() -> tuple[str, ...]:
    """Every library-named segment still visible anywhere.

    The union of the in-process registry and a ``/dev/shm`` sweep for
    :data:`SEGMENT_PREFIX` names (covering reply segments created by
    workers and segments surviving a crashed process).  The serve
    drain audit asserts this is empty, exactly as it does for spill
    files.
    """
    names = set(live_segment_names())
    if _SHM_DIR.is_dir():
        names.update(
            entry.name
            for entry in _SHM_DIR.glob(f"{SEGMENT_PREFIX}*")
        )
    return tuple(sorted(names))


def cleanup_segments() -> int:
    """Close and unlink every leaked segment; returns how many."""
    cleaned = 0
    for name in live_segment_names():
        release_segment(name)
        cleaned += 1
    for name in leaked_segment_names():
        if _force_unlink(name):
            cleaned += 1
    return cleaned


atexit.register(cleanup_segments)


def read_segment_slice(descriptor: tuple[str, int, int]) -> bytes:
    """Copy one ``(name, offset, length)`` slice out of a segment."""
    name, offset, length = descriptor
    segment = attach_segment(name)
    try:
        view = segment.buf[offset : offset + length]
        data = bytes(view)
        view.release()
    finally:
        segment.close()
    return data


# --------------------------------------------------------------------------
# Worker-side buffer access.


@contextmanager
def partition_buffer(
    partition: "Partition", mode: str = "pickle"
) -> Iterator[tuple[object, str]]:
    """Yield ``(buffer, source)`` for a partition's chunk bytes.

    ``source`` names how the bytes were obtained: ``inline`` (payload
    carried by the pickle), ``shm`` (a memoryview over an attached
    segment), ``mmap`` (a map of the spill file), or ``read`` (a whole
    file read — the pickle-transport behaviour for path partitions, and
    the fallback for empty files that cannot be mapped).

    ``shm``/``mmap`` buffers borrow their backing store: the caller
    must drop every view derived from the buffer before the context
    exits (release failures are swallowed rather than raised so a
    sloppy caller degrades to a deferred close, never a crash).
    """
    if partition.payload is not None:
        yield partition.payload, "inline"
        return
    if partition.shm is not None:
        name, offset, length = partition.shm
        segment = attach_segment(name)
        view = segment.buf[offset : offset + length]
        try:
            yield view, "shm"
        finally:
            try:
                view.release()
            except BufferError:  # pragma: no cover - caller kept views
                pass
            try:
                segment.close()
            except BufferError:  # pragma: no cover - caller kept views
                pass
        return
    if partition.path is None:
        raise ValueError("partition already deleted; no chunk source left")
    if mode == "mmap":
        with open(partition.path, "rb") as handle:
            try:
                mapped = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
            except ValueError:  # empty file: cannot map, nothing to copy
                yield b"", "read"
                return
            try:
                yield mapped, "mmap"
            finally:
                try:
                    mapped.close()
                except BufferError:  # pragma: no cover - caller kept views
                    pass
        return
    yield partition.path.read_bytes(), "read"


# --------------------------------------------------------------------------
# Reply envelopes: how (keys, counts) buffers come back.


def pack_buffers(
    parts: Sequence[bytes], reply_name: str | None
) -> tuple:
    """Worker side: envelope raw reply buffers for the trip home.

    With a ``reply_name`` (shm transport), the worker creates the
    parent-named segment, copies the buffers in back-to-back, and the
    envelope shrinks to ``("shm", name, lengths)``.  Without one,
    everything stays ``("inline", [bytes, ...])`` in the result pickle.
    """
    if reply_name is None:
        return (
            "inline",
            [
                bytes(p) if isinstance(p, (bytearray, memoryview)) else p
                for p in parts
            ],
        )
    lengths = [len(p) for p in parts]
    segment = _open_untracked(
        name=reply_name, create=True, size=max(1, sum(lengths))
    )
    offset = 0
    for part in parts:
        segment.buf[offset : offset + len(part)] = part
        offset += len(part)
    segment.close()
    return ("shm", reply_name, lengths)


def unpack_buffers(envelope: tuple) -> tuple[list[bytes], int]:
    """Parent side: open an envelope; returns ``(parts, shm_bytes)``.

    ``shm_bytes`` is how many reply bytes bypassed the result pickle.
    Shared envelopes are drained and their segment unlinked here — the
    parent owns every reply name it handed out.
    """
    if envelope[0] == "inline":
        return list(envelope[1]), 0
    _, name, lengths = envelope
    segment = attach_segment(name)
    parts: list[bytes] = []
    offset = 0
    try:
        for length in lengths:
            view = segment.buf[offset : offset + length]
            parts.append(bytes(view))
            view.release()
            offset += length
    finally:
        segment.close()
        _unlink_untracked(segment)
    return parts, sum(lengths)


# --------------------------------------------------------------------------
# Global telemetry (surfaced by `mine --json` and serve stats()).

_TOTALS_LOCK = threading.Lock()
_TOTALS_ZERO = {
    "sessions": 0,
    "segments": 0,
    "spool_files": 0,
    "task_bytes_inline": 0,
    "task_bytes_shared": 0,
    "task_bytes_spooled": 0,
    "reply_bytes_inline": 0,
    "reply_bytes_shared": 0,
    "zero_copy_bytes": 0,
}
_TOTALS = dict(_TOTALS_ZERO)


def transport_totals() -> dict:
    """Process-wide transport counters (all sessions, all engines)."""
    with _TOTALS_LOCK:
        return dict(_TOTALS)


def reset_transport_totals() -> None:
    """Zero the process-wide counters (test isolation)."""
    with _TOTALS_LOCK:
        _TOTALS.update(_TOTALS_ZERO)


# --------------------------------------------------------------------------
# The parent-side session: one pooled iteration's transport lifecycle.


class TransportSession:
    """Owns the shared state of one pooled dispatch, parent side.

    Create it around a pooled iteration, :meth:`publish` the in-memory
    partitions (a no-op for ``pickle``), hand each task a
    :meth:`reply_name`, :meth:`collect` each result envelope, and
    :meth:`close` in a ``finally`` — close is where task segments are
    unlinked, un-collected reply names are force-unlinked (the worker
    may have created them before crashing), the spool directory is
    removed, and the counters roll into :func:`transport_totals`.
    """

    def __init__(self, mode: str) -> None:
        if mode not in ("pickle", "shm", "mmap"):
            raise TransportError(
                f"TransportSession needs a concrete mode, not {mode!r}"
            )
        self.mode = mode
        self._nonce = f"{SEGMENT_PREFIX}{secrets.token_hex(6)}"
        self._segments: list[str] = []
        self._pending_replies: set[str] = set()
        self._spool_dir: Path | None = None
        self._spooled = 0
        self._closed = False
        self.counters = {
            "task_bytes_inline": 0,
            "task_bytes_shared": 0,
            "task_bytes_spooled": 0,
            "reply_bytes_inline": 0,
            "reply_bytes_shared": 0,
            "zero_copy_bytes": 0,
        }

    # -- task leg ----------------------------------------------------------

    def publish(self, partitions: Sequence["Partition"]) -> list["Partition"]:
        """Re-home in-memory payloads for this session's transport.

        Returns descriptor partitions to dispatch in place of the
        originals: ``pickle`` passes them through (payload travels in
        the task pickle), ``shm`` packs every payload into one fresh
        segment and returns ``(name, offset, length)`` descriptors,
        ``mmap`` spools each payload to a session temp file and
        returns path descriptors.  Path-backed inputs pass through
        untouched on every transport — they already travel by name.
        """
        from repro.core.partitioning import Partition

        if self._closed:
            raise TransportError("transport session is closed")
        inline = [p for p in partitions if p.payload is not None]
        if self.mode == "pickle" or not inline:
            for p in inline:
                self.counters["task_bytes_inline"] += len(p.payload)
            return list(partitions)
        if self.mode == "shm":
            total = sum(len(p.payload) for p in inline)
            segment = create_segment(total)
            self._segments.append(segment.name)
            out: list[Partition] = []
            offset = 0
            for p in partitions:
                if p.payload is None:
                    out.append(p)
                    continue
                size = len(p.payload)
                segment.buf[offset : offset + size] = p.payload
                out.append(
                    Partition(
                        p.k,
                        key_low=p.key_low,
                        key_high=p.key_high,
                        num_rows=p.num_rows,
                        shm=(segment.name, offset, size),
                    )
                )
                offset += size
            self.counters["task_bytes_shared"] += total
            return out
        # mmap: spool payloads so workers can map them.
        if self._spool_dir is None:
            self._spool_dir = Path(
                tempfile.mkdtemp(prefix="repro-spool-")
            )
        out = []
        for p in partitions:
            if p.payload is None:
                out.append(p)
                continue
            self._spooled += 1
            path = self._spool_dir / f"part-{self._spooled}.chunks"
            path.write_bytes(p.payload)
            self.counters["task_bytes_spooled"] += len(p.payload)
            out.append(
                Partition(
                    p.k,
                    key_low=p.key_low,
                    key_high=p.key_high,
                    num_rows=p.num_rows,
                    path=path,
                )
            )
        return out

    # -- reply leg ---------------------------------------------------------

    def reply_name(self, task_index: int) -> str | None:
        """A parent-owned segment name for task ``task_index``'s reply.

        Deterministic from the session nonce, so the parent can unlink
        it even when the worker died between creating and returning it.
        ``None`` on non-shm transports (replies stay in the pickle).
        """
        if self.mode != "shm":
            return None
        name = f"{self._nonce}_r{task_index}"
        self._pending_replies.add(name)
        return name

    def collect(self, envelope: tuple) -> list[bytes]:
        """Open one reply envelope, crediting the session counters."""
        parts, shm_bytes = unpack_buffers(envelope)
        if envelope[0] == "shm":
            self._pending_replies.discard(envelope[1])
            self.counters["reply_bytes_shared"] += shm_bytes
        else:
            self.counters["reply_bytes_inline"] += sum(map(len, parts))
        return parts

    def note_zero_copy(self, nbytes: int) -> None:
        """Credit column bytes a worker viewed in place of copying."""
        self.counters["zero_copy_bytes"] += int(nbytes)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Tear down every named resource this session owns; idempotent."""
        if self._closed:
            return
        self._closed = True
        for name in self._segments:
            release_segment(name)
        for name in sorted(self._pending_replies):
            _force_unlink(name)
        self._pending_replies.clear()
        if self._spool_dir is not None:
            shutil.rmtree(self._spool_dir, ignore_errors=True)
        with _TOTALS_LOCK:
            _TOTALS["sessions"] += 1
            _TOTALS["segments"] += len(self._segments)
            _TOTALS["spool_files"] += self._spooled
            for key, value in self.counters.items():
                _TOTALS[key] += value

    def __enter__(self) -> "TransportSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# --------------------------------------------------------------------------
# Per-pool negotiation: prove shm works through *this* pool before
# trusting it with real work.

_PROBE_BYTES = b"repro-shm-handshake"
_NEGOTIATED: dict[tuple[str, int], tuple[str, str | None]] = {}
_NEGOTIATED_LOCK = threading.Lock()


def _probe_attach(task: tuple[str, int, bytes]) -> bool:
    """Pool-side handshake body: attach by name, compare bytes."""
    name, length, expected = task
    segment = attach_segment(name)
    try:
        view = segment.buf[:length]
        matched = bytes(view) == expected
        view.release()
    finally:
        segment.close()
    return matched


def negotiate_pool_transport(
    requested: str,
    *,
    start_method: str,
    workers: int,
    mapper: Callable[[Callable, list], list],
) -> tuple[str, str | None]:
    """Settle the concrete transport for one pool.

    Only ``shm`` needs negotiating: a tiny named segment is pushed
    through the *real* pool (``mapper`` runs tasks exactly as the
    engine will) and every worker must read it back byte-identical.
    Failure demotes to ``pickle`` with the reason recorded — mining
    proceeds either way.  Verdicts are cached per
    ``(start_method, workers)``; other transports pass through.
    """
    if requested != "shm":
        return requested, None
    key = (start_method, workers)
    with _NEGOTIATED_LOCK:
        cached = _NEGOTIATED.get(key)
    if cached is not None:
        return cached
    segment = None
    try:
        segment = create_segment(len(_PROBE_BYTES))
        segment.buf[: len(_PROBE_BYTES)] = _PROBE_BYTES
        tasks = [
            (segment.name, len(_PROBE_BYTES), _PROBE_BYTES)
        ] * max(2, workers)
        if all(mapper(_probe_attach, tasks)):
            verdict = ("shm", None)
        else:
            verdict = (
                "pickle",
                "shm handshake failed: worker read mismatched bytes",
            )
    except Exception as exc:
        verdict = ("pickle", f"shm handshake failed: {exc!r}")
    finally:
        if segment is not None:
            release_segment(segment.name)
    with _NEGOTIATED_LOCK:
        _NEGOTIATED[key] = verdict
    return verdict


def reset_negotiation_cache() -> None:
    """Forget cached handshake verdicts (test isolation)."""
    with _NEGOTIATED_LOCK:
        _NEGOTIATED.clear()
