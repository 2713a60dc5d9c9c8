"""Incremental delta mining: equivalence, state persistence, crashes.

The contract under test (PR 9): mining an append-extended
:class:`~repro.data.ingest.EncodedDataset` through ``setm-incremental``
with a state directory must be *byte-identical* — count relations,
unfiltered ``C_1``, iteration statistics, support threshold — to a
from-scratch ``setm`` mine of the same prefix, for every append batch,
across chunk sizes, spill budgets, brand-new delta items, empty
transactions, and ``max_length`` caps.  On top of the equivalence grid:
state save/load round-trips, version skew and fingerprint mismatches
fail typed, and a crash mid-merge or mid-save leaks neither temp files
nor the previous state.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import incremental
from repro.core.columns import InstanceRelation
from repro.core.incremental import MiningState, setm_incremental
from repro.core.setm import setm
from repro.core.setm_columnar import setm_columnar
from repro.core.transactions import TransactionDatabase
from repro.data.formats import open_chunk_source
from repro.data.ingest import stream_encode
from repro.data.io import write_basket_file
from repro.errors import (
    InvalidConfigError,
    StateMismatchError,
    StateVersionError,
)

_ITEMS = [f"i{j:02d}" for j in range(10)]
#: Labels only delta batches draw from — forces catalog growth, and
#: because they sort before/among the base labels, id remapping too.
_DELTA_ONLY = ["a-new", "j-new", "z-new"]


def _basket_lists(labels, min_size, max_size):
    return st.lists(
        st.frozensets(st.sampled_from(labels), max_size=5),
        min_size=min_size,
        max_size=max_size,
    )


@st.composite
def _delta_cases(draw):
    base = draw(_basket_lists(_ITEMS, 1, 12))
    num_splits = draw(st.integers(min_value=1, max_value=3))
    deltas = [
        draw(_basket_lists(_ITEMS + _DELTA_ONLY, 1, 6))
        for _ in range(num_splits)
    ]
    chunk_rows = draw(st.sampled_from([1, 4, 1024]))
    budget = draw(st.sampled_from([None, 2048]))
    minsup = draw(st.sampled_from([0.1, 0.3]))
    max_length = draw(st.sampled_from([None, 2]))
    return base, deltas, chunk_rows, budget, minsup, max_length


def _write(baskets, path, start_tid):
    db = TransactionDatabase(
        (tid, sorted(basket))
        for tid, basket in enumerate(baskets, start=start_tid)
    )
    write_basket_file(db, path)
    return start_tid + len(baskets)


def _assert_identical(result, reference):
    assert result.count_relations == reference.count_relations
    assert result.unfiltered_item_counts == reference.unfiltered_item_counts
    assert result.iterations == reference.iterations
    assert result.support_threshold == reference.support_threshold


def _level_maps(state):
    """Every level of ``state`` by value: level columns are ndarrays."""
    return {k: state.level_counts(k) for k in state.levels}


def _encode_base(baskets, root, chunk_rows, budget):
    path = root / "base.basket"
    next_tid = _write(baskets, path, 1)
    dataset = stream_encode(
        open_chunk_source(path, chunk_rows=chunk_rows),
        memory_budget_bytes=budget,
    )
    return dataset, next_tid


class TestDeltaEquivalence:
    """mine_delta ≡ full re-mine, batch for batch."""

    @settings(max_examples=20, deadline=None)
    @given(case=_delta_cases())
    def test_every_batch_matches_from_scratch(self, case):
        base, deltas, chunk_rows, budget, minsup, max_length = case
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            state_dir = root / "state"
            dataset, next_tid = _encode_base(base, root, chunk_rows, budget)
            try:
                first = setm_incremental(
                    dataset,
                    minsup,
                    max_length=max_length,
                    state_dir=state_dir,
                )
                assert first.extra["incremental"]["mode"] == "full"
                _assert_identical(
                    first,
                    setm(
                        dataset.database(decoded=True),
                        minsup,
                        max_length=max_length,
                    ),
                )

                all_baskets = list(base)
                for i, delta in enumerate(deltas):
                    path = root / f"delta{i}.basket"
                    next_tid = _write(delta, path, next_tid)
                    dataset.append_chunks(
                        open_chunk_source(path, chunk_rows=chunk_rows),
                        memory_budget_bytes=budget,
                    )
                    all_baskets.extend(delta)

                    result = setm_incremental(
                        dataset,
                        minsup,
                        max_length=max_length,
                        state_dir=state_dir,
                    )
                    telemetry = result.extra["incremental"]
                    assert telemetry["mode"] == "delta"
                    assert telemetry["generation"] == dataset.generation
                    assert (
                        telemetry["delta_rows"] + telemetry["base_rows"]
                        == telemetry["total_rows"]
                    )

                    prefix = TransactionDatabase(
                        (tid, sorted(basket))
                        for tid, basket in enumerate(all_baskets, start=1)
                    )
                    _assert_identical(
                        result,
                        setm(
                            prefix,
                            minsup,
                            max_length=max_length,
                        ),
                    )
            finally:
                dataset.close()

    def test_deep_levels_rekey_across_catalog_growth(self, tmp_path):
        """Rank keys re-keyed at every depth: remap, drop and recount.

        The base's 6-item core is frequent; the first append brings a
        label sorting before every other (all ids shift), raises the
        threshold past the core (its deep prefixes drop) and makes a
        5-item group frequent that the base never extended (deep
        recounts).  The second append makes the core frequent again.
        """
        core = {f"c{j}" for j in range(1, 7)}
        group = {f"d{j}" for j in range(1, 6)}
        base = [core] * 4 + [group] * 2 + [{"c1", "d1"}, {"e"}] * 2
        deltas = [
            [group | {"a-new"}] * 3 + [{"e", "a-new"}],
            [core | {"e"}] * 4,
        ]
        state_dir = tmp_path / "state"
        dataset, next_tid = _encode_base(base, tmp_path, 4, None)
        try:
            setm_incremental(dataset, 0.3, state_dir=state_dir)
            all_baskets = list(base)
            recounted = []
            for i, delta in enumerate(deltas):
                delta_path = tmp_path / f"delta{i}.basket"
                next_tid = _write(delta, delta_path, next_tid)
                dataset.append_chunks(open_chunk_source(delta_path))
                all_baskets.extend(delta)
                result = setm_incremental(dataset, 0.3, state_dir=state_dir)
                assert result.extra["incremental"]["mode"] == "delta"
                recounted.append(result.extra["incremental"]["recount_levels"])
                prefix = TransactionDatabase(
                    (tid, sorted(basket))
                    for tid, basket in enumerate(all_baskets, start=1)
                )
                _assert_identical(result, setm(prefix, 0.3))
            # Newly frequent prefixes at every depth, recounted on the
            # base: up to the 6-item group and the 7-item core + "e".
            assert recounted == [[3, 4, 5, 6], [3, 4, 5, 6, 7]]
        finally:
            dataset.close()

    def test_plain_database_with_state_falls_back_to_full_mine(
        self, example_db, tmp_path
    ):
        state_dir = tmp_path / "state"
        first = setm_incremental(example_db, 0.3, state_dir=state_dir)
        assert first.extra["incremental"]["mode"] == "full"
        # TransactionDatabase has no append seam: state exists but the
        # engine must quietly re-mine in full and refresh the state.
        again = setm_incremental(example_db, 0.3, state_dir=state_dir)
        assert again.extra["incremental"]["mode"] == "full"
        _assert_identical(again, setm(example_db, 0.3))

    def test_state_dir_type_is_validated(self, example_db):
        with pytest.raises(InvalidConfigError, match="state_dir"):
            setm_incremental(example_db, 0.3, state_dir=123)


class TestStateRoundTrip:
    def _mined_state(self, root, **kwargs):
        dataset, _ = _encode_base(
            [{"a", "b"}, {"a", "b", "c"}, {"b"}, set()], root, 1024, None
        )
        try:
            setm_incremental(
                dataset,
                kwargs.pop("support", 0.4),
                state_dir=root / "state",
                **kwargs,
            )
        finally:
            dataset.close()
        return root / "state"

    def test_save_load_round_trip(self, tmp_path):
        state_dir = self._mined_state(tmp_path)
        state = MiningState.load(state_dir)
        assert state is not None
        assert state.generation == 0
        assert state.num_transactions == 4
        assert state.last_trans_id == 4
        assert state.labels == ["a", "b", "c"]
        assert 1 in state.levels  # the pre-HAVING C_1 map is always kept
        # level_counts gives the dict view of the columnar level pair:
        # a=2, b=3, c=1 over {ab, abc, b, {}} — pre-HAVING, so c rides
        # along below the 0.4 * 4 threshold.
        assert state.level_counts(1) == {1: 2, 2: 3, 3: 1}

        copy_dir = tmp_path / "copy"
        state.save(copy_dir)
        clone = MiningState.load(copy_dir)
        assert _level_maps(clone) == _level_maps(state)
        assert clone.labels == state.labels
        assert clone.support == state.support
        assert clone.support_is_absolute == state.support_is_absolute

    def test_levels_file_is_the_spill_chunk_format(self, tmp_path):
        """One spill-format chunk per level, counts in ``last_sid``."""
        state_dir = self._mined_state(tmp_path)
        state = MiningState.load(state_dir)
        expected = b"".join(
            InstanceRelation(
                None, None, last_sid=counts, keys=keys, k=k
            ).to_chunk_bytes()
            for k, (keys, counts) in sorted(state.levels.items())
        )
        assert (state_dir / "levels.bin").read_bytes() == expected

    def test_load_missing_dir_returns_none(self, tmp_path):
        assert MiningState.load(tmp_path / "nope") is None

    def test_version_skew_fails_typed(self, tmp_path):
        state_dir = self._mined_state(tmp_path)
        manifest = state_dir / "state.json"
        doc = json.loads(manifest.read_text())
        doc["version"] = 99
        manifest.write_text(json.dumps(doc))
        with pytest.raises(StateVersionError) as excinfo:
            MiningState.load(state_dir)
        assert excinfo.value.expected == incremental.STATE_VERSION
        assert excinfo.value.found == 99

    def test_support_change_is_a_fingerprint_mismatch(self, tmp_path):
        state_dir = self._mined_state(tmp_path)
        dataset, next_tid = _encode_base(
            [{"a", "b"}, {"a", "b", "c"}, {"b"}, set()], tmp_path, 1024, None
        )
        try:
            delta = tmp_path / "delta.basket"
            _write([{"a"}], delta, next_tid)
            dataset.append_chunks(open_chunk_source(delta))
            with pytest.raises(StateMismatchError, match="support"):
                setm_incremental(dataset, 0.2, state_dir=state_dir)
        finally:
            dataset.close()

    def test_diverged_dataset_is_a_fingerprint_mismatch(self, tmp_path):
        state_dir = self._mined_state(tmp_path)
        other_root = tmp_path / "other"
        other_root.mkdir()
        dataset, _ = _encode_base(
            [{"x"}, {"y"}, {"x", "y"}, {"x"}, {"y"}],
            other_root,
            1024,
            None,
        )
        try:
            with pytest.raises(StateMismatchError):
                setm_incremental(dataset, 0.4, state_dir=state_dir)
        finally:
            dataset.close()


class TestCrashCleanup:
    def test_crash_mid_merge_preserves_old_state(self, tmp_path, monkeypatch):
        dataset, next_tid = _encode_base(
            [{"a", "b"}, {"a", "b", "c"}, {"b", "c"}], tmp_path, 1024, None
        )
        state_dir = tmp_path / "state"
        try:
            setm_incremental(dataset, 0.3, state_dir=state_dir)
            before = MiningState.load(state_dir)

            delta = tmp_path / "delta.basket"
            _write([{"a", "b", "c"}], delta, next_tid)
            dataset.append_chunks(open_chunk_source(delta))

            def boom(*args, **kwargs):
                raise RuntimeError("simulated crash mid-merge")

            monkeypatch.setattr(incremental, "suffix_extend", boom)
            with pytest.raises(RuntimeError, match="mid-merge"):
                setm_incremental(dataset, 0.3, state_dir=state_dir)
            monkeypatch.undo()

            assert list(state_dir.glob("*.tmp")) == []
            after = MiningState.load(state_dir)
            assert after.generation == before.generation
            assert _level_maps(after) == _level_maps(before)
            # The untouched state still supports the delta re-mine.
            recovered = setm_incremental(dataset, 0.3, state_dir=state_dir)
            assert recovered.extra["incremental"]["mode"] == "delta"
        finally:
            dataset.close()

    def test_crash_mid_save_leaks_no_temp_files(self, tmp_path, monkeypatch):
        state = MiningState(
            generation=0,
            num_transactions=2,
            num_sales_rows=3,
            last_trans_id=2,
            labels=["a", "b"],
            support=0.5,
            max_length=None,
            levels={1: {1: 2, 2: 1}},
        )

        def boom(*args, **kwargs):
            raise OSError("simulated rename failure")

        monkeypatch.setattr(incremental.os, "replace", boom)
        state_dir = tmp_path / "state"
        with pytest.raises(OSError, match="rename failure"):
            state.save(state_dir)
        monkeypatch.undo()
        assert list(state_dir.glob("*.tmp")) == []
        assert MiningState.load(state_dir) is None


def _read_only_pair(counts):
    """A count map as a sorted level pair of read-only columns, as loaded."""
    keys = np.array(sorted(counts), dtype=np.int64)
    values = np.array([counts[key] for key in keys.tolist()], dtype=np.int64)
    keys.setflags(write=False)
    values.setflags(write=False)
    return keys, values


#: Level keys: small ranks, and keys near the top of the rank-key range.
_LEVEL_KEYS = st.one_of(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=2**62 - 40, max_value=2**62 + 40),
)
_COUNT_MAPS = st.dictionaries(
    _LEVEL_KEYS, st.integers(min_value=1, max_value=10**9), max_size=25
)


class TestCombine:
    """``_combine`` (searchsorted + insertion) against a dict-sum oracle."""

    def _check(self, maps):
        pairs = [_read_only_pair(counts) for counts in maps]
        before = [(keys.copy(), counts.copy()) for keys, counts in pairs]
        keys, counts = incremental._combine(pairs)
        oracle = Counter()
        for counts_map in maps:
            oracle.update(counts_map)
        assert keys.dtype == np.int64 and counts.dtype == np.int64
        assert bool(np.all(keys[1:] > keys[:-1]))
        assert dict(zip(keys.tolist(), counts.tolist())) == dict(oracle)
        # Read-only inputs (setflags raises on any in-place write) come
        # back unchanged.
        for (k, c), (k0, c0) in zip(pairs, before):
            assert np.array_equal(k, k0) and np.array_equal(c, c0)

    @settings(max_examples=200, deadline=None)
    @given(maps=st.lists(_COUNT_MAPS, max_size=4))
    def test_matches_dict_sum_oracle(self, maps):
        self._check(maps)

    @pytest.mark.parametrize(
        "maps",
        [
            [],
            [{}, {}],
            [{5: 2, 9: 1}, {}],
            [{}, {5: 2, 9: 1}],
            [{1: 1, 3: 1}, {2: 4, 4: 1, 6: 1}],
            [{1: 1, 3: 2, 5: 3, 7: 4}, {3: 10, 4: 1}],
            [{3: 10, 4: 1}, {1: 1, 3: 2, 5: 3, 7: 4}],
            [{2**62 + 1: 1, 0: 3}, {2**62 + 1: 2, 2**62 - 1: 1}, {0: 1}],
        ],
        ids=[
            "none",
            "empty",
            "empty-second",
            "empty-first",
            "disjoint",
            "overlap-first-larger",
            "overlap-second-larger",
            "near-2^62",
        ],
    )
    def test_edge_cases(self, maps):
        self._check(maps)

    def test_loaded_columns_are_read_only_and_survive_a_delta_mine(
        self, tmp_path
    ):
        dataset, next_tid = _encode_base(
            [{"a", "b", "c"}] * 3 + [{"b", "c"}, {"a"}], tmp_path, 1024, None
        )
        state_dir = tmp_path / "state"
        try:
            setm_incremental(dataset, 0.3, state_dir=state_dir)
            state = MiningState.load(state_dir)
            assert all(
                not column.flags.writeable
                for pair in state.levels.values()
                for column in pair
            )
            before = _level_maps(state)
            delta = tmp_path / "delta.basket"
            _write([{"a", "b", "c"}, {"c"}], delta, next_tid)
            dataset.append_chunks(open_chunk_source(delta))
            result, _ = incremental._mine_delta(
                dataset,
                0.3,
                state,
                max_length=None,
                count_via="auto",
                measure_memory=False,
            )
            assert result.extra["incremental"]["state_hits"] > 0
            assert _level_maps(state) == before
        finally:
            dataset.close()


class TestRekeyFastPath:
    """An unchanged level is kept as loaded, exactly as re-keying it would.

    Each case mines a base, appends, and runs the delta mine twice from
    the same saved state: as shipped, and with every level forced
    through the general :func:`incremental._rekey_level`.  The results
    and the saved states must match byte for byte, and equal a
    from-scratch ``setm`` mine.
    """

    _CORE = {"b", "d", "f"}

    CASES = {
        # The catalog and every F_k stay as they were.
        "unchanged-catalog": (
            [_CORE | {"h"}] * 4 + [{"b", "d"}] * 2 + [{"j"}] * 2,
            [_CORE | {"h"}],
        ),
        # "c" sorts between "b" and "d": every later id shifts.
        "new-label-between": (
            [_CORE | {"h"}] * 4 + [{"b", "d"}] * 2 + [{"j"}] * 2,
            [_CORE | {"c"}],
        ),
        # Same catalog, but the threshold grows past the "b d f h"
        # family: F_2 loses the prefixes that level 3 ranked into.
        "dropped-prefix": (
            [_CORE | {"h"}] * 3 + [{"j", "l", "n"}] * 3 + [{"b"}],
            [{"j", "l", "n"}] * 4 + [{"h"}],
        ),
    }

    def _delta_run(self, root, state_dir, dataset, tag):
        work = root / tag
        shutil.copytree(state_dir, work)
        result = setm_incremental(dataset, 0.3, state_dir=work)
        assert result.extra["incremental"]["mode"] == "delta"
        return result, (work / "levels.bin").read_bytes()

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_fast_path_equals_general_path(self, case, tmp_path, monkeypatch):
        base, delta = self.CASES[case]
        dataset, next_tid = _encode_base(base, tmp_path, 1024, None)
        state_dir = tmp_path / "state"
        try:
            setm_incremental(dataset, 0.3, state_dir=state_dir)
            delta_path = tmp_path / "delta.basket"
            _write(delta, delta_path, next_tid)
            dataset.append_chunks(open_chunk_source(delta_path))

            rekeyed = []
            general = incremental._rekey_level

            def spy(pair, k, *args):
                rekeyed.append(k)
                return general(pair, k, *args)

            monkeypatch.setattr(incremental, "_rekey_level", spy)
            fast, fast_bytes = self._delta_run(
                tmp_path, state_dir, dataset, "fast"
            )
            monkeypatch.setattr(incremental, "_translate_level", spy)
            rekeyed_fast, rekeyed[:] = list(rekeyed), []
            slow, slow_bytes = self._delta_run(
                tmp_path, state_dir, dataset, "general"
            )
            monkeypatch.undo()

            # The forced run re-keyed every level the delta mine visited.
            levels = [stats.k for stats in slow.iterations]
            assert rekeyed == levels
            if case == "unchanged-catalog":
                assert rekeyed_fast == []
            elif case == "new-label-between":
                assert rekeyed_fast == levels
            else:
                assert 1 not in rekeyed_fast and 2 not in rekeyed_fast
                assert 3 in rekeyed_fast
            _assert_identical(fast, slow)
            assert fast.extra["incremental"] == slow.extra["incremental"]
            assert fast_bytes == slow_bytes
            reference = setm(
                TransactionDatabase(
                    (tid, sorted(basket))
                    for tid, basket in enumerate(base + delta, start=1)
                ),
                0.3,
            )
            _assert_identical(fast, reference)
        finally:
            dataset.close()


class TestStateMemory:
    def test_full_build_peak_stays_near_the_columnar_mine(
        self, quest_t10_db, tmp_path
    ):
        """Capturing the state costs little over a plain columnar mine.

        The full build keeps each level's counts as the arrays its count
        step made (no per-key Python objects), so its traced peak, save
        included, stays within 1.5x of ``setm-columnar``'s on the same
        data (about 1.2x measured; 2.5x when the counts were dicts).
        """

        def traced_peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        columnar = traced_peak(lambda: setm_columnar(quest_t10_db, 0.01))
        incremental_peak = traced_peak(
            lambda: setm_incremental(
                quest_t10_db, 0.01, state_dir=tmp_path / "state"
            )
        )
        assert incremental_peak <= 1.5 * columnar, (incremental_peak, columnar)


#: Runs in a fresh interpreter: a base mine, one append whose newly
#: frequent prefixes force the base recount at k >= 3, then the delta
#: mine; prints the recount levels and whether numpy.ma got imported.
_FIRST_DELTA_SCRIPT = """
import json, sys
from repro.core.incremental import setm_incremental
from repro.data.formats import open_chunk_source
from repro.data.ingest import stream_encode

base, delta, state = sys.argv[1:]
dataset = stream_encode(open_chunk_source(base))
setm_incremental(dataset, 0.3, state_dir=state)
dataset.append_chunks(open_chunk_source(delta))
result = setm_incremental(dataset, 0.3, state_dir=state)
print(json.dumps({
    "telemetry": result.extra["incremental"],
    "numpy.ma": "numpy.ma" in sys.modules,
}))
dataset.close()
"""


class TestFirstDeltaMineImports:
    def test_recounting_delta_mine_leaves_numpy_ma_unimported(
        self, tmp_path
    ):
        """A plain ``np.unique`` lazily imports ``numpy.ma`` (tens of
        milliseconds), which a fresh process would pay inside its first
        timed delta mine; the recount path must not trigger it."""
        group = {f"d{j}" for j in range(1, 6)}
        base = [{f"c{j}" for j in range(1, 7)}] * 4 + [group] * 2
        base += [{"c1", "d1"}, {"e"}] * 2
        next_tid = _write(base, tmp_path / "base.basket", 1)
        _write([group] * 3, tmp_path / "delta.basket", next_tid)
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [src, *filter(None, [env.get("PYTHONPATH")])]
        )
        completed = subprocess.run(
            [
                sys.executable,
                "-c",
                _FIRST_DELTA_SCRIPT,
                str(tmp_path / "base.basket"),
                str(tmp_path / "delta.basket"),
                str(tmp_path / "state"),
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        report = json.loads(completed.stdout)
        assert report["telemetry"]["mode"] == "delta"
        assert report["telemetry"]["recount_levels"], report["telemetry"]
        assert report["numpy.ma"] is False
