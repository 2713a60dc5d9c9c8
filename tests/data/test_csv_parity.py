"""The columnar integer CSV decode against the plain :mod:`csv` decode.

:class:`CsvChunkSource` parses all-integer blocks with numpy and sends
every other block through :mod:`csv`.  ``StdlibCsv`` below switches the
numpy parse off, which leaves the plain :mod:`csv` decode.  On any input
the two must agree on everything observable: the chunks (values *and*
types), the :class:`DecodeStats`, the encoded catalog, the ``R_1``
bytes, the :class:`IngestStats`, and the type and message of any error.
"""

from __future__ import annotations

import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.formats import csvfile
from repro.data.formats.csvfile import CsvChunkSource, parse_integer_block
from repro.data.ingest import stream_encode
from repro.errors import IngestError


class StdlibCsv(CsvChunkSource):
    """The CSV decoder with the numpy integer parse switched off."""

    def _integer_columns(self, text, num_columns, tid_col, item_col):
        return None


CHUNK_SIZES = (1, 7, 4096, None)

#: Item tokens that are not plain ``-?[0-9]+``: each must decode as
#: ``csv`` + ``int()`` decode it, whichever path sees it.
ODD_TOKENS = (
    " 5", "+5", "007", "-3", "-0", "1_000", '"5"', "5.0", str(2**63),
    "#1", "x", "", "٣", '"1,2"',
)


def _typed(values) -> list:
    return [(type(value).__name__, value) for value in values]


def _outcome(action):
    """``("ok", value)`` or ``("error", type name, message)``."""
    try:
        return ("ok", action())
    except Exception as error:
        return ("error", type(error).__name__, str(error))


def _decode(source) -> tuple:
    def run():
        chunks = [
            (_typed(chunk.trans_ids), _typed(chunk.items))
            for chunk in source
        ]
        return chunks, source.stats.as_dict()

    return _outcome(run)


def _encode(source, budget) -> tuple:
    def run():
        dataset = stream_encode(source, memory_budget_bytes=budget)
        try:
            return (
                _typed(dataset.catalog.labels()),
                bytes(dataset.items),
                bytes(dataset.trans_ids),
                bytes(dataset.run_lengths),
                dataset.stats.as_dict(),
            )
        finally:
            dataset.close()

    return _outcome(run)


def assert_parity(path: Path, chunk_rows, budget=None) -> tuple:
    fast = CsvChunkSource(path, chunk_rows=chunk_rows)
    slow = StdlibCsv(path, chunk_rows=chunk_rows)
    decoded = _decode(fast)
    assert decoded == _decode(slow)
    assert _encode(fast, budget) == _encode(slow, budget)
    return decoded


@st.composite
def csv_texts(draw) -> str:
    extras = draw(
        st.lists(
            st.sampled_from(["store", "notes", "qty"]), unique=True, max_size=2
        )
    )
    columns = draw(st.permutations(["trans_id", "item", *extras]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    plain_items = st.integers(min_value=-2, max_value=40).map(str)
    items = st.integers(min_value=0, max_value=29).flatmap(
        lambda pick: plain_items if pick else st.sampled_from(ODD_TOKENS)
    )
    lines = [",".join(columns)]
    trans_id = draw(st.integers(min_value=-3, max_value=5))
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        # Mostly ascending; a rare step back exercises the typed error.
        trans_id += draw(st.sampled_from([1] * 12 + [2, 5, -1]))
        for _ in range(draw(st.integers(min_value=1, max_value=6))):
            # Rare row shapes: 0 odd trans_id, 1 wide, 2 short, 3-5 blank.
            shape = draw(st.integers(min_value=0, max_value=99))
            cells = {
                "trans_id": (
                    str(trans_id)
                    if shape
                    else draw(
                        st.sampled_from(
                            [f" {trans_id}", f"+{trans_id}", "x", '"1"']
                        )
                    )
                ),
                "item": draw(items),
            }
            row = [
                cells[name]
                if name in cells
                else draw(st.sampled_from(["junk", "", "a b", "7"]))
                for name in columns
            ]
            if shape == 1:
                row.append("wider")  # a row wider than the header
            elif shape == 2:
                row = row[:1]  # a short row: the typed error
            elif shape <= 5:
                lines.append("")  # a blank line
            lines.append(",".join(row))
    text = newline.join(lines)
    if draw(st.booleans()):
        text += newline
    return text


class TestParity:
    @settings(max_examples=80, deadline=None)
    @given(
        text=csv_texts(),
        block_chars=st.sampled_from([1, 6, 32, 1 << 20]),
        budget=st.sampled_from([None, 64]),
    )
    def test_generated_files(self, text, block_chars, budget):
        # Tiny blocks make a small file span many blocks, so integer and
        # csv blocks alternate and baskets straddle block boundaries.
        with tempfile.TemporaryDirectory() as tmp, mock.patch.multiple(
            csvfile,
            BLOCK_ROWS=1,
            MIN_BLOCK_ROWS=1,
            _BLOCK_ROW_CHARS=block_chars,
        ):
            path = Path(tmp) / "sales.csv"
            path.write_bytes(text.encode("utf-8"))
            for chunk_rows in CHUNK_SIZES:
                assert_parity(path, chunk_rows, budget)

    @pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
    @pytest.mark.parametrize(
        "tail, label",
        [("1_000", 1000), ("x", "x")],
        ids=["int-tokens", "string-labels"],
    )
    def test_integer_blocks_then_csv_blocks(
        self, tmp_path, chunk_rows, tail, label
    ):
        # 3,000 integer rows span several default-size blocks (at
        # chunk_rows 7), then every row needs the csv decode; the basket
        # of trans_id 1000 straddles the switch.
        rows = [f"{tid // 3},{tid % 7}" for tid in range(3000)]
        rows += [f"{1000 + tid // 2},{tail}" for tid in range(40)]
        path = tmp_path / "switch.csv"
        path.write_text("trans_id,item\n" + "\n".join(rows) + "\n")
        decoded = assert_parity(path, chunk_rows)
        assert decoded[0] == "ok"
        chunks, stats = decoded[1]
        assert stats["rows"] == 3040
        assert chunks[-1][1][-1] == (type(label).__name__, label)

    def test_integer_file_takes_the_columnar_path(self, tmp_path):
        path = tmp_path / "ints.csv"
        path.write_text("trans_id,item\n1,5\n1,7\n2,5\n")
        (chunk,) = CsvChunkSource(path).iter_columns()
        assert isinstance(chunk.trans_ids, np.ndarray)
        assert chunk.items.tolist() == [5, 7, 5]
        # Plain iteration still yields Python lists of Python ints.
        (listed,) = CsvChunkSource(path)
        assert listed.items == [5, 7, 5]
        assert all(type(item) is int for item in listed.items)

    def test_quoted_multiline_field_after_integer_blocks(self, tmp_path):
        rows = [f"{tid},{tid % 5},x" for tid in range(2000)]
        rows.append('2000,3,"two\nlines"')
        rows.append("2001,4,y")
        path = tmp_path / "quoted.csv"
        path.write_text("trans_id,item,notes\n" + "\n".join(rows) + "\n")
        decoded = assert_parity(path, 7)
        assert decoded[1][1]["rows"] == 2002

    def test_errors_name_path_and_line(self, tmp_path):
        rows = [f"{tid},{tid % 5}" for tid in range(2000)] + ["nope,1"]
        path = tmp_path / "bad.csv"
        path.write_text("trans_id,item\n" + "\n".join(rows) + "\n")
        decoded = assert_parity(path, 7)
        assert decoded[:2] == ("error", "IngestError")
        assert re.search(r"bad\.csv:2002: bad trans_id 'nope'", decoded[2])
        with pytest.raises(IngestError):
            list(CsvChunkSource(path))


class TestIntegerTokens:
    """Every token the integer parse accepts means what ``int()`` says."""

    @settings(max_examples=300, deadline=None)
    @given(
        token=st.one_of(
            st.text(alphabet="0123456789-+ _", max_size=21),
            st.integers(min_value=-(10**20), max_value=10**20).map(str),
        )
    )
    def test_accepted_tokens_match_int(self, token):
        parsed = parse_integer_block(f"1,{token}\n".encode(), 2, 0, 1)
        strict = re.fullmatch(r"-?[0-9]{1,18}", token) is not None
        assert (parsed is not None) == strict
        if parsed is not None:
            trans_ids, items, decoded = parsed
            assert items.tolist() == [int(token)]
            assert trans_ids.tolist() == [1]
            assert decoded == len(token) + 3
