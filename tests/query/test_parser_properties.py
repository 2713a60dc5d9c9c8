"""Grammar-fuzz tier for the ``MINE`` parser.

Two properties lock the front-end down:

* **Round-trip** — for any well-formed :class:`MineQuery` AST, rendering
  it to canonical text and re-parsing yields an *identical* AST.  The
  ASTs are generated structurally (every target, threshold combination,
  HAS side, engine override, and WITH option the grammar admits), so the
  renderer and parser cannot drift apart.
* **Typed errors only** — for arbitrary garbage (random text, token
  soup, mutated valid queries), ``parse_query`` either returns a
  ``MineQuery`` or raises :class:`~repro.errors.QueryParseError`
  carrying the offending position; no other exception type ever
  escapes, and the position always lands inside the input.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import INPUT_FORMATS, TRANSPORT_CHOICES
from repro.errors import QueryParseError, ReproError
from repro.query import HasConstraint, MineQuery, WithOption, parse_query
from repro.query.lexer import KEYWORDS
from repro.query.parser import WITH_OPTIONS

# -- AST generators ----------------------------------------------------------------

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

identifiers = st.builds(
    lambda a, b: a + b,
    st.sampled_from(_LETTERS + "_"),
    st.text(alphabet=_LETTERS + "0123456789_-.", max_size=12),
).filter(lambda s: s.upper() not in KEYWORDS)

#: Quoted-literal bodies: arbitrary unicode — quotes escape as ``''``.
strings = st.text(min_size=1, max_size=20)

supports = st.one_of(
    st.integers(min_value=1, max_value=10**6),
    st.floats(
        min_value=0.0,
        max_value=1.0,
        exclude_min=True,
        allow_nan=False,
        allow_infinity=False,
    ),
)

confidences = st.floats(
    min_value=0.0,
    max_value=1.0,
    exclude_min=True,
    allow_nan=False,
    allow_infinity=False,
)


def _with_value(name: str) -> st.SearchStrategy:
    if name in ("workers", "chunk_rows"):
        return st.integers(min_value=1, max_value=64)
    if name == "memory_budget":
        return st.one_of(
            st.integers(min_value=1, max_value=2**32),
            st.builds(
                lambda n, unit: f"{n}{unit}",
                st.integers(min_value=1, max_value=4096),
                st.sampled_from(["", "K", "M", "G", "k", "m", "g"]),
            ),
        )
    if name == "transport":
        return st.sampled_from(list(TRANSPORT_CHOICES))
    if name == "input_format":
        return st.sampled_from(list(INPUT_FORMATS))
    assert name == "state"
    return strings


@st.composite
def queries(draw) -> MineQuery:
    """A structurally valid :class:`MineQuery` covering the full grammar."""
    target = draw(st.sampled_from(["rules", "itemsets"]))
    is_path = draw(st.booleans())
    dataset = draw(strings if is_path else identifiers)
    support = draw(st.none() | supports)
    confidence = draw(st.none() | confidences) if target == "rules" else None
    length = draw(st.none() | st.integers(min_value=1, max_value=12))
    sides = ("lhs", "rhs", "items") if target == "rules" else ("items",)
    has = tuple(
        HasConstraint(draw(st.sampled_from(sides)), draw(strings))
        for _ in range(draw(st.integers(min_value=0, max_value=3)))
    )
    engine = draw(st.none() | strings)
    names = draw(
        st.lists(
            st.sampled_from(sorted(WITH_OPTIONS)),
            unique=True,
            max_size=len(WITH_OPTIONS),
        )
    )
    with_options = tuple(
        WithOption(name, draw(_with_value(name))) for name in names
    )
    return MineQuery(
        target=target,
        dataset=dataset,
        dataset_is_path=is_path,
        support=support,
        confidence=confidence,
        length=length,
        has=has,
        engine=engine,
        with_options=with_options,
    )


class TestRoundTrip:
    """render → parse is the identity on well-formed ASTs."""

    @settings(max_examples=250, deadline=None)
    @given(query=queries())
    def test_render_reparse_identical(self, query):
        assert parse_query(query.render()) == query

    @settings(max_examples=100, deadline=None)
    @given(query=queries())
    def test_rendering_is_canonical(self, query):
        """The canonical text is a fixed point: re-rendering the
        re-parsed AST reproduces it byte-for-byte."""
        rendered = query.render()
        assert parse_query(rendered).render() == rendered


# -- fuzzers: typed errors only ----------------------------------------------------

#: Valid lexemes, recombined at random — stresses the *parser* past the
#: lexer (every soup tokenizes; few soups parse).
_LEXEMES = (
    list(KEYWORDS)
    + ["support", "confidence", "length", "lhs", "rhs", "items", "workers"]
    + [">=", "<=", ">", "<", "=", ","]
    + ["0.5", "3", "1e-3", "'beer'", "''", "'it''s'", "sales", "x_1"]
)


def _assert_parses_or_fails_typed(text: str) -> None:
    try:
        query = parse_query(text)
    except QueryParseError as error:
        assert isinstance(error, ReproError)
        assert error.position is not None
        assert 0 <= error.position <= len(text)
        assert error.line is not None and error.line >= 1
        assert error.column is not None and error.column >= 1
    else:  # pragma: no cover - rare for random inputs
        assert isinstance(query, MineQuery)


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(text=st.text(max_size=80))
    def test_random_text_never_raises_untyped(self, text):
        _assert_parses_or_fails_typed(text)

    @settings(max_examples=300, deadline=None)
    @given(
        soup=st.lists(st.sampled_from(_LEXEMES), min_size=1, max_size=12)
    )
    def test_token_soup_never_raises_untyped(self, soup):
        _assert_parses_or_fails_typed(" ".join(soup))

    @settings(max_examples=200, deadline=None)
    @given(
        query=queries(),
        junk=st.text(min_size=1, max_size=6),
        cut=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_mutated_valid_queries_never_raise_untyped(
        self, query, junk, cut
    ):
        rendered = query.render()
        at = int(cut * len(rendered))
        _assert_parses_or_fails_typed(rendered[:at] + junk + rendered[at:])

    def test_non_string_input_fails_typed(self):
        with pytest.raises(QueryParseError):
            parse_query(None)
        with pytest.raises(QueryParseError):
            parse_query(42)


class TestSemantics:
    """Deterministic spot checks of rules the grammar cannot express."""

    def test_error_position_points_at_the_offending_token(self):
        text = "MINE RULES FROM sales WHERE support >= 0.5 AND support >= 0.6"
        with pytest.raises(QueryParseError) as excinfo:
            parse_query(text)
        error = excinfo.value
        assert "duplicate support" in str(error)
        assert text[error.position :].startswith("support >= 0.6")
        assert error.line == 1
        assert error.column == error.position + 1

    @pytest.mark.parametrize(
        "text, needle",
        [
            ("MINE RULES FROM", "dataset name or quoted path"),
            ("MINE RULES FROM sales WHERE support > 0.5", "support takes only '>='"),
            ("MINE RULES FROM sales WHERE support >= 1.5", "in (0, 1]"),
            ("MINE RULES FROM sales WHERE support >= 0", "absolute support"),
            ("MINE ITEMSETS FROM s WHERE confidence >= 0.5", "only to MINE RULES"),
            ("MINE ITEMSETS FROM s WHERE lhs HAS 'a'", "only to MINE RULES"),
            ("MINE RULES FROM s WHERE length <= 0", "integer >= 1"),
            ("MINE RULES FROM s WHERE lhs HAS ''", "must not be empty"),
            ("MINE RULES FROM s USING ENGINE setm", "quoted engine name"),
            ("MINE RULES FROM s WITH bogus = 1", "unknown WITH option"),
            ("MINE RULES FROM s WITH workers = 0", "integer >= 1"),
            ("MINE RULES FROM s WITH workers = 2, workers = 3", "duplicate WITH"),
            ("MINE RULES FROM s WITH memory_budget = '64X'", "byte count"),
            ("MINE RULES FROM s trailing", "expected end of query"),
            ("MINE RULES FROM s WHERE support >= 'a'", "a number for support"),
        ],
    )
    def test_typed_message(self, text, needle):
        with pytest.raises(QueryParseError) as excinfo:
            parse_query(text)
        assert needle in str(excinfo.value)

    def test_keywords_are_case_insensitive_and_normalize(self):
        a = parse_query("mine rules from sales where support >= 0.5")
        b = parse_query("MINE RULES FROM sales WHERE support >= 0.5")
        assert a == b
        assert a.render() == "MINE RULES FROM sales WHERE support >= 0.5"

    def test_quoted_items_escape_round_trip(self):
        query = parse_query("MINE ITEMSETS FROM s WHERE items HAS 'it''s'")
        assert query.has == (HasConstraint("items", "it's"),)
        assert parse_query(query.render()) == query
