"""Recursive-descent parser for the ``MINE`` dialect.

Grammar (EBNF)::

    query      = "MINE" ( "RULES" | "ITEMSETS" ) "FROM" source
                 [ "WHERE" predicate { "AND" predicate } ]
                 [ "USING" "ENGINE" string ]
                 [ "WITH" assignment { "," assignment } ] ;
    source     = identifier | string ;             (* name | file path *)
    predicate  = "support"    ">=" number
               | "confidence" ">=" number
               | "length"     "<=" integer
               | ( "lhs" | "rhs" | "items" ) "HAS" string ;
    assignment = identifier "=" ( number | string ) ;

``WITH`` assignments are whitelisted and value-checked here — a typo or
a malformed byte size fails at *parse* time with the token's position,
never inside the planner or an engine.  Semantic rules the grammar
cannot express (``lhs``/``rhs``/``confidence`` only on ``RULES``
queries, no duplicate thresholds) are enforced the same way: every
failure is a typed :class:`~repro.errors.QueryParseError`.
"""

from __future__ import annotations

from repro.config import INPUT_FORMATS
from repro.core.transport import TRANSPORT_CHOICES
from repro.errors import QueryParseError
from repro.query.ast_nodes import (
    HAS_SIDES,
    HasConstraint,
    MineQuery,
    WithOption,
)
from repro.query.lexer import Token, TokenType, tokenize

__all__ = ["WITH_OPTIONS", "parse_byte_size", "parse_query"]

#: WHERE fields carrying a threshold, with the one comparison each allows
#: (support/confidence are lower bounds, length is an upper bound).
_THRESHOLD_FIELDS = {"support": ">=", "confidence": ">=", "length": "<="}


def parse_byte_size(value: object) -> int | None:
    """``value`` as a byte count: an int, or ``'64K'``/``'2M'``/``'1G'``.

    Returns ``None`` when the value does not parse (callers turn that
    into a positioned error); never raises.
    """
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value if value >= 1 else None
    if not isinstance(value, str) or not value.strip():
        return None
    units = {"K": 2**10, "M": 2**20, "G": 2**30}
    raw = value.strip()
    multiplier = 1
    if raw[-1].upper() in units:
        multiplier = units[raw[-1].upper()]
        raw = raw[:-1]
    if not raw.isdigit():
        return None
    parsed = int(raw) * multiplier
    return parsed if parsed >= 1 else None


def _positive_int(value: object) -> bool:
    return (
        not isinstance(value, bool)
        and isinstance(value, int)
        and value >= 1
    )


#: The WITH whitelist: option name -> (validator, requirement text).
WITH_OPTIONS: dict[str, tuple] = {
    "workers": (_positive_int, "an integer >= 1"),
    "memory_budget": (
        lambda v: parse_byte_size(v) is not None,
        "a positive byte count, optionally suffixed K/M/G (e.g. '2M')",
    ),
    "transport": (
        lambda v: v in TRANSPORT_CHOICES,
        f"one of {', '.join(TRANSPORT_CHOICES)}",
    ),
    "chunk_rows": (_positive_int, "an integer >= 1"),
    "input_format": (
        lambda v: v in INPUT_FORMATS,
        f"one of {', '.join(INPUT_FORMATS)}",
    ),
    "state": (
        lambda v: isinstance(v, str) and bool(v),
        "a non-empty directory path string",
    ),
}


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = tokenize(text)
        self.index = 0

    # -- token plumbing -----------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.current
        if token.type is not TokenType.EOF:
            self.index += 1
        return token

    def error(self, message: str, token: Token | None = None) -> None:
        token = token if token is not None else self.current
        raise QueryParseError(
            f"{message}, found {token.display()}",
            position=token.position,
            line=token.line,
            column=token.column,
            found=token.display(),
        )

    def expect_keyword(self, word: str) -> Token:
        token = self.current
        if token.type is TokenType.KEYWORD and token.value == word:
            return self.advance()
        self.error(f"expected {word}")

    def at_keyword(self, word: str) -> bool:
        token = self.current
        return token.type is TokenType.KEYWORD and token.value == word

    def expect(self, type_: TokenType, what: str) -> Token:
        if self.current.type is type_:
            return self.advance()
        self.error(f"expected {what}")

    # -- grammar ------------------------------------------------------------------

    def parse(self) -> MineQuery:
        self.expect_keyword("MINE")
        if self.at_keyword("RULES"):
            target = "rules"
        elif self.at_keyword("ITEMSETS"):
            target = "itemsets"
        else:
            self.error("expected RULES or ITEMSETS after MINE")
        self.advance()
        self.expect_keyword("FROM")
        source = self.current
        if source.type is TokenType.IDENTIFIER:
            dataset, is_path = str(source.value), False
        elif source.type is TokenType.STRING:
            dataset, is_path = str(source.value), True
            if not dataset:
                self.error("FROM path must not be empty", source)
        else:
            self.error("expected a dataset name or quoted path after FROM")
        self.advance()

        support: float | int | None = None
        confidence: float | None = None
        length: int | None = None
        has: list[HasConstraint] = []
        if self.at_keyword("WHERE"):
            self.advance()
            while True:
                support, confidence, length = self._predicate(
                    target, support, confidence, length, has
                )
                if self.at_keyword("AND"):
                    self.advance()
                    continue
                break

        engine: str | None = None
        if self.at_keyword("USING"):
            self.advance()
            self.expect_keyword("ENGINE")
            token = self.expect(
                TokenType.STRING, "a quoted engine name after USING ENGINE"
            )
            if not token.value:
                self.error("engine name must not be empty", token)
            engine = str(token.value)

        with_options: list[WithOption] = []
        if self.at_keyword("WITH"):
            self.advance()
            while True:
                with_options.append(self._assignment(with_options))
                if self.current.type is TokenType.COMMA:
                    self.advance()
                    continue
                break

        if self.current.type is not TokenType.EOF:
            self.error("expected end of query")
        return MineQuery(
            target=target,
            dataset=dataset,
            dataset_is_path=is_path,
            support=support,
            confidence=confidence,
            length=length,
            has=tuple(has),
            engine=engine,
            with_options=tuple(with_options),
        )

    def _predicate(
        self,
        target: str,
        support: float | int | None,
        confidence: float | None,
        length: int | None,
        has: list[HasConstraint],
    ) -> tuple[float | int | None, float | None, int | None]:
        field_token = self.current
        if field_token.type is not TokenType.IDENTIFIER:
            self.error(
                "expected a predicate field "
                "(support, confidence, length, lhs, rhs, items)"
            )
        name = str(field_token.value).lower()
        self.advance()
        if name in _THRESHOLD_FIELDS:
            op = _THRESHOLD_FIELDS[name]
            op_token = self.current
            if (
                op_token.type is not TokenType.OPERATOR
                or op_token.value != op
            ):
                self.error(f"{name} takes only {op!r}")
            self.advance()
            value_token = self.expect(TokenType.NUMBER, f"a number for {name}")
            value = value_token.value
            if name == "support":
                if support is not None:
                    self.error("duplicate support predicate", field_token)
                if isinstance(value, int):
                    if value < 1:
                        self.error(
                            "absolute support must be >= 1 transaction",
                            value_token,
                        )
                elif not 0.0 < value <= 1.0:
                    self.error(
                        "fractional support must be in (0, 1]", value_token
                    )
                return value, confidence, length
            if name == "confidence":
                if confidence is not None:
                    self.error("duplicate confidence predicate", field_token)
                if target != "rules":
                    self.error(
                        "confidence applies only to MINE RULES", field_token
                    )
                if not 0.0 < float(value) <= 1.0:
                    self.error(
                        "confidence must be in (0, 1]", value_token
                    )
                return support, float(value), length
            if length is not None:
                self.error("duplicate length predicate", field_token)
            if not _positive_int(value):
                self.error("length cap must be an integer >= 1", value_token)
            return support, confidence, value
        if name in HAS_SIDES:
            self.expect_keyword("HAS")
            item_token = self.expect(
                TokenType.STRING, f"a quoted item after {name} HAS"
            )
            if not item_token.value:
                self.error("HAS item must not be empty", item_token)
            if name in ("lhs", "rhs") and target != "rules":
                self.error(
                    f"{name} HAS applies only to MINE RULES "
                    "(use items HAS for itemsets)",
                    field_token,
                )
            has.append(HasConstraint(name, str(item_token.value)))
            return support, confidence, length
        self.error(
            f"unknown predicate field {name!r} "
            "(expected support, confidence, length, lhs, rhs, or items)",
            field_token,
        )

    def _assignment(self, seen: list[WithOption]) -> WithOption:
        name_token = self.current
        if name_token.type is not TokenType.IDENTIFIER:
            self.error("expected a WITH option name")
        name = str(name_token.value).lower()
        if name not in WITH_OPTIONS:
            self.error(
                f"unknown WITH option {name!r} "
                f"(accepted: {', '.join(sorted(WITH_OPTIONS))})",
                name_token,
            )
        if any(opt.name == name for opt in seen):
            self.error(f"duplicate WITH option {name!r}", name_token)
        self.advance()
        eq = self.current
        if eq.type is not TokenType.OPERATOR or eq.value != "=":
            self.error(f"expected '=' after WITH option {name}")
        self.advance()
        value_token = self.current
        if value_token.type not in (TokenType.NUMBER, TokenType.STRING):
            self.error(f"expected a number or quoted string for {name}")
        self.advance()
        validator, requirement = WITH_OPTIONS[name]
        if not validator(value_token.value):
            self.error(f"{name} must be {requirement}", value_token)
        return WithOption(name, value_token.value)


def parse_query(text: str) -> MineQuery:
    """Parse one ``MINE`` statement into a :class:`MineQuery`.

    Raises
    ------
    QueryParseError
        On any lexical, syntactic, or semantic problem — always carrying
        the offending position (``position``/``line``/``column``).
    """
    return _Parser(text).parse()
