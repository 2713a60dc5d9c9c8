"""Typed, validated mining-run configuration.

:class:`MiningConfig` is the one value object a mining request needs.
It is frozen (safe to share, safe to cache against), validates itself on
construction, and carries:

* ``support`` — **either** a fraction in ``(0, 1]`` (a ``float``, as in
  the paper's "minimum support of 30%") **or** an absolute transaction
  count (an ``int >= 1``, "at least 3 transactions");
* ``confidence`` — optional fractional confidence in ``(0, 1]`` for rule
  generation;
* ``algorithm`` — a registry name (see :mod:`repro.registry`), by
  default :data:`DEFAULT_ENGINE`;
* ``max_length`` — optional cap on pattern length;
* ``options`` — engine options, either plain (``{"buffer_pages": 128}``,
  ``{"workers": 4}``) or namespaced per engine
  (``{"setm-disk.buffer_pages": 128}``, ``{"setm-columnar.workers": 4}``).
  Namespaced options are only handed to the engine they name, so one
  config can be replayed across engines without tripping option checks.

>>> from repro.config import MiningConfig
>>> config = MiningConfig(support=0.30, confidence=0.70)
>>> config.replace(algorithm="apriori").algorithm
'apriori'
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.errors import InvalidConfigError, InvalidSupportError

__all__ = [
    "DEFAULT_ENGINE",
    "DEFAULT_MEMORY_BUDGET",
    "INPUT_FORMATS",
    "MiningConfig",
]

#: The engine a run uses when the caller names none — the one the
#: ``MINE`` planner picks for a query with no special requirements.
#: ``"setm"``, the tuple-at-a-time transliteration of Figure 4, stays
#: registered as the faithful reference and oracle; name it to get it.
DEFAULT_ENGINE = "setm-columnar"

#: The ``memory_budget_bytes`` a ``setm-columnar`` run works under when
#: it runs key ranges (``workers > 1``) and names no budget: generous for
#: laptops, small enough that genuinely large workloads spill instead of
#: swapping.
DEFAULT_MEMORY_BUDGET = 128 * 2**20

#: Valid ``input_format`` values: ``"auto"`` sniffs magic bytes and the
#: file extension; the rest name a decoder in :mod:`repro.data.formats`.
INPUT_FORMATS = ("auto", "csv", "basket", "parquet", "arrow")


def _validate_support(value: object) -> None:
    """A fraction in ``(0, 1]`` or an absolute count ``>= 1``."""
    requirement = "a fraction in (0, 1] or an absolute count >= 1"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidSupportError("minimum_support", value, requirement)
    if isinstance(value, int):
        if value < 1:
            raise InvalidSupportError("minimum_support", value, requirement)
    elif not 0.0 < value <= 1.0 or math.isnan(value):
        raise InvalidSupportError("minimum_support", value, requirement)


def _validate_confidence(value: object) -> None:
    requirement = "a fraction in (0, 1]"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidSupportError("minimum_confidence", value, requirement)
    if not 0.0 < float(value) <= 1.0 or math.isnan(float(value)):
        raise InvalidSupportError("minimum_confidence", value, requirement)


def _validate_option_key(key: object) -> None:
    if not isinstance(key, str) or not key:
        raise InvalidConfigError(f"option names must be strings; got {key!r}")
    engine, dot, option = key.rpartition(".")
    if dot and (not engine or not option):
        raise InvalidConfigError(
            f"malformed namespaced option {key!r}; "
            "expected 'option' or 'engine.option'"
        )


@dataclass(frozen=True)
class MiningConfig:
    """Immutable, validated description of one mining run.

    Attributes
    ----------
    support:
        Minimum support — a ``float`` fraction in ``(0, 1]`` or an ``int``
        absolute transaction count ``>= 1``.
    confidence:
        Minimum confidence in ``(0, 1]``; required only when rules are
        generated (``Miner.rules``), ``None`` for pattern-only runs.
    algorithm:
        Engine name resolved through :mod:`repro.registry`
        (default :data:`DEFAULT_ENGINE`).
    max_length:
        Optional cap on pattern length (``None`` mines to exhaustion,
        matching the paper's ``until R_k = {}``).
    options:
        Engine options; a plain key applies to whatever engine runs, a
        ``"engine.option"`` key only to that engine.  Unknown options are
        rejected by the registry *before* mining starts.
    input_format:
        How to decode the input file when the run loads its own data
        (``None`` leaves the loader's default, usually ``"auto"``).
        One of :data:`INPUT_FORMATS`; ``"parquet"`` and ``"arrow"``
        need the optional ``pyarrow`` dependency.  Ingest options shape
        *how data is read*, never the pattern set, so they are excluded
        from result caching keys.
    chunk_rows:
        Decoder batch size for streaming ingest (rows per chunk);
        ``None`` leaves the decoder's default.
    state_dir:
        Directory holding the materialized incremental-mining state
        (see :mod:`repro.core.incremental`); handed only to engines
        carrying the ``incremental`` capability, where it enables
        delta-only re-mining under appends.  Like ``input_format``, it
        shapes *how counting proceeds*, never the pattern set — results
        stay byte-identical — so it is excluded from result caching
        keys (cache invalidation under appends rides on the dataset
        *generation* instead).
    """

    support: float | int = 0.01
    confidence: float | None = None
    algorithm: str = DEFAULT_ENGINE
    max_length: int | None = None
    options: Mapping[str, object] = field(default_factory=dict)
    input_format: str | None = None
    chunk_rows: int | None = None
    state_dir: str | None = None

    def __post_init__(self) -> None:
        _validate_support(self.support)
        if self.confidence is not None:
            _validate_confidence(self.confidence)
        if not isinstance(self.algorithm, str) or not self.algorithm:
            raise InvalidConfigError(
                f"algorithm must be a non-empty string; got {self.algorithm!r}"
            )
        if self.max_length is not None and (
            isinstance(self.max_length, bool)
            or not isinstance(self.max_length, int)
            or self.max_length < 1
        ):
            raise InvalidConfigError(
                f"max_length must be a positive integer or None; "
                f"got {self.max_length!r}"
            )
        if not isinstance(self.options, Mapping):
            raise InvalidConfigError(
                f"options must be a mapping; got {self.options!r}"
            )
        if self.input_format is not None and self.input_format not in INPUT_FORMATS:
            raise InvalidConfigError(
                f"input_format must be one of {INPUT_FORMATS} or None; "
                f"got {self.input_format!r}"
            )
        if self.chunk_rows is not None and (
            isinstance(self.chunk_rows, bool)
            or not isinstance(self.chunk_rows, int)
            or self.chunk_rows < 1
        ):
            raise InvalidConfigError(
                f"chunk_rows must be a positive integer or None; "
                f"got {self.chunk_rows!r}"
            )
        if self.state_dir is not None and (
            not isinstance(self.state_dir, str) or not self.state_dir
        ):
            raise InvalidConfigError(
                f"state_dir must be a non-empty string or None; "
                f"got {self.state_dir!r}"
            )
        for key in self.options:
            _validate_option_key(key)
        # Snapshot the mapping so a caller mutating the original dict
        # cannot change this (frozen) config behind its back.
        object.__setattr__(self, "options", dict(self.options))

    # -- derived values -----------------------------------------------------------

    @property
    def is_absolute_support(self) -> bool:
        """True when ``support`` is an absolute transaction count."""
        return isinstance(self.support, int)

    def support_threshold(self, num_transactions: int) -> int:
        """Absolute count threshold this config applies to ``num_transactions``.

        Mirrors :meth:`TransactionDatabase.absolute_support`: fractional
        support rounds up (30% of 10 transactions is 3), and the threshold
        is never below 1.
        """
        if self.is_absolute_support:
            return int(self.support)
        return max(1, math.ceil(self.support * num_transactions))

    def support_fraction(self, num_transactions: int) -> float:
        """Fractional form of ``support`` over ``num_transactions``."""
        if self.is_absolute_support:
            if num_transactions <= 0:
                return 1.0
            return min(1.0, self.support / num_transactions)
        return float(self.support)

    def options_for(self, engine: str) -> dict[str, object]:
        """The options to hand ``engine``: plain keys plus its namespace.

        A namespaced ``"engine.option"`` entry wins over a plain
        ``"option"`` entry for the same option name.
        """
        resolved: dict[str, object] = {}
        for key, value in self.options.items():
            if "." not in key:
                resolved[key] = value
        prefix = f"{engine}."
        for key, value in self.options.items():
            if key.startswith(prefix):
                resolved[key[len(prefix):]] = value
        return resolved

    def replace(self, **changes: object) -> "MiningConfig":
        """A new, re-validated config with ``changes`` applied.

        >>> MiningConfig(support=0.3).replace(algorithm="apriori").support
        0.3
        """
        return dataclasses.replace(self, **changes)
