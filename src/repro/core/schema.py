"""Table schema with dictionary encoding, as used by qd-tree construction.

The paper dictionary-encodes literals as integers (Sec 3). We mirror that:

* ``numeric`` columns stay numeric (ints/floats), with a known ``(lo, hi)``
  domain used to normalise RL state features.
* ``date`` columns are encoded as integer days since 1970-01-01 and treated
  as numeric thereafter.
* ``categorical`` columns are encoded as integer codes into an ordered
  domain; qd-tree nodes keep a ``|Dom|``-bit mask per categorical column.

``TableSchema.encode`` turns a raw pandas frame into the all-numeric frame
that every construction algorithm operates on; ``decode_literal`` maps codes
back to raw values when emitting Spark / DuckDB SQL.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np
import pandas as pd

NUMERIC = "numeric"
CATEGORICAL = "categorical"
DATE = "date"

EPOCH = pd.Timestamp("1970-01-01")  # day 0 of encoded DATE columns


def day_number(ts) -> int:
    """Encoded day of a date or timestamp (days since :data:`EPOCH`)."""
    return (pd.Timestamp(ts) - EPOCH).days


@dataclass(frozen=True)
class ColumnSpec:
    """One column: its kind and its domain.

    ``domain`` is ``(lo, hi)`` (inclusive bounds of observed/declared values)
    for numeric and date columns (dates in encoded day units), and an ordered
    tuple of raw values for categorical columns.
    """

    name: str
    kind: str
    domain: tuple
    codes: dict = field(init=False, repr=False, compare=False)  # raw value -> code

    def __post_init__(self):
        cat = self.kind == CATEGORICAL
        object.__setattr__(self, "codes", {v: i for i, v in enumerate(self.domain)} if cat else {})

    @property
    def cardinality(self) -> int:
        if self.kind != CATEGORICAL:
            raise ValueError(f"{self.name} is not categorical")
        return len(self.domain)

    def code_of(self, raw: Any) -> int:
        """Dictionary code of a raw categorical value."""
        try:
            return self.codes[raw]
        except KeyError:
            raise KeyError(f"{raw!r} not in domain of {self.name}") from None


@dataclass
class TableSchema:
    """Ordered collection of :class:`ColumnSpec`, with encode/decode helpers."""

    columns: dict[str, ColumnSpec] = field(default_factory=dict)

    def __getitem__(self, name: str) -> ColumnSpec:
        return self.columns[name]

    def __contains__(self, name: str) -> bool:
        return name in self.columns

    @property
    def numeric_cols(self) -> list[str]:
        return [c for c, s in self.columns.items() if s.kind in (NUMERIC, DATE)]

    @property
    def categorical_cols(self) -> list[str]:
        return [c for c, s in self.columns.items() if s.kind == CATEGORICAL]

    # ------------------------------------------------------------------ encode
    def encode(self, pdf: pd.DataFrame) -> pd.DataFrame:
        """Return an all-numeric copy of ``pdf`` restricted to schema columns."""
        out = {}
        for name, spec in self.columns.items():
            col = pdf[name]
            if spec.kind == DATE:
                out[name] = encode_dates(col)
            elif spec.kind == CATEGORICAL:
                codes = col.map(spec.codes)
                if codes.isna().any():
                    bad = col[codes.isna()].iloc[0]
                    raise KeyError(f"value {bad!r} outside domain of {name}")
                out[name] = codes.astype(np.int64)
            else:
                out[name] = pd.to_numeric(col)
        return pd.DataFrame(out, index=pdf.index)

    def decode_literal(self, col: str, code: Any) -> Any:
        """Raw (SQL-side) value for an encoded literal of column ``col``."""
        spec = self.columns[col]
        if spec.kind == CATEGORICAL:
            return spec.domain[int(code)]
        if spec.kind == DATE:
            return (EPOCH + pd.Timedelta(days=int(code))).date()
        return code

    def sql_literal(self, col: str, code: Any) -> str:
        """DuckDB/Spark SQL literal text for an encoded value of ``col``."""
        raw = self.decode_literal(col, code)
        spec = self.columns[col]
        if spec.kind == DATE:
            # TIMESTAMP literal: comparable against both DuckDB's
            # TIMESTAMP_NS (pandas datetime64) and Spark date/timestamp
            # columns; data is day-granularity so semantics match DATE.
            return f"TIMESTAMP '{raw} 00:00:00'"
        if isinstance(raw, str):
            # Spark reads a backslash in a literal as an escape, DuckDB as
            # itself: spell it chr(92), which both constant-fold.
            text = raw.replace("'", "''").replace("\\", "' || chr(92) || '")
            return f"('{text}')" if "\\" in raw else f"'{text}'"
        return repr(raw)


def encode_dates(col: pd.Series) -> pd.Series:
    """Datetime series -> int64 days since epoch.

    ``cache=False``: the cache probe walks the values one by one, which is
    most of the cost on a datetime64 column.
    """
    days = (pd.to_datetime(col, cache=False) - EPOCH) // pd.Timedelta(days=1)
    return days.astype(np.int64)


def dates_of(days: np.ndarray) -> np.ndarray:
    """Encoded days -> ``datetime64[ns]``, the inverse of :func:`encode_dates`."""
    return np.datetime64(EPOCH, "ns") + days.astype("timedelta64[D]")


def infer_schema(
    pdf: pd.DataFrame,
    categorical: Sequence[str] = (),
    domains: Mapping[str, tuple] | None = None,
) -> TableSchema:
    """Infer a :class:`TableSchema` from a pandas frame.

    ``categorical`` names string/categorical columns; datetime columns become
    ``date``; everything else numeric. ``domains`` overrides inferred domains
    (useful to pin a categorical ordering or widen a numeric range).
    """
    domains = dict(domains or {})
    cols: dict[str, ColumnSpec] = {}
    for name in pdf.columns:
        s = pdf[name]
        if name in categorical:
            dom = domains.get(name) or tuple(sorted(pd.unique(s.astype(object))))
            cols[name] = ColumnSpec(name, CATEGORICAL, tuple(dom))
        elif pd.api.types.is_datetime64_any_dtype(s):
            enc = encode_dates(s)
            dom = domains.get(name) or (int(enc.min()), int(enc.max()))
            cols[name] = ColumnSpec(name, DATE, dom)
        else:
            dom = domains.get(name) or (float(s.min()), float(s.max()))
            cols[name] = ColumnSpec(name, NUMERIC, dom)
    return TableSchema(cols)
