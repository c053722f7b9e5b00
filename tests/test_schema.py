"""Schema + dictionary-encoding unit tests."""
import datetime as dt

import numpy as np
import pandas as pd
import pytest

from repro.core.schema import (
    CATEGORICAL,
    DATE,
    NUMERIC,
    ColumnSpec,
    TableSchema,
    encode_dates,
    infer_schema,
)


@pytest.fixture()
def pdf():
    return pd.DataFrame(
        {
            "x": [1.5, 2.5, 3.5],
            "c": ["b", "a", "b"],
            "d": pd.to_datetime(["1992-01-01", "1992-01-02", "1995-06-15"]),
            "i": [10, 20, 30],
        }
    )


def test_infer_kinds(pdf):
    sch = infer_schema(pdf, categorical=["c"])
    assert sch["x"].kind == NUMERIC
    assert sch["c"].kind == CATEGORICAL
    assert sch["d"].kind == DATE
    assert sch["i"].kind == NUMERIC


def test_infer_domains(pdf):
    sch = infer_schema(pdf, categorical=["c"])
    assert sch["x"].domain == (1.5, 3.5)
    assert sch["c"].domain == ("a", "b")
    assert sch["i"].domain == (10.0, 30.0)


def test_domain_override(pdf):
    sch = infer_schema(pdf, categorical=["c"], domains={"x": (0.0, 10.0)})
    assert sch["x"].domain == (0.0, 10.0)


def test_encode_categorical_codes(pdf):
    sch = infer_schema(pdf, categorical=["c"])
    enc = sch.encode(pdf)
    assert enc["c"].tolist() == [1, 0, 1]
    assert enc["c"].dtype == np.int64


def test_encode_dates_are_days(pdf):
    sch = infer_schema(pdf, categorical=["c"])
    enc = sch.encode(pdf)
    assert enc["d"].iloc[0] == (pd.Timestamp("1992-01-01") - pd.Timestamp("1970-01-01")).days
    assert enc["d"].iloc[1] - enc["d"].iloc[0] == 1


def test_encode_preserves_numeric(pdf):
    sch = infer_schema(pdf, categorical=["c"])
    enc = sch.encode(pdf)
    assert enc["x"].tolist() == [1.5, 2.5, 3.5]


def test_encode_rejects_out_of_domain(pdf):
    sch = infer_schema(pdf, categorical=["c"])
    bad = pdf.copy()
    bad.loc[0, "c"] = "zzz"
    with pytest.raises(KeyError):
        sch.encode(bad)


def test_decode_literal_roundtrip(pdf):
    sch = infer_schema(pdf, categorical=["c"])
    assert sch.decode_literal("c", 0) == "a"
    assert sch.decode_literal("c", 1) == "b"
    assert str(sch.decode_literal("d", 8035)) == "1992-01-01"
    assert sch.decode_literal("x", 2.5) == 2.5


def test_sql_literal_forms(pdf):
    sch = infer_schema(pdf, categorical=["c"])
    assert sch.sql_literal("c", 0) == "'a'"
    assert sch.sql_literal("d", 8035) == "TIMESTAMP '1992-01-01 00:00:00'"
    assert sch.sql_literal("x", 2.5) == "2.5"


def test_sql_literal_escapes_quotes():
    spec = ColumnSpec("s", CATEGORICAL, ("O'Brien",))
    sch = TableSchema({"s": spec})
    assert sch.sql_literal("s", 0) == "'O''Brien'"


def test_code_of(pdf):
    sch = infer_schema(pdf, categorical=["c"])
    assert sch["c"].code_of("a") == 0
    assert sch["c"].code_of("b") == 1
    with pytest.raises(KeyError):
        sch["c"].code_of("nope")


def test_cardinality_only_for_categorical(pdf):
    sch = infer_schema(pdf, categorical=["c"])
    assert sch["c"].cardinality == 2
    with pytest.raises(ValueError):
        _ = sch["x"].cardinality


def test_numeric_and_categorical_col_lists(pdf):
    sch = infer_schema(pdf, categorical=["c"])
    assert set(sch.numeric_cols) == {"x", "d", "i"}
    assert sch.categorical_cols == ["c"]


def test_contains_and_getitem(pdf):
    sch = infer_schema(pdf, categorical=["c"])
    assert "x" in sch and "nope" not in sch
    assert sch["x"].name == "x"


@pytest.mark.parametrize(
    "s, days",
    [
        (pd.Series(pd.to_datetime(["1970-01-01", "1970-01-11"])), [0, 10]),
        # what Arrow hands a mapInPandas batch for a date column
        (pd.Series([dt.date(1970, 1, 1), dt.date(1970, 1, 11)]), [0, 10]),
        (pd.Series([dt.date(1969, 12, 31), dt.date(1950, 1, 1)]), [-1, -7305]),
        (pd.Series(pd.to_datetime(["1969-12-31", "1950-01-01"])), [-1, -7305]),
        (pd.Series(pd.to_datetime(["1970-01-01", None])), pd.errors.IntCastingNaNError),
        (pd.Series([dt.date(1970, 1, 1), None]), pd.errors.IntCastingNaNError),
    ],
    ids=["datetime64", "date_objects", "pre_1970_dates", "pre_1970_datetime64",
         "datetime64_nat", "date_none"],
)
def test_encode_dates_function(s, days):
    """Days since 1970 for each input shape the encoder meets; a missing date
    raises, since an int64 column has no NULL."""
    if days is pd.errors.IntCastingNaNError:
        with pytest.raises(days):
            encode_dates(s)
        return
    enc = encode_dates(s)
    assert enc.dtype == np.int64
    assert enc.tolist() == days


def test_encode_restricts_to_schema_columns(pdf):
    sch = infer_schema(pdf[["x", "c"]], categorical=["c"])
    enc = sch.encode(pdf)  # pdf has extra columns; encode keeps schema's
    assert list(enc.columns) == ["x", "c"]


def test_encode_deterministic(pdf):
    sch = infer_schema(pdf, categorical=["c"])
    pd.testing.assert_frame_equal(sch.encode(pdf), sch.encode(pdf))
