"""Smoke tests for the DuckDB oracle itself (provided infrastructure)."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def li(spark):
    pdf = pd.DataFrame({"l_quantity": [1.0, 5.0, 17.0, 17.0, 50.0, 3.0, 8.0]})
    return spark.createDataFrame(pdf)


def test_oracle_passes_on_equal_aggregate(li):
    got = li.agg(F.count(F.lit(1)).alias("n"))
    assert_equivalent(got, "SELECT count(*) AS n FROM li", li=li)


def test_oracle_catches_wrong_result(li):
    wrong = li.limit(5).agg(F.count(F.lit(1)).alias("n"))
    with pytest.raises(AssertionError):
        assert_equivalent(wrong, "SELECT count(*) AS n FROM li", li=li)


def test_oracle_catches_column_mismatch(li):
    got = li.agg(F.count(F.lit(1)).alias("wrong_name"))
    with pytest.raises(AssertionError, match="column mismatch"):
        assert_equivalent(got, "SELECT count(*) AS n FROM li", li=li)


def test_oracle_accepts_pandas_tables(spark):
    pdf = pd.DataFrame({"x": [1, 2, 3]})
    got = spark.createDataFrame(pdf).agg(F.sum("x").alias("s"))
    assert_equivalent(got, "SELECT sum(x) AS s FROM t", t=pdf)
