"""Spark physical layout: Catalyst routing parity, partition pruning, and
DuckDB-oracle correctness of query results over qd-tree layouts."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.baselines.simple import random_partition
from repro.core.predicates import to_spark_column, to_sql
from repro.experiments.physical import MODES
from repro.oracle import assert_equivalent
from repro.spark_io.layout import (
    read_routed,
    rows_in_blocks,
    spark_df_from_raw,
    write_bid_layout,
    write_tree_layout,
)
from repro.workloads import asts


@pytest.fixture(scope="module")
def layout_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("layouts"))


@pytest.fixture(scope="module")
def written_tree_layout(spark, tpch_bundle, tpch_tree, layout_dir):
    path = f"{layout_dir}/tpch_tree"
    raw_df = spark_df_from_raw(spark, tpch_bundle.raw, tpch_bundle.schema)
    write_tree_layout(raw_df, tpch_tree, path)
    return path


@pytest.fixture(scope="module")
def written_baseline_layout(spark, tpch_bundle, tpch_tree, layout_dir):
    """Random-BID baseline with as many blocks as the tree layout."""
    path = f"{layout_dir}/tpch_baseline"
    n = len(tpch_bundle.raw)
    bids = random_partition(n, -(-n // tpch_tree.n_leaves), seed=0)
    write_bid_layout(spark, tpch_bundle.raw, bids, tpch_bundle.schema, path)
    return path


def test_spark_routing_matches_pandas(spark, tpch_bundle, tpch_tree):
    """The Catalyst routing expression assigns the same BID as vectorised
    pandas routing for every row."""
    raw = tpch_bundle.raw.head(2000).copy()
    enc = tpch_bundle.schema.encode(raw)
    expected = tpch_tree.route(enc)
    raw_df = spark_df_from_raw(spark, raw.assign(_row=np.arange(len(raw))), tpch_bundle.schema)
    got = (
        raw_df.withColumn("bid", tpch_tree.routing_column())
        .select("_row", "bid")
        .toPandas()
        .sort_values("_row")["bid"]
        .to_numpy()
    )
    assert (got == expected).all()


def test_layout_is_partitioned_by_bid(spark, written_tree_layout, tpch_tree):
    import os

    parts = [p for p in os.listdir(written_tree_layout) if p.startswith("bid=")]
    assert len(parts) == tpch_tree.n_leaves


def test_layout_preserves_row_count(spark, tpch_bundle, written_tree_layout):
    n = spark.read.parquet(written_tree_layout).count()
    assert n == len(tpch_bundle.raw)


def test_rows_in_blocks_matches_leaf_sizes(spark, tpch_bundle, tpch_tree, written_tree_layout):
    sizes = tpch_tree.leaf_sizes(tpch_bundle.encoded)
    bids = [0, 1]
    assert rows_in_blocks(spark, written_tree_layout, bids) == int(sizes[bids].sum())
    assert rows_in_blocks(spark, written_tree_layout, []) == 0


@pytest.mark.parametrize("qi", [0, 3, 7, 11, 17, 21, 25, 29])
def test_routed_equals_unrouted(spark, tpch_bundle, tpch_tree, written_tree_layout, qi):
    """BID IN (...) pruning must not change any query's result."""
    q = tpch_bundle.queries[qi].ast
    routed = read_routed(spark, written_tree_layout, q, tpch_bundle.schema, tree=tpch_tree)
    plain = read_routed(spark, written_tree_layout, q, tpch_bundle.schema, tree=None)
    r = routed.agg(F.count(F.lit(1)).alias("n"), F.sum("l_quantity").alias("s")).collect()[0]
    p = plain.agg(F.count(F.lit(1)).alias("n"), F.sum("l_quantity").alias("s")).collect()[0]
    assert r["n"] == p["n"]
    assert (r["s"] is None and p["s"] is None) or abs(r["s"] - p["s"]) < 1e-6


@pytest.mark.parametrize("qi", [1, 5, 9, 13, 19, 23, 27])
def test_oracle_equivalence_on_layout(spark, tpch_bundle, tpch_tree, written_tree_layout, qi):
    """Aggregate over the routed qd-tree layout == DuckDB over the raw
    table: the layout+routing rewrite is semantically invisible."""
    q = tpch_bundle.queries[qi].ast
    sch = tpch_bundle.schema
    routed = read_routed(spark, written_tree_layout, q, sch, tree=tpch_tree)
    got = routed.agg(
        F.count(F.lit(1)).alias("n"),
        F.round(F.sum("l_extendedprice"), 2).alias("rev"),
    )
    sql = (
        "SELECT count(*) AS n, round(sum(l_extendedprice), 2) AS rev "
        f"FROM t WHERE {to_sql(q, sch)}"
    )
    assert_equivalent(got, sql, t=tpch_bundle.raw)


@pytest.mark.parametrize("mode", MODES)
def test_whole_workload_matches_duckdb(
    spark, tpch_bundle, tpch_tree, written_tree_layout, written_baseline_layout, mode
):
    """Per-query match counts of every workload query, from one Spark job
    per layout mode, equal DuckDB's over the raw table. Routed mode counts
    only the rows inside the query's routed blocks, so a block that query
    routing wrongly prunes shows up as a lower count."""
    sch, W = tpch_bundle.schema, asts(tpch_bundle.queries)
    path = written_baseline_layout if mode == "baseline" else written_tree_layout
    counts = []
    for i, q in enumerate(W):
        cond = to_spark_column(q, sch)
        if mode == "qdtree":
            cond = cond & F.col("bid").isin(tpch_tree.query_bids(q))
        counts.append(F.count(F.when(cond, 1)).alias(f"q{i}"))
    got = spark.read.parquet(path).agg(*counts)
    sql = ", ".join(f"count_if({to_sql(q, sch)}) AS q{i}" for i, q in enumerate(W))
    assert_equivalent(got, f"SELECT {sql} FROM t", t=tpch_bundle.raw)


def test_query_routing_skips_blocks(spark, tpch_bundle, tpch_tree, written_tree_layout):
    """At least one selective query must prune blocks, and pruned scans
    read fewer tuples than the full table."""
    pruned_any = False
    for q in asts(tpch_bundle.queries):
        bids = tpch_tree.query_bids(q)
        if len(bids) < tpch_tree.n_leaves:
            pruned_any = True
            n = rows_in_blocks(spark, written_tree_layout, bids)
            assert n < len(tpch_bundle.raw)
    assert pruned_any


def test_bid_layout_write(spark, tpch_bundle, layout_dir):
    path = f"{layout_dir}/tpch_rand"
    bids = random_partition(len(tpch_bundle.raw), 2000, seed=0)
    write_bid_layout(spark, tpch_bundle.raw, bids, tpch_bundle.schema, path)
    df = spark.read.parquet(path)
    assert df.count() == len(tpch_bundle.raw)
    assert df.select("bid").distinct().count() == len(np.unique(bids))


def test_date_columns_are_datetype(spark, tpch_bundle):
    df = spark_df_from_raw(spark, tpch_bundle.raw.head(50), tpch_bundle.schema)
    types = dict(df.dtypes)
    assert types["l_shipdate"] == "date"
    assert types["o_orderdate"] == "date"
