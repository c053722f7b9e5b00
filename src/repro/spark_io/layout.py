"""Physical layouts on Spark: hive-partitioned Parquet + qd-tree routing.

This is the paper's execution story (Sec 3.1, 3.3, 7.1) on Spark:

* **Write**: the dataset gains a ``bid`` column — for qd-tree layouts this
  is the tree's native Catalyst routing expression (nested ``F.when``; no
  UDFs), for baseline layouts a precomputed assignment — and is written
  ``partitionBy("bid")`` so each block is its own Parquet directory.
* **Read**: a query is routed through the qd-tree (leaf-description
  intersection) or the layout's block stats and augmented with
  ``bid IN (...)``; Catalyst's partition pruning then skips non-matching
  blocks entirely. ``no route`` mode omits the BID filter and relies on
  Parquet min-max row-group stats alone — the paper's ablation in Sec 7.5.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..core.predicates import Node, to_spark_column
from ..core.qdtree import Layout, QdTree
from ..core.schema import DATE, TableSchema


def spark_df_from_raw(
    spark: SparkSession, raw: pd.DataFrame, schema: TableSchema
) -> DataFrame:
    """Create a Spark DataFrame from a raw pandas frame, casting day-
    granularity datetime columns to ``DateType`` so date literals compare
    exactly (no timestamp-vs-date coercion surprises)."""
    df = spark.createDataFrame(raw)
    for name in schema.columns:
        if schema[name].kind == DATE:
            df = df.withColumn(name, F.col(name).cast("date"))
    return df


def write_tree_layout(
    raw_df: DataFrame, tree: QdTree, path: str
) -> None:
    """Route every row through the qd-tree (pure Catalyst expression) and
    persist one Parquet partition per block."""
    (
        raw_df.withColumn("bid", tree.routing_column())
        .write.mode("overwrite")
        .partitionBy("bid")
        .parquet(path)
    )


def write_bid_layout(
    spark: SparkSession,
    raw: pd.DataFrame,
    bids: np.ndarray,
    schema: TableSchema,
    path: str,
) -> None:
    """Persist a baseline layout from a precomputed row→BID assignment."""
    df = spark_df_from_raw(spark, raw.assign(bid=bids), schema)
    df.write.mode("overwrite").partitionBy("bid").parquet(path)


def read_routed(
    spark: SparkSession,
    path: str,
    query: Node,
    schema: TableSchema,
    tree: QdTree | Layout | None = None,
) -> DataFrame:
    """Scan a layout for ``query``. With a router ``tree``, inject the
    explicit ``bid IN (...)`` predicate from its ``query_bids``: a
    :class:`QdTree` routes by leaf descriptions (Sec 3.3), a :class:`Layout`
    by block stats (Sec 3.2). Without, fall back to engine-native pruning
    (*no route*)."""
    df = spark.read.parquet(path)
    if tree is not None:
        df = df.filter(F.col("bid").isin(tree.query_bids(query)))
    return df.filter(to_spark_column(query, schema))


def rows_in_blocks(spark: SparkSession, path: str, bids: list[int]) -> int:
    """Number of tuples physically residing in the given blocks — the
    logical I/O cost of a routed query on this layout."""
    if not bids:
        return 0
    return spark.read.parquet(path).filter(F.col("bid").isin(bids)).count()
