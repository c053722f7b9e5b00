"""Physical layouts on Spark: hive-partitioned Parquet + qd-tree routing.

This is the paper's execution story (Sec 3.1, 3.3, 7.1) on Spark:

* **Write**: the dataset gains a ``bid`` column — for qd-tree layouts this
  is the tree's native Catalyst routing expression (one nested SQL ``CASE``;
  no UDFs), for baseline layouts a precomputed assignment — and is written
  ``partitionBy("bid")`` so each block is its own Parquet directory.
* **Open**: :func:`open_layout` reads each layout path once per
  ``SparkSession`` and hands the same DataFrame to every later query, so
  Parquet schema inference and the ``bid=`` listing run once, not per query.
* **Read**: a query is routed through the qd-tree (leaf-description
  intersection) or the layout's block stats and augmented with
  ``bid IN (...)``; Catalyst's partition pruning then skips non-matching
  blocks entirely. ``no route`` mode omits the BID filter and relies on
  Parquet min-max row-group stats alone — the paper's ablation in Sec 7.5.
  The filter reaches Spark as one SQL string (:func:`routed_condition`).
"""
from __future__ import annotations

import os

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..core.predicates import Node, to_sql
from ..core.qdtree import Layout, QdTree
from ..core.schema import DATE, TableSchema


# normalised layout path -> the DataFrame ``spark.read.parquet`` opened it as
_OPEN: dict[str, DataFrame] = {}


def open_layout(spark: SparkSession, path: str) -> DataFrame:
    """The layout at ``path`` as a DataFrame, opened once per session.

    The first call runs ``spark.read.parquet(path)``: a schema-inference job
    and a listing of every ``bid=`` directory. Later calls with the same
    ``spark`` return that DataFrame; another session opens the path anew.
    A process holds one entry per layout path.

    Contract: the held DataFrame keeps the file listing it was opened with,
    so every writer in ``spark_io`` drops the path's entry before it writes
    (:func:`write_tree_layout`, :func:`write_bid_layout`, and any future
    writer, such as an append into existing blocks)."""
    key = os.path.abspath(path)
    df = _OPEN.get(key)
    if df is None or df.sparkSession is not spark:
        df = _OPEN[key] = spark.read.parquet(path)
    return df


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
    _OPEN.pop(os.path.abspath(path), None)
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
    _OPEN.pop(os.path.abspath(path), None)
    df = spark_df_from_raw(spark, raw.assign(bid=bids), schema)
    df.write.mode("overwrite").partitionBy("bid").parquet(path)


def routed_condition(query: Node, schema: TableSchema, tree: QdTree | Layout | None = None) -> str:
    """``bid IN (<tree.query_bids(query)>) AND <query>``, or the query
    alone without a router. Spark SQL has no ``IN ()``: a query routed to
    no block gets ``FALSE``, which Catalyst folds to an empty scan."""
    cond = to_sql(query, schema)
    if tree is None:
        return cond
    bids = tree.query_bids(query)
    route = f"bid IN ({', '.join(map(str, bids))})" if bids else "FALSE"
    return f"{route} AND {cond}"


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
    (*no route*). The layout is opened through :func:`open_layout`."""
    return open_layout(spark, path).filter(routed_condition(query, schema, tree))


def blocks_scanned(df: DataFrame) -> int:
    """``numPartitions`` summed over the Parquet scan nodes of ``df``'s
    executed plan, through adaptive query stages: the ``bid=`` blocks read
    after partition pruning. Read after the action ran. A plan folded to an
    empty relation has no scan node and reads 0."""

    def walk(plan) -> int:
        kind = plan.getClass().getSimpleName()
        if kind == "AdaptiveSparkPlanExec":
            return walk(plan.executedPlan())
        if kind.endswith("QueryStageExec"):
            return walk(plan.plan())
        if kind == "FileSourceScanExec":
            return int(plan.metrics().apply("numPartitions").value())
        kids = plan.children()
        return sum(walk(kids.apply(i)) for i in range(kids.size()))

    return walk(df._jdf.queryExecution().executedPlan())
