"""Physical layouts on Spark: hive-partitioned Parquet + qd-tree routing.

This is the paper's execution story (Sec 3.1, 3.3, 7.1) on Spark:

* **Write**: the dataset gains a ``bid`` column — for qd-tree layouts the
  tree's numpy :meth:`~repro.core.qdtree.QdTree.route`, run by
  ``mapInPandas`` on each Arrow batch where the data lives, for baseline
  layouts a precomputed assignment — and is written ``repartition("bid")``
  then ``partitionBy("bid")``, so each block is its own Parquet directory
  holding exactly one file. Without the shuffle, each write task opens a
  file in every ``bid=`` directory its rows reach, so a block is split into
  as many files as input partitions hold its rows, and writes and scans
  slow with the file count. The hash shuffle puts all of a block's rows in
  one shuffle partition, and adaptive execution coalesces only whole
  partitions, so this holds at any partition count.
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
from pyspark import cloudpickle
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import LongType, StructField, StructType

import repro

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
    so every writer in ``spark_io`` drops the path's entry before it writes:
    each writes through :func:`_write_blocks`, as should any future one,
    such as an append into existing blocks."""
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


def write_tree_layout(raw_df: DataFrame, tree: QdTree, path: str) -> None:
    """Route every row with ``tree.route``, on the executors, and persist
    each block as one Parquet file in its ``bid=`` directory. A NULL date
    or categorical value fails the rows' encoding."""
    schema = StructType([*raw_df.schema.fields, StructField("bid", LongType(), False)])
    _write_blocks(raw_df.mapInPandas(_add_bids(tree), schema), path)


def _add_bids(tree: QdTree):
    """``mapInPandas``' function: each batch with its rows' BIDs. ``repro``
    is pickled by value with it, as Spark's Python workers may not import
    it (a driver may have ``src/`` on its own ``sys.path`` alone)."""
    cloudpickle.register_pickle_by_value(repro)

    def add_bids(batches):
        for pdf in batches:
            yield pdf.assign(bid=tree.route(tree.schema.encode(pdf)))

    return add_bids


def write_bid_layout(
    spark: SparkSession,
    raw: pd.DataFrame,
    bids: np.ndarray,
    schema: TableSchema,
    path: str,
) -> None:
    """Persist a layout from a precomputed row→BID assignment, one Parquet
    file per block."""
    _write_blocks(spark_df_from_raw(spark, raw.assign(bid=bids), schema), path)


def _write_blocks(df: DataFrame, path: str) -> None:
    """Drop ``path``'s open DataFrame, then write ``df`` there, one Parquet file per ``bid``."""
    _OPEN.pop(os.path.abspath(path), None)
    df.repartition("bid").write.mode("overwrite").partitionBy("bid").parquet(path)


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


def scan_metrics(df: DataFrame) -> dict[str, int]:
    """The Parquet scan nodes' metrics in ``df``'s executed plan, summed,
    through adaptive query stages: ``numPartitions`` is the number of
    ``bid=`` blocks read after partition pruning, ``numFiles`` the files
    read, ``numOutputRows`` the rows and ``filesSize`` the bytes. Read after
    the action ran. A plan folded to an empty relation has no scan node and
    reads 0 of each."""
    out = dict.fromkeys(("numPartitions", "numFiles", "numOutputRows", "filesSize"), 0)

    def walk(plan) -> None:
        kind = plan.getClass().getSimpleName()
        if kind == "AdaptiveSparkPlanExec":
            walk(plan.executedPlan())
        elif kind.endswith("QueryStageExec"):
            walk(plan.plan())
        elif kind == "FileSourceScanExec":
            metrics = plan.metrics()
            for k in out:
                if metrics.contains(k):  # no numPartitions without partition columns
                    out[k] += int(metrics.apply(k).value())
        else:
            kids = plan.children()
            for i in range(kids.size()):
                walk(kids.apply(i))

    walk(df._jdf.queryExecution().executedPlan())
    return out
