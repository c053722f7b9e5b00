"""Spark physical layout: written blocks equal numpy routing, partition
pruning, and DuckDB-oracle correctness of query results over qd-tree
layouts."""
import functools
import os
import pickle
import subprocess
import sys
from pathlib import Path

import duckdb
import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest
from pyspark import cloudpickle
from pyspark.sql import functions as F

from repro.baselines.simple import random_partition
from repro.core.cost import evaluate_layout
from repro.core.cuts import extract_cuts
from repro.core.greedy import greedy_qdtree
from repro.core.predicates import AdvPred, And, Pred, eval_mask, to_sql
from repro.core.qdtree import QdTree, block_stats
from repro.core.schema import infer_schema
from repro.experiments.physical import MODES
from repro.oracle import assert_equivalent
from repro.spark_io.layout import (
    _add_bids,
    open_layout,
    read_routed,
    routed_condition,
    scan_metrics,
    spark_df_from_raw,
    write_bid_layout,
    write_tree_layout,
)
from repro.workloads import asts

from .reference import hand_tree


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
def tpch_layout(tpch_bundle, tpch_tree):
    """The tree layout's block stats, the router of ``run_physical``."""
    enc = tpch_bundle.encoded
    return block_stats(
        enc, tpch_tree.route(enc), tpch_bundle.schema, tpch_bundle.acs,
        tpch_tree.n_leaves,
    )


@pytest.fixture(scope="module")
def written_baseline_layout(spark, tpch_bundle, tpch_tree, layout_dir):
    """Random-BID baseline with as many blocks as the tree layout."""
    path = f"{layout_dir}/tpch_baseline"
    n = len(tpch_bundle.raw)
    bids = random_partition(n, -(-n // tpch_tree.n_leaves), seed=0)
    write_bid_layout(spark, tpch_bundle.raw, bids, tpch_bundle.schema, path)
    return path


def _spark_bids(spark, tree, raw, schema, path):
    """BID per row of ``raw`` in the layout ``write_tree_layout`` writes to
    ``path``, read back from the written blocks."""
    raw_df = spark_df_from_raw(spark, raw.assign(_row=np.arange(len(raw))), schema)
    write_tree_layout(raw_df, tree, path)
    return (
        spark.read.parquet(path)
        .select("_row", "bid")
        .toPandas()
        .sort_values("_row")["bid"]
        .to_numpy()
    )


@pytest.mark.parametrize("name", ["tpch", "errlog_int", "errlog_ext"])
def test_spark_routing_matches_pandas(spark, request, layout_dir, name):
    """Every row lands in the block that numpy routing on the driver gives
    it, on all three test workloads (numeric, date and categorical cuts)."""
    bundle = request.getfixturevalue(f"{name}_bundle")
    if name == "tpch":
        tree = request.getfixturevalue("tpch_tree")
    else:
        W = asts(bundle.queries)
        tree = greedy_qdtree(bundle.encoded, bundle.schema, extract_cuts(W), W, bundle.b,
                             ac_names=bundle.ac_names)
        assert tree.n_leaves > 1
    raw = bundle.raw.head(2000).copy()
    expected = tree.route(bundle.schema.encode(raw))
    path = f"{layout_dir}/{name}_routed"
    assert (_spark_bids(spark, tree, raw, bundle.schema, path) == expected).all()


def test_null_routes_right_under_negated_ac(spark, layout_dir):
    """A NULL operand makes ``NOT(x < y)`` NULL, so numpy routing sends the
    row right, and the written layout holds it there."""
    raw = pd.DataFrame({"x": [1.0, np.nan, 5.0, 2.0], "y": [2.0, 3.0, np.nan, 1.0]})
    sch = infer_schema(raw)
    tree = hand_tree(sch, [(0, AdvPred("xy", "x", "<", "y", negated=True))], ("xy",))
    bids = tree.route(sch.encode(raw))
    assert bids.tolist() == [1, 1, 1, 0]
    assert (_spark_bids(spark, tree, raw, sch, f"{layout_dir}/null_ac") == bids).all()


def test_batch_router_needs_no_repro_on_the_worker(tpch_bundle, tpch_tree, tmp_path):
    """``write_tree_layout``'s batch function, pickled as Spark pickles it,
    routes a batch in a Python that cannot import ``repro``, as Spark's
    Python workers may not: a driver may put ``src/`` on its own path alone."""
    raw = tpch_bundle.raw.head(500)
    worker = (
        "import importlib.util, pickle, sys\n"
        "assert importlib.util.find_spec('repro') is None\n"
        "add_bids, raw = pickle.load(sys.stdin.buffer)\n"
        "pickle.dump(list(add_bids(iter([raw]))), sys.stdout.buffer)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", worker], input=cloudpickle.dumps((_add_bids(tpch_tree), raw)),
        capture_output=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": ""},
    )
    assert out.returncode == 0, out.stderr.decode()
    [batch] = pickle.loads(out.stdout)
    assert (batch["bid"].to_numpy() == tpch_tree.route(tpch_bundle.schema.encode(raw))).all()


def _chain_tree(schema, cuts) -> QdTree:
    """A tree whose every cut splits off one leaf on the left."""
    return hand_tree(schema, [(2 * k, cut) for k, cut in enumerate(cuts)])


def _deep_chain(raw, sch) -> QdTree:
    """A chain of depth 401 on ``l_extendedprice`` quantiles of ``raw``."""
    edges = np.quantile(raw["l_extendedprice"], np.linspace(0.0, 1.0, 400))
    return _chain_tree(sch, [Pred("l_extendedprice", "<=", float(v)) for v in edges])


@pytest.fixture(scope="module")
def deep_chain_layout(spark, tpch_bundle, layout_dir):
    """A depth-401 chain written over 2000 TPC-H rows: the tree, the layout
    path, numpy routing's BIDs and the BIDs read back per row."""
    raw, sch = tpch_bundle.raw.head(2000), tpch_bundle.schema
    tree, path = _deep_chain(raw, sch), f"{layout_dir}/deep_chain"
    return tree, path, tree.route(sch.encode(raw)), _spark_bids(spark, tree, raw, sch, path)


def test_spark_routing_deep_chain(deep_chain_layout):
    """The tree writer has no depth limit: every row of a depth-401 chain
    lands in the block numpy routing gives it."""
    tree, _, expected, written = deep_chain_layout
    assert tree.depth == 401
    assert len(np.unique(expected)) > 300
    assert (written == expected).all()


def test_string_literals_mean_the_same_everywhere(spark, layout_dir):
    """Quotes and backslashes in categorical values: numpy, DuckDB (the
    SQL text), Spark's routed read and the written blocks select the same
    rows, and Spark still pushes the value down to Parquet."""
    values = ["O'Brien", "a\\b", "a\\\\b'", "ab", "plain"]
    raw = pd.DataFrame({"name": [values[i % 5] for i in range(100)],
                        "x": np.arange(100.0)})
    sch = infer_schema(raw, categorical=["name"])
    enc = sch.encode(raw)
    code = {v: i for i, v in enumerate(sch["name"].domain)}
    tree = _chain_tree(sch, [Pred("name", "=", code["a\\b"]),
                             Pred("name", "in", [code["O'Brien"], code["ab"]])])
    path = f"{layout_dir}/names"
    assert (_spark_bids(spark, tree, raw, sch, path) == tree.route(enc)).all()
    for q in [Pred("name", "=", code[v]) for v in values] + [
        Pred("name", "in", [code["a\\b"], code["a\\\\b'"]]),
        Pred("name", "in", [code["O'Brien"], code["plain"]]),
    ]:
        want = int(eval_mask(q, enc).sum())
        assert want > 0, q
        ddb = duckdb.sql(f"SELECT count(*) FROM raw WHERE {to_sql(q, sch)}").fetchone()[0]
        df = read_routed(spark, path, q, sch, tree=tree)
        assert (ddb, df.count()) == (want, want), q
        if q.op == "=":
            plan = df._jdf.queryExecution().executedPlan().toString()
            value = sch["name"].domain[q.value]
            assert f"PushedFilters: [IsNotNull(name), EqualTo(name,{value})]" in plan


def test_empty_route_scans_nothing(spark, tpch_bundle, tpch_layout, written_tree_layout):
    """A query that routes to no block reads no block and counts 0, as
    DuckDB does."""
    sch = tpch_bundle.schema
    q = Pred("l_quantity", ">", float(tpch_bundle.raw["l_quantity"].max()) + 1.0)
    assert tpch_layout.query_bids(q) == []
    agg = read_routed(spark, written_tree_layout, q, sch, tree=tpch_layout).agg(
        F.count(F.lit(1)).alias("n"))
    assert_equivalent(agg, f"SELECT count(*) AS n FROM t WHERE {to_sql(q, sch)}",
                      t=tpch_bundle.raw)
    assert agg.collect()[0]["n"] == 0
    assert scan_metrics(agg) == dict.fromkeys(
        ("numPartitions", "numFiles", "numOutputRows", "filesSize"), 0)


def test_date_bounds_pushed_without_cast(spark, tpch_bundle, tpch_tree, written_tree_layout):
    """TIMESTAMP literals against a DateType column reach the Parquet scan
    as plain date bounds."""
    sch, enc = tpch_bundle.schema, tpch_bundle.encoded
    lo, hi = np.quantile(enc["l_shipdate"], [0.3, 0.4]).astype(int)
    q = And([Pred("l_shipdate", ">=", int(lo)), Pred("l_shipdate", "<", int(hi))])
    df = read_routed(spark, written_tree_layout, q, sch, tree=tpch_tree)
    assert df.count() == int(eval_mask(q, enc).sum())
    plan = df._jdf.queryExecution().executedPlan().toString()
    pushed = plan.split("PushedFilters: ")[1].split("], ")[0]
    assert f"GreaterThanOrEqual(l_shipdate,{sch.decode_literal('l_shipdate', lo)})" in pushed
    assert f"LessThan(l_shipdate,{sch.decode_literal('l_shipdate', hi)})" in pushed
    assert "cast" not in pushed.lower()


def test_layout_is_partitioned_by_bid(spark, written_tree_layout, tpch_tree):
    import os

    parts = [p for p in os.listdir(written_tree_layout) if p.startswith("bid=")]
    assert len(parts) == tpch_tree.n_leaves


@pytest.mark.parametrize("write", ["tree", "bids", "deep_chain"])
def test_one_parquet_file_per_block(request, spark, tpch_bundle, layout_dir, write):
    """Each writer leaves exactly one Parquet file in every ``bid=``
    directory, and the footers' row counts are the block sizes that numpy
    routing (or the given BIDs) gives."""
    raw, sch = tpch_bundle.raw, tpch_bundle.schema
    if write == "tree":
        path = request.getfixturevalue("written_tree_layout")
        bids = request.getfixturevalue("tpch_tree").route(tpch_bundle.encoded)
    elif write == "bids":
        path = f"{layout_dir}/tpch_random_blocks"
        bids = random_partition(len(raw), 500, seed=1)
        write_bid_layout(spark, raw, bids, sch, path)
    else:
        _, path, bids, _ = request.getfixturevalue("deep_chain_layout")
    rows = {}
    for block in Path(path).glob("bid=*"):
        files = list(block.glob("*.parquet"))
        assert len(files) == 1, (block.name, len(files))
        rows[int(block.name.removeprefix("bid="))] = pq.read_metadata(files[0]).num_rows
    assert rows == {b: int(k) for b, k in enumerate(np.bincount(bids)) if k}


def test_layout_preserves_row_count(spark, tpch_bundle, written_tree_layout):
    n = spark.read.parquet(written_tree_layout).count()
    assert n == len(tpch_bundle.raw)


def test_rows_in_blocks_matches_leaf_sizes(spark, tpch_bundle, tpch_tree, written_tree_layout):
    sizes = np.bincount(tpch_tree.route(tpch_bundle.encoded), minlength=tpch_tree.n_leaves)
    df = open_layout(spark, written_tree_layout)
    bids = [0, 1]
    assert df.filter(F.col("bid").isin(bids)).count() == int(sizes[bids].sum())
    assert df.filter(F.col("bid").isin([])).count() == 0


def test_open_layout_is_reused(spark, written_tree_layout):
    assert open_layout(spark, written_tree_layout) is open_layout(spark, written_tree_layout)


def test_writer_drops_open_layout(spark, tpch_bundle, layout_dir):
    """Overwriting a layout that ``read_routed`` already opened must not
    leave queries on the old file listing."""
    path = f"{layout_dir}/tpch_rewritten"
    raw, sch = tpch_bundle.raw, tpch_bundle.schema
    everything = Pred("l_quantity", ">=", float(raw["l_quantity"].min()))
    first = raw.head(300)
    write_bid_layout(spark, first, np.zeros(len(first), dtype=int), sch, path)
    assert read_routed(spark, path, everything, sch).count() == len(first)

    second = raw.iloc[300:1100]
    bids = 7 + np.arange(len(second)) % 3
    write_bid_layout(spark, second, bids, sch, path)
    got = (
        read_routed(spark, path, everything, sch)
        .groupBy("bid").agg(F.count(F.lit(1)).alias("n"), F.sum("l_quantity").alias("q"))
        .toPandas().set_index("bid").sort_index()
    )
    want = second.assign(bid=bids).groupby("bid")["l_quantity"].agg(["size", "sum"])
    assert list(got.index) == [7, 8, 9]
    assert (got["n"].to_numpy() == want["size"].to_numpy()).all()
    assert np.allclose(got["q"].to_numpy(), want["sum"].to_numpy())


def test_reused_layout_prunes_to_routed_blocks(spark, tpch_bundle, tpch_tree, written_tree_layout):
    """Every query read through the one held DataFrame scans exactly the
    blocks query routing names."""
    held = open_layout(spark, written_tree_layout)
    for qi in (0, 3, 7, 11, 17, 21, 25, 29):
        q = tpch_bundle.queries[qi].ast
        routed = read_routed(spark, written_tree_layout, q, tpch_bundle.schema, tree=tpch_tree)
        agg = routed.agg(F.count(F.lit(1)))
        agg.collect()
        scan = scan_metrics(agg)
        assert scan["numPartitions"] == scan["numFiles"] == len(tpch_tree.query_bids(q)), qi
    assert open_layout(spark, written_tree_layout) is held


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


@pytest.fixture(scope="module")
def errlog_layouts(spark, layout_dir, errlog_int_bundle, errlog_ext_bundle):
    """ErrorLog bundle name -> (bundle, Greedy tree, its block stats, tree
    layout path, random baseline layout path), written on first use."""
    bundles = {"errlog_int": errlog_int_bundle, "errlog_ext": errlog_ext_bundle}

    @functools.cache
    def layouts(name):
        bd = bundles[name]
        enc, sch, W = bd.encoded, bd.schema, asts(bd.queries)
        tree = greedy_qdtree(enc, sch, extract_cuts(W), W, bd.b, ac_names=bd.ac_names)
        stats = block_stats(enc, tree.route(enc), sch, bd.acs, tree.n_leaves)
        tree_path, baseline_path = f"{layout_dir}/{name}_tree", f"{layout_dir}/{name}_baseline"
        write_tree_layout(spark_df_from_raw(spark, bd.raw, sch), tree, tree_path)
        n = len(bd.raw)
        write_bid_layout(spark, bd.raw, random_partition(n, -(-n // tree.n_leaves), seed=0),
                         sch, baseline_path)
        return bd, tree, stats, tree_path, baseline_path

    return layouts


@pytest.mark.parametrize(
    "bundle, mode",
    [pytest.param("tpch", m, id=m) for m in MODES]
    + [pytest.param(n, m, id=f"{n}-{m}") for n in ("errlog_int", "errlog_ext") for m in MODES],
)
def test_whole_workload_matches_duckdb(request, spark, errlog_layouts, bundle, mode):
    """Per-query match counts of every workload query, from one Spark job
    per layout mode, equal DuckDB's over the raw table and numpy's over the
    encoded one. Spark counts by the filter strings ``read_routed`` sends.
    Routed mode counts only the rows inside the query's routed blocks,
    under both routers (leaf descriptions and block stats), so a block that
    query routing wrongly prunes shows up as a lower count. The ErrorLog
    workloads add categorical ``IN`` lists and string literals."""
    if bundle == "tpch":
        bd, tree, stats, tree_path, baseline_path = map(request.getfixturevalue, (
            "tpch_bundle", "tpch_tree", "tpch_layout", "written_tree_layout",
            "written_baseline_layout"))
    else:
        bd, tree, stats, tree_path, baseline_path = errlog_layouts(bundle)
    sch, W = bd.schema, asts(bd.queries)
    path = baseline_path if mode == "baseline" else tree_path
    routers = {"all": None}
    if mode == "qdtree":
        routers = {"tree": tree, "stats": stats}
    counts, sql, want = [], [], []
    for name, router in routers.items():
        for i, q in enumerate(W):
            cond = F.expr(routed_condition(q, sch, router))
            counts.append(F.count(F.when(cond, 1)).alias(f"{name}{i}"))
            sql.append(f"count_if({to_sql(q, sch)}) AS {name}{i}")
            want.append(int(eval_mask(q, bd.encoded).sum()))
    got = spark.read.parquet(path).agg(*counts)
    assert_equivalent(got, f"SELECT {', '.join(sql)} FROM t", t=bd.raw)
    assert list(got.collect()[0]) == want


def test_stats_routed_rows_equal_table2_score(
    spark, tpch_bundle, tpch_tree, tpch_layout, written_tree_layout
):
    """The rows Spark finds in the blocks that routed mode scans, summed
    over the workload, are the tuples Table 2 scores the layout by.
    Routing by the tree's leaf descriptions reads more."""
    enc, sch, W = tpch_bundle.encoded, tpch_bundle.schema, asts(tpch_bundle.queries)
    rows = [
        F.sum(F.col("bid").isin(router.query_bids(q)).cast("long"))
        for router in (tpch_layout, tpch_tree)
        for q in W
    ]
    got = spark.read.parquet(written_tree_layout).agg(*rows).collect()[0]
    by_stats, by_tree = sum(got[: len(W)]), sum(got[len(W):])
    score = evaluate_layout(enc, tpch_tree.route(enc), sch, W, acs=tpch_bundle.acs)
    assert by_stats == score.tuples_accessed == 146_621
    assert by_tree == 165_343


def test_query_routing_skips_blocks(spark, tpch_bundle, tpch_tree, written_tree_layout):
    """At least one selective query must prune blocks, and pruned scans
    read fewer tuples than the full table."""
    pruned_any = False
    for q in asts(tpch_bundle.queries):
        bids = tpch_tree.query_bids(q)
        if len(bids) < tpch_tree.n_leaves:
            pruned_any = True
            n = open_layout(spark, written_tree_layout).filter(F.col("bid").isin(bids)).count()
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
