"""Physical execution on Spark: runtime of qd-tree vs baseline layouts.

Reproduces the paper's Sec 7.4.1 / 7.5.1 experiments (Figures 5 and 7) at
local scale: write each layout as ``partitionBy("bid")`` Parquet, then run
the workload three ways —

* ``qdtree`` — qd-tree layout + explicit ``BID IN (...)`` query routing
  by the layout's block stats (:class:`~repro.core.qdtree.Layout`, the
  metadata Table 2 scores by),
* ``qdtree-noroute`` — qd-tree layout, engine-native pruning only,
* ``baseline`` — the comparison layout (random / range / Bottom-Up).

Each query runs as a count+sum aggregate (forces actual column reads).
Reported per template: mean wall-clock and tuples resident in the scanned
blocks (the logical I/O the paper's speedups track). A ``qdtree``-mode
query that scans other than its routed blocks makes the run raise.
"""
from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from ..core.qdtree import QdTree, block_stats
from ..spark_io.layout import (
    blocks_scanned,
    read_routed,
    spark_df_from_raw,
    write_bid_layout,
    write_tree_layout,
)
from .table2 import WorkloadBundle


MODES = ("qdtree", "qdtree-noroute", "baseline")


@dataclass
class PhysicalResult:
    per_template: dict  # template -> mode -> [seconds]
    rows_routed: dict  # template -> tuples in the blocks routed mode scans
    totals: dict  # mode -> sum over templates of the mean seconds


def _numeric_probe(bundle: WorkloadBundle) -> str:
    """A truly-numeric column to aggregate, forcing real column I/O.

    ``schema.numeric_cols`` also lists DATE columns (they are numeric in
    encoded space) but Spark cannot ``sum`` a DateType — skip those."""
    from ..core.schema import NUMERIC

    for name in bundle.schema.numeric_cols:
        if bundle.schema[name].kind == NUMERIC:
            return name
    raise ValueError("workload has no numeric column")


def run_physical(
    spark: SparkSession,
    bundle: WorkloadBundle,
    tree: QdTree,
    baseline_bids: np.ndarray,
    workdir: str,
    queries=None,
) -> PhysicalResult:
    """Write the two layouts under ``workdir`` and time the workload."""
    queries = queries if queries is not None else bundle.queries
    probe = _numeric_probe(bundle)
    tree_path = f"{workdir}/qdtree"
    base_path = f"{workdir}/baseline"

    raw_df = spark_df_from_raw(spark, bundle.raw, bundle.schema)
    write_tree_layout(raw_df, tree, tree_path)
    write_bid_layout(spark, bundle.raw, baseline_bids, bundle.schema, base_path)

    layout = block_stats(
        bundle.encoded, tree.route(bundle.encoded), bundle.schema, bundle.acs,
        tree.n_leaves,
    )
    per_template: dict = defaultdict(lambda: defaultdict(list))
    rows_routed: dict = defaultdict(int)

    reads = {"qdtree": (tree_path, layout), "qdtree-noroute": (tree_path, None),
             "baseline": (base_path, None)}  # mode -> (layout path, router)
    for q in queries:
        for mode, (path, router) in reads.items():
            t0 = time.perf_counter()
            df = read_routed(spark, path, q.ast, bundle.schema, tree=router)
            agg = df.agg(F.count(F.lit(1)).alias("cnt"), F.sum(probe).alias("s"))
            agg.collect()
            per_template[q.template][mode].append(time.perf_counter() - t0)
            if router is not None:
                scanned, routed = blocks_scanned(agg), len(router.query_bids(q.ast))
                if scanned != routed:
                    raise RuntimeError(f"{q.template}: scanned {scanned} blocks, routed {routed}")
        rows_routed[q.template] += layout.accessed(q.ast)

    totals = {
        mode: float(sum(np.mean(m[mode]) for m in per_template.values()))
        for mode in MODES
    }
    return PhysicalResult(
        {t: dict(m) for t, m in per_template.items()}, dict(rows_routed), totals
    )


def format_physical(res: PhysicalResult) -> str:
    """Markdown: per-template mean runtimes and the workload totals."""
    lines = [
        "| Template | " + " | ".join(MODES) + " | rows routed |",
        "|" + "---|" * (len(MODES) + 2),
    ]
    for t, m in sorted(res.per_template.items()):
        cells = " | ".join(f"{1000 * float(np.mean(m[mode])):.0f}ms" for mode in MODES)
        lines.append(f"| {t} | {cells} | {res.rows_routed.get(t, 0)} |")
    tot = " | ".join(f"{res.totals[mode]:.2f}s" for mode in MODES)
    lines.append(f"| **total** | {tot} | |")
    return "\n".join(lines)
