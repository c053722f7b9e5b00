"""spark-submit entrypoint for the physical-execution experiment (Figs 5/7).

Writes qd-tree and baseline Parquet layouts (hive-partitioned by BID),
runs the workload with qd-tree routing / without (*no route*) / on the
baseline layout, and prints per-template mean runtimes.

Usage:
    spark-submit jobs/physical.py --workload tpch --scale 0.5 --episodes 40
    python jobs/physical.py ...            # local[*] session is created
"""
import argparse
import tempfile
import time

from pyspark.sql import SparkSession

from repro.core.woodblock import WoodblockConfig
from repro.experiments.physical import format_physical, run_physical
from repro.experiments.table2 import make_bundle, run_table2


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", default="tpch")
    ap.add_argument("--scale", type=float, default=0.5)
    ap.add_argument("--episodes", type=int, default=40)
    ap.add_argument("--per-template-queries", type=int, default=2)
    ap.add_argument("--workdir", default=None)
    args = ap.parse_args()

    spark = (
        SparkSession.builder.appName("qdtree-physical")
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    t0 = time.perf_counter()
    bundle = make_bundle(args.workload, scale=args.scale)
    print(
        f"== {args.workload}: {len(bundle.encoded)} rows, "
        f"generated in {time.perf_counter() - t0:.2f}s"
    )
    rows = run_table2(
        bundle,
        approaches=("baseline", "woodblock"),
        woodblock_cfg=WoodblockConfig(episodes=args.episodes),
    )
    # thin the workload: a few instances per template keeps runtime sane
    seen: dict = {}
    queries = []
    for q in bundle.queries:
        if seen.setdefault(q.template, 0) < args.per_template_queries:
            seen[q.template] += 1
            queries.append(q)

    workdir = args.workdir or tempfile.mkdtemp(prefix="qdtree_phys_")
    res = run_physical(
        spark, bundle, rows["woodblock"].tree, rows["baseline"].bids,
        workdir, queries=queries,
    )
    print(format_physical(res))
    print(f"\nlayouts written under {workdir}")
    spark.stop()


if __name__ == "__main__":
    main()
