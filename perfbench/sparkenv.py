"""Spark session lifecycle and on-disk / scan-node measurements.

The session is pinned to ``local[k]`` and keeps every file it writes
(block-manager files, temp files, layouts) under the run's work directory,
which is also ``SPARK_LOCAL_DIRS``. :func:`stop` waits for the JVM to exit.
"""
from __future__ import annotations

import os
import shlex
import subprocess
from pathlib import Path

SCAN_METRICS = ("numPartitions", "numFiles", "numOutputRows", "filesSize")


def configure(workdir: Path, cores: int) -> None:
    """Environment read when the JVM launches; call before importing pyspark."""
    local = workdir / "spark-local"
    tmp = workdir / "tmp"
    local.mkdir(parents=True, exist_ok=True)
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    os.environ["PYSPARK_SUBMIT_ARGS"] = shlex.join([
        "--master", f"local[{cores}]", "--driver-memory", "2g",
        # no JVM perf-data file outside the work directory, which takes its temp files
        "--driver-java-options", f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}",
        "--conf", "spark.driver.host=127.0.0.1", "--conf", "spark.ui.enabled=false",
        "--conf", "spark.ui.showConsoleProgress=false",
        "--conf", f"spark.local.dir={local}",
        "--conf", f"spark.sql.warehouse.dir={workdir / 'warehouse'}",
        "pyspark-shell",
    ])


def start(cores: int):
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(cores))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop(spark) -> None:
    """Stop the session, close the gateway and wait for the JVM to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        SparkContext._gateway = None
        SparkContext._jvm = None
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()  # the gateway JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def scan_metrics(df) -> dict[str, int]:
    """Sum of the Parquet scan nodes' metrics in ``df``'s executed plan.

    Descends through ``AdaptiveSparkPlanExec`` and its query stages. Read
    after the action ran: ``numPartitions`` is the number of ``bid=``
    blocks the scan read after partition pruning. A plan that Catalyst
    reduced to an empty relation has no scan node and reads nothing."""
    out = dict.fromkeys(SCAN_METRICS, 0)

    def walk(plan):
        kind = plan.getClass().getSimpleName()
        if kind == "AdaptiveSparkPlanExec":
            walk(plan.executedPlan())
        elif kind.endswith("QueryStageExec"):
            walk(plan.plan())
        elif kind == "FileSourceScanExec":
            metrics = plan.metrics()
            for k in SCAN_METRICS:
                if metrics.contains(k):
                    out[k] += int(metrics.apply(k).value())
        elif not plan.children().isEmpty():
            leaves = plan.collectLeaves()  # one JVM call instead of a walk
            for i in range(leaves.size()):
                walk(leaves.apply(i))

    walk(df._jdf.queryExecution().executedPlan())
    return out


def layout_on_disk(path: Path) -> tuple[dict[int, int], int, int]:
    """(rows per block from Parquet footers, files, bytes) of a layout
    written with ``partitionBy("bid")``."""
    import pyarrow.parquet as pq

    rows: dict[int, int] = {}
    files = size = 0
    for block in path.glob("bid=*"):
        bid = int(block.name.split("=", 1)[1])
        for f in block.glob("*.parquet"):
            rows[bid] = rows.get(bid, 0) + pq.read_metadata(f).num_rows
            files += 1
            size += f.stat().st_size
    return rows, files, size
