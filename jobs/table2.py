"""spark-submit / python entrypoint reproducing paper Table 2.

Builds Baseline, Bottom-Up, BU+, Greedy and WOODBLOCK layouts for the
requested workloads and prints measured %-tuples-accessed next to the
paper's numbers. Layout construction is driver-side (the paper's qd-tree
is likewise a Python library); no cluster resources are needed here —
see jobs/physical.py for the Spark execution experiment.

Usage:
    python jobs/table2.py [--workloads tpch errlog-int errlog-ext]
                          [--scale 1.0] [--episodes 60]
"""
import argparse
import time

from repro.core.woodblock import WoodblockConfig
from repro.experiments.table2 import (
    PAPER_BU_UNTUNED,
    PAPER_TABLE2,
    format_table,
    make_bundle,
    run_table2,
)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", default=["tpch", "errlog-int", "errlog-ext"])
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--episodes", type=int, default=60)
    ap.add_argument("--n-seeds", type=int, default=10, help="TPC-H seeds per template")
    ap.add_argument("--n-queries", type=int, default=200, help="ErrorLog workload size")
    args = ap.parse_args()

    results = {}
    for wl in args.workloads:
        t0 = time.perf_counter()
        bundle = make_bundle(
            wl, scale=args.scale, n_seeds=args.n_seeds, n_queries=args.n_queries
        )
        print(
            f"== {wl}: {len(bundle.encoded)} rows, b={bundle.b}, "
            f"{len(bundle.queries)} queries, generated in {time.perf_counter() - t0:.2f}s"
        )
        rows = run_table2(
            bundle, woodblock_cfg=WoodblockConfig(episodes=args.episodes)
        )
        results[wl] = rows
        for ap_name, row in rows.items():
            paper = PAPER_TABLE2.get(wl, {}).get(ap_name.rstrip("+"))
            paper_s = f" (paper {paper}%)" if paper is not None else ""
            print(
                f"  {ap_name:12s} {100 * row.metrics.access_fraction:7.2f}%"
                f"{paper_s}  blocks={row.metrics.n_blocks}  {row.seconds:.1f}s"
            )
    print()
    print(format_table(results))
    print(f"\npaper untuned Bottom-Up on ErrorLogs: {PAPER_BU_UNTUNED}")


if __name__ == "__main__":
    main()
