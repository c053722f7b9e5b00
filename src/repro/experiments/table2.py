"""Table 2 harness: logical I/O cost (% tuples accessed) per layout scheme.

For each workload (TPC-H-denorm, ErrorLog-Int, ErrorLog-Ext) this builds
every layout the paper compares —

* *Baseline* — random shuffler (TPC-H) / range partitioning on ingest
  time (ErrorLogs),
* *Bottom-Up* [45] — untuned, and the paper's tuned **BU⁺**,
* *Greedy* qd-tree (Sec 4),
* *WOODBLOCK* qd-tree (Sec 5),

then scores all of them with the same uniform block-stats skipping
function (per-block min-max + categorical masks + AC bits over actual
rows) and reports the accessed-tuple percentage, exactly the quantity in
the paper's Table 2.

Everything here is driver-side pandas/numpy — the paper likewise
implements qd-tree as "a lightweight Python library"; Spark enters for
physical execution (see :mod:`repro.experiments.physical`).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from ..baselines.bottom_up import BottomUpConfig, bottom_up_partition
from ..baselines.simple import random_partition, range_partition
from ..core.cost import LayoutMetrics, evaluate_layout
from ..core.cuts import extract_cuts
from ..core.greedy import greedy_qdtree
from ..core.qdtree import QdTree
from ..core.schema import TableSchema
from ..core.woodblock import WoodblockConfig, woodblock_qdtree
from ..workloads import Query, asts
from ..workloads import errorlog, tpch


@dataclass
class WorkloadBundle:
    """Everything one Table-2 row group needs."""

    name: str
    raw: pd.DataFrame
    encoded: pd.DataFrame
    schema: TableSchema
    queries: list[Query]
    b: int
    baseline_kind: str  # "random" | "range"
    range_col: str | None = None  # ingest-time column for the range baseline
    ac_names: tuple = ()
    acs: dict = field(default_factory=dict)


def make_bundle(
    name: str,
    *,
    scale: float = 1.0,
    n_seeds: int = 10,
    n_queries: int = 200,
    b: int | None = None,
    seed: int = 0,
) -> WorkloadBundle:
    """Build one of the three evaluation workloads at a given scale.

    ``scale`` multiplies the bench-default row counts (DESIGN.md §5):
    TPC-H 600k rows/b=3000, ErrorLogs 300k rows/b=2000 at scale=1.
    """
    if name == "tpch":
        sch = tpch.schema()
        raw = tpch.denormalized(sf=0.1 * scale, seed=seed)
        queries = tpch.workload(sch, n_seeds=n_seeds, seed=seed)
        return WorkloadBundle(
            name, raw, sch.encode(raw), sch, queries,
            b=b if b is not None else max(2, int(3000 * scale)),
            baseline_kind="random",
            ac_names=tpch.AC_NAMES, acs=tpch.AC_MAP,
        )
    if name == "errlog-int":
        sch = errorlog.int_schema()
        raw = errorlog.errorlog_int(n=max(10, int(errorlog.N_INT_DEFAULT * scale)), seed=seed)
        queries = errorlog.int_workload(raw, sch, n_queries=n_queries, seed=seed + 100)
        return WorkloadBundle(
            name, raw, sch.encode(raw), sch, queries,
            b=b if b is not None else max(2, int(2000 * scale)),
            baseline_kind="range", range_col="ingest_date",
        )
    if name == "errlog-ext":
        sch = errorlog.ext_schema()
        raw = errorlog.errorlog_ext(n=max(10, int(errorlog.N_EXT_DEFAULT * scale)), seed=seed)
        queries = errorlog.ext_workload(raw, sch, n_queries=n_queries, seed=seed + 200)
        return WorkloadBundle(
            name, raw, sch.encode(raw), sch, queries,
            b=b if b is not None else max(2, int(2000 * scale)),
            baseline_kind="range", range_col="ingest_date",
        )
    raise ValueError(f"unknown workload {name!r}")


@dataclass
class Table2Row:
    metrics: LayoutMetrics
    seconds: float
    bids: np.ndarray
    tree: QdTree | None = None


def run_table2(
    bundle: WorkloadBundle,
    *,
    approaches: tuple = ("baseline", "bottom-up", "bottom-up+", "greedy", "woodblock"),
    woodblock_cfg: WoodblockConfig | None = None,
    sample_frac: float = 0.1,
) -> dict[str, Table2Row]:
    """Build + score the requested layouts; returns approach -> row."""
    enc, sch, b = bundle.encoded, bundle.schema, bundle.b
    W = asts(bundle.queries)
    cuts = extract_cuts(W)
    out: dict[str, Table2Row] = {}

    def score(bids, secs, tree=None) -> Table2Row:
        m = evaluate_layout(enc, bids, sch, W, acs=bundle.acs)
        return Table2Row(m, secs, bids, tree)

    for ap in approaches:
        t0 = time.perf_counter()
        if ap == "baseline":
            if bundle.baseline_kind == "random":
                bids = random_partition(len(enc), b, seed=0)
            else:
                bids = range_partition(enc[bundle.range_col].to_numpy(), b)
            out[ap] = score(bids, time.perf_counter() - t0)
        elif ap in ("bottom-up", "bottom-up+"):
            cfg = BottomUpConfig(
                selectivity_cap=0.10 if ap.endswith("+") else None
            )
            res = bottom_up_partition(enc, sch, cuts, W, b, cfg)
            out[ap] = score(res.bids, time.perf_counter() - t0)
        elif ap == "greedy":
            tree = greedy_qdtree(enc, sch, cuts, W, b, ac_names=bundle.ac_names)
            out[ap] = score(tree.route(enc), time.perf_counter() - t0, tree=tree)
        elif ap == "woodblock":
            n = len(enc)
            take = max(min(n, 50), int(n * sample_frac))
            sample = enc.sample(n=take, random_state=0).reset_index(drop=True)
            b_sample = max(2, int(round(b * take / n)))
            res = woodblock_qdtree(
                sample, sch, cuts, W, b_sample,
                ac_names=bundle.ac_names,
                config=woodblock_cfg or WoodblockConfig(),
            )
            out[ap] = score(res.tree.route(enc), time.perf_counter() - t0, tree=res.tree)
        else:
            raise ValueError(f"unknown approach {ap!r}")
    return out


PAPER_TABLE2 = {
    # workload -> approach -> % tuples accessed (paper Table 2)
    "tpch": {"baseline": 56.0, "bottom-up": 46.1, "greedy": 26.3, "woodblock": 25.8},
    "errlog-int": {"baseline": 100.0, "bottom-up": 5.6, "greedy": 3.1, "woodblock": 0.4},
    "errlog-ext": {"baseline": 100.0, "bottom-up": 12.2, "greedy": 1.7, "woodblock": 0.2},
}
# Paper footnote: the ErrorLog Bottom-Up numbers are the tuned BU+; the
# untuned versions fare at 100% and 96.9% respectively.
PAPER_BU_UNTUNED = {"errlog-int": 100.0, "errlog-ext": 96.9}


def format_table(results: dict[str, dict[str, Table2Row]]) -> str:
    """Markdown table: workload × approach, measured % tuples accessed."""
    approaches = ["baseline", "bottom-up", "bottom-up+", "greedy", "woodblock"]
    lines = [
        "| Workload | " + " | ".join(approaches) + " | selectivity (LB) | blocks (wb) |",
        "|" + "---|" * (len(approaches) + 3),
    ]
    for wl, rows in results.items():
        cells = []
        for ap in approaches:
            if ap in rows:
                cells.append(f"{100 * rows[ap].metrics.access_fraction:.2f}%")
            else:
                cells.append("—")
        any_row = next(iter(rows.values()))
        nb = rows.get("woodblock") or any_row
        lines.append(
            f"| {wl} | " + " | ".join(cells)
            + f" | {100 * any_row.metrics.selectivity:.3f}% | {nb.metrics.n_blocks} |"
        )
    return "\n".join(lines)
