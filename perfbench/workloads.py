"""The two benchmark workloads, driven through ``src/repro``'s public calls.

Each workload has a set-up phase, timed stage by stage into ``setup_s``,
and an operation that the run repeats for at least ``--seconds`` seconds
and at least ``min_ops`` times. Every operation is checked; a failed check
or an exception counts as a failed operation.

* ``build-tpch`` (no Spark): one operation builds a Greedy qd-tree on the
  full TPC-H-denorm table and a WOODBLOCK tree on a 10 % sample, scores
  both with ``evaluate_layout``, and routes the whole workload through the
  greedy tree with ``query_bids`` until 1000 routings are done.
* ``query-errlog``: set-up writes a Greedy layout of ErrorLog-Int once,
  checks each block's row count on disk against the numpy routing, and
  computes DuckDB answers; one operation is one routed query
  (``read_routed`` plus a count/sum aggregate), one client, closed loop.
"""
from __future__ import annotations

import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core import greedy as greedy_mod
from repro.core.cost import evaluate_layout
from repro.core.cuts import extract_cuts
from repro.core.greedy import greedy_qdtree
from repro.core.predicates import eval_mask, to_sql
from repro.core.schema import NUMERIC
from repro.core.woodblock import WoodblockConfig, woodblock_qdtree
from repro.experiments.table2 import make_bundle
from repro.rl.ppo import PPOTrainer
from repro.workloads import asts

import sparkenv
from spans import Tracer

SETUP_REPS = 5  # generation and cut extraction repeat; they report the median
REF_EACH = 10  # reference-kernel timings between the phases of a build-tpch op

# build-tpch: TPC-H-denorm at scale 0.1 (60k rows, 150 queries, b=300).
BUILD = dict(scale=0.1, n_seeds=10, sample_frac=0.1, episodes=8, routings=1000)
# query-errlog: ErrorLog-Int at scale 0.1 (30k rows, 100 queries) with
# b=1200, which gives about 20 blocks.
QUERY = dict(scale=0.1, n_queries=100, b=1200, warmup=30, min_ops=120, routings=1000)


def pct(xs, q: float) -> float:
    return float(np.percentile(xs, q)) if len(xs) else 0.0


@dataclass
class Run:
    """State of one benchmark run: timings, counters and check results."""

    tr: Tracer
    seed: int
    seconds: float
    workdir: Path
    cores: int
    setup: dict = field(default_factory=dict)  # stage -> seconds
    ops: list = field(default_factory=list)  # op latency, seconds
    attempted: int = 0
    failed: int = 0
    t: dict = field(default_factory=dict)  # timing name -> [seconds]
    m: dict = field(default_factory=dict)  # per-layer values
    ref: list = field(default_factory=list)  # reference-kernel seconds

    def reference(self, fn, n: int = 1) -> float:
        """Time ``n`` calls of a reference kernel that uses no ``repro``
        code, interleaved with the work; returns the seconds spent.
        Operation latency divided by the kernel's median cancels the
        machine speed of the moment, which on a shared host drifts by a
        third within minutes (see ``op_p50_rel`` in run.py)."""
        t_all = time.perf_counter()
        for _ in range(n):
            t0 = time.perf_counter()
            fn()
            self.ref.append(time.perf_counter() - t0)
        return time.perf_counter() - t_all

    def timed(self, key: str, span: str, fn, *args, **kwargs):
        """Call ``fn`` inside span ``span`` and append its seconds to ``key``."""
        with self.tr.span(span):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self.t.setdefault(key, []).append(time.perf_counter() - t0)
        return out

    def stage(self, key: str, span: str, fn, *args, reps: int = 1, **kwargs):
        """A set-up stage run ``reps`` times; ``setup[key]`` is its median."""
        n0 = len(self.t.get(key, []))
        for _ in range(reps):
            out = self.timed(key, span, fn, *args, **kwargs)
        self.setup[key] = statistics.median(self.t[key][n0:])
        return out

    def measure(self, op, min_ops: int) -> None:
        """Repeat ``op(i) -> (seconds, ok)`` for ``seconds`` and ``min_ops``."""
        t_end = time.perf_counter() + self.seconds
        i = 0
        while i < min_ops or time.perf_counter() < t_end:
            self.tr.run_id = str(i)
            self.attempted += 1
            try:
                secs, ok = op(i)
            except Exception:  # a failed operation is counted, not fatal
                traceback.print_exc()
                self.failed += 1
            else:
                self.ops.append(secs)
                if not ok:
                    self.failed += 1
            i += 1
        self.tr.run_id = "post"

    def fail(self, msg: str) -> bool:
        print(f"check failed: {msg}", file=sys.stderr)
        return False


def _py_reference() -> int:
    """Pure-Python loop, the reference kernel of the Python workload."""
    s = 0
    for i in range(300_000):
        s += i * i
    return s


def _probe_column(schema) -> str:
    return next(c for c, s in schema.columns.items() if s.kind == NUMERIC)


def _route_queries(run: Run, tree, W) -> list[list[int]]:
    """Route every query of the workload once."""
    return [run.timed("qroute", "qdtree.query_bids", tree.query_bids, q) for q in W]


def _tree_layer(run: Run, tree, W, cuts, routed) -> None:
    run.m.update(
        n_cuts=len(cuts), n_leaves=tree.n_leaves, depth=tree.depth,
        intersection_tests=tree.n_leaves * len(W),
        blocks_routed_per_query=float(np.mean([len(b) for b in routed])),
    )


def _check_sound(run: Run, bids, W, enc, routed) -> bool:
    """Every block holding a row that matches a query is routed to it."""
    for qi, q in enumerate(W):
        need = set(np.unique(bids[eval_mask(q, enc)]).tolist())
        if not need <= set(routed[qi]):
            return run.fail(f"query {qi} pruned blocks {sorted(need - set(routed[qi]))}")
    return True


# ----------------------------------------------------------------- build-tpch
def build_tpch(run: Run) -> dict:
    c = BUILD
    bd = run.stage("gen", "gen", make_bundle, "tpch", scale=c["scale"],
                   n_seeds=c["n_seeds"], seed=run.seed, reps=SETUP_REPS)
    W = asts(bd.queries)
    cuts = run.stage("cuts", "cuts", extract_cuts, W, reps=SETUP_REPS)
    enc, n = bd.encoded, len(bd.encoded)
    take = int(n * c["sample_frac"])
    cfg = WoodblockConfig(episodes=c["episodes"], seed=0)
    last = {}
    run.reference(_py_reference, REF_EACH)

    def ref() -> float:
        return run.reference(_py_reference, REF_EACH)

    def op(i):
        t0 = time.perf_counter()
        tree = run.timed("greedy", "greedy", greedy_qdtree, enc, bd.schema, cuts, W,
                         bd.b, ac_names=bd.ac_names)
        paused = ref()
        t_rl = time.perf_counter()
        sample = enc.sample(n=take, random_state=0).reset_index(drop=True)
        res = run.timed("woodblock", "woodblock", woodblock_qdtree, sample, bd.schema,
                        cuts, W, max(2, round(bd.b * take / n)),
                        ac_names=bd.ac_names, config=cfg)
        run.t.setdefault("rl_build", []).append(time.perf_counter() - t_rl)
        paused += ref()
        g_bids = run.timed("route", "qdtree.route", tree.route, enc)
        r_bids = run.timed("route", "qdtree.route", res.tree.route, enc)
        g = run.timed("cost", "cost", evaluate_layout, enc, g_bids, bd.schema, W, acs=bd.acs)
        paused += ref()
        r = run.timed("cost", "cost", evaluate_layout, enc, r_bids, bd.schema, W, acs=bd.acs)
        run.t.setdefault("score", []).append(sum(run.t["cost"][-2:]))
        for _ in range(math.ceil(c["routings"] / len(W))):
            paused += ref()
            routed = _route_queries(run, tree, W)
        secs = time.perf_counter() - t0 - paused
        last.update(tree=tree, res=res, g=g, r=r, routed=routed)
        ok = _check_sound(run, g_bids, W, enc, routed)
        for name, s in (("greedy", g), ("woodblock", r)):
            if not s.tuples_selected <= s.tuples_accessed <= s.n_rows * s.n_queries:
                ok = run.fail(f"{name} score out of range: {s}")
        return secs, ok

    run.measure(op, min_ops=1)
    tree, res = last["tree"], last["res"]
    _tree_layer(run, tree, W, cuts, last["routed"])
    rl_s = statistics.median(run.t["rl_build"])
    run.m.update(
        rl_build_s=rl_s, rl_access_pct=100 * last["r"].access_fraction,
        rl_episodes_per_s=len(res.history) / statistics.median(run.t["woodblock"]),
        rl_best_fraction=res.best_fraction,
    )
    return dict(
        n_rows=n, greedy_build_s=statistics.median(run.t["greedy"]),
        score_s=statistics.median(run.t["score"]),
        access_pct=100 * last["g"].access_fraction,
    )


# --------------------------------------------------------------- query-errlog
def _oracle_answers(bd, probe: str) -> list[tuple]:
    import duckdb

    con = duckdb.connect()
    try:
        con.register("t", bd.raw)
        return [
            con.execute(
                f"SELECT count(*), sum({probe}) FROM t WHERE {to_sql(q.ast, bd.schema)}"
            ).fetchone()
            for q in bd.queries
        ]
    finally:
        con.close()


def _same_answer(got: tuple, want: tuple) -> bool:
    if got[0] != want[0]:
        return False
    if got[1] is None or want[1] is None:
        return got[1] is None and want[1] is None
    return math.isclose(float(got[1]), float(want[1]), rel_tol=1e-9, abs_tol=1e-9)


def query_errlog(run: Run) -> dict:
    from pyspark.sql import functions as F

    from repro.spark_io.layout import read_routed, spark_df_from_raw, write_tree_layout

    c = QUERY
    spark = run.stage("spark_start", "spark.session", sparkenv.start, run.cores)
    try:
        bd = run.stage("gen", "gen", make_bundle, "errlog-int", scale=c["scale"],
                       n_queries=c["n_queries"], seed=run.seed, reps=SETUP_REPS)
        W = asts(bd.queries)
        cuts = run.stage("cuts", "cuts", extract_cuts, W, reps=SETUP_REPS)
        tree = run.stage("greedy", "greedy", greedy_qdtree, bd.encoded, bd.schema,
                         cuts, W, c["b"], ac_names=bd.ac_names)
        bids = run.stage("route", "qdtree.route", tree.route, bd.encoded)
        score = run.stage("cost", "cost", evaluate_layout, bd.encoded, bids,
                          bd.schema, W, acs=bd.acs)
        probe = _probe_column(bd.schema)
        answers = run.stage("oracle", "oracle", _oracle_answers, bd, probe)
        path = run.workdir / "spark-local" / "layout"
        raw_df = spark_df_from_raw(spark, bd.raw, bd.schema)
        run.stage("write", "spark_io.write", write_tree_layout, raw_df, tree, str(path))
        rows, files, size = sparkenv.layout_on_disk(path)
        want = np.bincount(bids, minlength=tree.n_leaves)
        if rows != {b: int(k) for b, k in enumerate(want) if k}:
            raise RuntimeError("block row counts on disk differ from numpy routing")
        t0 = time.perf_counter()
        for _ in range(math.ceil(c["routings"] / len(W))):
            routed = _route_queries(run, tree, W)
        run.setup["qroute"] = time.perf_counter() - t0
        _tree_layer(run, tree, W, cuts, routed)
        if not _check_sound(run, bids, W, bd.encoded, routed):
            raise RuntimeError("query routing pruned a matching block")
        scans = []

        def spark_reference():
            """A trivial Spark job: the platform's fixed cost per query."""
            got = spark.range(0, 1000, 1, run.cores).agg(F.sum("id")).collect()[0][0]
            if got != 499500:
                raise RuntimeError(f"reference job returned {got}")

        def one_query(i):
            qi = i % len(W)
            t0 = time.perf_counter()
            df = run.timed("open", "spark_io.read", read_routed, spark, str(path), W[qi],
                          bd.schema, tree=tree)
            agg = df.agg(F.count(F.lit(1)), F.sum(probe))
            row = run.timed("exec", "spark.exec", agg.collect)[0]
            secs = time.perf_counter() - t0
            run.reference(spark_reference)
            scan = sparkenv.scan_metrics(agg)
            scans.append(scan)
            ok = True
            if not _same_answer((row[0], row[1]), answers[qi]):
                ok = run.fail(f"query {qi}: spark {tuple(row)} != duckdb {answers[qi]}")
            if scan["numPartitions"] != len(routed[qi]):
                ok = run.fail(f"query {qi}: scanned {scan['numPartitions']} blocks, "
                              f"routed {len(routed[qi])}")
            return secs, ok

        t0 = time.perf_counter()
        for i in range(c["warmup"]):  # JVM warm-up, checked but not timed
            if not one_query(i)[1]:
                raise RuntimeError("warm-up query failed its check")
        run.setup["warmup"] = time.perf_counter() - t0
        del scans[:], run.t["open"][:], run.t["exec"][:], run.ref[:]
        run.measure(one_query, min_ops=c["min_ops"])
    finally:
        sparkenv.stop(spark)
    n_blocks = int(np.count_nonzero(np.bincount(bids)))
    run.m.update(
        write_s=run.setup["write"], files_written=files, bytes_written=size,
        files_per_block=files / n_blocks, stored_bytes_per_row=size / len(bd.raw),
        ingest_rows_per_s=len(bd.raw) / run.setup["write"],
        open_ms=1000 * statistics.median(run.t["open"]),
        exec_ms=1000 * statistics.median(run.t["exec"]),
        **{
            name: float(np.mean([s[key] for s in scans]))
            for name, key in (("blocks_scanned", "numPartitions"),
                              ("files_scanned", "numFiles"),
                              ("rows_scanned", "numOutputRows"),
                              ("bytes_scanned", "filesSize"))
        },
    )
    return dict(n_rows=len(bd.raw), greedy_build_s=run.setup["greedy"],
                score_s=run.setup["cost"], access_pct=100 * score.access_fraction)


WORKLOADS = {
    "build-tpch": (build_tpch, BUILD),
    "query-errlog": (query_errlog, QUERY),
}


def wrap_internal_calls(tr: Tracer):
    """Count, and in a traced run record as spans, the calls the program
    makes to ``CutMatrix.build`` and ``PPOTrainer.update`` by wrapping
    those public entry points; returns an undo function."""
    build, update = greedy_mod.CutMatrix.build, PPOTrainer.update
    greedy_mod.CutMatrix.build = staticmethod(tr.wrap("greedy.cutmatrix", build))
    PPOTrainer.update = tr.wrap("rl.update", update)

    def undo():
        greedy_mod.CutMatrix.build = staticmethod(build)
        PPOTrainer.update = update

    return undo
