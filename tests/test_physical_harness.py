"""run_physical harness at tiny scale: modes agree, metrics populated."""
import pytest

from repro.baselines.simple import random_partition
from repro.core.cost import per_query_accessed
from repro.experiments.physical import format_physical, run_physical
from repro.workloads import asts


@pytest.fixture(scope="module")
def phys(spark, tpch_bundle, tpch_tree, tmp_path_factory):
    queries = tpch_bundle.queries[:4]
    baseline = random_partition(len(tpch_bundle.raw), 2000, seed=0)
    workdir = str(tmp_path_factory.mktemp("phys_tiny"))
    return run_physical(
        spark, tpch_bundle, tpch_tree, baseline, workdir, queries=queries
    )


def test_all_modes_timed(phys):
    for template, modes in phys.per_template.items():
        assert set(modes) == {"qdtree", "qdtree-noroute", "baseline"}
        for times in modes.values():
            assert all(t > 0 for t in times)


def test_totals_summed(phys):
    assert set(phys.totals) == {"qdtree", "qdtree-noroute", "baseline"}
    for v in phys.totals.values():
        assert v > 0


def test_rows_routed_recorded(phys, tpch_bundle, tpch_tree):
    assert sum(phys.rows_routed.values()) > 0
    # routed rows can never exceed (queries x full table)
    assert sum(phys.rows_routed.values()) <= 4 * len(tpch_bundle.raw)
    # routed mode reads what Table 2 scores
    enc = tpch_bundle.encoded
    scored = per_query_accessed(
        enc, tpch_tree.route(enc), tpch_bundle.schema,
        asts(tpch_bundle.queries[:4]), acs=tpch_bundle.acs,
    )
    assert sum(phys.rows_routed.values()) == scored.sum()


def test_format_physical(phys):
    s = format_physical(phys)
    assert "qdtree" in s and "total" in s and "ms" in s


def test_errlog_probe_is_summable(errlog_int_bundle):
    """Regression: the aggregate probe must skip DATE columns (Spark cannot
    sum a DateType; ErrorLog's first schema column is a date)."""
    from repro.core.schema import NUMERIC
    from repro.experiments.physical import _numeric_probe

    probe = _numeric_probe(errlog_int_bundle)
    assert errlog_int_bundle.schema[probe].kind == NUMERIC


def test_run_physical_on_errlog(spark, errlog_int_bundle, tmp_path_factory):
    from repro.core.cuts import extract_cuts
    from repro.core.greedy import greedy_qdtree

    b = errlog_int_bundle
    W = asts(b.queries)
    tree = greedy_qdtree(b.encoded, b.schema, extract_cuts(W), W, b.b)
    baseline = random_partition(len(b.raw), b.b, seed=0)
    workdir = str(tmp_path_factory.mktemp("phys_errlog"))
    res = run_physical(spark, b, tree, baseline, workdir, queries=b.queries[:3])
    assert set(res.totals) == {"qdtree", "qdtree-noroute", "baseline"}


def test_run_physical_raises_when_routing_is_bypassed(
    spark, tpch_bundle, tpch_tree, tmp_path_factory, monkeypatch
):
    """qd-tree mode checks each query's scan against query routing: a read
    that drops the BID filter scans every block, and the run raises."""
    from repro.experiments import physical
    from repro.spark_io.layout import read_routed

    def unrouted(spark, path, query, schema, tree=None):
        return read_routed(spark, path, query, schema, tree=None)

    monkeypatch.setattr(physical, "read_routed", unrouted)
    baseline = random_partition(len(tpch_bundle.raw), 2000, seed=0)
    workdir = str(tmp_path_factory.mktemp("phys_bypass"))
    with pytest.raises(RuntimeError, match="scanned .* blocks, routed"):
        run_physical(spark, tpch_bundle, tpch_tree, baseline, workdir,
                     queries=tpch_bundle.queries[:4])
