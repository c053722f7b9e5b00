"""Workload generators: determinism, schema consistency, selectivity shape."""
import numpy as np
import pandas as pd
import pytest

from repro.core.predicates import eval_mask
from repro.workloads import asts, errorlog, tpch


# ------------------------------------------------------------------ TPC-H
TPCH_TEMPLATES = ["q1", "q3", "q4", "q5", "q6", "q7", "q8", "q9", "q10",
                  "q12", "q14", "q17", "q18", "q19", "q21"]


def test_tpch_generator_deterministic():
    a = tpch.denormalized(sf=0.001, seed=3)
    b = tpch.denormalized(sf=0.001, seed=3)
    pd.testing.assert_frame_equal(a, b)
    c = tpch.denormalized(sf=0.001, seed=4)
    assert not a.equals(c)


def test_tpch_scales_with_sf():
    assert len(tpch.denormalized(sf=0.002)) == 2 * len(tpch.denormalized(sf=0.001))


def test_tpch_schema_covers_all_columns():
    raw = tpch.denormalized(sf=0.001)
    sch = tpch.schema()
    assert set(sch.columns) == set(raw.columns)
    enc = sch.encode(raw)  # no KeyError: every value in domain
    assert len(enc) == len(raw)


def test_tpch_region_is_function_of_supplier_nation():
    raw = tpch.denormalized(sf=0.002)
    regions = np.array(tpch.REGIONS)[raw.s_nationkey // 5]
    assert (raw.r_name.to_numpy() == regions).all()


def test_tpch_date_chain_correlations():
    raw = tpch.denormalized(sf=0.002)
    assert (raw.l_shipdate > raw.o_orderdate).all()
    assert (raw.l_receiptdate > raw.l_shipdate).all()
    # advanced cuts must be non-trivially selective (not 0%/100%)
    frac_ac1 = (raw.l_shipdate < raw.l_commitdate).mean()
    frac_ac2 = (raw.l_commitdate < raw.l_receiptdate).mean()
    assert 0.05 < frac_ac1 < 0.95
    assert 0.05 < frac_ac2 < 0.95
    assert 0.01 < (raw.c_nationkey == raw.s_nationkey).mean() < 0.1


def test_tpch_workload_counts():
    sch = tpch.schema()
    ql = tpch.workload(sch, n_seeds=10)
    assert len(ql) == 150  # the paper's 15 templates x 10 seeds
    assert {q.template for q in ql} == set(TPCH_TEMPLATES)


def test_tpch_workload_deterministic():
    sch = tpch.schema()
    assert asts(tpch.workload(sch, n_seeds=3)) == asts(tpch.workload(sch, n_seeds=3))


@pytest.mark.parametrize("template", TPCH_TEMPLATES)
def test_tpch_template_selectivity_band(tpch_bundle, template):
    """Every template selects something; scan-heavy templates (q1, q18)
    select nearly everything, the rest are selective (shape of Sec 7.2)."""
    enc = tpch_bundle.encoded
    qs = [q for q in tpch_bundle.queries if q.template == template]
    assert qs, template
    sel = np.mean([eval_mask(q.ast, enc).mean() for q in qs])
    if template in ("q1", "q18"):
        assert sel > 0.8
    else:
        assert 0.0 < sel < 0.45


def test_tpch_overall_selectivity_close_to_paper(tpch_bundle):
    """Paper reports 21.3% overall scan selectivity; ours lands nearby."""
    enc = tpch_bundle.encoded
    sel = np.mean([eval_mask(q.ast, enc).mean() for q in tpch_bundle.queries])
    assert 0.08 < sel < 0.35


# --------------------------------------------------------------- ErrorLog
def test_errlog_int_deterministic():
    a = errorlog.errorlog_int(n=2000, seed=0)
    b = errorlog.errorlog_int(n=2000, seed=0)
    pd.testing.assert_frame_equal(a, b)


def test_errlog_int_schema_roundtrip():
    raw = errorlog.errorlog_int(n=2000)
    sch = errorlog.int_schema()
    assert set(sch.columns) == set(raw.columns)
    enc = sch.encode(raw)
    assert len(enc) == len(raw)


def test_errlog_int_event_domain_is_8():
    assert errorlog.int_schema()["event_type"].cardinality == 8


def test_errlog_int_correlations():
    raw = errorlog.errorlog_int(n=20000)
    sch = errorlog.int_schema()
    enc = sch.encode(raw)
    # event/version correlation: conditional entropy far below marginal
    corr = np.corrcoef(enc.event_type, enc.os_version)[0, 1]
    assert corr > 0.5
    # build date is (nearly) a function of version
    corr2 = np.corrcoef(enc.os_version, enc.os_build_date)[0, 1]
    assert corr2 > 0.9


def test_errlog_int_workload_tiny_selectivity(errlog_int_bundle):
    enc = errlog_int_bundle.encoded
    sels = [eval_mask(q.ast, enc).mean() for q in errlog_int_bundle.queries]
    assert np.mean(sels) < 0.01  # paper: 0.0005% at full scale
    assert all(s < 0.05 for s in sels)


def test_errlog_int_queries_anchored_nonempty(errlog_int_bundle):
    enc = errlog_int_bundle.encoded
    hits = [eval_mask(q.ast, enc).sum() for q in errlog_int_bundle.queries]
    assert np.mean([h > 0 for h in hits]) > 0.7  # anchored ⇒ mostly non-empty


def test_errlog_ext_app_domain_is_3600():
    assert errorlog.ext_schema()["app_id"].cardinality == 3600


def test_errlog_ext_deterministic():
    a = errorlog.errorlog_ext(n=2000, seed=1)
    b = errorlog.errorlog_ext(n=2000, seed=1)
    pd.testing.assert_frame_equal(a, b)


def test_errlog_ext_schema_roundtrip():
    raw = errorlog.errorlog_ext(n=2000)
    sch = errorlog.ext_schema()
    assert set(sch.columns) == set(raw.columns)
    sch.encode(raw)


def test_errlog_ext_zipf_skew():
    raw = errorlog.errorlog_ext(n=50000)
    counts = raw.app_id.value_counts()
    assert counts.iloc[0] > 20 * counts.median()


def test_errlog_ext_ingest_decorrelated_from_event_date():
    """External telemetry arrives in delayed batches: range-on-ingest must
    not order event_date (the Table-2 baseline-at-100% property)."""
    raw = errorlog.errorlog_ext(n=20000)
    sch = errorlog.ext_schema()
    enc = sch.encode(raw)
    corr = abs(np.corrcoef(enc.ingest_date, enc.event_date)[0, 1])
    assert corr < 0.1


def test_errlog_ext_workload_selectivity(errlog_ext_bundle):
    enc = errlog_ext_bundle.encoded
    sels = [eval_mask(q.ast, enc).mean() for q in errlog_ext_bundle.queries]
    assert np.mean(sels) < 0.02  # paper: 0.0697% at full scale


def test_workload_sizes_configurable():
    raw = errorlog.errorlog_int(n=1000)
    sch = errorlog.int_schema()
    assert len(errorlog.int_workload(raw, sch, n_queries=7)) == 7
    raw2 = errorlog.errorlog_ext(n=1000)
    sch2 = errorlog.ext_schema()
    assert len(errorlog.ext_workload(raw2, sch2, n_queries=9)) == 9
