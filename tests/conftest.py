"""Shared tiny-scale fixtures for the test suite.

Everything here is deterministic and small (SF≈0.002, thousands of rows)
so the whole suite runs in minutes; the jobs' scales are in DESIGN.md §5.
Session scope: workload bundles and constructed trees are reused across
test modules.
"""
import numpy as np
import pandas as pd
import pytest

from repro.core.cuts import extract_cuts
from repro.core.greedy import greedy_qdtree
from repro.experiments.table2 import WorkloadBundle, make_bundle
from repro.workloads import asts


@pytest.fixture(scope="session")
def tpch_bundle() -> WorkloadBundle:
    """~12k-row denormalised TPC-H with 2 seeds/template (30 queries)."""
    return make_bundle("tpch", scale=0.02, n_seeds=2)


@pytest.fixture(scope="session")
def errlog_int_bundle() -> WorkloadBundle:
    return make_bundle("errlog-int", scale=0.02, n_queries=25)


@pytest.fixture(scope="session")
def errlog_ext_bundle() -> WorkloadBundle:
    return make_bundle("errlog-ext", scale=0.02, n_queries=25)


@pytest.fixture(scope="session")
def tpch_cuts(tpch_bundle):
    return extract_cuts(asts(tpch_bundle.queries))


@pytest.fixture(scope="session")
def tpch_tree(tpch_bundle, tpch_cuts):
    """A greedy qd-tree over the small TPC-H bundle (b=150)."""
    return greedy_qdtree(
        tpch_bundle.encoded,
        tpch_bundle.schema,
        tpch_cuts,
        asts(tpch_bundle.queries),
        b=150,
        ac_names=tpch_bundle.ac_names,
    )


@pytest.fixture(scope="session")
def tiny2d():
    """The paper's Figure-3 micro dataset: (cpu, disk) uniform."""
    from repro.core.schema import infer_schema

    g = np.random.default_rng(0)
    n = 20_000
    pdf = pd.DataFrame({"cpu": g.random(n) * 100, "disk": g.random(n)})
    sch = infer_schema(pdf, domains={"cpu": (0.0, 100.0), "disk": (0.0, 1.0)})
    return pdf, sch, sch.encode(pdf)
