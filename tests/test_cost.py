"""Cost model vs brute force, and metric arithmetic."""
import numpy as np
import pandas as pd
import pytest

from repro.core.cost import LayoutMetrics, evaluate_layout
from repro.core.predicates import AdvPred, And, Pred, eval_mask
from repro.core.schema import infer_schema

from .reference import block_description


@pytest.fixture(scope="module")
def setup():
    g = np.random.default_rng(11)
    n = 1200
    pdf = pd.DataFrame(
        {
            "x": g.integers(0, 100, n).astype(float),
            "y": g.integers(0, 100, n).astype(float),
            "c": g.choice(list("abcd"), n),
        }
    )
    sch = infer_schema(pdf, categorical=["c"])
    enc = sch.encode(pdf)
    W = [
        Pred("x", "<", 20.0),
        And([Pred("c", "=", 0), Pred("y", ">=", 80.0)]),
        Pred("c", "in", frozenset([1, 2])),
    ]
    return enc, sch, W


def brute_force_accessed(enc, bids, sch, W, acs=None):
    """Ground truth of Eq.(1): per block recompute stats, count accesses."""
    accessed = 0
    for b in np.unique(bids):
        rows = enc.iloc[np.flatnonzero(bids == b)]
        desc = block_description(rows, sch, acs or {})
        for q in W:
            if desc.may_intersect(q):
                accessed += len(rows)
    return accessed


def test_evaluate_layout_matches_brute_force(setup):
    enc, sch, W = setup
    g = np.random.default_rng(0)
    bids = g.integers(0, 6, len(enc))
    m = evaluate_layout(enc, bids, sch, W)
    assert m.tuples_accessed == brute_force_accessed(enc, bids, sch, W)


def test_skipping_never_loses_rows(setup):
    """Blocks the evaluator counts as skipped truly contain no matches."""
    enc, sch, W = setup
    g = np.random.default_rng(1)
    bids = g.integers(0, 8, len(enc))
    for q in W:
        matches = eval_mask(q, enc)
        for b in np.unique(bids):
            rows_idx = np.flatnonzero(bids == b)
            desc = block_description(enc.iloc[rows_idx], sch, {})
            if not desc.may_intersect(q):
                assert not matches[rows_idx].any()


def test_single_block_accesses_everything(setup):
    enc, sch, W = setup
    bids = np.zeros(len(enc), dtype=np.int64)
    m = evaluate_layout(enc, bids, sch, W)
    # every query matches at least one row here, so the one block is read
    assert m.tuples_accessed == len(enc) * len(W)
    assert m.access_fraction == 1.0


def test_perfect_partition_reaches_selectivity(setup):
    """Partition rows by exact query-membership signature: the accessed
    fraction collapses to (near) the true selectivity lower bound."""
    enc, sch, W = setup
    sig = np.zeros(len(enc), dtype=np.int64)
    for i, q in enumerate(W):
        sig |= eval_mask(q, enc).astype(np.int64) << i
    m = evaluate_layout(enc, sig, sch, W)
    assert m.tuples_accessed >= m.tuples_selected
    # signature blocks are homogeneous per query, but min-max stats can
    # still over-approximate; allow small slack
    assert m.access_fraction <= 3 * m.selectivity + 0.02


def test_metrics_arithmetic():
    m = LayoutMetrics(
        n_rows=100, n_queries=4, n_blocks=5, tuples_accessed=120, tuples_selected=30
    )
    assert m.access_fraction == 120 / 400
    assert m.skipped == 280
    assert m.selectivity == 30 / 400


def test_adv_cut_in_cost(setup):
    enc, sch, _ = setup
    ac = AdvPred("xy", "x", "<", "y")
    W = [ac]
    mask = eval_mask(ac, enc)
    bids = mask.astype(np.int64)  # block 1 satisfies AC, block 0 does not
    m = evaluate_layout(enc, bids, sch, W, acs={"xy": ac})
    assert m.tuples_accessed == int(mask.sum())  # block 0 skipped via AC bit
