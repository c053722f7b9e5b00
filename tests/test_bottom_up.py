"""Bottom-Up baseline [45]: subsumption, feature selection, merging."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines.bottom_up import (
    BottomUpConfig,
    bottom_up_partition,
    pred_implies,
    query_implies,
    select_features,
)
from repro.core.cost import evaluate_layout
from repro.core.cuts import extract_cuts
from repro.core.predicates import AdvPred, And, Or, Pred
from repro.core.schema import infer_schema
from repro.workloads import asts


# --------------------------------------------------------- pred_implies
@pytest.mark.parametrize(
    "p1,p2,expect",
    [
        (Pred("a", "<", 5), Pred("a", "<", 10), True),
        (Pred("a", "<", 10), Pred("a", "<", 5), False),
        (Pred("a", "<", 5), Pred("a", "<", 5), True),
        (Pred("a", "<", 5), Pred("a", "<=", 5), True),
        (Pred("a", "<=", 5), Pred("a", "<", 5), False),
        (Pred("a", "<=", 4), Pred("a", "<", 5), True),
        (Pred("a", ">", 5), Pred("a", ">", 3), True),
        (Pred("a", ">", 3), Pred("a", ">", 5), False),
        (Pred("a", ">=", 5), Pred("a", ">", 5), False),
        (Pred("a", ">", 5), Pred("a", ">=", 5), True),
        (Pred("a", "<", 5), Pred("a", ">", 1), False),  # mixed direction
        (Pred("a", "<", 5), Pred("b", "<", 10), False),  # different columns
        (Pred("c", "=", 1), Pred("c", "in", frozenset([1, 2])), True),
        (Pred("c", "in", frozenset([1, 2])), Pred("c", "=", 1), False),
        (Pred("c", "in", frozenset([1])), Pred("c", "=", 1), True),
        (Pred("c", "in", frozenset([1, 2])), Pred("c", "in", frozenset([1, 2, 3])), True),
        (Pred("c", "=", 1), Pred("a", "<", 5), False),
        (Pred("c", "=", 1), Pred("c", "<", 5), False),  # eq vs range: opaque
        (AdvPred("x", "a", "<", "b"), AdvPred("x", "a", "<", "b"), True),
        (AdvPred("x", "a", "<", "b"), AdvPred("y", "a", "<", "c"), False),
        (AdvPred("x", "a", "<", "b"), Pred("a", "<", 5), False),
    ],
)
def test_pred_implies(p1, p2, expect):
    assert pred_implies(p1, p2) is expect


def test_query_implies_and_or():
    f = Pred("a", "<", 10)
    q_and = And([Pred("a", "<", 5), Pred("b", ">", 2)])
    q_or_good = Or([Pred("a", "<", 5), Pred("a", "<", 8)])
    q_or_bad = Or([Pred("a", "<", 5), Pred("b", ">", 2)])
    assert query_implies(q_and, f)
    assert query_implies(q_or_good, f)
    assert not query_implies(q_or_bad, f)


def test_query_implies_nested():
    f = Pred("a", "<", 10)
    q = Or([And([Pred("a", "<", 3), Pred("c", "=", 1)]), Pred("a", "<=", 9)])
    assert query_implies(q, f)


# ----------------------------------------------------- feature selection
def test_select_features_caps_count():
    # independent features on distinct columns: nothing is discounted away
    cuts = [Pred(f"col{i}", "<", 1.0) for i in range(40)]
    W = list(cuts)
    sel = np.full(len(cuts), 0.05)
    cfg = BottomUpConfig(max_features=5)
    chosen = select_features(cuts, W, sel, cfg)
    assert len(chosen) == 5


def test_select_features_nested_chain_collapses():
    """A subsumption chain shares all queries: after the most general
    feature is taken, the rest are discounted to zero frequency."""
    cuts = [Pred("a", "<", float(i)) for i in range(1, 40)]
    W = list(cuts)
    sel = np.linspace(0.01, 0.4, len(cuts))
    chosen = select_features(cuts, W, sel, BottomUpConfig(max_features=5))
    assert chosen == [38]  # a<39, the most general


def test_select_features_selectivity_cap():
    cuts = [Pred("a", "<", 1.0), Pred("a", "<", 99.0)]
    W = list(cuts)
    sel = np.array([0.01, 0.99])
    chosen = select_features(cuts, W, sel, BottomUpConfig(selectivity_cap=0.10))
    assert chosen == [0]  # the 99% selective feature is dropped (BU+)


def test_select_features_prefers_frequent():
    f_hot = Pred("a", "<", 10.0)
    f_cold = Pred("b", "<", 10.0)
    W = [f_hot, f_hot, f_hot, f_cold]
    sel = np.array([0.5, 0.5])
    chosen = select_features([f_hot, f_cold], W, sel, BottomUpConfig(max_features=1))
    assert chosen == [0]


def test_select_features_discounts_overlap():
    # f1 subsumes every query; f2/f3 subsume the same single query.
    f1, f2, f3 = Pred("a", "<", 20.0), Pred("b", "<", 10.0), Pred("b", "<", 12.0)
    W = [And([Pred("a", "<", 5.0), Pred("b", "<", 8.0)])] * 3
    sel = np.array([0.2, 0.1, 0.12])
    cfg = BottomUpConfig(max_features=3)
    chosen = select_features([f1, f2, f3], W, sel, cfg)
    # after choosing one of f2/f3, the other's frequency is discounted to 0
    assert len(chosen) < 3


# --------------------------------------------------------------- merging
@pytest.fixture(scope="module")
def small():
    g = np.random.default_rng(4)
    n = 3000
    pdf = pd.DataFrame(
        {
            "x": g.integers(0, 100, n).astype(float),
            "c": g.choice(list("abc"), n),
        }
    )
    sch = infer_schema(pdf, categorical=["c"])
    enc = sch.encode(pdf)
    W = [
        Pred("x", "<", 25.0),
        Pred("x", ">=", 75.0),
        Pred("c", "=", 0),
        And([Pred("x", "<", 50.0), Pred("c", "=", 1)]),
    ]
    return enc, sch, W


def test_partition_blocks_at_least_b(small):
    enc, sch, W = small
    cuts = extract_cuts(W)
    res = bottom_up_partition(enc, cuts, W, b=200)
    sizes = np.bincount(res.bids)
    assert (sizes >= 200).all() or len(sizes) == 1
    assert sizes.sum() == len(enc)


def test_partition_improves_over_single_block(small):
    enc, sch, W = small
    cuts = extract_cuts(W)
    res = bottom_up_partition(enc, cuts, W, b=200)
    m = evaluate_layout(enc, res.bids, sch, W)
    single = evaluate_layout(enc, np.zeros(len(enc), dtype=np.int64), sch, W)
    assert m.access_fraction < single.access_fraction


def test_no_features_single_block(small):
    enc, sch, W = small
    res = bottom_up_partition(enc, [], W, b=100)
    assert res.n_blocks == 1
    assert (res.bids == 0).all()


def test_bids_contiguous(small):
    enc, sch, W = small
    res = bottom_up_partition(enc, extract_cuts(W), W, b=150)
    u = np.unique(res.bids)
    assert (u == np.arange(len(u))).all()
    assert res.n_blocks == len(u)


def test_max_unique_cap(small):
    enc, sch, W = small
    cfg = BottomUpConfig(max_unique=3)
    res = bottom_up_partition(enc, extract_cuts(W), W, b=150, cfg=cfg)
    sizes = np.bincount(res.bids)
    assert sizes.sum() == len(enc)
    assert (sizes >= 150).all() or len(sizes) == 1


def test_deterministic(small):
    enc, sch, W = small
    r1 = bottom_up_partition(enc, extract_cuts(W), W, b=200)
    r2 = bottom_up_partition(enc, extract_cuts(W), W, b=200)
    assert (r1.bids == r2.bids).all()


def test_tpch_bottom_up_between_random_and_greedy(tpch_bundle, tpch_tree):
    """Paper Table 2 ordering: random > Bottom-Up > qd-tree accesses."""
    from repro.baselines.simple import random_partition

    enc, sch = tpch_bundle.encoded, tpch_bundle.schema
    W = asts(tpch_bundle.queries)
    cuts = extract_cuts(W)
    bu = bottom_up_partition(enc, cuts, W, b=150)
    m_bu = evaluate_layout(enc, bu.bids, sch, W, acs=tpch_bundle.acs)
    m_rand = evaluate_layout(enc, random_partition(len(enc), 150, 0), sch, W, acs=tpch_bundle.acs)
    m_tree = evaluate_layout(enc, tpch_tree.route(enc), sch, W, acs=tpch_bundle.acs)
    assert m_tree.access_fraction < m_bu.access_fraction < m_rand.access_fraction
