"""Bottom-Up baseline [45]: subsumption, feature selection, merging."""
import hashlib

import numpy as np
import pandas as pd
import pytest

from repro.baselines.bottom_up import (
    BottomUpConfig,
    bottom_up_partition,
    select_features,
    subsumption,
)
from repro.baselines import bottom_up
from repro.core.cost import evaluate_layout
from repro.core.cuts import extract_cuts
from repro.core.predicates import AdvPred, And, Or, Pred
from repro.core.schema import infer_schema
from repro.experiments.table2 import run_table2
from repro.workloads import asts


# ---------------------------------------------------------- subsumption
@pytest.fixture(scope="module")
def sch_abc():
    """``a`` and ``b`` numeric, ``c`` categorical with codes 0..3."""
    pdf = pd.DataFrame({"a": [0.0, 20.0], "b": [0.0, 20.0], "c": ["p", "s"]})
    return infer_schema(pdf, categorical=["c"], domains={"c": ("p", "q", "r", "s")})


def _implies(sch, q, f) -> bool:
    """Does query ``q`` imply the cut ``f``, by Bottom-Up's query × cut
    matrix?"""
    return bool(subsumption(sch, [f], [q])[0][0, 0])


# The table the AST rule Bottom-Up used before the containment test. Its
# case ``c = 1`` vs ``c < 5`` is gone: a column is either categorical or
# numeric, so no schema holds both predicates.
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
        (AdvPred("x", "a", "<", "b"), Pred("a", "<", 5), False),
        (AdvPred("x", "a", "<", "b"), AdvPred("x", "a", "<", "b"), True),
        (AdvPred("x", "a", "<", "b"), AdvPred("y", "a", "<", "c"), False),
    ],
)
def test_pred_implies(sch_abc, p1, p2, expect):
    assert _implies(sch_abc, p1, p2) is expect
    # the cut × cut matrix: p1 implies p2
    assert subsumption(sch_abc, [p1, p2], [])[1][1, 0] == expect


def test_query_implies_and_or(sch_abc):
    f = Pred("a", "<", 10)
    q_and = And([Pred("a", "<", 5), Pred("b", ">", 2)])
    q_or_good = Or([Pred("a", "<", 5), Pred("a", "<", 8)])
    q_or_bad = Or([Pred("a", "<", 5), Pred("b", ">", 2)])
    assert _implies(sch_abc, q_and, f)
    assert _implies(sch_abc, q_or_good, f)
    assert not _implies(sch_abc, q_or_bad, f)


def test_query_implies_nested(sch_abc):
    f = Pred("a", "<", 10)
    q = Or([And([Pred("a", "<", 3), Pred("c", "=", 1)]), Pred("a", "<=", 9)])
    assert _implies(sch_abc, q, f)


# ----------------------------------------------------- feature selection
def _select(cuts, W, sel, cfg) -> list[int]:
    """``select_features`` over a numeric schema of the cuts' columns."""
    sch = infer_schema(pd.DataFrame({p.attr: [0.0, 100.0] for p in cuts}))
    return select_features(*subsumption(sch, cuts, W), sel, cfg)


def test_select_features_caps_count():
    # independent features on distinct columns: nothing is discounted away
    cuts = [Pred(f"col{i}", "<", 1.0) for i in range(40)]
    W = list(cuts)
    sel = np.full(len(cuts), 0.05)
    cfg = BottomUpConfig(max_features=5)
    chosen = _select(cuts, W, sel, cfg)
    assert len(chosen) == 5


def test_select_features_nested_chain_collapses():
    """A subsumption chain shares all queries: after the most general
    feature is taken, the rest are discounted to zero frequency."""
    cuts = [Pred("a", "<", float(i)) for i in range(1, 40)]
    W = list(cuts)
    sel = np.linspace(0.01, 0.4, len(cuts))
    chosen = _select(cuts, W, sel, BottomUpConfig(max_features=5))
    assert chosen == [38]  # a<39, the most general


def test_select_features_selectivity_cap():
    cuts = [Pred("a", "<", 1.0), Pred("a", "<", 99.0)]
    W = list(cuts)
    sel = np.array([0.01, 0.99])
    chosen = _select(cuts, W, sel, BottomUpConfig(selectivity_cap=0.10))
    assert chosen == [0]  # the 99% selective feature is dropped (BU+)


def test_select_features_prefers_frequent():
    f_hot = Pred("a", "<", 10.0)
    f_cold = Pred("b", "<", 10.0)
    W = [f_hot, f_hot, f_hot, f_cold]
    sel = np.array([0.5, 0.5])
    chosen = _select([f_hot, f_cold], W, sel, BottomUpConfig(max_features=1))
    assert chosen == [0]


def test_select_features_discounts_overlap():
    # f1 subsumes every query; f2/f3 subsume the same single query.
    f1, f2, f3 = Pred("a", "<", 20.0), Pred("b", "<", 10.0), Pred("b", "<", 12.0)
    W = [And([Pred("a", "<", 5.0), Pred("b", "<", 8.0)])] * 3
    sel = np.array([0.2, 0.1, 0.12])
    cfg = BottomUpConfig(max_features=3)
    chosen = _select([f1, f2, f3], W, sel, cfg)
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
    res = bottom_up_partition(enc, sch, cuts, W, b=200)
    sizes = np.bincount(res.bids)
    assert (sizes >= 200).all() or len(sizes) == 1
    assert sizes.sum() == len(enc)


def test_partition_improves_over_single_block(small):
    enc, sch, W = small
    cuts = extract_cuts(W)
    res = bottom_up_partition(enc, sch, cuts, W, b=200)
    m = evaluate_layout(enc, res.bids, sch, W)
    single = evaluate_layout(enc, np.zeros(len(enc), dtype=np.int64), sch, W)
    assert m.access_fraction < single.access_fraction


def test_no_features_single_block(small):
    enc, sch, W = small
    res = bottom_up_partition(enc, sch, [], W, b=100)
    assert res.n_blocks == 1
    assert (res.bids == 0).all()


def test_bids_contiguous(small):
    enc, sch, W = small
    res = bottom_up_partition(enc, sch, extract_cuts(W), W, b=150)
    u = np.unique(res.bids)
    assert (u == np.arange(len(u))).all()
    assert res.n_blocks == len(u)


def test_max_unique_cap(small):
    enc, sch, W = small
    cfg = BottomUpConfig(max_unique=3)
    res = bottom_up_partition(enc, sch, extract_cuts(W), W, b=150, cfg=cfg)
    sizes = np.bincount(res.bids)
    assert sizes.sum() == len(enc)
    assert (sizes >= 150).all() or len(sizes) == 1


def test_deterministic(small):
    enc, sch, W = small
    r1 = bottom_up_partition(enc, sch, extract_cuts(W), W, b=200)
    r2 = bottom_up_partition(enc, sch, extract_cuts(W), W, b=200)
    assert (r1.bids == r2.bids).all()


def test_tpch_bottom_up_between_random_and_greedy(tpch_bundle, tpch_tree):
    """Paper Table 2 ordering: random > Bottom-Up > qd-tree accesses."""
    from repro.baselines.simple import random_partition

    enc, sch = tpch_bundle.encoded, tpch_bundle.schema
    W = asts(tpch_bundle.queries)
    cuts = extract_cuts(W)
    bu = bottom_up_partition(enc, sch, cuts, W, b=150)
    m_bu = evaluate_layout(enc, bu.bids, sch, W, acs=tpch_bundle.acs)
    m_rand = evaluate_layout(enc, random_partition(len(enc), 150, 0), sch, W, acs=tpch_bundle.acs)
    m_tree = evaluate_layout(enc, tpch_tree.route(enc), sch, W, acs=tpch_bundle.acs)
    assert m_tree.access_fraction < m_bu.access_fraction < m_rand.access_fraction


# Per test bundle, for Bottom-Up and BU+ (selectivity cap 10 %): the chosen
# feature indices into the bundle's cuts, and the SHA-1 of the block ids.
_PINNED_FEATURES = {
    "tpch": (
        ([9, 0, 10, 79, 38, 39, 56, 58], "e18dfa99bf269f2e46baa049117fdd2df364d4eb"),
        ([16, 36, 37, 56, 58, 85, 87], "2e3e2fca58fd7773cf629c1a0c148cb10a4a36c9"),
    ),
    "errlog-int": (
        ([5], "41bbcf1c9d54e3586a067c91e18a1abf02c3145f"),
        ([7, 1, 17, 40, 45, 69, 79, 26, 33, 43, 71, 91],
         "68ee1d5ea051139989c2e395e7b061b1cbabc3ec"),
    ),
    "errlog-ext": (
        ([3], "a8a3677bbd60c531716a0df55b7d2d63d32b0255"),
        ([17, 41, 49, 0, 4, 9, 18, 22, 25, 28, 32, 35, 39, 46, 50],
         "c75507ab89f9f441b20bfa6ef55d26a12f203022"),
    ),
}


@pytest.mark.parametrize(
    "name, bundle",
    [("tpch", "tpch_bundle"), ("errlog-int", "errlog_int_bundle"),
     ("errlog-ext", "errlog_ext_bundle")],
)
def test_bottom_up_features_pinned(name, bundle, request, monkeypatch):
    """Records what feature selection returns inside ``run_table2``, so
    the pin holds whatever arguments the selection takes."""
    chosen = []
    select = bottom_up.select_features

    def spy(*args, **kwargs):
        chosen.append(select(*args, **kwargs))
        return chosen[-1]

    monkeypatch.setattr(bottom_up, "select_features", spy)
    rows = run_table2(request.getfixturevalue(bundle),
                      approaches=("bottom-up", "bottom-up+"))
    got = tuple(
        (list(map(int, feats)), hashlib.sha1(row.bids.tobytes()).hexdigest())
        for feats, row in zip(chosen, rows.values())
    )
    assert got == _PINNED_FEATURES[name]
