"""Greedy construction (Algorithm 1): constraints, gains, known behaviours."""
import numpy as np
import pandas as pd
import pytest

from repro.core.cost import evaluate_layout
from repro.core.greedy import CutMatrix, greedy_qdtree
from repro.core.predicates import Or, Pred
from repro.core.schema import infer_schema
from repro.baselines.simple import random_partition
from repro.workloads import asts


def test_min_block_size_respected(tpch_bundle, tpch_tree):
    sizes = np.bincount(tpch_tree.route(tpch_bundle.encoded), minlength=tpch_tree.n_leaves)
    assert (sizes >= 150).all()


def test_beats_random_baseline(tpch_bundle, tpch_tree):
    enc, sch, W = tpch_bundle.encoded, tpch_bundle.schema, asts(tpch_bundle.queries)
    acs = tpch_bundle.acs
    greedy_m = evaluate_layout(enc, tpch_tree.route(enc), sch, W, acs=acs)
    rand_m = evaluate_layout(enc, random_partition(len(enc), 150, 0), sch, W, acs=acs)
    assert greedy_m.access_fraction < rand_m.access_fraction * 0.7


def test_deterministic(tpch_bundle, tpch_cuts):
    enc, sch, W = tpch_bundle.encoded, tpch_bundle.schema, asts(tpch_bundle.queries)
    t1 = greedy_qdtree(enc, sch, tpch_cuts, W, 300, ac_names=tpch_bundle.ac_names)
    t2 = greedy_qdtree(enc, sch, tpch_cuts, W, 300, ac_names=tpch_bundle.ac_names)
    assert (t1.route(enc) == t2.route(enc)).all()


def test_no_cuts_yields_single_leaf(tpch_bundle):
    enc, sch = tpch_bundle.encoded, tpch_bundle.schema
    t = greedy_qdtree(enc, sch, [], [], 100)
    assert t.n_leaves == 1


def test_rejects_bad_b(tpch_bundle):
    with pytest.raises(ValueError):
        greedy_qdtree(tpch_bundle.encoded, tpch_bundle.schema, [], [], 0)


def test_larger_b_fewer_leaves(tpch_bundle, tpch_cuts):
    enc, sch, W = tpch_bundle.encoded, tpch_bundle.schema, asts(tpch_bundle.queries)
    small = greedy_qdtree(enc, sch, tpch_cuts, W, 150, ac_names=tpch_bundle.ac_names)
    large = greedy_qdtree(enc, sch, tpch_cuts, W, 1200, ac_names=tpch_bundle.ac_names)
    assert large.n_leaves < small.n_leaves
    assert (np.bincount(large.route(enc), minlength=large.n_leaves) >= 1200).all()


def test_greedy_stuck_on_disjunctive_queries(tiny2d):
    """Paper Fig. 3: with Q1 = (cpu<10 OR cpu>90), either cpu cut alone has
    zero gain, so Greedy can only take the disk cut -> 2 blocks, ~50.5%."""
    pdf, sch, enc = tiny2d
    W = [Or([Pred("cpu", "<", 10.0), Pred("cpu", ">", 90.0)]), Pred("disk", "<", 0.01)]
    cuts = [Pred("cpu", "<", 10.0), Pred("cpu", ">", 90.0), Pred("disk", "<", 0.01)]
    t = greedy_qdtree(enc, sch, cuts, W, b=100)
    assert t.n_leaves == 2
    m = evaluate_layout(enc, t.route(enc), sch, W)
    assert 0.45 < m.access_fraction < 0.56


def test_greedy_uses_conjunctive_structure(tiny2d):
    """With unary (non-disjunctive) queries the same cuts are exploited."""
    pdf, sch, enc = tiny2d
    W = [Pred("cpu", "<", 10.0), Pred("cpu", ">", 90.0), Pred("disk", "<", 0.01)]
    cuts = list(W)
    t = greedy_qdtree(enc, sch, cuts, W, b=100)
    assert t.n_leaves == 4
    m = evaluate_layout(enc, t.route(enc), sch, W)
    assert m.access_fraction < 0.15


def test_cut_matrix_counts(tiny2d):
    _, sch, enc = tiny2d
    cuts = [Pred("cpu", "<", 50.0), Pred("disk", "<", 0.25)]
    cm = CutMatrix.build(cuts, enc)
    idx = np.arange(len(enc))
    counts = cm.left_counts(idx)
    assert counts[0] == (enc.cpu < 50).sum()
    assert counts[1] == (enc.disk < 0.25).sum()
    sub = idx[:100]
    assert (cm.left_counts(sub) == [ (enc.cpu[:100] < 50).sum(), (enc.disk[:100] < 0.25).sum() ]).all()


def test_adv_cut_usable_by_greedy():
    """Greedy can pick an advanced (binary) cut when it is the only win."""
    from repro.core.predicates import AdvPred

    g = np.random.default_rng(5)
    n = 4000
    pdf = pd.DataFrame({"u": g.random(n), "v": g.random(n)})
    sch = infer_schema(pdf, domains={"u": (0, 1), "v": (0, 1)})
    enc = sch.encode(pdf)
    ac = AdvPred("uv", "u", "<", "v")
    W = [ac]
    t = greedy_qdtree(enc, sch, [ac], W, b=500, ac_names=("uv",))
    assert t.n_leaves == 2
    m = evaluate_layout(enc, t.route(enc), sch, W, acs={"uv": ac})
    assert m.access_fraction == pytest.approx((enc.u < enc.v).mean(), abs=0.01)


def test_all_leaf_descriptions_disjoint_routing(tpch_bundle, tpch_tree):
    """Each row lands in exactly one leaf (binary splits are exhaustive)."""
    bids = tpch_tree.route(tpch_bundle.encoded)
    assert bids.min() >= 0 and bids.max() < tpch_tree.n_leaves


def _x_below(n, *vs):
    """Rows x = 0..n−1 and one cut ``x < v`` per ``v``."""
    enc = pd.DataFrame({"x": np.arange(n, dtype=float)})
    return CutMatrix.build([Pred("x", "<", float(v)) for v in vs], enc), np.arange(n)


@pytest.mark.parametrize("n, want", [(19, False), (20, True)])
def test_legal_strict_boundary(n, want):
    cm, idx = _x_below(n, n // 2)  # b=10: n=2b−1 cannot give both children b rows
    legal, counts = cm.legal(idx, 10)
    assert legal.tolist() == [want]
    if want:
        assert counts.tolist() == [10]


@pytest.mark.parametrize("n, want", [(10, False), (11, True)])
def test_legal_relaxed_boundary(n, want):
    cm, idx = _x_below(n, 1)  # a singleton left child
    assert cm.legal(idx, 10, relaxed=True)[0].tolist() == [want]
    assert not cm.legal(idx, 10)[0].any()


def test_legal_relaxed_rejects_empty_child():
    cm, idx = _x_below(30, 100, 1)
    legal, counts = cm.legal(idx, 10, relaxed=True)
    assert counts.tolist() == [30, 1]
    assert legal.tolist() == [False, True]


def test_leaf_n_rows_match_leaf_sizes(tpch_bundle, tpch_tree):
    sizes = np.bincount(tpch_tree.route(tpch_bundle.encoded), minlength=tpch_tree.n_leaves)
    assert [lf.n_rows for lf in tpch_tree.leaves] == sizes.tolist()
