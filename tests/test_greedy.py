"""Greedy construction (Algorithm 1): constraints, gains, known behaviours."""
import numpy as np
import pandas as pd
import pytest

from repro.core import greedy, woodblock
from repro.core.cost import evaluate_layout
from repro.core.cuts import extract_cuts
from repro.core.greedy import CutMatrix, greedy_qdtree, legal_cuts
from repro.core.predicates import Or, Pred
from repro.core.woodblock import WoodblockConfig, woodblock_qdtree
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
    """Left-child counts on rows x = 0..n−1 of one cut ``x < v`` per ``v``."""
    enc = pd.DataFrame({"x": np.arange(n, dtype=float)})
    return CutMatrix.build([Pred("x", "<", float(v)) for v in vs], enc).left_counts(np.arange(n))


@pytest.mark.parametrize("n, want", [(19, False), (20, True)])
def test_legal_strict_boundary(n, want):
    counts = _x_below(n, n // 2)  # b=10: n=2b−1 cannot give both children b rows
    assert legal_cuts(counts, n, 10).tolist() == [want]
    if want:
        assert counts.tolist() == [10]


@pytest.mark.parametrize("n, want", [(10, False), (11, True)])
def test_legal_relaxed_boundary(n, want):
    counts = _x_below(n, 1)  # a singleton left child
    assert legal_cuts(counts, n, 10, relaxed=True).tolist() == [want]
    assert not legal_cuts(counts, n, 10).any()


def test_legal_relaxed_rejects_empty_child():
    counts = _x_below(30, 100, 1)
    assert counts.tolist() == [30, 1]
    assert legal_cuts(counts, 30, 10, relaxed=True).tolist() == [False, True]


def test_leaf_n_rows_match_leaf_sizes(tpch_bundle, tpch_tree):
    sizes = np.bincount(tpch_tree.route(tpch_bundle.encoded), minlength=tpch_tree.n_leaves)
    leaf = tpch_tree.cut < 0
    assert tpch_tree.n_rows[leaf].tolist() == sizes[tpch_tree.bid[leaf]].tolist()


@pytest.mark.parametrize("build", ["greedy", "relaxed", "woodblock"])
@pytest.mark.parametrize("bundle", ["tpch_bundle", "errlog_int_bundle", "errlog_ext_bundle"])
def test_level_counts_match_direct_gather(bundle, build, request, monkeypatch):
    """Every node ``grow`` hands a chooser carries the cut counts and the
    legality that one gather of its own rows gives, although ``grow``
    gathers only the smaller child of each split and subtracts. WOODBLOCK
    grows its episodes together, so one of its levels holds nodes of
    several trees."""
    bd = request.getfixturevalue(bundle)
    W = asts(bd.queries)
    grow, seen, trees = greedy.grow, [], []

    def recording_grow(cm, roots, wl, b, relaxed, choose):
        def check(lv):
            for n_rows, rows, counts, legal in zip(lv.n_rows, lv.idx, lv.counts, lv.legal):
                direct = cm.left_counts(rows)
                small = np.minimum(direct, len(rows) - direct)
                large = np.maximum(direct, len(rows) - direct)
                assert n_rows == len(rows)
                assert np.array_equal(counts, direct)
                assert np.array_equal(legal, (large >= b) & (small >= 1) if relaxed
                                      else small >= b)
            seen.append(len(lv.tree))
            trees.append(len(set(lv.tree.tolist())))
            return choose(lv)

        return grow(cm, roots, wl, b, relaxed, check)

    monkeypatch.setattr(greedy, "grow", recording_grow)
    monkeypatch.setattr(woodblock, "grow", recording_grow)
    args = (bd.encoded, bd.schema, extract_cuts(W), W, bd.b)
    if build == "woodblock":
        woodblock_qdtree(*args, ac_names=bd.ac_names, config=WoodblockConfig(episodes=2, seed=0))
    else:
        greedy_qdtree(*args, ac_names=bd.ac_names, relaxed=build == "relaxed")
    assert len(seen) > 3 and max(seen) > 1  # several levels, some of several nodes
    assert max(trees) == (2 if build == "woodblock" else 1)
