"""WOODBLOCK: legality of produced trees, featurisation, learning signal."""
import hashlib
import json

import numpy as np
import pytest

from repro.core.cost import evaluate_layout
from repro.core.cuts import extract_cuts
from repro.core.greedy import greedy_qdtree
from repro.core.intersect import Space
from repro.core.predicates import Or, Pred
from repro.core.schema import CATEGORICAL, DATE, NUMERIC, ColumnSpec, TableSchema
from repro.core.woodblock import Featurizer, WoodblockConfig, woodblock_qdtree
from repro.experiments.table2 import make_bundle
from repro.workloads import asts

from .reference import Description, Interval, blocks_of


@pytest.fixture(scope="module")
def fig3(request):
    tiny2d = request.getfixturevalue("tiny2d")
    pdf, sch, enc = tiny2d
    W = [Or([Pred("cpu", "<", 10.0), Pred("cpu", ">", 90.0)]), Pred("disk", "<", 0.01)]
    cuts = [Pred("cpu", "<", 10.0), Pred("cpu", ">", 90.0), Pred("disk", "<", 0.01)]
    return enc, sch, W, cuts


def test_featurizer_dim_and_values(tpch_bundle):
    """A multi-row Blocks featurises to the one-row states, stacked."""
    sch, ac_names = tpch_bundle.schema, tpch_bundle.ac_names
    f = Featurizer(sch, ac_names)
    cuts = extract_cuts(asts(tpch_bundle.queries))
    rng = np.random.default_rng(0)
    descs = [Description.root(sch, ac_names)]
    for _ in range(20):
        d = descs[rng.integers(len(descs))]
        descs.append(d.restrict(cuts[rng.integers(len(cuts))], bool(rng.integers(2))))
    rows = blocks_of(descs, Space.of(sch, ac_names))
    v = f(rows)
    assert v.shape == (len(descs), f.dim) and v.dtype == np.float64
    assert v.min() >= 0.0 and v.max() <= 1.0
    assert np.array_equal(v, np.vstack([f(rows[i:i + 1]) for i in range(len(rows))]))
    assert len(np.unique(v, axis=0)) > 1


def test_featurizer_order():
    """Per schema column in schema order, mask bits or the clipped, scaled
    lo and hi; then per AC its may-true and may-false bits."""
    sch = TableSchema({
        "k": ColumnSpec("k", CATEGORICAL, ("p", "q", "r")),
        "x": ColumnSpec("x", NUMERIC, (0.0, 10.0)),
        "m": ColumnSpec("m", CATEGORICAL, ("s", "t")),
        "d": ColumnSpec("d", DATE, (100, 200)),
    })
    desc = Description(
        {"x": Interval(2.5, 5.0), "d": Interval(50.0, 150.0)},
        {"k": np.array([True, False, True]), "m": np.array([False, True])},
        {"u": (True, False)},
    )
    f = Featurizer(sch, ("u",))
    v = f(blocks_of([desc], Space.of(sch, ("u",))))
    assert f.dim == 11
    assert v.tolist() == [[1, 0, 1, 0.25, 0.5, 0, 1, 0.0, 0.5, 1, 0]]


def test_trees_respect_sample_min_size(fig3):
    enc, sch, W, cuts = fig3
    res = woodblock_qdtree(enc, sch, cuts, W, b_sample=100,
                           config=WoodblockConfig(episodes=3, seed=1))
    sizes = np.bincount(res.tree.route(enc), minlength=res.tree.n_leaves)
    assert (sizes >= 100).all()


def test_builders_reject_nonpositive_min_block_size(fig3):
    """Greedy and WOODBLOCK share greedy.grow, which refuses b < 1: at
    b = 0 every cut, even one with an empty child, would be legal."""
    enc, sch, W, cuts = fig3
    for b in (0, -1):
        with pytest.raises(ValueError):
            greedy_qdtree(enc, sch, cuts, W, b)
        with pytest.raises(ValueError):
            woodblock_qdtree(enc, sch, cuts, W, b_sample=b,
                             config=WoodblockConfig(episodes=1))


def test_make_bundle_keeps_zero_block_size():
    """``b=0`` reaches the builders, which refuse it, rather than silently
    becoming the scale's default block size."""
    bd = make_bundle("errlog-int", scale=0.02, n_queries=5, b=0)
    assert bd.b == 0
    W = asts(bd.queries)
    with pytest.raises(ValueError):
        greedy_qdtree(bd.encoded, bd.schema, extract_cuts(W), W, bd.b)


def test_best_fraction_monotone_history(fig3):
    enc, sch, W, cuts = fig3
    res = woodblock_qdtree(enc, sch, cuts, W, b_sample=100,
                           config=WoodblockConfig(episodes=8, seed=2))
    best = [h[2] for h in res.history]
    assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(best, best[1:]))
    assert res.best_fraction == best[-1]


def test_beats_greedy_on_disjunctive_microbenchmark(fig3):
    """Paper Fig. 3: WOODBLOCK finds the 4-block layout (~10.4% scan),
    vs Greedy's forced 50.5%."""
    enc, sch, W, cuts = fig3
    res = woodblock_qdtree(enc, sch, cuts, W, b_sample=100,
                           config=WoodblockConfig(episodes=20, seed=0))
    m = evaluate_layout(enc, res.tree.route(enc), sch, W)
    assert m.access_fraction < 0.2  # >= 2.5x better than greedy's 0.505
    assert res.tree.n_leaves == 4


def test_deterministic_given_seed(fig3):
    enc, sch, W, cuts = fig3
    cfg = WoodblockConfig(episodes=4, seed=7)
    r1 = woodblock_qdtree(enc, sch, cuts, W, b_sample=100, config=cfg)
    r2 = woodblock_qdtree(enc, sch, cuts, W, b_sample=100, config=cfg)
    assert r1.best_fraction == r2.best_fraction
    assert (r1.tree.route(enc) == r2.tree.route(enc)).all()


def test_max_leaves_cap(fig3):
    enc, sch, W, cuts = fig3
    res = woodblock_qdtree(enc, sch, cuts, W, b_sample=10,
                           config=WoodblockConfig(episodes=2, seed=0, max_leaves=3))
    assert res.tree.n_leaves <= 3


def test_runs_on_tpch_with_acs(tpch_bundle):
    enc, sch = tpch_bundle.encoded, tpch_bundle.schema
    W = asts(tpch_bundle.queries)
    cuts = extract_cuts(W)
    sample = enc.sample(n=3000, random_state=0).reset_index(drop=True)
    res = woodblock_qdtree(
        sample, sch, cuts, W, b_sample=60, ac_names=tpch_bundle.ac_names,
        config=WoodblockConfig(episodes=4, seed=0),
    )
    assert res.tree.n_leaves >= 2
    m = evaluate_layout(enc, res.tree.route(enc), sch, W, acs=tpch_bundle.acs)
    assert m.access_fraction < 0.9  # clearly better than scan-everything


# history of test_runs_on_tpch_with_acs's run: pins the policy's RNG draw
# order and every episode's tree, through its sample access fraction
_PINNED_HISTORY = [
    (0, 0.7306777777777778, 0.7306777777777778),
    (1, 0.7078444444444445, 0.7078444444444445),
    (2, 0.6951444444444445, 0.6951444444444445),
    (3, 0.6853555555555556, 0.6853555555555556),
    (4, 0.7427444444444444, 0.6853555555555556),
]


def test_history_pinned(tpch_bundle):
    enc, sch = tpch_bundle.encoded, tpch_bundle.schema
    W = asts(tpch_bundle.queries)
    sample = enc.sample(n=3000, random_state=0).reset_index(drop=True)
    res = woodblock_qdtree(
        sample, sch, extract_cuts(W), W, b_sample=60, ac_names=tpch_bundle.ac_names,
        config=WoodblockConfig(episodes=4, seed=0),
    )
    assert res.history == _PINNED_HISTORY


# The same run with every episode capped at 20 leaves, which the cap binds
# at: its history, the deployed tree's leaf count and the SHA-1 of every
# query's BID list (JSON, workload order).
_PINNED_CAPPED = (
    [
        (0, 0.7944555555555556, 0.7944555555555556),
        (1, 0.6915666666666667, 0.6915666666666667),
        (2, 0.7775666666666666, 0.6915666666666667),
        (3, 0.7379, 0.6915666666666667),
        (4, 0.6925666666666667, 0.6915666666666667),
    ],
    20,
    "113508058f40d12e8982456c6d3e458ec560f8c4",
)


def test_capped_run_pinned(tpch_bundle):
    enc, sch = tpch_bundle.encoded, tpch_bundle.schema
    W = asts(tpch_bundle.queries)
    sample = enc.sample(n=3000, random_state=0).reset_index(drop=True)
    res = woodblock_qdtree(
        sample, sch, extract_cuts(W), W, b_sample=60, ac_names=tpch_bundle.ac_names,
        config=WoodblockConfig(episodes=4, seed=0, max_leaves=20),
    )
    routes = [res.tree.query_bids(q) for q in W]
    got = (res.history, res.tree.n_leaves,
           hashlib.sha1(json.dumps(routes).encode()).hexdigest())
    assert got == _PINNED_CAPPED


def test_leaf_n_rows_match_leaf_sizes(fig3):
    enc, sch, W, cuts = fig3
    res = woodblock_qdtree(enc, sch, cuts, W, b_sample=100,
                           config=WoodblockConfig(episodes=4, seed=3))
    sizes = np.bincount(res.tree.route(enc), minlength=res.tree.n_leaves)
    assert [lf.n_rows for lf in res.tree.leaves] == sizes.tolist()


def test_trailing_episodes_reach_ppo(fig3, monkeypatch):
    """Episodes past the last full PPO batch are still trained on."""
    from repro.rl.ppo import PPOTrainer

    enc, sch, W, cuts = fig3
    sizes = []
    update = PPOTrainer.update

    def counted(self, batch):
        sizes.append(len(batch.actions))
        return update(self, batch)

    monkeypatch.setattr(PPOTrainer, "update", counted)
    woodblock_qdtree(enc, sch, cuts, W, b_sample=100,
                     config=WoodblockConfig(episodes=5, seed=0))
    assert len(sizes) == 2
