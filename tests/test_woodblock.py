"""WOODBLOCK: legality of produced trees, featurisation, learning signal."""
import numpy as np
import pytest

from repro.core.cost import evaluate_layout
from repro.core.cuts import extract_cuts
from repro.core.description import Description
from repro.core.greedy import greedy_qdtree
from repro.core.predicates import Or, Pred
from repro.core.woodblock import Featurizer, WoodblockConfig, woodblock_qdtree
from repro.workloads import asts


@pytest.fixture(scope="module")
def fig3(request):
    tiny2d = request.getfixturevalue("tiny2d")
    pdf, sch, enc = tiny2d
    W = [Or([Pred("cpu", "<", 10.0), Pred("cpu", ">", 90.0)]), Pred("disk", "<", 0.01)]
    cuts = [Pred("cpu", "<", 10.0), Pred("cpu", ">", 90.0), Pred("disk", "<", 0.01)]
    return enc, sch, W, cuts


def test_featurizer_dim_and_values(tpch_bundle):
    sch = tpch_bundle.schema
    f = Featurizer(sch, tpch_bundle.ac_names)
    root = Description.root(sch, tpch_bundle.ac_names)
    v = f(root)
    assert v.shape == (f.dim,)
    assert np.isfinite(v).all()
    assert v.min() >= 0.0 and v.max() <= 1.0
    # root: full ranges -> lo=0, hi=1 per numeric col; all mask bits on
    child = root.restrict(Pred("l_quantity", "<", 25.0), True)
    v2 = f(child)
    assert (v2 != v).any()


def test_trees_respect_sample_min_size(fig3):
    enc, sch, W, cuts = fig3
    res = woodblock_qdtree(enc, sch, cuts, W, b_sample=100,
                           config=WoodblockConfig(episodes=3, seed=1))
    sizes = res.tree.leaf_sizes(enc)
    assert (sizes >= 100).all()


def test_builders_reject_nonpositive_min_block_size(fig3):
    """Greedy and WOODBLOCK share CutMatrix.legal, which refuses b < 1: at
    b = 0 every cut, even one with an empty child, would be legal."""
    enc, sch, W, cuts = fig3
    for b in (0, -1):
        with pytest.raises(ValueError):
            greedy_qdtree(enc, sch, cuts, W, b)
        with pytest.raises(ValueError):
            woodblock_qdtree(enc, sch, cuts, W, b_sample=b,
                             config=WoodblockConfig(episodes=1))


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


def test_leaf_n_rows_match_leaf_sizes(fig3):
    enc, sch, W, cuts = fig3
    res = woodblock_qdtree(enc, sch, cuts, W, b_sample=100,
                           config=WoodblockConfig(episodes=4, seed=3))
    sizes = res.tree.leaf_sizes(enc)
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
