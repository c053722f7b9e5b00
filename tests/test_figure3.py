"""Paper Figure 3 microbenchmark, reproduced end to end.

Dataset: cpu ~ U[0,100), disk ~ U[0,1). Q1 = (cpu<10 OR cpu>90),
Q2 = (disk<0.01); candidate cuts {cpu<10, cpu>90, disk<0.01}.
Paper numbers: Greedy scan ratio 50.5%, WOODBLOCK 10.4% (4.8×)."""
import numpy as np
import pytest

from repro.core.cost import evaluate_layout
from repro.core.greedy import greedy_qdtree
from repro.core.predicates import Or, Pred
from repro.core.woodblock import WoodblockConfig, woodblock_qdtree

Q1 = Or([Pred("cpu", "<", 10.0), Pred("cpu", ">", 90.0)])
Q2 = Pred("disk", "<", 0.01)
CUTS = [Pred("cpu", "<", 10.0), Pred("cpu", ">", 90.0), Pred("disk", "<", 0.01)]


@pytest.fixture(scope="module")
def results(request):
    pdf, sch, enc = request.getfixturevalue("tiny2d")
    W = [Q1, Q2]
    g = greedy_qdtree(enc, sch, CUTS, W, b=100)
    gm = evaluate_layout(enc, g.route(enc), sch, W)
    wb = woodblock_qdtree(enc, sch, CUTS, W, b_sample=100,
                          config=WoodblockConfig(episodes=20, seed=0))
    wm = evaluate_layout(enc, wb.tree.route(enc), sch, W)
    return g, gm, wb, wm


def test_greedy_scan_ratio_matches_paper(results):
    _, gm, _, _ = results
    assert gm.access_fraction == pytest.approx(0.505, abs=0.03)


def test_woodblock_scan_ratio_matches_paper(results):
    _, _, _, wm = results
    assert wm.access_fraction == pytest.approx(0.104, abs=0.03)


def test_improvement_factor_matches_paper(results):
    _, gm, _, wm = results
    factor = gm.access_fraction / wm.access_fraction
    assert factor > 3.5  # paper: 4.8x


def test_woodblock_finds_the_four_block_layout(results, tiny2d):
    _, _, wb, _ = results
    _, _, enc = tiny2d
    assert wb.tree.n_leaves == 4
    # the majority block (middle cpu, disk>=0.01) is skipped by BOTH queries
    sizes = np.bincount(wb.tree.route(enc), minlength=wb.tree.n_leaves)
    big = int(np.argmax(sizes))
    assert sizes[big] > 0.7 * len(enc)
    assert big not in wb.tree.query_bids(Q1)
    assert big not in wb.tree.query_bids(Q2)
