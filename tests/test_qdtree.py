"""QdTree: routing partition/completeness, query routing, block stats."""
import pickle

import numpy as np
import pandas as pd
import pytest

from repro.core.greedy import greedy_qdtree
from repro.core.intersect import Blocks
from repro.core.predicates import AdvPred, And, Pred, eval_mask
from repro.core.qdtree import QdTree, TreeNode, block_stats
from repro.core.schema import infer_schema

from .reference import Interval, block_description, descriptions, split_node


@pytest.fixture(scope="module")
def manual_tree(tiny2d_module):
    pdf, sch, enc = tiny2d_module
    root = TreeNode(Blocks.root(sch))
    l, r = split_node(root, Pred("cpu", "<", 50.0))
    split_node(l, Pred("disk", "<", 0.5))
    return QdTree.build(root, sch), enc


@pytest.fixture(scope="module")
def tiny2d_module():
    import pandas as pd

    g = np.random.default_rng(0)
    n = 5000
    pdf = pd.DataFrame({"cpu": g.random(n) * 100, "disk": g.random(n)})
    sch = infer_schema(pdf, domains={"cpu": (0.0, 100.0), "disk": (0.0, 1.0)})
    return pdf, sch, sch.encode(pdf)


def test_build_numbers_leaves_left_to_right(manual_tree):
    tree, _ = manual_tree
    assert tree.n_leaves == 3
    assert [lf.bid for lf in tree.leaves] == [0, 1, 2]
    assert tree.depth == 3


def test_route_is_a_partition(manual_tree):
    tree, enc = manual_tree
    bids = tree.route(enc)
    assert len(bids) == len(enc)
    assert set(np.unique(bids)) <= set(range(tree.n_leaves))


def test_route_matches_semantics(manual_tree):
    tree, enc = manual_tree
    bids = tree.route(enc)
    cpu, disk = enc.cpu.to_numpy(), enc.disk.to_numpy()
    assert (bids[(cpu < 50) & (disk < 0.5)] == 0).all()
    assert (bids[(cpu < 50) & (disk >= 0.5)] == 1).all()
    assert (bids[cpu >= 50] == 2).all()


def test_completeness_every_row_satisfies_its_leaf(manual_tree):
    """The completeness property: a leaf holds ALL rows matching its
    description, i.e. each row's leaf description admits the row and no
    other leaf's does."""
    tree, enc = manual_tree
    bids = tree.route(enc)
    for lf in tree.leaves:
        in_leaf = bids == lf.bid
        # evaluate the leaf's range description as a data predicate; for a
        # pure range tree it must coincide exactly with leaf membership
        m = np.ones(len(enc), dtype=bool)
        for col, iv in descriptions(lf.desc)[0].ranges.items():
            v = enc[col].to_numpy()
            m &= (iv.lo <= v) & (v <= iv.hi)
        assert (m == in_leaf).all()


def test_query_bids_sound(manual_tree):
    """No false negatives: every block containing a matching row is listed."""
    tree, enc = manual_tree
    bids = tree.route(enc)
    for q in [
        Pred("cpu", "<", 10.0),
        Pred("disk", ">=", 0.9),
        And([Pred("cpu", ">=", 50.0), Pred("disk", "<", 0.2)]),
    ]:
        hit_blocks = set(np.unique(bids[eval_mask(q, enc)]))
        assert hit_blocks <= set(tree.query_bids(q))


def test_query_bids_rows_outside_domain():
    """A leaf whose range the schema domain clamps empty still holds rows
    and is routed by queries on other columns."""
    pdf = pd.DataFrame({"x": [10.0, 20.0, 200.0, 200.0], "y": [1.0, 50.0, 2.0, 60.0]})
    sch = infer_schema(pdf, domains={"x": (0.0, 100.0), "y": (0.0, 100.0)})
    enc = sch.encode(pdf)
    root = TreeNode(Blocks.root(sch))
    split_node(root, Pred("x", ">", 150.0))
    tree = QdTree.build(root, sch)
    assert tree.route(enc).tolist() == [1, 1, 0, 0]
    assert descriptions(tree.blocks)[0].ranges["x"].is_empty()
    assert tree.query_bids(Pred("y", "<", 10.0)) == [0, 1]
    # Still lost: the root range is clamped to the domain, so no leaf
    # admits x > 150 although bid 0 holds such rows.
    assert tree.query_bids(Pred("x", ">", 150.0)) == []


def test_query_bids_prunes(manual_tree):
    tree, _ = manual_tree
    assert set(tree.query_bids(Pred("cpu", ">=", 50.0))) == {2}
    assert set(tree.query_bids(And([Pred("cpu", "<", 50.0), Pred("disk", "<", 0.4)]))) == {0}


def test_leaf_sizes(manual_tree):
    tree, enc = manual_tree
    sizes = np.bincount(tree.route(enc), minlength=tree.n_leaves)
    assert sizes.sum() == len(enc)
    assert len(sizes) == 3


def test_layout_stats_within_leaf_regions(manual_tree):
    tree, enc = manual_tree
    bids = tree.route(enc)
    layout = block_stats(enc, bids, tree.schema, {}, tree.n_leaves)
    regions = descriptions(tree.blocks)
    for region, stats, size in zip(regions, descriptions(layout.blocks), layout.sizes):
        for col, iv in stats.ranges.items():
            assert iv.lo >= region.ranges[col].lo - 1e-9
            assert iv.hi <= region.ranges[col].hi + 1e-9
        assert size > 0
    # routing by the stats stays sound
    q = And([Pred("cpu", "<", 30.0), Pred("disk", ">", 0.8)])
    hit = set(np.unique(bids[eval_mask(q, enc)]))
    assert hit <= set(layout.query_bids(q))


def test_block_description_empty_block(tiny2d_module):
    import pandas as pd

    _, sch, enc = tiny2d_module
    d = block_description(enc.iloc[0:0], sch, {})
    assert d.is_empty()
    assert not d.may_intersect(Pred("cpu", "<", 100.0))


def test_block_stats_matches_block_description(tpch_bundle, tpch_tree):
    """The one-pass stats equal the per-block reference, empty blocks too."""
    enc, sch, acs = tpch_bundle.encoded, tpch_bundle.schema, tpch_bundle.acs
    assert acs
    bids = tpch_tree.route(enc)
    n_blocks = tpch_tree.n_leaves + 2  # the last two ids hold no rows
    layout = block_stats(enc, bids, sch, acs, n_blocks)
    descs, sizes = descriptions(layout.blocks), layout.sizes
    assert len(descs) == n_blocks
    assert (sizes == np.bincount(bids, minlength=n_blocks)).all()
    for b, desc in enumerate(descs):
        ref = block_description(enc.iloc[np.flatnonzero(bids == b)], sch, acs)
        assert desc.ranges == ref.ranges
        assert desc.acs == ref.acs
        assert desc.masks.keys() == ref.masks.keys()
        for col, m in ref.masks.items():
            assert np.array_equal(desc.masks[col], m), (b, col)
    assert descs[-1].is_empty() and sizes[-1] == 0


def test_layout_block_without_rows(manual_tree):
    """A block no row reaches gets the empty description."""
    tree, enc = manual_tree
    rows = enc[enc["cpu"] >= 50.0]  # misses leaves 0 and 1
    layout = block_stats(rows, tree.route(rows), tree.schema, {}, tree.n_leaves)
    assert layout.sizes.tolist() == [0, 0, len(rows)]
    for stats in descriptions(layout.blocks)[:2]:
        assert stats.ranges == {c: Interval(1.0, 0.0) for c in ("cpu", "disk")}
        assert stats.is_empty()
    for q in [Pred("cpu", "<", 100.0), Pred("disk", ">=", 0.0),
              And([Pred("cpu", ">", 60.0), Pred("disk", "<", 0.1)])]:
        assert layout.query_bids(q) == [2]


def test_block_stats_skips_nan():
    """A NULL (NaN) value leaves a block's min-max range to its other rows,
    so the block is still routed the queries those rows match."""
    pdf = pd.DataFrame({"x": [1.0, 2.0, np.nan]})
    sch = infer_schema(pdf, domains={"x": (0.0, 10.0)})
    enc = sch.encode(pdf)
    layout = block_stats(enc, np.zeros(3, dtype=np.int64), sch, {}, 1)
    assert (layout.blocks.lo.tolist(), layout.blocks.hi.tolist()) == ([[1.0]], [[2.0]])
    assert descriptions(layout.blocks)[0].ranges == block_description(enc, sch, {}).ranges
    assert layout.query_bids(Pred("x", "<", 5.0)) == [0]


def test_layout_ac_query_needs_ac_stats():
    """Stats built without an AC's predicate have no bit for it, so an AC
    query raises rather than being routed without its bit."""
    g = np.random.default_rng(5)
    pdf = pd.DataFrame({"u": g.random(2000), "v": g.random(2000)})
    sch = infer_schema(pdf, domains={"u": (0, 1), "v": (0, 1)})
    enc = sch.encode(pdf)
    ac = AdvPred("uv", "u", "<", "v")
    tree = greedy_qdtree(enc, sch, [ac], [ac], b=500, ac_names=("uv",))
    bids = tree.route(enc)
    with pytest.raises(KeyError, match="uv"):
        block_stats(enc, bids, sch, {}, tree.n_leaves).query_bids(ac)
    layout = block_stats(enc, bids, sch, {"uv": ac}, tree.n_leaves)
    assert set(np.unique(bids[eval_mask(ac, enc)])) <= set(layout.query_bids(ac))


def test_split_guard(manual_tree):
    tree, _ = manual_tree
    with pytest.raises(AssertionError):
        split_node(tree.root, Pred("cpu", "<", 10.0))


def test_pickle_roundtrip(manual_tree):
    tree, enc = manual_tree
    tree2 = pickle.loads(pickle.dumps(tree))
    assert (tree2.route(enc) == tree.route(enc)).all()
    assert tree2.n_leaves == tree.n_leaves


def test_route_deterministic(manual_tree):
    tree, enc = manual_tree
    assert (tree.route(enc) == tree.route(enc)).all()
