"""The compiled intersection kernel against ``Description.may_intersect``.

``may_intersect`` walks one query's AND/OR tree for one description; it is
the reference. The kernel must give the same answer for every pair, atom
by atom, including where a per-column box would be tighter.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import per_query_accessed
from repro.core.cuts import extract_cuts
from repro.core.greedy import greedy_qdtree
from repro.core.intersect import Space, compile_workload
from repro.core.predicates import AdvPred, And, Or, Pred
from repro.core.qdtree import block_stats
from repro.core.schema import CATEGORICAL, NUMERIC, ColumnSpec, TableSchema
from repro.core.woodblock import WoodblockConfig, woodblock_qdtree
from repro.workloads import asts

from .reference import Description, Interval, blocks_of, descriptions, split_row


def _walk(descs, W) -> np.ndarray:
    return np.array([[d.may_intersect(q) for q in W] for d in descs],
                    dtype=bool).reshape(len(descs), len(W))


# ------------------------------------------- every pair of the test bundles
@pytest.fixture(scope="module", params=["tpch_bundle", "errlog_int_bundle", "errlog_ext_bundle"])
def bundle_trees(request):
    bd = request.getfixturevalue(request.param)
    W = asts(bd.queries)
    cuts = extract_cuts(W)
    greedy = greedy_qdtree(bd.encoded, bd.schema, cuts, W, bd.b, ac_names=bd.ac_names)
    wood = woodblock_qdtree(bd.encoded, bd.schema, cuts, W, bd.b, ac_names=bd.ac_names,
                            config=WoodblockConfig(episodes=2, seed=0)).tree
    return bd, W, {"greedy": greedy, "woodblock": wood}


def test_tree_routing_matches_walk(bundle_trees):
    _, W, trees = bundle_trees
    for name, tree in trees.items():
        want = _walk(descriptions(tree.blocks), W)
        assert np.array_equal(tree.blocks.intersects(W), want), name
        assert [tree.query_bids(q) for q in W] == [np.flatnonzero(c).tolist() for c in want.T]


def test_layout_routing_matches_walk(bundle_trees):
    """Block stats, with blocks that hold no rows in the middle and at the end."""
    bd, W, trees = bundle_trees
    enc = bd.encoded
    for name, tree in trees.items():
        bids = tree.route(enc)
        keep = ~np.isin(bids, [0, tree.n_leaves // 2])
        n_blocks = tree.n_leaves + 2
        layout = block_stats(enc[keep], bids[keep], bd.schema, bd.acs, n_blocks)
        assert (layout.sizes[[0, tree.n_leaves // 2, -2, -1]] == 0).all()
        want = _walk(descriptions(layout.blocks), W)
        assert np.array_equal(layout.blocks.intersects(W), want), name
        assert [layout.query_bids(q) for q in W] == [np.flatnonzero(c).tolist() for c in want.T]
        assert [layout.accessed(q) for q in W] == (layout.sizes @ want).tolist()
        full = block_stats(enc, bids, bd.schema, bd.acs, tree.n_leaves)
        assert (per_query_accessed(enc, bids, bd.schema, W, bd.acs).tolist()
                == (full.sizes @ _walk(descriptions(full.blocks), W)).tolist())


def _leaf_paths(node, path=()):
    """(leaf, [(cut, side), ...] from the root) for every leaf below ``node``."""
    if node.is_leaf:
        return [(node, path)]
    return (_leaf_paths(node.left, path + ((node.cut, True),))
            + _leaf_paths(node.right, path + ((node.cut, False),)))


def test_leaf_rows_match_restrict_walk(bundle_trees):
    """Each leaf's row in ``tree.blocks`` is the root description restricted
    by every cut side on its root-to-leaf path."""
    bd, _, trees = bundle_trees
    root = Description.root(bd.schema, bd.ac_names)
    for name, tree in trees.items():
        rows = descriptions(tree.blocks)
        for leaf, path in _leaf_paths(tree.root):
            want = root
            for cut, side in path:
                want = want.restrict(cut, side)
            got = rows[leaf.bid]
            assert got.ranges == want.ranges and got.acs == want.acs, (name, leaf.bid)
            assert got.masks.keys() == want.masks.keys()
            for col, m in want.masks.items():
                assert np.array_equal(got.masks[col], m), (name, leaf.bid, col)


# --------------------------------------------------- semantic traps, by hand
SCHEMA = TableSchema({
    "a": ColumnSpec("a", NUMERIC, (0.0, 10.0)),
    "b": ColumnSpec("b", NUMERIC, (0.0, 10.0)),
    "c": ColumnSpec("c", CATEGORICAL, (0, 1, 2, 3)),
})
ABC_SPACE = Space.of(SCHEMA, ("u",))
SPACE = dict(
    ranges={"a": Interval(0.0, 10.0), "b": Interval(0.0, 10.0)},
    masks={"c": np.array([True, True, True, False])},
    acs={"u": (True, True)},
)
UP, DOWN = math.nextafter(5.0, math.inf), math.nextafter(5.0, -math.inf)


def _desc(**fields) -> Description:
    d = Description(**{k: dict(v) for k, v in SPACE.items()})
    for k, v in fields.items():
        if k in d.ranges:
            d.ranges[k] = v
        elif k in d.masks:
            d.masks[k] = np.array(v)
        else:
            d.acs[k] = v
    return d


TRAPS = [
    # disjoint IN conjunction on one column: each atom tests the mask alone
    (_desc(), And([Pred("c", "in", {0}), Pred("c", "in", {1, 2})]), True),
    (_desc(), And([Pred("c", "=", 0), Pred("c", "=", 3)]), False),
    # self-contradictory ranges: each atom tests the interval alone
    (_desc(), And([Pred("a", "<", 1.0), Pred("a", ">", 5.0)]), True),
    (_desc(), And([Pred("a", "<", 1.0), Pred("a", ">", 10.0)]), False),
    # an empty interval prunes only queries on its own column
    (_desc(a=Interval(1.0, 0.0)), Pred("b", "<", 5.0), True),
    (_desc(a=Interval(1.0, 0.0)), Pred("a", "<", 5.0), False),
    (_desc(a=Interval(1.0, 0.0)), Or([Pred("a", "<", 5.0), Pred("b", ">", 9.0)]), True),
    (_desc(c=[False] * 4), Pred("a", ">=", 0.0), True),
    # negated AC atoms read the may-false bit
    (_desc(u=(True, False)), AdvPred("u", "x", "<", "y", negated=True), False),
    (_desc(u=(True, False)), AdvPred("u", "x", "<", "y"), True),
    (_desc(u=(False, True)), And([Pred("a", "<", 5.0),
                                 AdvPred("u", "x", "<", "y", negated=True)]), True),
    # boundary literals at nextafter
    (_desc(a=Interval(0.0, 5.0)), Pred("a", ">", 5.0), False),
    (_desc(a=Interval(0.0, 5.0)), Pred("a", ">=", 5.0), True),
    (_desc(a=Interval(0.0, 5.0)), Pred("a", ">", DOWN), True),
    (_desc(a=Interval(UP, 10.0)), Pred("a", "<=", 5.0), False),
    (_desc(a=Interval(UP, 10.0)), Pred("a", "<", UP), False),
    (_desc(a=Interval(UP, 10.0)), Pred("a", "<=", UP), True),
    # empty AND holds, empty OR does not
    (_desc(), And([]), True),
    (_desc(), Or([]), False),
    (_desc(), And([Pred("a", "<", 5.0), Or([])]), False),
]


@pytest.mark.parametrize("desc, q, want", TRAPS)
def test_semantic_traps(desc, q, want):
    assert desc.may_intersect(q) is want
    assert blocks_of([desc], ABC_SPACE).intersects([q]).tolist() == [[want]]


# ----------------------------------------------- random descriptions, queries
_POINTS = [0.0, 1.0, 5.0, 10.0]
VALUES = st.sampled_from(
    sorted({f(v) for v in _POINTS
            for f in (lambda v: v, lambda v: math.nextafter(v, math.inf),
                      lambda v: math.nextafter(v, -math.inf))} | {-math.inf, math.inf})
)
INTERVALS = st.builds(Interval, VALUES, VALUES)  # lo > hi: an empty interval
MASKS = st.lists(st.booleans(), min_size=4, max_size=4).map(np.array)
DESCS = st.builds(
    lambda a, b, c, u: Description({"a": a, "b": b}, {"c": c}, {"u": u}),
    INTERVALS, INTERVALS, MASKS, st.tuples(st.booleans(), st.booleans()),
)
ATOMS = st.one_of(
    st.builds(Pred, st.sampled_from(["a", "b"]), st.sampled_from(["<", "<=", ">", ">="]),
              VALUES),
    st.builds(Pred, st.just("c"), st.just("="), st.integers(0, 3)),
    st.builds(Pred, st.just("c"), st.just("in"), st.frozensets(st.integers(0, 3))),
    st.builds(AdvPred, st.just("u"), st.just("x"), st.just("<"), st.just("y"),
              st.booleans()),
)
QUERIES = st.recursive(
    ATOMS,
    lambda kids: st.one_of(st.lists(kids, max_size=3).map(And),
                           st.lists(kids, max_size=3).map(Or)),
    max_leaves=8,
)


@given(st.lists(DESCS, min_size=1, max_size=6), st.lists(QUERIES, min_size=1, max_size=5))
@settings(max_examples=300, deadline=None)
def test_kernel_matches_walk(descs, W):
    blocks = blocks_of(descs, ABC_SPACE)
    want = _walk(descs, W)
    assert np.array_equal(blocks.intersects(W), want)
    for q, col in zip(W, want.T):
        assert blocks.query_bids(q) == np.flatnonzero(col).tolist()


# ---------------------------------------------- Greedy's batched split counts
def split_active(ld, rd, active, workload):
    """The walk-based split the kernel replaced: the active queries of each
    child of a cut, re-checked against its restricted description."""
    return ([qi for qi in active if ld.may_intersect(workload[qi])],
            [qi for qi in active if rd.may_intersect(workload[qi])])


def test_split_counts_match_restrict_walk(tpch_bundle):
    bd = tpch_bundle
    W = asts(bd.queries)
    acs = [c for c in extract_cuts(W) if isinstance(c, AdvPred)]
    cuts = extract_cuts(W) + [acs[0].negate()]  # a negated AC cut too
    root = Description.root(bd.schema, bd.ac_names)
    space = Space.of(bd.schema, bd.ac_names)
    wl = compile_workload(W, space, cuts)
    rng = np.random.default_rng(0)
    cis = np.arange(len(cuts))
    for _ in range(12):
        desc = root
        for ci in rng.choice(len(cuts), size=rng.integers(0, 7)):
            desc = desc.restrict(cuts[ci], bool(rng.integers(2)))
        row = blocks_of([desc], space)
        active = [qi for qi, q in enumerate(W) if desc.may_intersect(q)]
        boxes = np.flatnonzero(wl.box_truth(row)[0])
        assert wl.n_active(wl.box_truth(row, boxes), boxes)[0] == len(active)
        a_l, a_r = wl.split_counts(row[np.zeros(len(cis), dtype=np.int64)], boxes, cis)
        for ci, cut in enumerate(cuts):
            ld, rd = desc.restrict(cut, True), desc.restrict(cut, False)
            ref_l, ref_r = split_active(ld, rd, active, W)
            assert (a_l[ci], a_r[ci]) == (len(ref_l), len(ref_r)), cut
            if ci % 10 == 0:
                kids = split_row(row, cut)
                for got, want in zip(descriptions(kids), (ld, rd)):
                    assert got.ranges == want.ranges and got.acs == want.acs, cut
                assert np.array_equal(kids.masks, blocks_of([ld, rd], space).masks)
                # grow tests the children against the node's active boxes only
                held = wl.box_truth(kids, boxes)
                for b_kid, d in zip(held, (ld, rd)):
                    assert np.array_equal(
                        boxes[b_kid], np.flatnonzero(wl.box_truth(blocks_of([d], space))[0]))
