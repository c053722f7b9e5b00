"""Routing soundness: query routing never prunes a block that holds a row
matching the query. Checked on random frames inside their declared domains
and random AND/OR workloads, for strict and relaxed greedy trees (by leaf
descriptions and by block stats) and for the overlap layout built on the
relaxed tree."""
import numpy as np
import pandas as pd
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.cuts import extract_cuts
from repro.core.greedy import greedy_qdtree
from repro.core.overlap import build_overlap_layout
from repro.core.predicates import And, Or, Pred, eval_mask
from repro.core.qdtree import block_stats
from repro.core.schema import infer_schema

CATS = ("p", "q", "r", "s")
# Few integer values make literals land exactly on data values and on each
# other's cuts, where a strict/non-strict slip would lose rows.
VALUES = st.one_of(st.integers(0, 4).map(float), st.floats(0, 10))

ATOMS = st.one_of(
    st.builds(Pred, st.sampled_from(["x", "y"]),
              st.sampled_from(["<", "<=", ">", ">="]), VALUES),
    st.builds(Pred, st.just("c"), st.just("="), st.integers(0, 3)),
    st.builds(Pred, st.just("c"), st.just("in"),
              st.frozensets(st.integers(0, 3), min_size=1, max_size=3)),
)
QUERIES = st.recursive(
    ATOMS,
    lambda kids: st.one_of(
        st.builds(And, st.lists(kids, min_size=1, max_size=3)),
        st.builds(Or, st.lists(kids, min_size=1, max_size=3)),
    ),
    max_leaves=5,
)
FRAMES = st.lists(
    st.tuples(VALUES, VALUES, st.integers(0, 3)), min_size=20, max_size=80
)


def _pruned(routed, bids, q, enc) -> set:
    """Blocks holding a row matching ``q`` that ``routed`` misses."""
    return set(np.unique(bids[eval_mask(q, enc)]).tolist()) - set(routed)


@given(rows=FRAMES, W=st.lists(QUERIES, min_size=1, max_size=6),
       b=st.integers(2, 10))
@settings(max_examples=50, deadline=None)
# A large leaf that absorbs one small neighbour along x and another along y
# must not claim the corner between them: its region would cover x < 1
# while the 34 rows at (0, 0) sit in another block.
@example(rows=[(0.0, 0.0, 0)] * 34 + [(0.0, 1.0, 0), (1.0, 0.0, 0)] + [(1.0, 1.0, 0)] * 2,
         W=[Pred("x", "<", 1.0), And([Pred("y", "<", 1.0)])], b=2)
def test_routing_never_prunes_a_matching_block(rows, W, b):
    x, y, c = zip(*rows)
    pdf = pd.DataFrame({"x": x, "y": y, "c": [CATS[i] for i in c]})
    sch = infer_schema(pdf, categorical=["c"],
                       domains={"x": (0.0, 10.0), "y": (0.0, 10.0), "c": CATS})
    enc = sch.encode(pdf)
    cuts = extract_cuts(W)
    for relaxed in (False, True):
        tree = greedy_qdtree(enc, sch, cuts, W, b, relaxed=relaxed)
        bids = tree.route(enc)
        stats = block_stats(enc, bids, sch, {}, tree.n_leaves)
        for q in W:
            assert not _pruned(tree.query_bids(q), bids, q, enc), (relaxed, q)
            assert not _pruned(stats.query_bids(q), bids, q, enc), (relaxed, q)
        if relaxed:
            layout = build_overlap_layout(tree, enc, b)
            for q in W:
                scanned = {r for bid in layout.query_blocks(q)
                           for r in layout.rows[bid].tolist()}
                assert set(np.flatnonzero(eval_mask(q, enc)).tolist()) <= scanned, q
