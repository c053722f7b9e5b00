"""Framework extensions (paper Sec 6): data overlap and two-tree
replication, including the Fig-4 scenario."""
import hashlib
import json

import numpy as np
import pandas as pd
import pytest

from repro.core.cost import evaluate_layout
from repro.core.cuts import extract_cuts
from repro.core.greedy import greedy_qdtree
from repro.core.intersect import Blocks, Space
from repro.core.overlap import are_neighbors, build_overlap_layout
from repro.core.predicates import AdvPred, And, Or, Pred
from repro.core.qdtree import block_stats
from repro.core.schema import infer_schema
from repro.core.twotree import two_tree_layout
from repro.workloads import asts

from .reference import Description, Interval, blocks_of, split_row


# ------------------------------------------------------- Fig 4 scenario
N = 200


@pytest.fixture(scope="module")
def fig4_band():
    """The paper's Fig-4 mechanism in its cleanest axis-aligned form: two
    N-record regions and a single record on the shared boundary band; both
    queries select N+1 records and overlap only in that record. Binary
    cuts at the query literals force one query to read N extra tuples;
    overlap replicates the singleton into both neighbors."""
    g = np.random.default_rng(0)
    xs = np.concatenate([g.uniform(0, 48.9, N), g.uniform(51.1, 100, N), [50.0]])
    pdf = pd.DataFrame({"x": xs, "y": g.uniform(0, 1, 2 * N + 1)})
    sch = infer_schema(pdf, domains={"x": (0.0, 100.0), "y": (0.0, 1.0)})
    enc = sch.encode(pdf)
    W = [Pred("x", "<=", 51.0), Pred("x", ">=", 49.0)]
    return pdf, sch, enc, W


@pytest.fixture(scope="module")
def fig4_quad():
    """Four N-record quadrants + one center tuple (the paper's figure);
    used for soundness/no-row-loss checks of the overlap machinery."""
    g = np.random.default_rng(0)

    def quad(xlo, ylo):
        return np.column_stack(
            [g.uniform(xlo + 10, xlo + 40, N), g.uniform(ylo + 10, ylo + 40, N)]
        )

    pts = np.vstack([quad(0, 0), quad(0, 50), quad(50, 0), quad(50, 50), [[50.0, 50.0]]])
    pdf = pd.DataFrame({"x": pts[:, 0], "y": pts[:, 1]})
    sch = infer_schema(pdf, domains={"x": (0.0, 100.0), "y": (0.0, 100.0)})
    enc = sch.encode(pdf)
    W = [
        And([Pred("x", "<=", 50.0), Pred("y", "<=", 50.0)]),
        And([Pred("x", "<=", 50.0), Pred("y", ">=", 50.0)]),
        And([Pred("x", ">=", 50.0), Pred("y", "<=", 50.0)]),
        And([Pred("x", ">=", 50.0), Pred("y", ">=", 50.0)]),
    ]
    return pdf, sch, enc, W


def test_fig4_queries_select_n_plus_one(fig4_band):
    from repro.core.predicates import eval_mask

    _, _, enc, W = fig4_band
    for q in W:
        assert eval_mask(q, enc).sum() == N + 1


def test_relaxed_greedy_carves_small_block(fig4_band):
    _, sch, enc, W = fig4_band
    cuts = extract_cuts(W)
    strict = greedy_qdtree(enc, sch, cuts, W, b=N, relaxed=False)
    relaxed = greedy_qdtree(enc, sch, cuts, W, b=N, relaxed=True)
    assert (np.bincount(strict.route(enc), minlength=strict.n_leaves) >= N).all()
    sizes = np.bincount(relaxed.route(enc), minlength=relaxed.n_leaves)
    assert sizes.min() < N  # the singleton boundary block was carved out
    assert relaxed.n_leaves > strict.n_leaves


def test_overlap_beats_naive_binary_layout(fig4_band):
    """Fig 4's claim: with overlap no query touches unnecessary records,
    at virtually no extra storage; naive binary cuts read N extra."""
    _, sch, enc, W = fig4_band
    cuts = extract_cuts(W)
    naive = greedy_qdtree(enc, sch, cuts, W, b=N, relaxed=False)
    naive_m = evaluate_layout(enc, naive.route(enc), sch, W)

    relaxed = greedy_qdtree(enc, sch, cuts, W, b=N, relaxed=True)
    layout = build_overlap_layout(relaxed, enc, b=N)
    accessed = layout.tuples_accessed(W)

    assert naive_m.tuples_accessed >= 3 * N + 2  # one query reads N extra
    assert accessed <= 2 * (N + 1) + 2  # ~optimal: each query ≈ N+1
    assert accessed < naive_m.tuples_accessed
    assert 1 <= layout.extra_rows <= 2  # the singleton, replicated


def test_overlap_replicates_into_both_neighbors(fig4_band):
    _, sch, enc, W = fig4_band
    relaxed = greedy_qdtree(enc, sch, extract_cuts(W), W, b=N, relaxed=True)
    layout = build_overlap_layout(relaxed, enc, b=N)
    enlarged = [b for b, size in enumerate(layout.stats.sizes) if size == N + 1]
    assert len(enlarged) == layout.extra_rows  # one copy per enlarged block
    assert layout.stats.sizes.sum() == len(enc) + layout.extra_rows


@pytest.mark.parametrize("fixture", ["fig4_band", "fig4_quad"])
def test_overlap_layout_loses_no_rows(request, fixture):
    from repro.core.predicates import eval_mask

    _, sch, enc, W = request.getfixturevalue(fixture)
    relaxed = greedy_qdtree(enc, sch, extract_cuts(W), W, b=N, relaxed=True)
    layout = build_overlap_layout(relaxed, enc, b=N)
    for q in W:
        match = np.flatnonzero(eval_mask(q, enc))
        selected = layout.query_blocks(q)
        rows = np.concatenate([layout.rows[b] for b in selected])
        assert set(match) <= set(rows.tolist())  # no false negatives


def test_overlap_never_worse_than_tree(fig4_quad):
    """Even when no neighbor qualifies for replication, the overlap layout
    (with redundancy pruning) must not access more than the plain tree."""
    _, sch, enc, W = fig4_quad
    relaxed = greedy_qdtree(enc, sch, extract_cuts(W), W, b=N, relaxed=True)
    layout = build_overlap_layout(relaxed, enc, b=N)
    plain = evaluate_layout(enc, relaxed.route(enc), sch, W)
    assert layout.tuples_accessed(W) <= plain.tuples_accessed


# (extra_rows, tuples_accessed, SHA-1 of the JSON list of every query's
# query_blocks) of the overlap layout on a relaxed Greedy tree at the
# bundle's b. Pins which blocks each query scans, covered queries included.
_PINNED_OVERLAP = {
    "tpch": (175, 83621, "8289bec2835ddad19f54e8b09170dee05cd12acb"),
    "errlog-int": (46, 655, "0eb71737cbe54abc011debc39068adc191a88763"),
    "errlog-ext": (33, 559, "61841b2ae6c14f855e32796d283cfb0cb6a28b14"),
}


@pytest.mark.parametrize(
    "name, bundle",
    [("tpch", "tpch_bundle"), ("errlog-int", "errlog_int_bundle"),
     ("errlog-ext", "errlog_ext_bundle")],
)
def test_overlap_pinned(name, bundle, request):
    bd = request.getfixturevalue(bundle)
    W = asts(bd.queries)
    tree = greedy_qdtree(bd.encoded, bd.schema, extract_cuts(W), W, bd.b,
                         ac_names=bd.ac_names, relaxed=True)
    layout = build_overlap_layout(tree, bd.encoded, bd.b, acs=bd.acs)
    routes = [layout.query_blocks(q) for q in W]
    got = (layout.extra_rows, layout.tuples_accessed(W),
           hashlib.sha1(json.dumps(routes).encode()).hexdigest())
    assert got == _PINNED_OVERLAP[name]


def test_overlap_rejects_acs_other_than_the_trees(tpch_bundle, tpch_tree):
    """A query is compiled once for the stats and the regions, so the stats
    must share the tree's space: no ACs, or the tree's ACs in another
    order, is refused."""
    bd = tpch_bundle
    for acs in ({}, dict(reversed(bd.acs.items()))):
        with pytest.raises(ValueError):
            build_overlap_layout(tpch_tree, bd.encoded, 150, acs=acs)
    layout = build_overlap_layout(tpch_tree, bd.encoded, 150, acs=bd.acs)
    assert layout.stats.blocks.space == layout.regions.space


# ------------------------------------------------------------- neighbors
def _desc2d(x: Interval, y: Interval, sch):
    d = Description.root(sch)
    d.ranges = {"x": x, "y": y}
    return blocks_of([d], Space.of(sch))


def _half_open(lo, hi) -> Interval:
    """[lo, hi): the side of a cut ``x < hi`` within [lo, hi]."""
    return Interval(lo, hi).restrict("<", hi, True)


@pytest.fixture(scope="module")
def sch2d():
    pdf = pd.DataFrame({"x": [0.0, 100.0], "y": [0.0, 100.0]})
    return infer_schema(pdf, domains={"x": (0.0, 100.0), "y": (0.0, 100.0)})


def test_neighbors_adjacent_in_one_dim(sch2d):
    a = _desc2d(_half_open(0, 50), Interval(0, 100), sch2d)
    b = _desc2d(Interval(50, 100), Interval(0, 100), sch2d)
    assert are_neighbors(a, b)


def test_not_neighbors_two_dims_differ(sch2d):
    a = _desc2d(_half_open(0, 50), _half_open(0, 50), sch2d)
    b = _desc2d(Interval(50, 100), Interval(50, 100), sch2d)
    assert not are_neighbors(a, b)


def test_not_neighbors_with_gap(sch2d):
    a = _desc2d(_half_open(0, 40), Interval(0, 100), sch2d)
    b = _desc2d(Interval(50, 100), Interval(0, 100), sch2d)
    assert not are_neighbors(a, b)
    # adjacency counts in the one differing column only: y = [50, 50) is
    # empty and shared, and ends one float below where it starts
    a = _desc2d(_half_open(0, 40), _half_open(50, 50), sch2d)
    b = _desc2d(Interval(50, 100), _half_open(50, 50), sch2d)
    assert not are_neighbors(a, b)


def test_not_neighbors_double_closed_overlap(sch2d):
    # both closed at the shared point -> overlapping, not adjacent
    a = _desc2d(Interval(0, 50), Interval(0, 100), sch2d)
    b = _desc2d(Interval(50, 100), Interval(0, 100), sch2d)
    assert not are_neighbors(a, b)


# -------------------------------------------------------------- coverage
def covers(blk, q, base):
    """Overlap's redundancy test: does every row of ``base`` matching ``q``
    lie inside each row of ``blk``?"""
    return blk.contains([q], base)[:, 0]


def test_covers_conjunction(sch2d):
    blk = _desc2d(Interval(0, 60), Interval(0, 100), sch2d)
    assert covers(blk, And([Pred("x", "<=", 50.0)]), Blocks.root(sch2d))
    assert not covers(blk, And([Pred("x", "<=", 70.0)]), Blocks.root(sch2d))
    assert covers(blk, And([Pred("x", "<=", 50.0), Pred("y", ">=", 10.0)]), Blocks.root(sch2d))


def test_covers_requires_unconstrained_dims_full(sch2d):
    blk = _desc2d(Interval(0, 100), Interval(0, 40), sch2d)
    # query constrains only x; block clips y -> does not cover
    assert not covers(blk, Pred("x", "<=", 50.0), Blocks.root(sch2d))


def test_covers_or_needs_all_disjuncts(sch2d):
    blk = _desc2d(Interval(0, 60), Interval(0, 100), sch2d)
    q = Or([Pred("x", "<=", 50.0), Pred("x", ">=", 90.0)])
    assert not covers(blk, q, Blocks.root(sch2d))
    full = _desc2d(Interval(0, 100), Interval(0, 100), sch2d)
    assert covers(full, q, Blocks.root(sch2d))


def test_covers_conjunction_of_disjunction(sch2d):
    """Each conjunction of the query's disjunctive normal form is tested
    on its own, so an AND over an OR covers when every branch lies inside."""
    blk = _desc2d(Interval(0, 60), Interval(0, 100), sch2d)
    x_out = Or([Pred("x", "<=", 10.0), Pred("x", ">=", 40.0)])
    assert covers(blk, And([x_out, Pred("x", "<=", 50.0)]), Blocks.root(sch2d))
    assert not covers(blk, And([x_out, Pred("y", ">=", 0.0)]), Blocks.root(sch2d))


@pytest.fixture(scope="module")
def sch_cat():
    pdf = pd.DataFrame({"x": [0.0, 100.0], "c": ["a", "d"]})
    return infer_schema(pdf, categorical=["c"], domains={"x": (0.0, 100.0), "c": ("a", "b", "c", "d")})


def test_covers_ac_bits(sch_cat):
    ac = AdvPred("z", "x", "<", "x")
    base = root = Blocks.root(sch_cat, ("z",))
    only_true = split_row(root, ac)[:1]  # AC bits (True, False)
    assert covers(root, ac, base)
    assert covers(only_true, ac, base)
    assert not covers(only_true, ac.negate(), base)
    # a query that leaves the AC unconstrained needs both sides in the block
    assert not covers(only_true, Pred("x", "<=", 50.0), base)
    assert covers(root, Pred("x", "<=", 50.0), base)


def test_covers_categorical_in(sch_cat):
    base = Blocks.root(sch_cat)
    blk = split_row(base, Pred("c", "in", frozenset([0, 1])))[:1]
    assert covers(blk, Pred("c", "in", frozenset([0, 1])), base)
    assert covers(blk, Pred("c", "=", 1), base)
    assert not covers(blk, Pred("c", "in", frozenset([1, 2])), base)
    assert not covers(blk, Pred("x", "<=", 50.0), base)  # c unconstrained
    # conjuncts on one column intersect: {0,1,2} ∩ {1,3} = {1}
    q = And([Pred("c", "in", frozenset([0, 1, 2])), Pred("c", "in", frozenset([1, 3]))])
    assert covers(blk, q, base)


def test_covers_contradictory_range_conjunction(sch2d):
    """A query that selects nothing is covered by any block."""
    blk = _desc2d(Interval(0, 60), Interval(0, 40), sch2d)
    q = And([Pred("x", "<", 10.0), Pred("x", ">", 20.0)])
    assert covers(blk, q, Blocks.root(sch2d))


# --------------------------------------------------------------- two-tree
def test_two_tree_never_worse(tpch_bundle, tpch_cuts):
    enc, sch = tpch_bundle.encoded, tpch_bundle.schema
    W = asts(tpch_bundle.queries)

    def build(queries):
        return greedy_qdtree(enc, sch, tpch_cuts, queries, 300,
                             ac_names=tpch_bundle.ac_names)

    tt = two_tree_layout(enc, sch, W, build, acs=tpch_bundle.acs)
    single = evaluate_layout(
        enc, tt.tree1.route(enc), sch, W, acs=tpch_bundle.acs
    )
    assert tt.tuples_accessed <= single.tuples_accessed
    assert tt.access_fraction <= single.access_fraction


def test_two_tree_improves_worst_queries(tpch_bundle, tpch_cuts):
    enc, sch = tpch_bundle.encoded, tpch_bundle.schema
    W = asts(tpch_bundle.queries)

    def build(queries):
        return greedy_qdtree(enc, sch, tpch_cuts, queries, 300,
                             ac_names=tpch_bundle.ac_names)

    tt = two_tree_layout(enc, sch, W, build, acs=tpch_bundle.acs)
    # at least one query must be routed to T2, and T2 must strictly help it
    assert tt.choice.any()
    helped = tt.accessed2[tt.choice == 1]
    baseline = tt.accessed1[tt.choice == 1]
    assert (helped < baseline).all()


def test_two_tree_query_routing(tpch_bundle, tpch_cuts):
    enc, sch = tpch_bundle.encoded, tpch_bundle.schema
    W = asts(tpch_bundle.queries)

    def build(queries):
        return greedy_qdtree(enc, sch, tpch_cuts, queries, 300,
                             ac_names=tpch_bundle.ac_names)

    tt = two_tree_layout(enc, sch, W, build, acs=tpch_bundle.acs)
    # each query runs on its chosen tree, the one that reads fewer rows
    bids = [tt.tree1.route(enc), tt.tree2.route(enc)]
    got = [evaluate_layout(enc, bids[c], sch, [q], tpch_bundle.acs).tuples_accessed
           for c, q in zip(tt.choice, W)]
    assert got == np.minimum(tt.accessed1, tt.accessed2).tolist()
    assert sum(got) == tt.tuples_accessed


def test_layout_accessed_matches_evaluate(tpch_bundle, tpch_tree):
    enc, sch = tpch_bundle.encoded, tpch_bundle.schema
    W = asts(tpch_bundle.queries)
    bids = tpch_tree.route(enc)
    per_q = block_stats(enc, bids, sch, tpch_bundle.acs, tpch_tree.n_leaves).accessed(W)
    total = evaluate_layout(enc, bids, sch, W, acs=tpch_bundle.acs)
    assert per_q.sum() == total.tuples_accessed
