"""Data overlap: trading storage for skipping (paper Sec 6.2, Fig 4).

Mechanism, as the paper describes it:

1. Construct a qd-tree with a *relaxed* cutting condition — one of the two
   children may be smaller than ``b`` (``greedy_qdtree(..., relaxed=True)``).
   The Fig-4 "lucky" (N+1)-record block then gets cut once more into an
   N-record block and a singleton block.
2. Partition the leaves into small (< b) and large (≥ b). Replicate each
   small block into its *neighbor* large blocks — blocks whose hypercubes
   share all dimension boundaries except one, where the intervals are
   adjacent. The enlarged neighbor's semantic description is extended
   along that dimension, so completeness is preserved.
3. At query time the candidate set is every block intersecting the query;
   completeness lets us prune redundancy — if a candidate block's region
   *covers* the whole query region, that block alone suffices and the
   smallest such block is scanned.

The regions are rows of a :class:`~.intersect.Blocks`, the one
description type: the tree's leaf rows, widened by each merge.
The cost metric charges a query the sizes of the blocks it scans
(including replicated copies), and the layout reports its extra-storage
cost, which for Fig-4-style workloads is near zero.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pandas as pd

from .intersect import Blocks, _cut_effects
from .predicates import AdvPred, And, Node, Or, Pred
from .qdtree import Layout, QdTree, block_stats
from .schema import TableSchema


# --------------------------------------------------------------- coverage
def covers(regions: Blocks, q: Node, schema: TableSchema) -> np.ndarray:
    """Per row of ``regions``: a sound check that every tuple satisfying
    ``q`` lies inside the row.

    Conservative: may return False for a covering block (we then scan a
    few redundant blocks — correct, just less efficient), never True for
    a non-covering one. A conjunction of leaf predicates is handled exactly:
    its region is the root row restricted by the side of each conjunct
    where it holds, and it is covered iff that region is empty (the query
    selects nothing) or lies inside the row field by field: bounds, masks
    and AC bits. An OR covers iff every disjunct is covered; a conjunction
    containing an OR never covers.
    """
    if isinstance(q, Or):
        out = np.ones(len(regions), dtype=bool)
        for c in q.children:
            out &= covers(regions, c, schema)
        return out
    preds = _flatten_conjunction(q)
    if preds is None:
        return np.zeros(len(regions), dtype=bool)
    root = Blocks.root(schema, tuple(regions.space.ac))
    # the conjunction's region: the root row and every conjunct's side, intersected
    rows = Blocks.stack([root, _cut_effects(preds, root.space)[: len(preds)]])
    lo, hi, masks = rows.lo.max(axis=0), rows.hi.min(axis=0), rows.masks.all(axis=0)
    mt, mf = rows.may_true.all(axis=0), rows.may_false.all(axis=0)
    if ((lo > hi).any() or (~mt & ~mf).any()
            or any(not masks[off:off + card].any() for off, card in root.space.cat.values())):
        return np.ones(len(regions), dtype=bool)  # q selects nothing
    return (
        ((regions.lo <= lo) & (hi <= regions.hi)).all(axis=1)
        & ~(masks & ~regions.masks).any(axis=1)
        & ~(mt & ~regions.may_true).any(axis=1)
        & ~(mf & ~regions.may_false).any(axis=1)
    )


def _flatten_conjunction(q: Node):
    """Leaf predicates of a pure conjunction, or None if q contains OR."""
    if isinstance(q, (Pred, AdvPred)):
        return [q]
    if isinstance(q, And):
        out = []
        for c in q.children:
            sub = _flatten_conjunction(c)
            if sub is None:
                return None
            out.extend(sub)
        return out
    return None


# -------------------------------------------------------------- neighbors
def are_neighbors(a: Blocks, b: Blocks) -> np.ndarray:
    """Per row pair (a one-row side broadcasts): hypercubes sharing N−1
    dimension boundaries, adjacent in the last (paper's neighbor
    definition); categorical masks and AC bits must match. Adjacent means
    that no float lies between the two ranges: ``[x, v)`` then ``[v, y]``."""
    same = ((a.masks == b.masks).all(axis=1) & (a.may_true == b.may_true).all(axis=1)
            & (a.may_false == b.may_false).all(axis=1))
    differ = (a.lo != b.lo) | (a.hi != b.hi)
    adjacent = (np.nextafter(a.hi, np.inf) == b.lo) | (np.nextafter(b.hi, np.inf) == a.lo)
    return same & (differ.sum(axis=1) == 1) & (differ & adjacent).any(axis=1)


# ----------------------------------------------------------------- layout
@dataclass
class OverlapLayout:
    """Per block: its complete semantic *region* (conjunction-of-cuts hull
    — every matching tuple is in the block), a row of ``regions``, its row
    indices (copies included), and in ``stats`` the min-max/dictionary
    :class:`Layout` of those rows, used for skipping. Keeping both mirrors
    the paper's Sec 3.2: min-max indexes tighten, semantic descriptions
    stay complete."""

    regions: Blocks
    rows: list[np.ndarray]
    stats: Layout
    extra_rows: int  # replicated tuples (storage overhead)

    def query_blocks(self, q: Node, schema: TableSchema) -> list[int]:
        """Intersecting blocks (by min-max stats), with completeness-based
        redundancy pruning: if some candidate's complete region covers the
        whole query region, that candidate alone suffices — scan the
        smallest such block (Sec 6.2.1)."""
        cands = self.stats.query_bids(q)
        covering = [b for b, ok in zip(cands, covers(self.regions[cands], q, schema)) if ok]
        if covering:
            return [min(covering, key=lambda b: self.stats.sizes[b])]
        return cands

    def tuples_accessed(self, workload: Sequence[Node], schema: TableSchema) -> int:
        return sum(
            int(self.stats.sizes[self.query_blocks(q, schema)].sum()) for q in workload
        )


def build_overlap_layout(
    tree: QdTree, encoded: pd.DataFrame, b: int, acs: dict | None = None
) -> OverlapLayout:
    """Replicate each small (< b) leaf of a relaxed-construction tree into
    every neighbor large leaf, enlarging the neighbors' regions to the
    union hull of both (Sec 6.2). Neighbors are tested on the leaves'
    original descriptions. Min-max stats are then computed from each
    block's final rows."""
    bids = tree.route(encoded)
    leaves = tree.blocks
    lo, hi = leaves.lo.copy(), leaves.hi.copy()
    rows = [np.flatnonzero(bids == lf.bid) for lf in tree.leaves]
    sizes = np.array([len(r) for r in rows])
    large = np.flatnonzero(sizes >= b)
    extra = 0
    for s in np.flatnonzero(sizes < b):
        for g in large[are_neighbors(leaves[s:s + 1], leaves[large])]:
            lo[g], hi[g] = np.minimum(lo[g], lo[s]), np.maximum(hi[g], hi[s])
            rows[g] = np.concatenate([rows[g], rows[s]])
            extra += len(rows[s])
    stats = block_stats(
        encoded.iloc[np.concatenate(rows)],
        np.repeat(np.arange(len(rows)), [len(r) for r in rows]),
        tree.schema, acs or {}, len(rows),
    )
    regions = Blocks(leaves.space, lo, hi, leaves.masks, leaves.may_true, leaves.may_false)
    return OverlapLayout(regions, rows, stats, extra)
