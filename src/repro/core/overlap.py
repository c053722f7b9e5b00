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

from .intersect import Blocks, compile_workload
from .predicates import Node
from .qdtree import Layout, QdTree, block_stats


# -------------------------------------------------------------- neighbors
def are_neighbors(a: Blocks, b: Blocks) -> np.ndarray:
    """Per row pair (a one-row side broadcasts): hypercubes sharing N−1
    dimension boundaries, adjacent in the last (paper's neighbor
    definition); the mask rows must match. Adjacent means
    that no float lies between the two ranges: ``[x, v)`` then ``[v, y]``."""
    same = (a.masks == b.masks).all(axis=1)
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
    root: Blocks  # the whole table's row: the base of every coverage test

    def query_blocks(self, q: Node) -> list[int]:
        """Intersecting blocks (by min-max stats), with completeness-based
        redundancy pruning: if some candidate's complete region covers the
        whole query region, that candidate alone suffices — scan the
        smallest such block (Sec 6.2.1). Covering is the kernel's sound
        containment test over the root row the layout keeps. One compiled
        query serves both tests, as the stats share the regions' space."""
        wl = compile_workload([q], self.stats.blocks.space)
        cands = np.flatnonzero(wl.intersects(self.stats.blocks)[:, 0])
        if len(cands) < 2:  # nothing to prune
            return cands.tolist()
        covering = cands[wl.inside(self.regions[cands], self.root)[:, 0]]
        if len(covering):
            return [int(covering[np.argmin(self.stats.sizes[covering])])]
        return cands.tolist()

    def tuples_accessed(self, workload: Sequence[Node]) -> int:
        return sum(int(self.stats.sizes[self.query_blocks(q)].sum()) for q in workload)


def build_overlap_layout(
    tree: QdTree, encoded: pd.DataFrame, b: int, acs: dict | None = None
) -> OverlapLayout:
    """Replicate each small (< b) leaf of a relaxed-construction tree into
    every neighbor large leaf, enlarging the neighbors' regions to the
    union hull of both (Sec 6.2). A small leaf must neighbor both the large
    leaf's original description and its region as grown so far: a region
    grown along one column and then another would otherwise claim the
    corner between them, which no block holds. Min-max stats are then
    computed from each block's final rows, over the ACs in ``acs``, which
    must be the tree's ACs in the tree's order (else ``ValueError``)."""
    bids = tree.route(encoded)
    leaves = tree.blocks
    regions = leaves[np.arange(len(leaves))]  # a copy, widened in place
    sizes = np.bincount(bids, minlength=tree.n_leaves)
    rows = np.split(np.argsort(bids, kind="stable"), np.cumsum(sizes)[:-1])
    large = np.flatnonzero(sizes >= b)
    extra = 0
    for s in np.flatnonzero(sizes < b):
        small = leaves[s:s + 1]
        for g in large[are_neighbors(small, leaves[large]) & are_neighbors(small, regions[large])]:
            regions.lo[g] = np.minimum(regions.lo[g], leaves.lo[s])
            regions.hi[g] = np.maximum(regions.hi[g], leaves.hi[s])
            rows[g] = np.concatenate([rows[g], rows[s]])
            extra += len(rows[s])
    stats = block_stats(
        encoded.iloc[np.concatenate(rows)],
        np.repeat(np.arange(len(rows)), [len(r) for r in rows]),
        tree.schema, acs or {}, len(rows),
    )
    if stats.blocks.space != regions.space:
        raise ValueError("acs must name the tree's ACs, in the tree's order")
    return OverlapLayout(regions, rows, stats, extra, tree.desc[:1])
