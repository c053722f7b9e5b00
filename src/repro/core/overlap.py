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

The cost metric charges a query the sizes of the blocks it scans
(including replicated copies), and the layout reports its extra-storage
cost, which for Fig-4-style workloads is near zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pandas as pd

from .description import Description, Interval
from .predicates import AdvPred, And, Node, Or, Pred
from .qdtree import Layout, QdTree, block_stats
from .schema import TableSchema


# --------------------------------------------------------------- coverage
def covers(desc: Description, q: Node, schema: TableSchema) -> bool:
    """Sound check that every tuple satisfying ``q`` lies inside ``desc``.

    Conservative: may return False for a covering block (we then scan a
    few redundant blocks — correct, just less efficient), never True for
    a non-covering one. A conjunction of leaf predicates is handled exactly:
    its region is the root description restricted by each conjunct, and it
    is covered iff that region is empty (the query selects nothing) or lies
    inside ``desc`` field by field. An OR covers iff every disjunct is
    covered; a conjunction containing an OR never covers.
    """
    if isinstance(q, Or):
        return all(covers(desc, c, schema) for c in q.children)
    preds = _flatten_conjunction(q)
    if preds is None:
        return False
    region = Description.root(schema, tuple(desc.acs))
    for p in preds:
        region = region.restrict(p, True)
    if region.is_empty():
        return True
    return (
        all(iv.lo <= region.ranges[c].lo and region.ranges[c].hi <= iv.hi
            for c, iv in desc.ranges.items())
        and not any((region.masks[c] & ~m).any() for c, m in desc.masks.items())
        and all(
            (mt or not region.acs[a][0]) and (mf or not region.acs[a][1])
            for a, (mt, mf) in desc.acs.items()
        )
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
def are_neighbors(a: Description, b: Description) -> bool:
    """Hypercubes sharing N−1 dimension boundaries, adjacent in the last
    (paper's neighbor definition); categorical masks must match."""
    for col, ma in a.masks.items():
        if not np.array_equal(ma, b.masks[col]):
            return False
    if a.acs != b.acs:
        return False
    differing = [c for c in a.ranges if a.ranges[c] != b.ranges[c]]
    if len(differing) != 1:
        return False
    ia, ib = a.ranges[differing[0]], b.ranges[differing[0]]
    return _adjacent(ia, ib) or _adjacent(ib, ia)


def _adjacent(lo_iv: Interval, hi_iv: Interval) -> bool:
    # [x, v) followed by [v, y): no float lies between the two intervals
    return math.nextafter(lo_iv.hi, math.inf) == hi_iv.lo


def _merge_along(a: Description, b: Description) -> Description:
    """Union hull of two neighbor descriptions (extends one interval)."""
    out = a.copy()
    for col, iv in a.ranges.items():
        jv = b.ranges[col]
        if iv != jv:
            out.ranges[col] = Interval(min(iv.lo, jv.lo), max(iv.hi, jv.hi))
    return out


# ----------------------------------------------------------------- layout
@dataclass
class OverlapLayout:
    """Per block: its complete semantic *region* (conjunction-of-cuts hull
    — every matching tuple is in the block), its row indices (copies
    included), and in ``stats`` the min-max/dictionary :class:`Layout` of
    those rows, used for skipping. Keeping both mirrors the paper's Sec
    3.2: min-max indexes tighten, semantic descriptions stay complete."""

    regions: list[Description]
    rows: list[np.ndarray]
    stats: Layout
    extra_rows: int  # replicated tuples (storage overhead)

    def query_blocks(self, q: Node, schema: TableSchema) -> list[int]:
        """Intersecting blocks (by min-max stats), with completeness-based
        redundancy pruning: if some candidate's complete region covers the
        whole query region, that candidate alone suffices — scan the
        smallest such block (Sec 6.2.1)."""
        cands = self.stats.query_bids(q)
        covering = [b for b in cands if covers(self.regions[b], q, schema)]
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
    every neighbor large leaf, enlarging the neighbors' regions (Sec 6.2).
    Min-max stats are then computed from each block's final rows."""
    bids = tree.route(encoded)
    original = tree.blocks.descriptions()
    regions = list(original)
    rows = [np.flatnonzero(bids == lf.bid) for lf in tree.leaves]
    small = [i for i, r in enumerate(rows) if len(r) < b]
    large = [i for i, r in enumerate(rows) if len(r) >= b]
    extra = 0
    for s in small:
        for g in large:
            # neighbor test against the large block's ORIGINAL description
            if are_neighbors(regions[s], original[g]):
                regions[g] = _merge_along(regions[g], regions[s])
                rows[g] = np.concatenate([rows[g], rows[s]])
                extra += len(rows[s])
    stats = block_stats(
        encoded.iloc[np.concatenate(rows)],
        np.repeat(np.arange(len(rows)), [len(r) for r in rows]),
        tree.schema, acs or {}, len(rows),
    )
    return OverlapLayout(regions, rows, stats, extra)
