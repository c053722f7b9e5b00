"""The qd-tree data structure: routing data and routing queries (Sec 3).

A :class:`QdTree` is a binary tree held as arrays over its nodes. Internal
nodes carry a cut (a :class:`~repro.core.predicates.Pred` or
:class:`~repro.core.predicates.AdvPred`); the left child satisfies the cut,
the right child its negation. Leaves are blocks, numbered ``0..n_leaves-1``
left-to-right — the block ID (BID) that the dataset is physically
partitioned by. Nothing recurses, so a tree of any depth builds, routes in
numpy and pickles.

Data routing has one implementation, :meth:`QdTree.route`, vectorised over
an *encoded* pandas frame (numpy masks per node). Construction, scoring and
the throughput benchmark call it on the driver;
:func:`~repro.spark_io.layout.write_tree_layout` runs it on Spark's
executors, one Arrow batch at a time, to add the ``bid`` column that the
layout is partitioned by. It is also the partitioning *function* of
Problem 2: new tuples route where they are, without reshuffling.

The node descriptions are the rows of one :class:`~.intersect.Blocks`,
restricted a level at a time during construction. Query routing
(:meth:`QdTree.query_bids`) tests the query against the leaf rows, in BID
order, and returns the intersecting BIDs, which callers inject as
``bid IN (...)`` (Sec 3.3). The :class:`Layout` that :func:`block_stats`
builds routes by the min-max stats of each block's rows instead (Sec 3.2).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import pandas as pd

from .intersect import Blocks, Space
from .predicates import Node as QueryNode
from .predicates import atom_mask, eval_masks
from .schema import TableSchema


@dataclass
class QdTree:
    """A qd-tree as arrays over its nodes, a parent before its children
    (:func:`~.greedy.grow` gives breadth-first order). Leaves carry BIDs
    ``0..n_leaves-1``, numbered left to right."""

    schema: TableSchema
    cuts: list  # the cuts that ``cut`` indexes
    cut: np.ndarray  # (nodes,) index into ``cuts``, or -1 for a leaf
    left: np.ndarray  # (nodes,) the child where the cut holds; the right
    #                   child is ``left + 1``; -1 for a leaf
    n_rows: np.ndarray  # (nodes,) build rows that reached each node
    desc: Blocks  # the node descriptions, one row each
    bid: np.ndarray = field(init=False)  # (nodes,) a leaf's BID, -1 inside
    blocks: Blocks = field(init=False)  # the leaf descriptions, in BID order
    depth: int = field(init=False)  # nodes on the longest root-to-leaf path

    def __post_init__(self):
        inner = np.flatnonzero(self.cut >= 0)
        if not (self.left[inner] > inner).all():
            raise ValueError("a node's children must come after it")
        leaves, stack = [], [(0, 1)]
        while stack:  # preorder, left subtree first
            i, d = stack.pop()
            if self.cut[i] < 0:
                leaves.append((i, d))
            else:
                stack += [(self.left[i] + 1, d + 1), (self.left[i], d + 1)]
        leaves, depths = np.array(leaves).T
        self.depth = int(depths.max())
        self.bid = np.full(len(self.cut), -1)
        self.bid[leaves] = np.arange(len(leaves))
        self.blocks = self.desc[leaves]

    @property
    def n_leaves(self) -> int:
        return len(self.blocks)

    # ------------------------------------------------------------- routing
    def route(self, encoded: pd.DataFrame) -> np.ndarray:
        """BID per row of an encoded frame (vectorised, Sec 3.1): each node
        splits its rows between its children by its cut."""
        cols = {c: encoded[c].to_numpy() for c in encoded.columns}
        bids = np.empty(len(encoded), dtype=np.int64)
        rows = {0: np.arange(len(encoded))}
        for i, (ci, j) in enumerate(zip(self.cut.tolist(), self.left.tolist())):
            idx = rows.pop(i)
            if ci < 0:
                bids[idx] = self.bid[i]
                continue
            m = atom_mask(self.cuts[ci], lambda name: cols[name][idx])
            rows[j], rows[j + 1] = idx[m], idx[~m]
        return bids

    # ------------------------------------------------------------- queries
    def query_bids(self, query: QueryNode) -> list[int]:
        """BIDs of all leaves whose description may intersect ``query``."""
        return self.blocks.query_bids(query)


@dataclass
class Layout:
    """Block metadata of a layout: per block, the min-max + mask
    description of its rows (``blocks``, as arrays) and its row count
    (``sizes``). Table 2 scores, and routed Spark reads prune, by these
    stats (Sec 3.2).
    """

    blocks: Blocks
    sizes: np.ndarray

    def query_bids(self, query: QueryNode) -> list[int]:
        """Blocks whose stats may intersect ``query``."""
        return self.blocks.query_bids(query)

    def accessed(self, workload: Sequence[QueryNode]) -> np.ndarray:
        """Per query of ``workload``, the rows in the blocks its stats route
        it to: Eq. (1)'s tuples accessed, one blocks × queries matrix."""
        return self.sizes @ self.blocks.intersects(workload)


def block_stats(
    encoded: pd.DataFrame,
    bids: np.ndarray,
    schema: TableSchema,
    acs: dict[str, QueryNode],
    n_blocks: int,
) -> Layout:
    """The :class:`Layout` of blocks ``0..n_blocks-1``, in one pass.

    This is the uniform block-stats metadata (what a Parquet/zone-map engine
    keeps) used to score and route *every* layout: per block, the min-max
    range of each numeric column, the mask of the categorical codes present
    and the AC bits (of the AdvPreds in ``acs``) of its rows. NaN (NULL)
    values, which match no range predicate, are left out of the min-max
    range; a row whose AC operand is NULL satisfies neither the AC nor its
    negation, so it sets neither AC bit. A block with no rows gets the
    empty description.
    """
    bids = np.asarray(bids)
    sizes = np.bincount(bids, minlength=n_blocks)
    order = np.argsort(bids, kind="stable")
    present = np.flatnonzero(sizes)
    # reduceat over empty segments would return a neighbour's value
    starts = (np.cumsum(sizes) - sizes)[present]
    space = Space.of(schema, tuple(acs))
    lo = np.full((n_blocks, len(space.num)), 1.0)  # empty: lo > hi
    hi = np.full((n_blocks, len(space.num)), 0.0)
    for name, j in space.num.items():
        col = encoded[name].to_numpy()[order]
        lo[present, j] = np.fmin.reduceat(col, starts)
        hi[present, j] = np.fmax.reduceat(col, starts)
    masks = np.zeros((n_blocks, space.width), dtype=bool)
    for name, (off, _) in space.cat.items():
        masks[bids, off + encoded[name].to_numpy().astype(int)] = True
    for off, ac in zip(space.ac.values(), acs.values()):
        for s, side in enumerate(eval_masks([ac, ac.negate()], encoded)):  # may-true, may-false
            masks[bids[side], off + s] = True
    return Layout(Blocks(space, lo, hi, masks), sizes)
