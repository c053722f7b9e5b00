"""The qd-tree data structure: routing data and routing queries (Sec 3).

A :class:`QdTree` is a binary tree of :class:`TreeNode`. Internal nodes carry
a cut (a :class:`~repro.core.predicates.Pred` or
:class:`~repro.core.predicates.AdvPred`); the left child satisfies the cut,
the right child its negation. Leaves are blocks, numbered ``0..n_leaves-1``
left-to-right — the block ID (BID) that the dataset is physically
partitioned by.

Data routing is exposed three ways:

* :meth:`QdTree.route` — vectorised over an *encoded* pandas frame (numpy
  masks per node), the path used during construction and for throughput
  benchmarks;
* :meth:`QdTree.routing_column` — a native Catalyst ``Column`` (one nested
  SQL ``CASE WHEN``) over the *raw* frame, used to add the ``bid`` column
  for ``df.write.partitionBy("bid")`` — no UDFs;
* the same expression doubles as the partitioning *function* required by
  Problem 2 (new tuples route without reshuffling).

Each node holds its semantic description as one row of a
:class:`~.intersect.Blocks`; :meth:`TreeNode.split` takes the children's
rows, which tree construction restricts a level at a time. Query routing
(:meth:`QdTree.query_bids`) tests the query against the leaf rows, stacked
once per tree in BID order, and returns the intersecting BIDs, which
callers inject as ``bid IN (...)`` (Sec 3.3). The :class:`Layout` that :func:`block_stats`
builds routes by the min-max stats of each block's rows instead (Sec 3.2).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import pandas as pd

from .intersect import Blocks, Space
from .predicates import AdvPred, Pred
from .predicates import Node as QueryNode
from .predicates import _NUMPY_OPS, adv_mask, eval_mask, to_sql
from .schema import TableSchema


def _eval_cut_idx(cut, cols: dict[str, np.ndarray], idx: np.ndarray) -> np.ndarray:
    """Evaluate a (unary or advanced) cut on rows ``idx`` of a column dict."""
    if isinstance(cut, Pred):
        col = cols[cut.attr][idx]
        if cut.op == "in":
            return np.isin(col, list(cut.value))
        return _NUMPY_OPS[cut.op](col, cut.value)
    if isinstance(cut, AdvPred):
        return adv_mask(cut, cols[cut.attr1][idx], cols[cut.attr2][idx])
    raise TypeError(f"cuts must be Pred or AdvPred, got {cut!r}")


@dataclass
class TreeNode:
    """One qd-tree node; ``cut is None`` ⇔ leaf."""

    desc: Blocks  # the node's description, one row
    cut: object = None
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    bid: int = -1  # assigned to leaves by QdTree.finalize
    n_rows: int = 0  # build rows that reached this node (set by greedy.grow)

    @property
    def is_leaf(self) -> bool:
        return self.cut is None

    def split(self, cut, kids: Blocks) -> tuple["TreeNode", "TreeNode"]:
        """Cut this leaf; ``kids`` describes its children, row 0 the left
        one (where ``cut`` holds) and row 1 the right. Returns the (left,
        right) children."""
        assert self.is_leaf, "cannot split an internal node"
        self.cut = cut
        self.left, self.right = TreeNode(kids[:1]), TreeNode(kids[1:])
        return self.left, self.right


@dataclass
class QdTree:
    """A finalized qd-tree with contiguous leaf BIDs."""

    root: TreeNode
    schema: TableSchema
    leaves: list[TreeNode]
    blocks: Blocks  # the leaf descriptions, in BID order

    @staticmethod
    def build(root: TreeNode, schema: TableSchema) -> "QdTree":
        """Number leaves left-to-right and wrap into a QdTree."""
        leaves: list[TreeNode] = []

        def visit(n: TreeNode):
            if n.is_leaf:
                n.bid = len(leaves)
                leaves.append(n)
            else:
                visit(n.left)
                visit(n.right)

        visit(root)
        return QdTree(root, schema, leaves, Blocks.stack([lf.desc for lf in leaves]))

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    @property
    def depth(self) -> int:
        def d(n: TreeNode) -> int:
            return 1 if n.is_leaf else 1 + max(d(n.left), d(n.right))

        return d(self.root)

    # ------------------------------------------------------------- routing
    def route(self, encoded: pd.DataFrame) -> np.ndarray:
        """BID per row of an encoded frame (vectorised, Sec 3.1)."""
        cols = {c: encoded[c].to_numpy() for c in encoded.columns}
        bids = np.empty(len(encoded), dtype=np.int64)
        idx0 = np.arange(len(encoded))

        def down(node: TreeNode, idx: np.ndarray):
            if node.is_leaf:
                bids[idx] = node.bid
                return
            m = _eval_cut_idx(node.cut, cols, idx)
            down(node.left, idx[m])
            down(node.right, idx[~m])

        down(self.root, idx0)
        return bids

    def routing_column(self):
        """Catalyst expression computing the BID for each raw row: one
        nested ``CASE WHEN <cut> THEN <left> ELSE <right> END`` string,
        parsed once. A NULL cut goes ``ELSE`` (right), as in :meth:`route`.
        Spark's parser takes trees of depth 200 and fails at depth 400."""
        from pyspark.sql import functions as F

        def sql(node: TreeNode) -> str:
            if node.is_leaf:
                return str(node.bid)
            return (f"CASE WHEN {to_sql(node.cut, self.schema)} "
                    f"THEN {sql(node.left)} ELSE {sql(node.right)} END")

        return F.expr(sql(self.root))

    # ------------------------------------------------------------- queries
    def query_bids(self, query: QueryNode) -> list[int]:
        """BIDs of all leaves whose description may intersect ``query``."""
        return self.blocks.query_bids(query)


@dataclass
class Layout:
    """Block metadata of a layout: per block, the min-max + mask + AC-bit
    description of its rows (``blocks``, as arrays) and its row count
    (``sizes``). Table 2 scores, and routed Spark reads prune, by these
    stats (Sec 3.2).
    """

    blocks: Blocks
    sizes: np.ndarray

    def query_bids(self, query: QueryNode) -> list[int]:
        """Blocks whose stats may intersect ``query``."""
        return self.blocks.query_bids(query)

    def accessed(self, query: QueryNode) -> int:
        """Rows in the blocks ``query`` is routed to."""
        return int(self.sizes[self.query_bids(query)].sum())


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
    range. A block with no rows gets the empty description.
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
    may_true = np.zeros((n_blocks, len(acs)), dtype=bool)
    may_false = np.zeros((n_blocks, len(acs)), dtype=bool)
    for j, pred in enumerate(acs.values()):
        m = eval_mask(pred, encoded)
        may_true[bids[m], j] = True
        may_false[bids[~m], j] = True
    return Layout(Blocks(space, lo, hi, masks, may_true, may_false), sizes)
