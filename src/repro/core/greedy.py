"""Qd-tree construction loop and Greedy (paper Algorithm 1, Sec 4).

Greedy and WOODBLOCK (Sec 5) run the same process: a node is described by
its semantic description (a one-row :class:`~.intersect.Blocks`), an
action is a cut, and applying the cut yields the two children. :func:`grow`
is that process, coded once. It expands nodes breadth-first and asks a
*chooser* for each node's cut, or ``None`` to make it a leaf; :meth:`CutMatrix.legal` is the one rule for which cuts a
chooser may pick. Greedy's chooser takes the legal cut maximising the
increase in skipped tuples ``C(T ⊕ (p, n)) − C(T)`` and stops at a leaf
when no cut gives a strictly positive gain; WOODBLOCK's samples its policy.

Because splitting a leaf only changes that leaf's contribution to ``C``,
the greedy criterion is evaluated locally, so expansion order does not
change the tree. Two optimisations keep this *O(|P|·|V|·depth)*-ish as
analysed in the paper:

* a precomputed cut-mask matrix (:class:`CutMatrix`, rows × cuts) gives
  the left child size of every candidate cut on a node from one gather of
  the node's rows;
* *active-query pruning*: each node tracks the boxes of the compiled
  workload (:mod:`.intersect`) its description still intersects, and one
  batched kernel call gives the active-query counts of both children of
  every legal cut.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import pandas as pd

from .intersect import Blocks, Workload, compile_workload
from .predicates import Node as QueryNode
from .predicates import eval_mask
from .qdtree import QdTree, TreeNode
from .schema import TableSchema


@dataclass
class CutMatrix:
    """Candidate cuts with precomputed satisfaction masks over a dataset."""

    cuts: list
    masks: np.ndarray  # (N, |P|) bool — masks[r, i] ⇔ row r satisfies cuts[i]

    @staticmethod
    def build(cuts: Sequence, encoded: pd.DataFrame) -> "CutMatrix":
        if not cuts:
            return CutMatrix([], np.zeros((len(encoded), 0), dtype=bool))
        # row-major, so that left_counts gathers whole rows
        return CutMatrix(list(cuts), np.stack([eval_mask(c, encoded) for c in cuts]).T.copy())

    def left_counts(self, idx: np.ndarray) -> np.ndarray:
        """Per-cut count of rows in ``idx`` satisfying the cut. Rows are
        gathered whole and summed as uint8 in chunks of 255, which cannot
        overflow."""
        out = np.zeros(len(self.cuts), dtype=np.int64)
        for i in range(0, len(idx), 255):
            out += np.add.reduce(
                self.masks[idx[i:i + 255]].view(np.uint8), axis=0, dtype=np.uint8
            )
        return out

    def legal(
        self, idx: np.ndarray, b: int, relaxed: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """(legal, counts): which cuts may split the rows ``idx``, and each
        cut's left-child row count (all zeros when no cut can be legal).

        Strict: both children hold ≥ ``b`` rows. Relaxed (Sec 6.2 overlap):
        one child holds ≥ ``b`` rows and the other ≥ 1. ``b < 1`` raises:
        it would admit a cut with an empty child.
        """
        if b < 1:
            raise ValueError("min block size must be >= 1")
        n = len(idx)
        if n < (b + 1 if relaxed else 2 * b):
            return np.zeros(len(self.cuts), dtype=bool), np.zeros(len(self.cuts), dtype=int)
        counts = self.left_counts(idx)
        small, large = np.minimum(counts, n - counts), np.maximum(counts, n - counts)
        if relaxed:
            return (large >= b) & (small >= 1), counts
        return small >= b, counts


def grow(
    cm: CutMatrix,
    root_desc: Blocks,
    wl: Workload,
    choose: Callable[[TreeNode, np.ndarray, np.ndarray, int], Optional[int]],
) -> tuple[TreeNode, list[tuple[TreeNode, int]]]:
    """Build a tree over the rows of ``cm`` from the one-row ``root_desc``,
    breadth-first.

    ``wl`` is the workload compiled with ``cm``'s cuts. ``choose(node, idx,
    boxes, n_open)`` gets a node, its row indices, its active boxes (the
    boxes of ``wl`` its description intersects) and the number of open
    leaves (finished leaves, queued nodes and this one); it returns the
    index of the cut to apply, or ``None`` to make the node a leaf. Returns
    the root and the leaves as ``(node, n_active_queries)``; every node's
    ``n_rows`` is set.
    """
    root = TreeNode(root_desc)
    queue = deque([(root, np.arange(len(cm.masks)), wl.active_boxes(root_desc))])
    leaves: list[tuple[TreeNode, int]] = []
    while queue:
        node, idx, boxes = queue.popleft()
        node.n_rows = len(idx)
        ci = choose(node, idx, boxes, len(leaves) + len(queue) + 1)
        if ci is None:
            leaves.append((node, wl.n_active(boxes)))
            continue
        left, right = node.split(cm.cuts[ci])
        held = wl.box_truth(Blocks.stack([left.desc, right.desc]), boxes)
        b_l, b_r = boxes[held[0]], boxes[held[1]]
        m = cm.masks[idx, ci]
        queue.append((left, idx[m], b_l))
        queue.append((right, idx[~m], b_r))
    return root, leaves


def greedy_qdtree(
    encoded: pd.DataFrame,
    schema: TableSchema,
    cuts: Sequence,
    workload: Sequence[QueryNode],
    b: int,
    ac_names: tuple[str, ...] = (),
    relaxed: bool = False,
) -> QdTree:
    """Algorithm 1. ``encoded`` is the (sampled) dataset in encoded space.

    ``relaxed=True`` is the Sec 6.2 overlap variant: a cut is legal if at
    least one (rather than both) child holds ≥ b tuples, so small blocks
    can be carved out for replication into neighbors.
    """
    cm = CutMatrix.build(cuts, encoded)
    root = Blocks.root(schema, ac_names)
    wl = compile_workload(workload, root.space, cm.cuts)

    def choose(node: TreeNode, idx: np.ndarray, boxes: np.ndarray, n_open: int):
        """First cut with the strictly largest positive gain, where
        gain = Δ skipped tuples = |N|·|A| − |L|·|A_L| − |R|·|A_R|."""
        legal, counts = cm.legal(idx, b, relaxed)
        cis = np.flatnonzero(legal)
        if not len(cis):
            return None
        a_l, a_r = wl.split_counts(node.desc, boxes, cis)
        n, nl = len(idx), counts[cis]
        gain = n * wl.n_active(boxes) - nl * a_l - (n - nl) * a_r
        best = int(np.argmax(gain))
        return int(cis[best]) if gain[best] > 0 else None

    root, _ = grow(cm, root, wl, choose)
    return QdTree.build(root, schema)
