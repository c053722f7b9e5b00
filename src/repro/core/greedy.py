"""Qd-tree construction loop and Greedy (paper Algorithm 1, Sec 4).

Greedy and WOODBLOCK (Sec 5) run the same process: a node is described by
its semantic description, an action is a cut, and applying the cut yields
the two children. :func:`grow` is that process, coded once. It expands
nodes breadth-first and asks a *chooser* for each node's cut, or ``None``
to make it a leaf; :meth:`CutMatrix.legal` is the one rule for which cuts a
chooser may pick. Greedy's chooser takes the legal cut maximising the
increase in skipped tuples ``C(T ⊕ (p, n)) − C(T)`` and stops at a leaf
when no cut gives a strictly positive gain; WOODBLOCK's samples its policy.

Because splitting a leaf only changes that leaf's contribution to ``C``,
the greedy criterion is evaluated locally, so expansion order does not
change the tree. Two optimisations keep this *O(|P|·|V|·depth)*-ish as
analysed in the paper:

* a precomputed cut-mask matrix (:class:`CutMatrix`) gives the left/right
  child sizes of every candidate cut on a node with one vectorised slice;
* *active-query pruning*: each node tracks the queries its description
  still intersects. A cut on column ``c`` can only deactivate queries that
  both (a) are active at the parent and (b) reference ``c``, so only those
  are re-checked against child descriptions.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import pandas as pd

from .description import Description
from .predicates import Node as QueryNode
from .predicates import column_key, eval_mask, referenced_columns
from .qdtree import QdTree, TreeNode
from .schema import TableSchema


@dataclass
class CutMatrix:
    """Candidate cuts with precomputed satisfaction masks over a dataset."""

    cuts: list
    masks: np.ndarray  # (|P|, N) bool — masks[i, r] ⇔ row r satisfies cuts[i]

    @staticmethod
    def build(cuts: Sequence, encoded: pd.DataFrame) -> "CutMatrix":
        masks = np.stack([eval_mask(c, encoded) for c in cuts]) if cuts else np.zeros(
            (0, len(encoded)), dtype=bool
        )
        return CutMatrix(list(cuts), masks)

    def left_counts(self, idx: np.ndarray) -> np.ndarray:
        """Per-cut count of rows in ``idx`` satisfying the cut."""
        return self.masks[:, idx].sum(axis=1)

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


def split_active(
    cut,
    ld: Description,
    rd: Description,
    active: list[int],
    workload: Sequence[QueryNode],
    query_refs: list[frozenset],
) -> tuple[list[int], list[int]]:
    """Active queries of the left/right children ``ld``/``rd`` of ``cut``:
    each active query referencing the cut's column is re-checked against
    both child descriptions; the others pass to both children."""
    key = column_key(cut)
    a_left, a_right = [], []
    for qi in active:
        if key in query_refs[qi]:
            if ld.may_intersect(workload[qi]):
                a_left.append(qi)
            if rd.may_intersect(workload[qi]):
                a_right.append(qi)
        else:  # restriction along an unreferenced column cannot deactivate
            a_left.append(qi)
            a_right.append(qi)
    return a_left, a_right


def grow(
    cm: CutMatrix,
    schema: TableSchema,
    workload: Sequence[QueryNode],
    ac_names: tuple[str, ...],
    choose: Callable[[TreeNode, np.ndarray, list, int], Optional[int]],
) -> tuple[TreeNode, list[tuple[TreeNode, int]]]:
    """Build a tree over the rows of ``cm``, breadth-first.

    ``choose(node, idx, active, n_open)`` gets a node, its row indices, its
    active queries and the number of open leaves (finished leaves, queued
    nodes and this one); it returns the index of the cut to apply, or
    ``None`` to make the node a leaf. Returns the root and the leaves as
    ``(node, n_active)``; every node's ``n_rows`` is set.
    """
    query_refs = [referenced_columns(q) for q in workload]
    root = TreeNode(Description.root(schema, ac_names))
    active = [qi for qi, q in enumerate(workload) if root.desc.may_intersect(q)]
    queue = deque([(root, np.arange(cm.masks.shape[1]), active)])
    leaves: list[tuple[TreeNode, int]] = []
    while queue:
        node, idx, active = queue.popleft()
        node.n_rows = len(idx)
        ci = choose(node, idx, active, len(leaves) + len(queue) + 1)
        if ci is None:
            leaves.append((node, len(active)))
            continue
        left, right = node.split(cm.cuts[ci])
        a_l, a_r = split_active(
            cm.cuts[ci], left.desc, right.desc, active, workload, query_refs
        )
        m = cm.masks[ci, idx]
        queue.append((left, idx[m], a_l))
        queue.append((right, idx[~m], a_r))
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
    query_refs = [referenced_columns(q) for q in workload]

    def choose(node: TreeNode, idx: np.ndarray, active: list[int], n_open: int):
        """First cut with the strictly largest positive gain, where
        gain = Δ skipped tuples = |N|·|A| − |L|·|A_L| − |R|·|A_R|."""
        legal, counts = cm.legal(idx, b, relaxed)
        n, best, best_gain = len(idx), None, 0
        for ci in np.flatnonzero(legal):
            cut, nl = cm.cuts[ci], int(counts[ci])
            a_l, a_r = split_active(
                cut, node.desc.restrict(cut, True), node.desc.restrict(cut, False),
                active, workload, query_refs,
            )
            gain = n * len(active) - nl * len(a_l) - (n - nl) * len(a_r)
            if gain > best_gain:
                best, best_gain = int(ci), gain
        return best

    root, _ = grow(cm, schema, workload, ac_names, choose)
    return QdTree.build(root, schema)
