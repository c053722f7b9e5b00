"""Greedy top-down qd-tree construction (paper Algorithm 1, Sec 4).

Starting from a single root block, repeatedly split any leaf of size ≥ 2b
with the cut maximising the increase in skipped tuples ``C(T ⊕ (p, n)) −
C(T)``, subject to both children holding ≥ b tuples; stop splitting a leaf
when no cut gives a strictly positive gain.

Because splitting a leaf only changes that leaf's contribution to ``C``,
the greedy criterion is evaluated locally. Two optimisations keep this
*O(|P|·|V|·depth)*-ish as analysed in the paper:

* a precomputed cut-mask matrix (:class:`CutMatrix`) gives the left/right
  child sizes of every candidate cut on a node with one vectorised slice;
* *active-query pruning*: each node tracks the queries its description
  still intersects. A cut on column ``c`` can only deactivate queries that
  both (a) are active at the parent and (b) reference ``c``, so only those
  are re-checked against child descriptions.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pandas as pd

from .description import Description
from .predicates import Node as QueryNode
from .predicates import eval_mask, referenced_columns
from .qdtree import QdTree, TreeNode
from .schema import TableSchema


def _cut_key(cut) -> str:
    """The 'column' a cut constrains, for active-query pruning."""
    from .predicates import AdvPred, Pred

    if isinstance(cut, Pred):
        return cut.attr
    if isinstance(cut, AdvPred):
        return f"ac:{cut.name}"
    raise TypeError(f"bad cut {cut!r}")


@dataclass
class CutMatrix:
    """Candidate cuts with precomputed satisfaction masks over a dataset."""

    cuts: list
    masks: np.ndarray  # (|P|, N) bool — masks[i, r] ⇔ row r satisfies cuts[i]
    keys: list[str]  # column key per cut

    @staticmethod
    def build(cuts: Sequence, encoded: pd.DataFrame) -> "CutMatrix":
        masks = np.stack([eval_mask(c, encoded) for c in cuts]) if cuts else np.zeros(
            (0, len(encoded)), dtype=bool
        )
        return CutMatrix(list(cuts), masks, [_cut_key(c) for c in cuts])

    def left_counts(self, idx: np.ndarray) -> np.ndarray:
        """Per-cut count of rows in ``idx`` satisfying the cut."""
        return self.masks[:, idx].sum(axis=1)


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
    key = _cut_key(cut)
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


def _split_gain(
    node_desc: Description,
    cut,
    nl: int,
    nr: int,
    active: list[int],
    workload: Sequence[QueryNode],
    query_refs: list[frozenset],
):
    """(gain, active_left, active_right) of applying ``cut`` to a leaf.

    gain = Δ skipped tuples = |L|·(|W|−|A_L|) + |R|·(|W|−|A_R|) − (|L|+|R|)·(|W|−|A|).
    """
    a_left, a_right = split_active(
        cut, node_desc.restrict(cut, True), node_desc.restrict(cut, False),
        active, workload, query_refs,
    )
    w = len(workload)
    gain = (
        nl * (w - len(a_left))
        + nr * (w - len(a_right))
        - (nl + nr) * (w - len(active))
    )
    return gain, a_left, a_right


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
    if b < 1:
        raise ValueError("min block size must be >= 1")
    cm = CutMatrix.build(cuts, encoded)
    query_refs = [referenced_columns(q) for q in workload]
    root = TreeNode(Description.root(schema, ac_names))
    root_active = [
        qi for qi in range(len(workload)) if root.desc.may_intersect(workload[qi])
    ]

    def grow(node: TreeNode, idx: np.ndarray, active: list[int]):
        node.n_rows = len(idx)
        min_to_split = b + 1 if relaxed else 2 * b
        if len(idx) < min_to_split or not cm.cuts:
            return
        counts = cm.left_counts(idx)
        if relaxed:
            legal = (
                (np.maximum(counts, len(idx) - counts) >= b)
                & (counts >= 1)
                & (len(idx) - counts >= 1)
            )
        else:
            legal = (counts >= b) & (len(idx) - counts >= b)
        best = None  # (gain, cut_i, a_left, a_right)
        for ci in np.flatnonzero(legal):
            gain, a_l, a_r = _split_gain(
                node.desc, cm.cuts[ci], int(counts[ci]), len(idx) - int(counts[ci]),
                active, workload, query_refs,
            )
            if gain > 0 and (best is None or gain > best[0]):
                best = (gain, int(ci), a_l, a_r)
        if best is None:
            return
        _, ci, a_l, a_r = best
        left, right = node.split(cm.cuts[ci])
        m = cm.masks[ci, idx]
        grow(left, idx[m], a_l)
        grow(right, idx[~m], a_r)

    grow(root, np.arange(len(encoded)), root_active)
    return QdTree.build(root, schema)
