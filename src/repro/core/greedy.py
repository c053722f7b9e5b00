"""Qd-tree construction loop and Greedy (paper Algorithm 1, Sec 4).

Greedy and WOODBLOCK (Sec 5) run the same process: a node is described by
its semantic description (a one-row :class:`~.intersect.Blocks`), an
action is a cut, and applying the cut yields the two children. :func:`grow`
is that process, coded once. It expands the tree one breadth-first level
at a time and hands a *chooser* the level's nodes that have a legal cut
(:class:`Level`); the chooser returns each one's cut, or ``-1`` to make it
a leaf. :func:`legal_cuts` is the one rule for which cuts a chooser may
pick. Greedy's chooser takes the legal cut maximising the increase in
skipped tuples ``C(T ⊕ (p, n)) − C(T)`` and stops at a leaf when no cut
gives a strictly positive gain; WOODBLOCK's samples its policy.

Because splitting a leaf only changes that leaf's contribution to ``C``,
the greedy criterion is evaluated locally, so expansion order does not
change the tree. Three things keep this *O(|P|·|V|·depth)*-ish as
analysed in the paper:

* a precomputed cut-mask matrix (:class:`CutMatrix`, rows × cuts) gives
  the left child size of every candidate cut on a node from one gather of
  the node's rows; a node's children need only one gather between them,
  of the smaller child's rows, as the other child's counts are the
  parent's minus the gathered ones (the histogram subtraction of LightGBM,
  Ke et al., NeurIPS 2017), exact integers either way;
* *active-query pruning*: each level is tested only against the boxes of
  the compiled workload (:mod:`.intersect`) its parents intersect, and
  one batched kernel call gives the active-query counts of both children
  of every legal cut of the level;
* the children of a level are restricted by the cut sides compiled with
  the workload (``Workload.sides``), all in one batch.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

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
    by_cut: np.ndarray  # (|P|, N) bool, the same cut-major: one cut's rows contiguous

    @staticmethod
    def build(cuts: Sequence, encoded: pd.DataFrame) -> "CutMatrix":
        by_cut = np.stack([eval_mask(c, encoded) for c in cuts]) if cuts else \
            np.zeros((0, len(encoded)), dtype=bool)
        # row-major too, so that left_counts gathers whole rows
        return CutMatrix(list(cuts), by_cut.T.copy(), by_cut)

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


def legal_cuts(counts: np.ndarray, n, b: int, relaxed: bool = False) -> np.ndarray:
    """Which cuts may split a node of ``n`` rows whose cuts' left children
    hold ``counts`` rows (one node, or nodes × cuts with one ``n`` each).

    Strict: both children hold ≥ ``b`` rows. Relaxed (Sec 6.2 overlap):
    one child holds ≥ ``b`` rows and the other ≥ 1.
    """
    n = np.asarray(n)[..., None]
    small, large = np.minimum(counts, n - counts), np.maximum(counts, n - counts)
    if relaxed:
        return (large >= b) & (small >= 1)
    return small >= b


@dataclass
class Level:
    """The nodes of one breadth-first level that have a legal cut, in
    breadth-first order."""

    nodes: list  # TreeNode
    desc: Blocks  # their descriptions, one row each
    idx: list  # their rows, as indices into the cut matrix
    counts: np.ndarray  # (nodes, cuts): rows on the left of each cut
    legal: np.ndarray  # (nodes, cuts): legal_cuts of those counts
    n_active: np.ndarray  # (nodes,): queries each node intersects
    boxes: np.ndarray  # ascending boxes the level's parents intersect, a
    #                    superset of every node's own
    n_open: int  # leaves before this level plus the level's size


def grow(
    cm: CutMatrix,
    root_desc: Blocks,
    wl: Workload,
    b: int,
    relaxed: bool,
    choose: Callable[[Level], np.ndarray],
) -> tuple[TreeNode, list[tuple[TreeNode, int]]]:
    """Build a tree over the rows of ``cm`` from the one-row ``root_desc``,
    one breadth-first level at a time.

    ``wl`` is the workload compiled with ``cm``'s cuts; ``b`` and
    ``relaxed`` are :func:`legal_cuts`'s. ``choose(level)`` returns, per
    node of ``level``, the index of the cut to apply, or ``-1`` to make
    the node a leaf; a node with no legal cut is a leaf without asking.
    Returns the root and the leaves as ``(node, n_active_queries)``, in
    breadth-first order; every node's ``n_rows`` is set. ``b < 1`` raises:
    it would admit a cut with an empty child.
    """
    if b < 1:
        raise ValueError("min block size must be >= 1")
    fit = b + 1 if relaxed else 2 * b  # the fewest rows a legal cut can split
    n_cuts = len(cm.cuts)
    root = TreeNode(root_desc, n_rows=len(cm.masks))
    nodes, desc, idx = [root], root_desc, [np.arange(len(cm.masks))]
    counts = [np.count_nonzero(cm.by_cut, axis=1) if len(idx[0]) >= fit else None]
    boxes = np.arange(wl.box_atoms.shape[1])
    leaves: list[tuple[TreeNode, int]] = []
    while nodes:
        held = wl.box_truth(desc, boxes)
        n_active = wl.n_active(held, boxes)
        cand = [i for i, c in enumerate(counts) if c is not None]
        cnt = np.array([counts[i] for i in cand], dtype=np.int64).reshape(len(cand), n_cuts)
        ok = legal_cuts(cnt, [nodes[i].n_rows for i in cand], b, relaxed)
        has = ok.any(axis=1)
        cand, cnt, ok = np.array(cand, dtype=np.int64)[has], cnt[has], ok[has]
        cis = np.full(len(nodes), -1)
        if len(cand):
            cis[cand] = choose(Level(
                [nodes[i] for i in cand], desc[cand], [idx[i] for i in cand], cnt, ok,
                n_active[cand], boxes, len(leaves) + len(nodes),
            ))
        split = np.flatnonzero(cis >= 0)
        leaves += [(nodes[i], int(n_active[i])) for i in np.flatnonzero(cis < 0)]
        if not len(split):
            break
        # both children of every split, left then right, in one restrict
        sides = np.stack([cis[split], cis[split] + n_cuts], axis=1).ravel()
        kids = desc[np.repeat(split, 2)].restrict(wl.sides[sides])
        next_nodes, next_idx, next_counts = [], [], []
        for k, i in enumerate(split):
            ci, rows = cis[i], idx[i]
            n_left = int(counts[i][ci])
            sizes = (n_left, nodes[i].n_rows - n_left)
            pair, got = [None, None], [None, None]
            if max(sizes) >= fit:  # a child may be split: it needs rows and counts
                m = cm.by_cut[ci][rows]
                pair = [np.compress(m, rows), np.compress(~m, rows)]
                # gather the smaller child; the other's counts are the
                # parent's minus its
                small = int(sizes[1] < sizes[0])
                got[small] = cm.left_counts(pair[small])
                got[1 - small] = counts[i] - got[small]
            for side, node in enumerate(nodes[i].split(cm.cuts[ci], kids[2 * k:2 * k + 2])):
                node.n_rows = sizes[side]
                next_nodes.append(node)
                next_idx.append(pair[side])
                next_counts.append(got[side] if sizes[side] >= fit else None)
        nodes, desc, idx, counts = next_nodes, kids, next_idx, next_counts
        boxes = boxes[held[split].any(axis=0)]
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

    def choose(lv: Level) -> np.ndarray:
        """Per node, the first cut with the strictly largest positive gain,
        where gain = Δ skipped tuples = |N|·|A| − |L|·|A_L| − |R|·|A_R|;
        every legal cut of the level is counted in one batch."""
        node, ci = np.nonzero(lv.legal)
        a_l, a_r = wl.split_counts(lv.desc[node], lv.boxes, ci)
        n = np.array([nd.n_rows for nd in lv.nodes])[node]
        nl = lv.counts[node, ci]
        gain = n * lv.n_active[node] - nl * a_l - (n - nl) * a_r
        out = np.full(len(lv.nodes), -1)
        bounds = np.flatnonzero(np.diff(node, prepend=-1, append=len(lv.nodes)))
        for k, (s, e) in enumerate(zip(bounds[:-1], bounds[1:])):
            best = s + int(np.argmax(gain[s:e]))
            if gain[best] > 0:
                out[k] = ci[best]
        return out

    root, _ = grow(cm, root, wl, b, relaxed, choose)
    return QdTree.build(root, schema)
