"""Qd-tree construction loop and Greedy (paper Algorithm 1, Sec 4).

Greedy and WOODBLOCK (Sec 5) run the same process: a node is described by
its semantic description (a one-row :class:`~.intersect.Blocks`), an
action is a cut, and applying the cut yields the two children. :func:`grow`
is that process, coded once. It expands one tree, or several trees
together (WOODBLOCK's episodes of one policy), one breadth-first level at
a time and hands a *chooser* the level's nodes that have a legal cut
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
from .predicates import eval_masks
from .qdtree import QdTree, TreeNode
from .schema import TableSchema


@dataclass
class CutMatrix:
    """Candidate cuts with precomputed satisfaction masks over a dataset,
    held once, row-major."""

    cuts: list
    masks: np.ndarray  # (N, |P|) bool — masks[r, i] ⇔ row r satisfies cuts[i]

    @staticmethod
    def build(cuts: Sequence, encoded: pd.DataFrame) -> "CutMatrix":
        by_cut = np.stack(eval_masks(cuts, encoded)) if cuts else \
            np.zeros((0, len(encoded)), dtype=bool)
        # row-major, so that left_counts gathers whole rows
        return CutMatrix(list(cuts), by_cut.T.copy())

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
    """The nodes of one breadth-first level that have a legal cut, over
    every tree grown: by tree, and in breadth-first order within a tree."""

    nodes: list  # TreeNode
    tree: np.ndarray  # (nodes,): the tree of each node, ascending
    desc: Blocks  # their descriptions, one row each
    idx: list  # their rows, as indices into the cut matrix
    counts: np.ndarray  # (nodes, cuts): rows on the left of each cut
    legal: np.ndarray  # (nodes, cuts): legal_cuts of those counts
    n_active: np.ndarray  # (nodes,): queries each node intersects
    boxes: np.ndarray  # ascending boxes the level's parents intersect, a
    #                    superset of every node's own
    n_open: np.ndarray  # (trees,): per tree, its leaves before this level
    #                     plus its nodes in the level


def grow(
    cm: CutMatrix,
    roots: Blocks,
    wl: Workload,
    b: int,
    relaxed: bool,
    choose: Callable[[Level], np.ndarray],
) -> tuple[list[TreeNode], list[list[tuple[TreeNode, int]]]]:
    """Build one tree over the rows of ``cm`` from each row of ``roots``,
    all together, one breadth-first level at a time.

    ``wl`` is the workload compiled with ``cm``'s cuts; ``b`` and
    ``relaxed`` are :func:`legal_cuts`'s. ``choose(level)`` returns, per
    node of ``level``, the index of the cut to apply, or ``-1`` to make
    the node a leaf; a node with no legal cut is a leaf without asking.
    A tree's nodes depend only on its own choices, so growing trees
    together gives each the tree it would get alone. Returns the roots and,
    per tree, its leaves as ``(node, n_active_queries)`` in breadth-first
    order; every node's ``n_rows`` is set. ``b < 1`` raises: it would admit
    a cut with an empty child.
    """
    if b < 1:
        raise ValueError("min block size must be >= 1")
    fit = b + 1 if relaxed else 2 * b  # the fewest rows a legal cut can split
    n_cuts, n_trees = len(cm.cuts), len(roots)
    every = np.arange(len(cm.masks))
    top = cm.left_counts(every) if len(every) >= fit else None  # shared by the roots
    nodes = [TreeNode(roots[t:t + 1], n_rows=len(every)) for t in range(n_trees)]
    out, tree, desc = list(nodes), np.arange(n_trees), roots
    idx, counts = [every] * n_trees, [top] * n_trees
    boxes = np.arange(wl.box_atoms.shape[1])
    leaves: list[list[tuple[TreeNode, int]]] = [[] for _ in range(n_trees)]
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
            n_open = np.array([len(lv) for lv in leaves]) + np.bincount(tree, minlength=n_trees)
            cis[cand] = choose(Level(
                [nodes[i] for i in cand], tree[cand], desc[cand], [idx[i] for i in cand],
                cnt, ok, n_active[cand], boxes, n_open,
            ))
        split = np.flatnonzero(cis >= 0)
        for i in np.flatnonzero(cis < 0):
            leaves[tree[i]].append((nodes[i], int(n_active[i])))
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
                m = cm.masks[rows, ci]
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
        nodes, tree, desc = next_nodes, np.repeat(tree[split], 2), kids
        idx, counts = next_idx, next_counts
        boxes = boxes[held[split].any(axis=0)]
    return out, leaves


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

    (root,), _ = grow(cm, root, wl, b, relaxed, choose)
    return QdTree.build(root, schema)
