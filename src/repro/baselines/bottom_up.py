"""Bottom-Up row grouping — Sun et al. [45], the state-of-the-art baseline.

Pipeline (paper Sec 2.2.2 and 7.3):

1. **Feature selection.** Candidate features are the same candidate-cut set
   fed to Greedy/WOODBLOCK. Each feature's frequency is initialised to the
   number of workload queries it *subsumes* (query ⇒ feature). Features are
   considered in subsumption topological order: at each step a feature not
   subsumed by any other remaining candidate is chosen (max frequency
   first); the frequency of the others is discounted by the queries they
   share with the chosen one; selection stops below a frequency threshold
   or at ``max_features`` (paper: 15). The tuned **BU⁺** variant
   additionally drops features with selectivity > ``selectivity_cap``
   (paper Sec 7.5: 10%).
2. **Vectorisation.** Every tuple becomes the bit vector of features it
   satisfies; identical vectors are grouped with their counts (row weight).
3. **Bottom-up merging.** Initially each unique vector is a block. The
   pair of blocks with the lowest heuristic penalty is merged; a block
   whose size reaches ``b`` stops merging. The penalty of merging blocks
   ``i, j`` with OR-bitmaps ``v`` and sizes ``s`` uses the column weights
   ``cw`` (queries subsumed per feature):

       penalty(i,j) = (s_i+s_j)·w(v_i|v_j) − s_i·w(v_i) − s_j·w(v_j),
       w(v) = Σ_f v_f · cw_f

   i.e. the increase in (weighted) non-skippable tuples — the heuristic
   the paper criticises for only matching the true objective when the
   per-feature query sets are disjoint.

Complexity is quadratic in the number of unique vectors (a drawback the
paper calls out); ``max_unique`` caps it by folding the rarest vectors
into one overflow block first.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pandas as pd

from ..core.greedy import CutMatrix
from ..core.predicates import AdvPred, And, Node, Or, Pred


# ----------------------------------------------------------- subsumption
def pred_implies(p1, p2) -> bool:
    """Does satisfying ``p1`` guarantee satisfying ``p2``? (p1 ⊆ p2)"""
    if p1 == p2:
        return True
    if isinstance(p1, AdvPred) or isinstance(p2, AdvPred):
        return False  # distinct ACs are opaque to each other
    if p1.attr != p2.attr:
        return False
    o1, o2, v1, v2 = p1.op, p2.op, p1.value, p2.value
    if o1 in ("=", "in") and o2 in ("=", "in"):
        s1 = v1 if o1 == "in" else frozenset([v1])
        s2 = v2 if o2 == "in" else frozenset([v2])
        return s1 <= s2
    if o1 in ("=", "in") or o2 in ("=", "in"):
        return False
    # both range ops, same column
    if o1 in ("<", "<=") and o2 in ("<", "<="):
        return v1 < v2 or (v1 == v2 and not (o1 == "<=" and o2 == "<"))
    if o1 in (">", ">=") and o2 in (">", ">="):
        return v1 > v2 or (v1 == v2 and not (o1 == ">=" and o2 == ">"))
    return False


def query_implies(q: Node, f) -> bool:
    """Does query ``q`` imply feature ``f`` (q is subsumed by f)?

    A conjunction implies ``f`` if *any* conjunct does (the conjunction is
    stricter than each conjunct); a disjunction implies ``f`` only if every
    disjunct does.
    """
    if isinstance(q, (Pred, AdvPred)):
        return pred_implies(q, f)
    if isinstance(q, And):
        return any(query_implies(c, f) for c in q.children)
    if isinstance(q, Or):
        return all(query_implies(c, f) for c in q.children)
    raise TypeError(f"unknown query node {q!r}")


# ------------------------------------------------------- feature selection
@dataclass
class BottomUpConfig:
    max_features: int = 15  # paper: "up to 15 features"
    selectivity_cap: float | None = None  # BU+: 0.10
    max_unique: int = 2000  # quadratic-merging safety cap


def select_features(
    cuts: Sequence,
    workload: Sequence[Node],
    selectivities: np.ndarray,
    cfg: BottomUpConfig,
) -> list[int]:
    """Indices into ``cuts`` of the selected features."""
    cand = list(range(len(cuts)))
    if cfg.selectivity_cap is not None:
        cand = [i for i in cand if selectivities[i] <= cfg.selectivity_cap]
    qsets = {i: {qi for qi, q in enumerate(workload) if query_implies(q, cuts[i])} for i in cand}
    freq = {i: len(qsets[i]) for i in cand}
    chosen: list[int] = []
    remaining = set(cand)
    while remaining and len(chosen) < cfg.max_features:
        # subsumption topological order: prefer features not subsumed by
        # any other remaining candidate (i.e. maximal / most general)
        maximal = [
            i
            for i in remaining
            if not any(
                j != i and pred_implies(cuts[i], cuts[j]) for j in remaining
            )
        ]
        pool = maximal or sorted(remaining)
        best = max(pool, key=lambda i: (freq[i], -i))
        if freq[best] < 1:  # the best candidate covers no uncovered query
            break
        chosen.append(best)
        remaining.discard(best)
        for j in remaining:
            freq[j] -= len(qsets[j] & qsets[best])
    return chosen


# ---------------------------------------------------------------- merging
@dataclass
class BottomUpResult:
    bids: np.ndarray  # per input row
    feature_idx: list[int]  # chosen features (indices into the cut set)
    n_blocks: int


def bottom_up_partition(
    encoded: pd.DataFrame,
    cuts: Sequence,
    workload: Sequence[Node],
    b: int,
    cfg: BottomUpConfig | None = None,
) -> BottomUpResult:
    """Full Bottom-Up pipeline: select features, vectorise, merge to ≥ b."""
    cfg = cfg or BottomUpConfig()
    n = len(encoded)
    cm = CutMatrix.build(cuts, encoded)
    sel = cm.masks.mean(axis=0) if len(cuts) else np.zeros(0)
    feat_idx = select_features(cuts, workload, sel, cfg)
    if not feat_idx:
        return BottomUpResult(np.zeros(n, dtype=np.int64), [], 1)
    fmat = cm.masks[:, feat_idx]  # (N, M) row feature vectors
    cw = np.array(
        [sum(query_implies(q, cuts[i]) for q in workload) for i in feat_idx],
        dtype=np.float64,
    )

    vecs, inverse, counts = np.unique(
        fmat, axis=0, return_inverse=True, return_counts=True
    )
    # cap quadratic merging: fold rarest vectors into one overflow group
    if len(vecs) > cfg.max_unique:
        order = np.argsort(-counts)
        keep = order[: cfg.max_unique - 1]
        fold = order[cfg.max_unique - 1 :]
        remap = np.empty(len(vecs), dtype=np.int64)
        remap[keep] = np.arange(len(keep))
        remap[fold] = len(keep)
        over_vec = vecs[fold].any(axis=0)
        over_cnt = counts[fold].sum()
        vecs = np.vstack([vecs[keep], over_vec[None, :]])
        counts = np.concatenate([counts[keep], [over_cnt]])
        inverse = remap[inverse]

    group_of = _merge_blocks(vecs.astype(bool), counts.astype(np.int64), cw, b)
    bids_raw = group_of[inverse]
    # relabel to contiguous 0..k-1
    _, bids = np.unique(bids_raw, return_inverse=True)
    return BottomUpResult(bids.astype(np.int64), feat_idx, int(bids.max()) + 1)


def _merge_blocks(
    vecs: np.ndarray, sizes: np.ndarray, cw: np.ndarray, b: int
) -> np.ndarray:
    """Greedy pair merging; returns final block id per initial unique vector."""
    u = len(vecs)
    parent = np.arange(u)
    active = np.ones(u, dtype=bool)
    sizes = sizes.copy()
    vecs = vecs.copy()
    w = vecs @ cw  # w(v_i)
    # W_and[i,j] = w(v_i & v_j); w(v_i|v_j) = w_i + w_j − W_and[i,j]
    wa = (vecs * cw) @ vecs.T

    def penalty_matrix(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        si, sj = sizes[rows][:, None], sizes[cols][None, :]
        wi, wj = w[rows][:, None], w[cols][None, :]
        return sj * wi + si * wj - (si + sj) * wa[np.ix_(rows, cols)]

    while True:
        small = np.flatnonzero(active & (sizes < b))
        if len(small) == 0 or active.sum() <= 1:
            break
        if len(small) >= 2:
            rows = cols = small
        else:  # one underfull block left: merge it into its best partner
            rows, cols = small, np.flatnonzero(active)
        pm = penalty_matrix(rows, cols)
        pm[np.equal.outer(rows, cols)] = np.inf  # forbid self-merges
        a, bb = np.unravel_index(np.argmin(pm), pm.shape)
        i, j = int(rows[a]), int(cols[bb])
        # merge j into i
        vecs[i] |= vecs[j]
        sizes[i] += sizes[j]
        active[j] = False
        parent[j] = i
        w[i] = vecs[i] @ cw
        wa[i, :] = (vecs * cw) @ vecs[i]
        wa[:, i] = wa[i, :]

    # path-compress parents to final roots
    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    return np.array([root(i) for i in range(u)], dtype=np.int64)
