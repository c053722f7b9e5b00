"""Bottom-Up row grouping — Sun et al. [45], the state-of-the-art baseline.

Pipeline (paper Sec 2.2.2 and 7.3):

1. **Feature selection.** Candidate features are the same candidate-cut set
   fed to Greedy/WOODBLOCK. Each feature's frequency is initialised to the
   number of workload queries it *subsumes* (query ⇒ feature, by the
   kernel's containment test: :func:`subsumption`). Features are
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
from ..core.intersect import Blocks, Space, compile_workload
from ..core.predicates import AdvPred, Node, atoms
from ..core.schema import TableSchema


# ----------------------------------------------------------- subsumption
def subsumption(schema: TableSchema, cuts: Sequence, workload: Sequence[Node]) -> tuple:
    """``(implies, subsumes)``: ``implies[f, q]`` says query q implies
    feature f (every row matching q satisfies cut f), ``subsumes[g, f]``
    that feature f implies feature g. Both come from the kernel's
    containment test over an unbounded base: implication between the
    predicates themselves, whatever the column domains."""
    acs = dict.fromkeys(a.name for q in (*cuts, *workload) for a in atoms(q)
                        if isinstance(a, AdvPred))
    space = Space.of(schema, tuple(acs))
    feats, base = compile_workload((), space, cuts).sides[:len(cuts)], Blocks.full(space)
    return feats.contains(workload, base), feats.contains(cuts, base)


# ------------------------------------------------------- feature selection
@dataclass
class BottomUpConfig:
    max_features: int = 15  # paper: "up to 15 features"
    selectivity_cap: float | None = None  # BU+: 0.10
    max_unique: int = 2000  # quadratic-merging safety cap


def select_features(
    implies: np.ndarray,
    subsumes: np.ndarray,
    selectivities: np.ndarray,
    cfg: BottomUpConfig,
) -> list[int]:
    """Indices of the selected features, given :func:`subsumption`'s
    matrices over the candidate cuts."""
    remaining = np.ones(len(implies), dtype=bool)
    if cfg.selectivity_cap is not None:
        remaining &= selectivities <= cfg.selectivity_cap
    freq = implies.sum(axis=1)
    subsumed = subsumes & ~np.eye(len(subsumes), dtype=bool)
    chosen: list[int] = []
    while remaining.any() and len(chosen) < cfg.max_features:
        # subsumption topological order: prefer features not subsumed by
        # any other remaining candidate (i.e. maximal / most general)
        maximal = remaining & ~subsumed[remaining].any(axis=0)
        pool = np.flatnonzero(maximal if maximal.any() else remaining)
        best = int(pool[np.argmax(freq[pool])])  # ties: the lowest index
        if freq[best] < 1:  # the best candidate covers no uncovered query
            break
        chosen.append(best)
        remaining[best] = False
        freq -= (implies & implies[best]).sum(axis=1)
    return chosen


# ---------------------------------------------------------------- merging
@dataclass
class BottomUpResult:
    bids: np.ndarray  # per input row
    n_blocks: int


def bottom_up_partition(
    encoded: pd.DataFrame,
    schema: TableSchema,
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
    implies, subsumes = subsumption(schema, cuts, workload)
    feat_idx = select_features(implies, subsumes, sel, cfg)
    if not feat_idx:
        return BottomUpResult(np.zeros(n, dtype=np.int64), 1)
    fmat = cm.masks[:, feat_idx]  # (N, M) row feature vectors
    cw = implies[feat_idx].sum(axis=1).astype(np.float64)

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
    return BottomUpResult(bids.astype(np.int64), int(bids.max()) + 1)


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
