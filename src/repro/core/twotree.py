"""Two-tree full replication (paper Sec 6.3).

With cheap storage, keep a full second copy of the dataset under a second
qd-tree T2 tailored to the queries that skip worst under T1. Per the
paper: build T1 for the full workload; then build T2 with the objective
modified to account for T1 — for each query the better of the two trees
is charged. At query time each query is routed to whichever tree prunes
more tuples.

Realisation here: T2's construction workload is the subset of queries
whose access fraction under T1 exceeds what the better half achieves
(the "worst skippability" set); Greedy/WOODBLOCK then optimise T2 for
exactly those. This matches the paper's intent — "this change naturally
guides the construction of the second tree to focus on the queries with
low skippability by T1" — while reusing the unmodified builders. The
iterate-until-convergence refinement the paper sketches is not built.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import pandas as pd

from .predicates import Node
from .qdtree import QdTree, block_stats
from .schema import TableSchema


@dataclass
class TwoTreeLayout:
    """T1 + T2 with the per-query tree choice and combined metrics."""

    tree1: QdTree
    tree2: QdTree
    choice: np.ndarray  # per query: 0 -> T1, 1 -> T2
    accessed1: np.ndarray
    accessed2: np.ndarray
    n_rows: int

    @property
    def tuples_accessed(self) -> int:
        return int(np.minimum(self.accessed1, self.accessed2).sum())

    @property
    def access_fraction(self) -> float:
        return self.tuples_accessed / (self.n_rows * len(self.choice))


def two_tree_layout(
    encoded: pd.DataFrame,
    schema: TableSchema,
    workload: Sequence[Node],
    build: Callable[[Sequence[Node]], QdTree],
    acs: dict | None = None,
) -> TwoTreeLayout:
    """Build (T1, T2) per Sec 6.3. ``build(queries)`` constructs one
    qd-tree optimised for the given query subset (e.g. a greedy_qdtree or
    woodblock closure)."""

    def accessed(t: QdTree) -> np.ndarray:
        """Tuples each query accesses under tree ``t``'s block stats."""
        stats = block_stats(encoded, t.route(encoded), schema, acs or {}, t.n_leaves)
        return stats.accessed(workload)

    t1 = build(list(workload))
    a1 = accessed(t1)
    # worst-skippability set: queries above the median access under T1
    # (nonempty as long as any query accesses anything)
    thresh = np.median(a1)
    worst = [q for q, a in zip(workload, a1) if a >= max(thresh, 1)]
    t2 = build(worst if worst else list(workload))
    a2 = accessed(t2)
    return TwoTreeLayout(
        tree1=t1,
        tree2=t2,
        choice=(a2 < a1).astype(np.int64),
        accessed1=a1,
        accessed2=a2,
        n_rows=len(encoded),
    )
