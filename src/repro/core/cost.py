"""Cost model: tuples accessed / skipped for a layout under a workload.

Implements Eq. (1): a block is *accessed* by query ``q`` iff its metadata
intersects ``q``; the workload's logical cost is the sum of accessed block
sizes over all queries. ``C(P)`` (tuples skipped) is the complement.

* :func:`evaluate_layout` — the uniform Table-2 scorer, used identically
  for the random/range baselines, Bottom-Up, Greedy and WOODBLOCK so
  comparisons are apples-to-apples: given the row→BID assignment of *any*
  partitioner, it builds the :class:`~.qdtree.Layout` of BIDs
  ``0..max(bids)`` (min-max + categorical masks + AC bits from the actual
  rows, :func:`~.qdtree.block_stats`) and counts each query's accessed
  tuples with :meth:`~.qdtree.Layout.accessed`, the one blocks × queries
  scorer. A BID that labels no row is an empty block, which costs nothing.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pandas as pd

from .predicates import Node, eval_masks
from .qdtree import block_stats
from .schema import TableSchema


@dataclass
class LayoutMetrics:
    """Logical skipping metrics of one layout under one workload."""

    n_rows: int
    n_queries: int
    n_blocks: int
    tuples_accessed: int  # Σ_q Σ_blocks |B|·[B intersects q]
    tuples_selected: int  # Σ_q |σ_q(V)| — true selectivity lower bound

    @property
    def access_fraction(self) -> float:
        return self.tuples_accessed / (self.n_rows * self.n_queries)

    @property
    def skipped(self) -> int:
        return self.n_rows * self.n_queries - self.tuples_accessed

    @property
    def selectivity(self) -> float:
        return self.tuples_selected / (self.n_rows * self.n_queries)


def evaluate_layout(
    encoded: pd.DataFrame,
    bids: np.ndarray,
    schema: TableSchema,
    workload: Sequence[Node],
    acs: dict | None = None,
) -> LayoutMetrics:
    """Uniform block-stats scoring of a row→BID assignment (Table 2)."""
    bids = np.asarray(bids)
    layout = block_stats(encoded, bids, schema, acs or {}, int(bids.max(initial=-1)) + 1)
    selected = sum(np.count_nonzero(m) for m in eval_masks(workload, encoded))
    return LayoutMetrics(
        n_rows=len(encoded),
        n_queries=len(workload),
        n_blocks=int(np.count_nonzero(layout.sizes)),
        tuples_accessed=int(layout.accessed(workload).sum()),
        tuples_selected=int(selected),
    )
