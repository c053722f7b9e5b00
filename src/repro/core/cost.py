"""Cost model: tuples accessed / skipped for a layout under a workload.

Implements Eq. (1): a block is *accessed* by query ``q`` iff its metadata
intersects ``q``; the workload's logical cost is the sum of accessed block
sizes over all queries. ``C(P)`` (tuples skipped) is the complement.

* :func:`per_query_accessed` — the one block × query scorer: given the
  row→BID assignment of *any* partitioner, build its
  :class:`~.qdtree.Layout` (min-max + categorical masks + AC bits from the
  actual rows, :func:`~.qdtree.block_stats`) and count each query's
  accessed tuples with one blocks × queries intersection matrix
  (:mod:`.intersect`).
* :func:`evaluate_layout` — the uniform Table-2 scorer built on it, used
  identically for the random/range baselines, Bottom-Up, Greedy and
  WOODBLOCK so comparisons are apples-to-apples.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pandas as pd

from .predicates import Node, eval_mask
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


def per_query_accessed(
    encoded: pd.DataFrame,
    bids: np.ndarray,
    schema: TableSchema,
    workload: Sequence[Node],
    acs: dict | None = None,
) -> np.ndarray:
    """Tuples accessed by each query individually under a layout."""
    uniq, inv = np.unique(bids, return_inverse=True)
    layout = block_stats(encoded, inv, schema, acs or {}, len(uniq))
    return layout.sizes @ layout.blocks.intersects(workload)


def evaluate_layout(
    encoded: pd.DataFrame,
    bids: np.ndarray,
    schema: TableSchema,
    workload: Sequence[Node],
    acs: dict | None = None,
) -> LayoutMetrics:
    """Uniform block-stats scoring of a row→BID assignment (Table 2)."""
    accessed = per_query_accessed(encoded, bids, schema, workload, acs)
    selected = int(sum(eval_mask(q, encoded).sum() for q in workload))
    return LayoutMetrics(
        n_rows=len(encoded),
        n_queries=len(workload),
        n_blocks=len(np.unique(bids)),
        tuples_accessed=int(accessed.sum()),
        tuples_selected=selected,
    )
