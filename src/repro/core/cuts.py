"""Candidate-cut extraction from a workload (Sec 3.4, 6.1).

The search space for every construction algorithm is the set of *pushed-down
unary predicates* of the target workload, plus any declared advanced
(binary) cuts. Duplicates are removed; order is deterministic (first
appearance) so construction is reproducible across runs.
"""
from __future__ import annotations

from typing import Sequence

from .predicates import AdvPred, Node, Pred, atoms


def extract_cuts(workload: Sequence[Node]) -> list[Pred | AdvPred]:
    """All distinct unary predicates and (positive) ACs in ``workload``.

    Per query, unary cuts come first and ACs second: cut order sets
    Greedy's tie-break.
    """
    out: dict = {}  # insertion-ordered set
    for q in workload:
        for a in sorted(atoms(q), key=lambda a: isinstance(a, AdvPred)):
            if isinstance(a, AdvPred) and a.negated:
                a = a.negate()
            out.setdefault(a, None)
    return list(out)
