"""Benchmark datasets + query workloads (paper Sec 7.2).

Each workload module exposes a deterministic generator returning a raw
pandas frame, a :class:`~repro.core.schema.TableSchema` builder, and a
query-workload generator returning :class:`Query` objects (template name +
predicate AST in encoded literal space).
"""
from dataclasses import dataclass

import numpy as np

from ..core.predicates import Node


@dataclass(frozen=True)
class Query:
    """A workload query: its template name and its filter AST."""

    template: str
    ast: Node


def asts(queries) -> list:
    """The bare predicate ASTs of a query list (what the cost model eats)."""
    return [q.ast for q in queries]


def take(values, idx: np.ndarray) -> np.ndarray:
    """``values[idx]`` as an object array of the values themselves.

    A frame holds string columns as objects: built from this array, it keeps
    it, where a numpy ``<U`` array is copied into one new ``str`` per cell.
    """
    return np.array(values, dtype=object)[idx]
