"""Predicate AST: cuts and queries over the encoded data space.

Three leaf forms (Sec 3, 6.1 of the paper):

* :class:`Pred` — unary ``(attr, op, literal)`` with ``op`` in
  ``< <= > >= = in``; equality forms are restricted to categorical columns
  (as in the paper), range forms to numeric/date columns. Literals are in
  the *encoded* space (dictionary codes / day numbers).
* :class:`AdvPred` — a named advanced (binary) cut ``attr1 op attr2``,
  optionally negated; tracked per-node as may-true/may-false bits.
* :class:`And` / :class:`Or` — arbitrary nesting for queries.

Every node supports vectorised evaluation over an encoded pandas frame
(:func:`eval_mask`) and compilation to SQL text in *raw* literal space
(:func:`to_sql`): the one compiler for Spark's routed reads, the tree's
``CASE`` routing expression and the DuckDB oracle. ``eval_mask`` is the
independent reference the tests check both engines against. A NULL (NaN)
value satisfies no leaf, a negated AC included, as in SQL, where
``NOT(x < y)`` is NULL when ``x`` is.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np
import pandas as pd

from .schema import TableSchema

RANGE_OPS = ("<", "<=", ">", ">=")
EQ_OPS = ("=", "in")


@dataclass(frozen=True)
class Pred:
    """Unary cut/filter ``attr op literal`` in encoded literal space."""

    attr: str
    op: str
    value: object  # scalar for range/=; frozenset of codes for "in"

    def __post_init__(self):
        if self.op not in RANGE_OPS + EQ_OPS:
            raise ValueError(f"bad op {self.op!r}")
        if self.op == "in" and not isinstance(self.value, frozenset):
            object.__setattr__(self, "value", frozenset(self.value))

    def __repr__(self) -> str:  # stable, hashable-friendly display
        if self.op == "in":
            vals = ",".join(map(str, sorted(self.value)))
            return f"{self.attr} IN ({vals})"
        return f"{self.attr} {self.op} {self.value}"


@dataclass(frozen=True)
class AdvPred:
    """Advanced cut ``attr1 op attr2`` (Sec 6.1), identified by ``name``."""

    name: str
    attr1: str
    op: str
    attr2: str
    negated: bool = False

    def __post_init__(self):
        if self.op not in RANGE_OPS + ("=",):
            raise ValueError(f"bad op {self.op!r}")

    def negate(self) -> "AdvPred":
        return AdvPred(self.name, self.attr1, self.op, self.attr2, not self.negated)

    def __repr__(self) -> str:
        s = f"{self.attr1} {self.op} {self.attr2}"
        return f"NOT({s})" if self.negated else s


@dataclass(frozen=True)
class And:
    children: tuple

    def __init__(self, children: Iterable):
        object.__setattr__(self, "children", tuple(children))

    def __repr__(self) -> str:
        return "(" + " AND ".join(map(repr, self.children)) + ")"


@dataclass(frozen=True)
class Or:
    children: tuple

    def __init__(self, children: Iterable):
        object.__setattr__(self, "children", tuple(children))

    def __repr__(self) -> str:
        return "(" + " OR ".join(map(repr, self.children)) + ")"


Node = Union[Pred, AdvPred, And, Or]

_NUMPY_OPS = {
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
    "=": np.equal,
}


# --------------------------------------------------------------- evaluation
def adv_mask(node: AdvPred, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x op y``, or its negation, row by row, as SQL reads it: a NULL
    (NaN) operand makes both NULL, which selects no row."""
    m = _NUMPY_OPS[node.op](x, y)
    return ~(m | pd.isna(x) | pd.isna(y)) if node.negated else m


def eval_mask(node: Node, pdf: pd.DataFrame) -> np.ndarray:
    """Boolean satisfaction mask of ``node`` over an *encoded* frame."""
    if isinstance(node, Pred):
        col = pdf[node.attr].to_numpy()
        if node.op == "in":
            return np.isin(col, list(node.value))
        return _NUMPY_OPS[node.op](col, node.value)
    if isinstance(node, AdvPred):
        return adv_mask(node, pdf[node.attr1].to_numpy(), pdf[node.attr2].to_numpy())
    if isinstance(node, And):
        out = np.ones(len(pdf), dtype=bool)
        for c in node.children:
            out &= eval_mask(c, pdf)
        return out
    if isinstance(node, Or):
        out = np.zeros(len(pdf), dtype=bool)
        for c in node.children:
            out |= eval_mask(c, pdf)
        return out
    raise TypeError(f"unknown node {node!r}")


# ------------------------------------------------------------------- to SQL
def to_sql(node: Node, schema: TableSchema) -> str:
    """Raw-literal SQL text (valid in both Spark SQL and DuckDB)."""
    if isinstance(node, Pred):
        if node.op == "in":
            lits = ", ".join(schema.sql_literal(node.attr, v) for v in sorted(node.value))
            return f"({node.attr} IN ({lits}))"
        return f"({node.attr} {node.op} {schema.sql_literal(node.attr, node.value)})"
    if isinstance(node, AdvPred):
        s = f"({node.attr1} {node.op} {node.attr2})"
        return f"(NOT {s})" if node.negated else s
    if isinstance(node, (And, Or)):
        sep = " AND " if isinstance(node, And) else " OR "
        return "(" + sep.join(to_sql(c, schema) for c in node.children) + ")"
    raise TypeError(f"unknown node {node!r}")


# -------------------------------------------------------------------- misc
def atoms(node: Node):
    """Yield the :class:`Pred`/:class:`AdvPred` leaves of ``node`` in order."""
    if isinstance(node, (Pred, AdvPred)):
        yield node
    elif isinstance(node, (And, Or)):
        for c in node.children:
            yield from atoms(c)
    else:
        raise TypeError(f"unknown node {node!r}")

