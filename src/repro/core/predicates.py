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
and compilation to SQL text in *raw* literal space (:func:`to_sql`): the
one compiler for Spark's routed reads and the DuckDB oracle.
:func:`eval_masks` is the one row kernel: it evaluates many trees over one
frame, each distinct leaf once (:func:`atom_mask`), and serves the cut
matrix, layout scoring, block stats and numpy routing; :func:`eval_mask` is its one-node case. The
tests hold it to DuckDB over ``to_sql`` for whole workloads. A NULL (NaN)
value satisfies no leaf, a negated AC included, as in SQL, where
``NOT(x < y)`` is NULL when ``x`` is.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Union

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
def _in_mask(col: np.ndarray, values: frozenset) -> np.ndarray:
    """Exactly ``np.isin(col, values)``. Over non-negative integer codes
    it is a lookup in a boolean table indexed by code, which covers every
    code of the column and is no longer than the column; anything else
    (floats, negative codes or literals, no rows, no literals) keeps
    ``np.isin``."""
    if (col.dtype.kind in "iu" and len(col) and values
            and all(isinstance(v, (int, np.integer)) for v in values)
            and min(values) >= 0 and col.min() >= 0):
        top = max(int(max(values)), int(col.max()))
        if top < len(col):
            table = np.zeros(top + 1, dtype=bool)
            table[np.fromiter(values, dtype=np.int64, count=len(values))] = True
            return table[col]
    return np.isin(col, list(values))


def atom_mask(atom: Pred | AdvPred, col: Callable[[str], np.ndarray]) -> np.ndarray:
    """Fresh boolean mask of one leaf over the columns ``col(name)``
    returns. An advanced cut reads as in SQL: a NULL (NaN) operand makes
    both it and its negation NULL, which selects no row."""
    if isinstance(atom, Pred):
        c = col(atom.attr)
        if atom.op == "in":
            return _in_mask(c, atom.value)
        return _NUMPY_OPS[atom.op](c, atom.value)
    if isinstance(atom, AdvPred):
        x, y = col(atom.attr1), col(atom.attr2)
        m = _NUMPY_OPS[atom.op](x, y)
        return ~(m | pd.isna(x) | pd.isna(y)) if atom.negated else m
    raise TypeError(f"not a leaf: {atom!r}")


def eval_masks(nodes: Sequence[Node], pdf: pd.DataFrame) -> list[np.ndarray]:
    """Boolean satisfaction mask of each of ``nodes`` over an *encoded*
    frame, each a fresh array the caller owns.

    Each column is pulled out of pandas once and each distinct leaf is
    evaluated once, however many nodes hold it; ``And``/``Or`` reduce in
    place into a new array. A leaf's mask is kept only until its last use.
    """
    cols: dict[str, np.ndarray] = {}
    leaves: dict = {}  # leaf -> mask, while uses of it remain
    uses = Counter(a for q in nodes for a in atoms(q))

    def col(name: str) -> np.ndarray:
        if name not in cols:
            cols[name] = pdf[name].to_numpy()
        return cols[name]

    def leaf(atom, fresh: bool) -> np.ndarray:
        m = leaves.pop(atom, None)
        if m is None:
            m = atom_mask(atom, col)
        uses[atom] -= 1
        if uses[atom]:
            leaves[atom] = m
            return m.copy() if fresh else m
        return m

    def mask(node: Node) -> np.ndarray:
        if isinstance(node, (Pred, AdvPred)):
            return leaf(node, fresh=True)
        if isinstance(node, And):
            out, op = np.ones(len(pdf), dtype=bool), np.logical_and
        else:  # atoms() has rejected every other node type
            out, op = np.zeros(len(pdf), dtype=bool), np.logical_or
        for c in node.children:
            op(out, leaf(c, fresh=False) if isinstance(c, (Pred, AdvPred)) else mask(c),
               out=out)
        return out

    return [mask(q) for q in nodes]


def eval_mask(node: Node, pdf: pd.DataFrame) -> np.ndarray:
    """Boolean satisfaction mask of ``node`` over an *encoded* frame."""
    return eval_masks([node], pdf)[0]


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

