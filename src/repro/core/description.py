"""Semantic descriptions of qd-tree nodes (paper Table 1 + Sec 6.1).

A node's description has three parts:

* ``ranges`` — per numeric/date column, a closed :class:`Interval`
  ``[lo, hi]`` (the paper's ``n.range`` hypercube); a strict cut ``x < v``
  is stored as the bound ``hi = nextafter(v, -inf)``, the largest float
  below ``v``;
* ``masks`` — per categorical column, a ``|Dom|``-bit boolean vector
  (``n.categorical_mask``): bit 0 ⇒ that value definitively absent;
* ``acs`` — per advanced cut, a ``(may_true, may_false)`` pair. The paper
  stores one "may contain satisfying rows" bit; we keep the complementary
  bit too so the ¬AC side of a cut can also prune queries.

The two operations that matter:

* :meth:`Description.restrict` — apply a cut (or its negation) to produce a
  child description; this is how routing-tree semantics are propagated.
* :meth:`Description.may_intersect` — sound intersection test against a
  query AST: it may return ``True`` for a block with no matching rows
  (false positive ⇒ wasted scan) but never ``False`` for a block that
  contains a matching row (which would lose results). Each atom of the
  query's AND/OR tree tests only its own field: a range atom one interval,
  a categorical atom one mask, an AC atom one bit.

Construction, scoring and routing hold descriptions as
:class:`~.intersect.Blocks` rows; this form is their tested reference,
the root's value, overlap's regions and :func:`~.qdtree.block_description`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .predicates import AdvPred, And, Or, Pred
from .schema import CATEGORICAL, TableSchema


@dataclass(frozen=True)
class Interval:
    """Closed interval ``[lo, hi]`` of the real line; empty iff ``lo > hi``."""

    lo: float = -math.inf
    hi: float = math.inf

    def is_empty(self) -> bool:
        return self.lo > self.hi

    # -- restriction by a unary range predicate ---------------------------
    def restrict(self, op: str, v: float, side: bool) -> "Interval":
        """Interval of points additionally satisfying ``x op v`` (side=True)
        or its negation (side=False). A strict bound is stored as the
        adjacent float, which is exact for every float64 value (and every
        int64 value below 2**53)."""
        if not side:
            op = {"<": ">=", "<=": ">", ">": "<=", ">=": "<"}[op]
        if op == "<":
            return Interval(self.lo, min(self.hi, math.nextafter(v, -math.inf)))
        if op == "<=":
            return Interval(self.lo, min(self.hi, v))
        if op == ">":
            return Interval(max(self.lo, math.nextafter(v, math.inf)), self.hi)
        if op == ">=":
            return Interval(max(self.lo, v), self.hi)
        raise ValueError(op)

    # -- intersection with a unary range predicate ------------------------
    def intersects_pred(self, op: str, v: float) -> bool:
        """Does the interval contain any point satisfying ``x op v``?"""
        if self.lo > self.hi:
            return False
        if op == "<":
            return self.lo < v
        if op == "<=":
            return self.lo <= v
        if op == ">":
            return self.hi > v
        if op == ">=":
            return self.hi >= v
        raise ValueError(op)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


@dataclass
class Description:
    """Semantic description of a node's subspace."""

    ranges: dict[str, Interval] = field(default_factory=dict)
    masks: dict[str, np.ndarray] = field(default_factory=dict)
    acs: dict[str, tuple[bool, bool]] = field(default_factory=dict)

    # ------------------------------------------------------------- factory
    @staticmethod
    def root(schema: TableSchema, ac_names: tuple[str, ...] = ()) -> "Description":
        """Whole-table description: full domains, all-ones masks, (1,1) ACs."""
        ranges = {}
        masks = {}
        for name, spec in schema.columns.items():
            if spec.kind == CATEGORICAL:
                masks[name] = np.ones(spec.cardinality, dtype=bool)
            else:
                lo, hi = spec.domain
                ranges[name] = Interval(float(lo), float(hi))
        acs = {n: (True, True) for n in ac_names}
        return Description(ranges, masks, acs)

    def copy(self) -> "Description":
        return Description(dict(self.ranges), dict(self.masks), dict(self.acs))

    # ------------------------------------------------------------ restrict
    def restrict(self, cut, side: bool) -> "Description":
        """Child description after applying ``cut`` (True) or ``¬cut`` (False)."""
        out = self.copy()
        if isinstance(cut, Pred):
            if cut.op == "in" or cut.op == "=":
                vals = cut.value if cut.op == "in" else frozenset([cut.value])
                mask = self.masks[cut.attr]
                sel = np.zeros_like(mask)
                sel[[int(v) for v in vals]] = True
                out.masks[cut.attr] = mask & sel if side else mask & ~sel
            else:
                out.ranges[cut.attr] = self.ranges[cut.attr].restrict(
                    cut.op, float(cut.value), side
                )
        elif isinstance(cut, AdvPred):
            if cut.negated:
                cut, side = cut.negate(), not side
            mt, mf = self.acs[cut.name]
            out.acs[cut.name] = (mt, False) if side else (False, mf)
        else:
            raise TypeError(f"cannot restrict by {cut!r}")
        return out

    def is_empty(self) -> bool:
        return (
            any(iv.is_empty() for iv in self.ranges.values())
            or any(not m.any() for m in self.masks.values())
            or any(not mt and not mf for mt, mf in self.acs.values())
        )

    # ----------------------------------------------------------- intersect
    def may_intersect(self, q) -> bool:
        """Sound test: could any tuple in this subspace satisfy ``q``?

        AND intersects iff all conjuncts do; OR iff any disjunct does
        (Sec 3.3). Each atom tests only its own field, so a description
        that is empty in one column still intersects a query on another;
        the descriptions of blocks without rows are empty in every field.
        """
        if isinstance(q, Pred):
            if q.op in ("=", "in"):
                mask = self.masks[q.attr]
                vals = q.value if q.op == "in" else frozenset([q.value])
                return bool(mask[[int(v) for v in vals]].any())
            return self.ranges[q.attr].intersects_pred(q.op, float(q.value))
        if isinstance(q, AdvPred):
            mt, mf = self.acs[q.name]
            return mf if q.negated else mt
        if isinstance(q, And):
            return all(self.may_intersect(c) for c in q.children)
        if isinstance(q, Or):
            return any(self.may_intersect(c) for c in q.children)
        raise TypeError(f"unknown query node {q!r}")
