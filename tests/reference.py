"""The tests' reference for semantic descriptions (paper Table 1, Sec 6.1).

The program holds every description as a row of
:class:`repro.core.intersect.Blocks`: ranges plus one mask row, where a
field is a numeric column or a mask group, a categorical column or an AC.
This module is the independent, one-description-at-a-time form the tests
hold those arrays to, with each kind of field apart:

* ``ranges`` — per numeric/date column, a closed :class:`Interval`
  ``[lo, hi]`` (the paper's ``n.range`` hypercube); a strict cut ``x < v``
  is stored as the bound ``hi = nextafter(v, -inf)``, the largest float
  below ``v``;
* ``masks`` — per categorical column, a ``|Dom|``-bit boolean vector
  (``n.categorical_mask``): bit 0 ⇒ that value definitively absent;
* ``acs`` — per advanced cut, a ``(may_true, may_false)`` pair. The paper
  stores one "may contain satisfying rows" bit; the complementary bit lets
  the ¬AC side of a cut prune queries too.

:meth:`Description.restrict` applies a cut (or its negation) to give a
child description. :meth:`Description.may_intersect` walks a query's AND/OR
tree: it may return ``True`` for a block with no matching rows, never
``False`` for a block that holds one. Each atom tests only its own field: a
range atom one interval, a categorical atom one mask, an AC atom one bit.
:func:`block_description` is the per-block reference of
:func:`repro.core.qdtree.block_stats`; :func:`blocks_of` and
:func:`descriptions` convert between the two forms. :func:`split_row` cuts
one description through the cut sides the kernel compiles;
:func:`split_counts_all_atoms` gives Greedy's active-query counts by
testing every restricted child against every atom; :func:`hand_tree`
builds a tree by hand from such cuts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import pandas as pd

from repro.core.intersect import Blocks, Space, compile_workload
from repro.core.predicates import AdvPred, And, Node, Or, Pred, eval_mask
from repro.core.qdtree import QdTree
from repro.core.schema import CATEGORICAL, TableSchema


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


def block_description(rows: pd.DataFrame, schema: TableSchema, acs: dict[str, Node]) -> Description:
    """Min-max + dictionary-mask + AC-bit description of one block's rows.

    NaN (NULL) values are left out of the min-max range, and a row whose
    AC operand is NULL sets neither AC bit. An empty block yields an empty
    description (prunes everything).
    """
    ranges: dict[str, Interval] = {}
    masks: dict[str, np.ndarray] = {}
    ac_bits: dict[str, tuple[bool, bool]] = {}
    empty = len(rows) == 0
    for name, spec in schema.columns.items():
        if spec.kind == CATEGORICAL:
            m = np.zeros(spec.cardinality, dtype=bool)
            if not empty:
                m[np.unique(rows[name].to_numpy()).astype(int)] = True
            masks[name] = m
        elif empty:
            ranges[name] = Interval(1.0, 0.0)  # empty interval
        else:
            col = rows[name].to_numpy()
            ranges[name] = Interval(float(np.nanmin(col)), float(np.nanmax(col)))
    for ac_name, pred in acs.items():
        if empty:
            ac_bits[ac_name] = (False, False)
        else:
            ac_bits[ac_name] = (bool(eval_mask(pred, rows).any()),
                                bool(eval_mask(pred.negate(), rows).any()))
    return Description(ranges, masks, ac_bits)


def blocks_of(descs: Sequence[Description], space: Space) -> Blocks:
    """The descriptions as the rows of one :class:`Blocks`."""
    n = len(descs)
    ranges = [[d.ranges[c] for c in space.num] for d in descs]
    return Blocks(
        space,
        np.array([[iv.lo for iv in r] for r in ranges], dtype=float).reshape(n, len(space.num)),
        np.array([[iv.hi for iv in r] for r in ranges], dtype=float).reshape(n, len(space.num)),
        np.array([np.concatenate([d.masks[c] for c in space.cat]
                                 + [d.acs[a] for a in space.ac] or [[]])
                  for d in descs], dtype=bool).reshape(n, space.width),
    )


def descriptions(blocks: Blocks) -> list[Description]:
    """The rows of ``blocks`` as :class:`Description` objects."""
    space = blocks.space
    return [
        Description(
            {c: Interval(float(blocks.lo[b, j]), float(blocks.hi[b, j]))
             for c, j in space.num.items()},
            {c: blocks.masks[b, off:off + card] for c, (off, card) in space.cat.items()},
            {a: (bool(blocks.masks[b, off]), bool(blocks.masks[b, off + 1]))
             for a, off in space.ac.items()},
        )
        for b in range(len(blocks))
    ]


def split_row(row: Blocks, cut) -> Blocks:
    """Both children of the one-row description ``row`` under ``cut``: row 0
    where the cut holds, row 1 where it does not."""
    return row.restrict(compile_workload([], row.space, [cut]).sides)


def split_counts_all_atoms(wl, desc: Blocks, node: np.ndarray, boxes: np.ndarray,
                           cis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``Workload.split_counts`` the long way: restrict both children of
    every (node, cut) pair and test each against every atom, with no
    parent truth and no grouping by field."""
    n = len(wl.sides) // 2
    kids = [desc[node].restrict(wl.sides[cis + side * n]) for side in (0, 1)]
    return tuple(wl.n_active(wl.box_truth(k, boxes), boxes) for k in kids)


def hand_tree(schema: TableSchema, splits, ac_names: Sequence[str] = ()) -> QdTree:
    """A tree built by hand as node arrays. ``splits`` lists ``(node,
    cut)`` pairs in order; each cuts a leaf and appends its two children,
    so the k-th split's children are nodes ``2k + 1`` (where the cut holds)
    and ``2k + 2``; node 0 is the root. Cutting an internal node raises."""
    cuts, cut, left = [], [-1], [-1]
    desc = [Blocks.root(schema, ac_names)]  # one row per node
    for node, c in splits:
        assert cut[node] < 0, "cannot split an internal node"
        cut[node], left[node] = len(cuts), len(cut)
        cuts.append(c)
        kids = split_row(desc[node], c)
        desc += [kids[:1], kids[1:]]
        cut += [-1, -1]
        left += [-1, -1]
    return QdTree(schema, cuts, np.array(cut), np.array(left), np.zeros(len(cut), dtype=np.int64),
                  Blocks.stack(desc))
