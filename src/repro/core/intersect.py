"""Descriptions as arrays, and their intersection with queries (Sec 3.3,
4, 5, Eq. 1).

:class:`Blocks` holds semantic descriptions (Table 1) as rows: a closed
range ``[lo, hi]`` per numeric column (empty iff ``lo > hi``; a strict
bound ``x < v`` is stored as ``hi = nextafter(v, -inf)``), the categorical
masks side by side (bit 0: that value is absent), and the may-true /
may-false bits of every advanced cut (AC), in the one column layout
:meth:`Space.of` gives a schema. It is the only description type: a tree
node holds one row, which :meth:`Blocks.restrict` intersects with both
sides of a cut to give the children, each side itself a row of the bounds
and bits it keeps, and block stats and overlap regions are rows too. The
tests hold these arrays to a per-description walk of a query's AND/OR
tree, their reference.
Greedy's gain, WOODBLOCK's active queries, Table-2 scoring and query
routing all ask whether a block may hold a row matching a query; this
module answers it for every pair at once:

* :func:`compile_workload` maps the queries to *atoms*, their distinct leaf
  predicates, and *boxes*, the conjunctions of each query's disjunctive
  normal form, with a box → query map;
* :meth:`Workload.box_truth` tests every (description, atom) pair on its
  own field — a range atom its interval, a categorical atom its mask, an
  AC atom one bit — and reduces atom truth to boxes with a float32
  matmul; a second matmul reduces boxes to queries;
* :meth:`Blocks.contains` (by :meth:`Workload.inside`) answers the
  converse for overlap's redundancy pruning and Bottom-Up's subsumption:
  does every row of a one-row base that matches the query lie inside the
  block? Each box's region, the base restricted by its atoms' sides, must
  be empty or inside the block: bounds by comparison, bits as subsets by
  matmul.

A box holds iff all its atoms do, and a query iff one of its boxes does.
For boolean atom values that is the walk's AND/OR tree, so every answer
equals the walk's, atom by atom: ``x < 1 AND x > 5`` still intersects any
interval that admits either conjunct alone. The test is sound: it may
keep a block with no matching row, never prune one that holds one.

The compiled workload also carries both sides of every candidate cut
(:func:`_cut_effects`, as bounds and kept bits, ``Workload.sides``), so
tree construction restricts a whole level's children in one batch, and
Greedy gets the active-query counts of both children of every legal cut
of a level in one call (:meth:`Workload.split_counts`): the children
become the rows of one :class:`Blocks`, tested only against the boxes the
level's parents intersect. A restriction never makes an atom true, so a
box that fails at a node fails in both its children; and as a cut on
column ``j`` changes only the atoms on ``j``, an active box holds in a
child iff the child's atoms on ``j`` do.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .predicates import AdvPred, And, Or, Pred
from .schema import TableSchema


@dataclass
class Space:
    """Array layout of the descriptions over one schema and set of ACs."""

    num: dict  # numeric column -> index into lo/hi
    cat: dict  # categorical column -> (offset, cardinality) in a mask row
    ac: dict  # AC name -> index into may_true/may_false
    width: int  # Σ cardinalities: the length of a mask row

    @staticmethod
    def of(schema: TableSchema, ac_names: Sequence[str] = ()) -> "Space":
        """Numeric and date columns in schema order, then the categorical
        masks side by side in schema order, then the ACs."""
        cat, off = {}, 0
        for name in schema.categorical_cols:
            cat[name] = (off, schema[name].cardinality)
            off += schema[name].cardinality
        return Space({c: j for j, c in enumerate(schema.numeric_cols)}, cat,
                     {a: j for j, a in enumerate(ac_names)}, off)


@dataclass
class Blocks:
    """Descriptions as arrays, one row per description (an empty range is
    ``lo > hi``)."""

    space: Space
    lo: np.ndarray  # (n, numeric columns) float64
    hi: np.ndarray
    masks: np.ndarray  # (n, Σ cardinalities) bool
    may_true: np.ndarray  # (n, ACs) bool
    may_false: np.ndarray

    @staticmethod
    def full(space: Space, n: int = 1) -> "Blocks":
        """``n`` rows that keep everything: unbounded ranges, all-ones masks
        and (True, True) AC bits."""
        inf = np.full((n, len(space.num)), np.inf)
        bits = [np.ones((n, w), dtype=bool) for w in (space.width, len(space.ac), len(space.ac))]
        return Blocks(space, -inf, inf, *bits)

    @staticmethod
    def root(schema: TableSchema, ac_names: Sequence[str] = ()) -> "Blocks":
        """The whole-table description as one row: each numeric column's
        schema domain, all-ones masks and (True, True) AC bits."""
        out = Blocks.full(Space.of(schema, ac_names))
        dom = np.array([schema[c].domain for c in out.space.num], dtype=float)
        out.lo[0], out.hi[0] = dom.reshape(-1, 2).T
        return out

    @staticmethod
    def stack(rows: Sequence["Blocks"]) -> "Blocks":
        """The rows of several :class:`Blocks` over one space, in order."""
        return Blocks(rows[0].space, *map(np.concatenate, zip(*(r._arrays for r in rows))))

    @property
    def _arrays(self) -> tuple:
        return self.lo, self.hi, self.masks, self.may_true, self.may_false

    def __len__(self) -> int:
        return len(self.lo)

    def __getitem__(self, rows) -> "Blocks":
        """The rows ``rows`` (a slice or an index array) as :class:`Blocks`."""
        return Blocks(self.space, *(a[rows] for a in self._arrays))

    def restrict(self, sides: "Blocks") -> "Blocks":
        """Each row intersected with the matching row of ``sides`` (one row
        broadcasts), where a side of a cut is the row of the bounds and bits
        it keeps."""
        return Blocks(
            self.space,
            np.maximum(self.lo, sides.lo),
            np.minimum(self.hi, sides.hi),
            self.masks & sides.masks,
            self.may_true & sides.may_true,
            self.may_false & sides.may_false,
        )

    def intersects(self, queries: Sequence) -> np.ndarray:
        """(blocks, queries) bool: may block b hold a row matching query q?"""
        return compile_workload(queries, self.space).intersects(self)

    def contains(self, queries: Sequence, base: "Blocks") -> np.ndarray:
        """(blocks, queries) bool: does every row of the one-row ``base``
        that matches query q lie inside block b?"""
        return compile_workload(queries, self.space).inside(self, base)

    def query_bids(self, query) -> list[int]:
        """Ascending indices (plain ints) of the blocks ``query`` intersects."""
        return np.flatnonzero(self.intersects([query])[:, 0]).tolist()


def _dnf(q) -> list[tuple]:
    """``q`` as an OR of conjunctions (tuples) of leaf predicates."""
    if isinstance(q, (Pred, AdvPred)):
        return [(q,)]
    if isinstance(q, And):
        out = [()]
        for c in q.children:
            out = [a + b for a in out for b in _dnf(c)]
        return out
    if isinstance(q, Or):
        return [box for c in q.children for box in _dnf(c)]
    raise TypeError(f"unknown query node {q!r}")


@dataclass
class Workload:
    """Compiled queries, and optionally the effects of candidate cuts.

    Atoms are ordered range atoms, then categorical atoms, then AC atoms.
    """

    space: Space
    n_queries: int
    r_col: np.ndarray  # per range atom: numeric column
    r_lo: np.ndarray  # tests lo (< and <=), else hi (> and >=)
    r_strict: np.ndarray  # < or >
    r_val: np.ndarray  # v for a lo test, -v for a hi test
    c_rows: np.ndarray  # mask positions the categorical atoms read
    c_ind: np.ndarray  # (c_rows, categorical atoms) float32 indicator
    a_col: np.ndarray  # per AC atom: AC index
    a_neg: np.ndarray  # negated AC: reads may_false
    box_atoms: np.ndarray  # (atoms, boxes) float32: atom in box
    box_query: np.ndarray  # (boxes, queries) float32: box of query
    box_q: np.ndarray  # (boxes,) query of each box, ascending
    atoms: tuple  # the leaf predicates, in atom order
    sides: Blocks  # row c: where cut c holds; row n_cuts + c: where it does not

    # ------------------------------------------------------------- queries
    def truth(self, b: Blocks) -> np.ndarray:
        """(blocks, atoms) bool: the walk's test of each atom on each block."""
        lo, hi = b.lo[:, self.r_col], b.hi[:, self.r_col]
        x = np.where(self.r_lo, lo, -hi)
        rng = np.where(self.r_strict, x < self.r_val, x <= self.r_val) & ~(lo > hi)
        cat = b.masks[:, self.c_rows].astype(np.float32) @ self.c_ind > 0
        ac = np.where(self.a_neg, b.may_false[:, self.a_col], b.may_true[:, self.a_col])
        return np.concatenate([rng, cat, ac], axis=1)

    def box_truth(self, b: Blocks, boxes=slice(None)) -> np.ndarray:
        """(blocks, boxes) bool: does every atom of the box hold?"""
        false = (~self.truth(b)).astype(np.float32) @ self.box_atoms[:, boxes]
        return false == 0

    def intersects(self, b: Blocks) -> np.ndarray:
        """(blocks, queries) bool: does one of the query's boxes hold?"""
        return self.box_truth(b).astype(np.float32) @ self.box_query > 0

    def inside(self, b: Blocks, base: Blocks) -> np.ndarray:
        """(blocks, queries) bool: does every row of the one-row ``base``
        that matches the query lie inside the block? Each box's region,
        ``base`` restricted by the side of each atom where it holds, must
        be empty or inside the block field by field."""
        atom, box = np.nonzero(self.box_atoms)
        sides = _cut_effects(self.atoms, self.space)[atom]
        reg = base[np.zeros(self.box_atoms.shape[1], dtype=np.int64)]
        np.maximum.at(reg.lo, box, sides.lo)
        np.minimum.at(reg.hi, box, sides.hi)
        for r, s in zip(reg._arrays[2:], sides._arrays[2:]):
            np.logical_and.at(r, box, s)
        starts = [off for off, _ in self.space.cat.values()]  # one mask group per column
        empty = ((reg.lo > reg.hi).any(axis=1) | ~(reg.may_true | reg.may_false).all(axis=1)
                 | (np.add.reduceat(reg.masks, starts, axis=1) == 0).any(axis=1))
        bits = [np.concatenate(x._arrays[2:], axis=1).astype(np.float32) for x in (reg, b)]
        subset = bits[0] @ (1 - bits[1]).T == 0  # (boxes, blocks): no bit the block lacks
        held = ((b.lo[:, None] <= reg.lo) & (reg.hi <= b.hi[:, None])).all(axis=2) & subset.T
        return (~(held | empty)).astype(np.float32) @ self.box_query == 0

    def n_active(self, held: np.ndarray, boxes: np.ndarray) -> np.ndarray:
        """Per row of ``held`` (rows × ``boxes``, ascending), the number of
        queries with a held box."""
        return np.logical_or.reduceat(held, self._query_starts(boxes), axis=1).sum(axis=1)

    def _query_starts(self, boxes: np.ndarray) -> np.ndarray:
        """Positions in ``boxes`` (ascending) where a query's boxes begin."""
        return np.flatnonzero(np.diff(self.box_q[boxes], prepend=-1))

    # ---------------------------------------------------------------- cuts
    def split_counts(
        self, desc: Blocks, boxes: np.ndarray, cis: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(|A_L|, |A_R|) per cut in ``cis``: active queries of both children
        of cut ``cis[i]`` on the node described by row ``i`` of ``desc``,
        among ``boxes`` (ascending, and holding every box the node
        intersects)."""
        n = len(self.sides) // 2
        out = np.zeros((2, len(cis)), dtype=np.int64)
        for s in range(0, len(cis), 1024):  # bounds the (children, atoms) arrays
            rows = desc[s:s + 1024]
            for side in (0, 1):
                kids = rows.restrict(self.sides[cis[s:s + 1024] + side * n])
                out[side, s:s + len(rows)] = self.n_active(self.box_truth(kids, boxes), boxes)
        return out[0], out[1]


def _cut_effects(cuts: Sequence, space: Space) -> Blocks:
    """Both sides of every cut as rows of the bounds and bits each keeps,
    row c where cut c holds and row ``len(cuts) + c`` where it does not."""
    n = len(cuts)
    out = Blocks.full(space, 2 * n)
    lo, hi, keep, keep_t, keep_f = out._arrays
    for i, cut in enumerate(cuts):
        if isinstance(cut, Pred) and cut.op in ("=", "in"):
            off, card = space.cat[cut.attr]
            vals = cut.value if cut.op == "in" else frozenset([cut.value])
            sel = np.zeros(card, dtype=bool)
            sel[[int(v) for v in vals]] = True
            keep[i, off:off + card], keep[n + i, off:off + card] = sel, ~sel
        elif isinstance(cut, Pred):
            j, v = space.num[cut.attr], float(cut.value)
            # the lower side keeps x <= top, the upper side x >= bottom; a
            # strict bound is the adjacent float, exact for every float64
            # value (and every int64 value below 2**53)
            if cut.op in ("<", ">="):
                top, bottom = math.nextafter(v, -math.inf), v
            else:
                top, bottom = v, math.nextafter(v, math.inf)
            lower, upper = (i, n + i) if cut.op in ("<", "<=") else (n + i, i)
            hi[lower, j], lo[upper, j] = top, bottom
        elif isinstance(cut, AdvPred):
            j = space.ac[cut.name]
            # the side where the positive AC holds may not be false
            pos, neg = (n + i, i) if cut.negated else (i, n + i)
            keep_f[pos, j], keep_t[neg, j] = False, False
        else:
            raise TypeError(f"cannot restrict by {cut!r}")
    return out


def compile_workload(queries: Sequence, space: Space, cuts: Sequence = ()) -> Workload:
    """Compile ``queries`` (and the effects of ``cuts``) against ``space``.

    A field the space lacks raises ``KeyError``, as the walk does.
    """
    rng: dict = {}
    cat: dict = {}
    ac: dict = {}
    boxes: list[tuple[int, list]] = []  # (query, [(kind, local atom index)])
    for qi, q in enumerate(queries):
        for conj in _dnf(q):
            box = []
            for a in conj:
                if isinstance(a, AdvPred):
                    box.append((2, ac.setdefault(a, len(ac))))
                elif a.op in ("=", "in"):
                    box.append((1, cat.setdefault(a, len(cat))))
                else:
                    box.append((0, rng.setdefault(a, len(rng))))
            boxes.append((qi, box))

    r_col = np.array([space.num[a.attr] for a in rng], dtype=np.int64)
    r_lo = np.array([a.op in ("<", "<=") for a in rng], dtype=bool)
    r_strict = np.array([a.op in ("<", ">") for a in rng], dtype=bool)
    r_val = np.array([float(a.value) for a in rng], dtype=float)
    r_val[~r_lo] *= -1
    c_ind = np.zeros((space.width, len(cat)), dtype=np.float32)
    for a, k in cat.items():
        off, card = space.cat[a.attr]
        vals = a.value if a.op == "in" else frozenset([a.value])
        # index as the walk does: a negative code counts from the end
        c_ind[off + np.arange(card)[[int(v) for v in vals]], k] = 1.0
    c_rows = np.flatnonzero(c_ind.any(axis=1))
    base = (0, len(rng), len(rng) + len(cat))
    box_atoms = np.zeros((len(rng) + len(cat) + len(ac), len(boxes)), dtype=np.float32)
    box_query = np.zeros((len(boxes), len(queries)), dtype=np.float32)
    for k, (qi, box) in enumerate(boxes):
        box_atoms[[base[kind] + i for kind, i in box], k] = 1.0
        box_query[k, qi] = 1.0
    return Workload(
        space, len(queries), r_col, r_lo, r_strict, r_val, c_rows, c_ind[c_rows],
        np.array([space.ac[a.name] for a in ac], dtype=np.int64),
        np.array([a.negated for a in ac], dtype=bool),
        box_atoms, box_query, np.array([qi for qi, _ in boxes], dtype=np.int64),
        (*rng, *cat, *ac), _cut_effects(cuts, space),
    )
