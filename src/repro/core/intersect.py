"""Descriptions as arrays, and their intersection with queries (Sec 3.3,
4, 5, Eq. 1).

:class:`Blocks` holds semantic descriptions (Table 1) as rows of ranges
plus one mask row. A *field* is a numeric column or a mask group: a
categorical column or an advanced cut (AC). A numeric column has a closed
range ``[lo, hi]`` (empty iff ``lo > hi``; a strict bound ``x < v`` is
stored as ``hi = nextafter(v, -inf)``); a mask group a bit per value (0:
absent), an AC being the two values (may-true, may-false). Only
:meth:`Space.of` knows this layout. It is the only description type: a
tree node holds one row, which :meth:`Blocks.restrict` intersects with
both sides of a cut to give the children, each side itself a row of the
bounds and bits it keeps, and block stats and overlap regions are rows
too. The tests hold these arrays to a per-description walk of a query's
AND/OR tree, their reference.
Greedy's gain, WOODBLOCK's active queries, Table-2 scoring and query
routing all ask whether a block may hold a row matching a query; this
module answers it for every pair at once:

* :func:`compile_workload` maps the queries to *atoms*, their distinct leaf
  predicates, and *boxes*, the conjunctions of each query's disjunctive
  normal form, with a box → query map;
* :meth:`Workload.box_truth` tests every (description, atom) pair on its
  own field — a range atom its interval, a mask atom its group's bits (a
  categorical atom its values', an AC atom one) — and reduces atom truth
  to boxes with a float32 matmul; a second matmul reduces boxes to queries;
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
(:func:`cut_sides`, as bounds and kept bits, ``Workload.sides``), so
tree construction restricts a whole level's children in one batch, and
Greedy gets the active-query counts of both children of every legal cut
of a level in one call (:meth:`Workload.split_counts`), tested only
against the boxes the level's parents intersect. Atoms are ordered by
field, and every atom and cut knows its field (``Workload.atom_field``,
``Workload.cut_field``). A restriction never makes an atom true, and a cut
changes only the atoms on its own field, so a box holds in a child iff it
holds in the parent and the child's atoms on the cut's field hold.
``split_counts`` computes each node's box truth once, groups the (node,
cut) pairs by the cut's field, and tests each group's children on that
field's atoms alone.
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
    ac: dict  # AC name -> offset of its (may-true, may-false) pair in a mask row
    width: int  # the length of a mask row: Σ cardinalities + 2 per AC

    @staticmethod
    def of(schema: TableSchema, ac_names: Sequence[str] = ()) -> "Space":
        """Numeric and date columns in schema order; in a mask row, the
        categorical masks in schema order, then each AC's pair."""
        cat, off = {}, 0
        for name in schema.categorical_cols:
            cat[name] = (off, schema[name].cardinality)
            off += schema[name].cardinality
        return Space({c: j for j, c in enumerate(schema.numeric_cols)}, cat,
                     {a: off + 2 * j for j, a in enumerate(ac_names)}, off + 2 * len(ac_names))


@dataclass
class Blocks:
    """Descriptions as arrays, one row per description: the ranges (an
    empty range is ``lo > hi``) and the mask row (see :class:`Space`)."""

    space: Space
    lo: np.ndarray  # (n, numeric columns) float64
    hi: np.ndarray
    masks: np.ndarray  # (n, space.width) bool

    @staticmethod
    def full(space: Space, n: int = 1) -> "Blocks":
        """``n`` rows that keep everything: unbounded ranges, all-ones masks."""
        inf = np.full((n, len(space.num)), np.inf)
        return Blocks(space, -inf, inf, np.ones((n, space.width), dtype=bool))

    @staticmethod
    def root(schema: TableSchema, ac_names: Sequence[str] = ()) -> "Blocks":
        """The whole-table description as one row: each numeric column's
        schema domain, all-ones masks."""
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
        return self.lo, self.hi, self.masks

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

    Atoms are ordered by the field they read: range atoms, then mask atoms
    (categorical, then AC), so the atoms of one field are one slice.
    """

    space: Space
    n_queries: int
    r_col: np.ndarray  # per range atom: numeric column
    r_lo: np.ndarray  # tests lo (< and <=), else hi (> and >=)
    r_strict: np.ndarray  # < or >
    r_val: np.ndarray  # v for a lo test, -v for a hi test
    m_rows: np.ndarray  # mask positions the mask atoms read
    m_ind: np.ndarray  # (m_rows, mask atoms) float32 indicator
    box_atoms: np.ndarray  # (atoms, boxes) float32: atom in box
    box_query: np.ndarray  # (boxes, queries) float32: box of query
    box_q: np.ndarray  # (boxes,) query of each box, ascending
    atoms: tuple  # the leaf predicates, in atom order
    atom_field: np.ndarray  # per atom: the field it reads (see _field), ascending
    sides: Blocks | None  # row c: where cut c holds; row n_cuts + c: where it
    #                       does not (None when compiled without cuts)
    cut_field: np.ndarray  # per cut: the field it restricts

    # ------------------------------------------------------------- queries
    def truth(self, b: Blocks, atoms: slice = slice(None)) -> np.ndarray:
        """(blocks, atoms) bool: the walk's test of each atom in ``atoms`` (a
        slice of the atom order, all atoms by default) on each block; an
        atom kind the slice lacks is not computed."""
        start, stop, _ = atoms.indices(len(self.atoms))
        out = np.empty((len(b), stop - start), dtype=bool)
        n = len(self.r_col)  # range atoms come first, then mask atoms
        m = max(min(stop, n) - start, 0)  # the slice's range atoms
        if m:
            k = slice(start, start + m)
            lo, hi = b.lo[:, self.r_col[k]], b.hi[:, self.r_col[k]]
            x = np.where(self.r_lo[k], lo, -hi)
            out[:, :m] = np.where(self.r_strict[k], x < self.r_val[k], x <= self.r_val[k]) \
                & ~(lo > hi)
        if stop - start > m:
            k = slice(max(start, n) - n, stop - n)
            out[:, m:] = b.masks[:, self.m_rows].astype(np.float32) @ self.m_ind[:, k] > 0
        return out

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
        sides = cut_sides(self.atoms, self.space)[atom]
        reg = base[np.zeros(self.box_atoms.shape[1], dtype=np.int64)]
        np.maximum.at(reg.lo, box, sides.lo)
        np.minimum.at(reg.hi, box, sides.hi)
        np.logical_and.at(reg.masks, box, sides.masks)
        # one mask group per categorical column and per AC
        starts = [off for off, _ in self.space.cat.values()] + list(self.space.ac.values())
        empty = ((reg.lo > reg.hi).any(axis=1)
                 | (np.add.reduceat(reg.masks, starts, axis=1) == 0).any(axis=1))
        bits = [x.masks.astype(np.float32) for x in (reg, b)]
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
        self, desc: Blocks, node: np.ndarray, boxes: np.ndarray, cis: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(|A_L|, |A_R|) per pair i: active queries of both children of cut
        ``cis[i]`` on the node described by row ``node[i]`` of ``desc``,
        among ``boxes`` (ascending, and holding every box the nodes
        intersect).

        A box holds in a child iff it holds in the parent and the child's
        atoms on the cut's field hold. So each node's boxes are tested once,
        and the pairs are grouped by the cut's field, over the fields
        present: a group tests only its field's atoms, and recounts only
        the queries with a box that reads the field; every other query
        keeps its count in the parent. Chunks of 1,024 pairs bound the
        (children, boxes) arrays."""
        held = self.box_truth(desc, boxes)
        out = np.tile(self.n_active(held, boxes)[node], (2, 1))
        n = len(self.sides) // 2
        field = self.cut_field[cis]
        order = np.argsort(field, kind="stable")
        first = np.flatnonzero(np.diff(field[order], prepend=-1))  # each field's first pair
        present = field[order[first]]  # only the fields the pairs cut
        atoms = zip(np.searchsorted(self.atom_field, present),
                    np.searchsorted(self.atom_field, present, side="right"))
        box_q = self.box_q[boxes]
        for (a, z), s, e in zip(atoms, first, [*first[1:], len(order)]):
            on = self.box_atoms[a:z, boxes]  # the field's atoms × boxes
            touched = np.zeros(self.n_queries, dtype=bool)
            touched[box_q[on.any(axis=0)]] = True
            sub = touched[box_q]  # the boxes of the queries the field's atoms can change
            if not sub.any():
                continue
            on, sub_boxes = on[:, sub], boxes[sub]
            for c in range(s, e, 1024):
                p = order[c:min(c + 1024, e)]
                kids = desc[np.tile(node[p], 2)].restrict(
                    self.sides[np.concatenate([cis[p], cis[p] + n])])
                false = ~self.truth(kids, slice(a, z))
                par = held[node[p]][:, sub]
                ok = np.tile(par, (2, 1)) & (false.astype(np.float32) @ on == 0)
                out[:, p] += (self.n_active(ok, sub_boxes).reshape(2, -1)
                              - self.n_active(par, sub_boxes))
        return out[0], out[1]


def cut_sides(cuts: Sequence, space: Space) -> Blocks:
    """Both sides of every cut as rows of the bounds and bits each keeps,
    row c where cut c holds and row ``len(cuts) + c`` where it does not."""
    n = len(cuts)
    out = Blocks.full(space, 2 * n)
    lo, hi, keep = out._arrays
    for i, cut in enumerate(cuts):
        if not isinstance(cut, (Pred, AdvPred)):
            raise TypeError(f"cannot restrict by {cut!r}")
        leaf = _mask_leaf(cut, space)
        if leaf is not None:
            off, w, pos = leaf
            keep[i, off:off + w] = False
            keep[i, pos], keep[n + i, pos] = True, False
        else:
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
    return out


def compile_workload(queries: Sequence, space: Space, cuts: Sequence = ()) -> Workload:
    """Compile ``queries`` (and the effects of ``cuts``) against ``space``.

    A field the space lacks raises ``KeyError``, as the walk does.
    """
    seen: dict = {}  # atom -> its index in order of first appearance
    boxes: list[tuple[int, list]] = []  # (query, the box's atoms as indices into seen)
    for qi, q in enumerate(queries):
        for conj in _dnf(q):
            boxes.append((qi, [seen.setdefault(a, len(seen)) for a in conj]))
    first = list(seen)
    field = [_field(a, space) for a in first]
    order = sorted(range(len(first)), key=field.__getitem__)  # by field, then first appearance
    atoms = [first[i] for i in order]
    at = np.argsort(order)  # index into seen -> index into atoms
    atom_field = np.array([field[j] for j in order], dtype=np.int64)
    k0 = atom_field.searchsorted(len(space.num))
    rng, msk = atoms[:k0], atoms[k0:]

    r_col = np.array([space.num[a.attr] for a in rng], dtype=np.int64)
    r_lo = np.array([a.op in ("<", "<=") for a in rng], dtype=bool)
    r_strict = np.array([a.op in ("<", ">") for a in rng], dtype=bool)
    r_val = np.array([float(a.value) for a in rng], dtype=float)
    r_val[~r_lo] *= -1
    reads = [_mask_leaf(a, space)[2] for a in msk]  # the mask positions where each holds
    row = {p: i for i, p in enumerate(sorted({p for pos in reads for p in pos}))}
    m_rows = np.array(list(row), dtype=np.int64)
    m_ind = np.zeros((len(m_rows), len(msk)), dtype=np.float32)
    for k, pos in enumerate(reads):
        m_ind[[row[p] for p in pos], k] = 1.0
    box_atoms = np.zeros((len(atoms), len(boxes)), dtype=np.float32)
    box_query = np.zeros((len(boxes), len(queries)), dtype=np.float32)
    for k, (qi, box) in enumerate(boxes):
        box_atoms[at[box], k] = 1.0
        box_query[k, qi] = 1.0
    sides = cut_sides(cuts, space) if len(cuts) else None
    return Workload(
        space, len(queries), r_col, r_lo, r_strict, r_val, m_rows, m_ind,
        box_atoms, box_query, np.array([qi for qi, _ in boxes], dtype=np.int64),
        tuple(atoms), atom_field, sides,
        np.array([_field(c, space) for c in cuts], dtype=np.int64),
    )


def _field(p, space: Space) -> int:
    """The field the leaf predicate ``p`` reads: numeric columns first, in
    :class:`Space` order, then each mask group by its offset in the mask
    row. A field the space lacks raises ``KeyError``."""
    leaf = _mask_leaf(p, space)
    return space.num[p.attr] if leaf is None else len(space.num) + leaf[0]


def _mask_leaf(p, space: Space) -> tuple[int, int, list[int]] | None:
    """A mask leaf's group, as (offset, width) in the mask row, and the mask
    positions where it holds: a categorical leaf's codes (indexed as the
    walk does: a negative code counts from the end), an AC's may-true bit
    or, negated, its may-false bit. ``None`` for a range leaf."""
    if isinstance(p, AdvPred):
        off = space.ac[p.name]
        return off, 2, [off + p.negated]
    if p.op not in ("=", "in"):
        return None
    off, card = space.cat[p.attr]
    vals = p.value if p.op == "in" else (p.value,)
    return off, card, [off + range(card)[int(v)] for v in vals]
