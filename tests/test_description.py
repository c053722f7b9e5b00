"""Interval + Description: restriction exactness and intersection soundness."""
import math

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.predicates import AdvPred, And, Or, Pred, eval_mask
from repro.core.schema import infer_schema

from .reference import Description, Interval

OPS = ["<", "<=", ">", ">="]
LITERALS = st.one_of(st.integers(0, 20), st.floats(0, 20))
BELOW, ABOVE = math.nextafter(0.07, -math.inf), math.nextafter(0.07, math.inf)


# ------------------------------------------------------------- Interval
class TestInterval:
    def test_default_full_line(self):
        iv = Interval()
        assert not iv.is_empty()
        assert iv.contains(0) and iv.contains(1e12) and iv.contains(-1e12)

    @pytest.mark.parametrize(
        "op,v,side,probe,expect",
        [
            ("<", 5, True, 4.9, True),
            ("<", 5, True, 5.0, False),
            ("<", 5, False, 5.0, True),
            ("<", 5, False, 4.9, False),
            ("<=", 5, True, 5.0, True),
            ("<=", 5, True, 5.1, False),
            ("<=", 5, False, 5.0, False),
            (">", 5, True, 5.1, True),
            (">", 5, True, 5.0, False),
            (">", 5, False, 5.0, True),
            (">=", 5, True, 5.0, True),
            (">=", 5, False, 5.0, False),
            (">=", 5, False, 4.9, True),
            # a literal with no exact binary form, probed at its float neighbours
            ("<", 0.07, True, BELOW, True),
            ("<", 0.07, True, 0.07, False),
            ("<", 0.07, False, 0.07, True),
            ("<", 0.07, False, BELOW, False),
            ("<=", 0.07, True, 0.07, True),
            ("<=", 0.07, True, ABOVE, False),
            ("<=", 0.07, False, 0.07, False),
            ("<=", 0.07, False, ABOVE, True),
            (">", 0.07, True, ABOVE, True),
            (">", 0.07, True, 0.07, False),
            (">", 0.07, False, 0.07, True),
            (">", 0.07, False, ABOVE, False),
            (">=", 0.07, True, 0.07, True),
            (">=", 0.07, True, BELOW, False),
            (">=", 0.07, False, 0.07, False),
            (">=", 0.07, False, BELOW, True),
        ],
    )
    def test_restrict_boundary_semantics(self, op, v, side, probe, expect):
        iv = Interval(0, 10).restrict(op, v, side)
        assert iv.contains(probe) is expect

    def test_empty_after_contradiction(self):
        iv = Interval(0, 10).restrict("<", 3, True).restrict(">", 7, True)
        assert iv.is_empty()

    def test_point_interval_openness(self):
        # [5, 5] nonempty; a strict bound at the point empties it
        assert not Interval(5, 5).is_empty()
        assert Interval(5, 5).restrict(">", 5, True).is_empty()
        assert Interval(5, 5).restrict("<", 5, True).is_empty()

    @given(
        lo=st.integers(0, 50),
        width=st.integers(0, 50),
        op=st.sampled_from(OPS),
        v=st.integers(0, 100),
    )
    @settings(max_examples=200, deadline=None)
    def test_intersects_pred_matches_point_check(self, lo, width, op, v):
        """intersects_pred must agree with a dense point-wise ground truth."""
        iv = Interval(lo, lo + width)
        pts = np.linspace(lo, lo + width, 101)
        sat = {"<": pts < v, "<=": pts <= v, ">": pts > v, ">=": pts >= v}[op]
        truth = bool(sat.any())
        # closed interval with integer endpoints: the dense grid is exact
        assert iv.intersects_pred(op, v) == truth

    @given(
        op1=st.sampled_from(OPS), v1=LITERALS,
        op2=st.sampled_from(OPS), v2=LITERALS,
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_restrict_equals_predicate_conjunction(self, op1, v1, op2, v2, data):
        """x ∈ [0, 20] restricted by p1 and p2 ⇔ x ∈ [0, 20] satisfies p1 ∧ p2."""
        iv = Interval(0, 20).restrict(op1, v1, True).restrict(op2, v2, True)
        near = [math.nextafter(v, d) for v in (v1, v2) for d in (-math.inf, math.inf)]
        probe = data.draw(st.one_of(LITERALS, st.sampled_from([v1, v2, *near])))
        def sat(op, v):
            return {"<": probe < v, "<=": probe <= v, ">": probe > v, ">=": probe >= v}[op]
        assert iv.contains(probe) == (0 <= probe <= 20 and sat(op1, v1) and sat(op2, v2))


# ---------------------------------------------------------- Description
@pytest.fixture(scope="module")
def space():
    g = np.random.default_rng(3)
    n = 2000
    pdf = pd.DataFrame(
        {
            "a": g.integers(0, 100, n).astype(float),
            "b": g.integers(0, 100, n).astype(float),
            "c": g.choice(list("pqrs"), n),
        }
    )
    sch = infer_schema(pdf, categorical=["c"], domains={"a": (0, 100), "b": (0, 100)})
    return pdf, sch, sch.encode(pdf)


def test_root_covers_everything(space):
    _, sch, enc = space
    root = Description.root(sch)
    for q in [Pred("a", "<", 50.0), Pred("c", "=", 2), Pred("b", ">=", 99.0)]:
        assert root.may_intersect(q)


def test_restrict_range_both_sides(space):
    _, sch, _ = space
    root = Description.root(sch)
    left = root.restrict(Pred("a", "<", 50.0), True)
    right = root.restrict(Pred("a", "<", 50.0), False)
    assert left.may_intersect(Pred("a", "<", 10.0))
    assert not left.may_intersect(Pred("a", ">=", 50.0))
    assert right.may_intersect(Pred("a", ">=", 50.0))
    assert not right.may_intersect(Pred("a", "<", 50.0))


def test_restrict_categorical(space):
    _, sch, _ = space
    root = Description.root(sch)
    left = root.restrict(Pred("c", "in", frozenset([0, 1])), True)
    right = root.restrict(Pred("c", "in", frozenset([0, 1])), False)
    assert left.may_intersect(Pred("c", "=", 0))
    assert not left.may_intersect(Pred("c", "=", 2))
    assert not right.may_intersect(Pred("c", "=", 0))
    assert right.may_intersect(Pred("c", "in", frozenset([2, 3])))


def test_restrict_eq_categorical(space):
    _, sch, _ = space
    root = Description.root(sch)
    left = root.restrict(Pred("c", "=", 2), True)
    assert left.may_intersect(Pred("c", "=", 2))
    assert not left.may_intersect(Pred("c", "=", 0))


def test_adv_cut_bits(space):
    _, sch, _ = space
    ac = AdvPred("ab", "a", "<", "b")
    root = Description.root(sch, ac_names=("ab",))
    left = root.restrict(ac, True)
    right = root.restrict(ac, False)
    assert left.may_intersect(ac) and not left.may_intersect(ac.negate())
    assert right.may_intersect(ac.negate()) and not right.may_intersect(ac)


def test_restrict_by_negated_adv(space):
    _, sch, _ = space
    ac = AdvPred("ab", "a", "<", "b")
    root = Description.root(sch, ac_names=("ab",))
    child = root.restrict(ac.negate(), True)  # satisfies ¬AC
    assert child.may_intersect(ac.negate()) and not child.may_intersect(ac)


def test_empty_descriptions(space):
    _, sch, _ = space
    root = Description.root(sch)
    dead = root.restrict(Pred("a", "<", 10.0), True).restrict(Pred("a", ">", 20.0), True)
    assert dead.is_empty()
    # each atom tests only its own field: "b" is unconstrained, so a
    # b-only query intersects. Descriptions of blocks without rows are
    # empty in every field, and no atom intersects them.
    assert dead.may_intersect(Pred("b", "<", 100.0))
    nomask = root.restrict(Pred("c", "in", frozenset([0, 1, 2, 3])), False)
    assert nomask.is_empty()


def test_per_atom_intersection(space):
    """A description empty in one column fails only the atoms on it."""
    _, sch, _ = space
    d = Description.root(sch)
    d.ranges["a"] = Interval(1.0, 0.0)
    qa, qb = Pred("a", ">=", 0.0), Pred("b", "<", 10.0)
    assert not d.may_intersect(qa)
    assert d.may_intersect(qb)
    assert d.may_intersect(Pred("c", "=", 1))
    assert not d.may_intersect(And([qa, qb]))
    assert d.may_intersect(Or([qa, qb]))


def test_and_or_intersection_logic(space):
    _, sch, _ = space
    root = Description.root(sch)
    left = root.restrict(Pred("a", "<", 50.0), True)
    q_and = And([Pred("a", ">=", 50.0), Pred("b", "<", 10.0)])
    q_or = Or([Pred("a", ">=", 50.0), Pred("b", "<", 10.0)])
    assert not left.may_intersect(q_and)  # one conjunct fails
    assert left.may_intersect(q_or)  # one disjunct passes


def test_copy_is_independent(space):
    _, sch, _ = space
    root = Description.root(sch)
    child = root.restrict(Pred("c", "=", 0), True)
    assert root.may_intersect(Pred("c", "=", 1))
    assert not child.may_intersect(Pred("c", "=", 1))


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_soundness_no_false_negatives(space, data):
    """If any row in a cut-defined subspace satisfies q, may_intersect(q) is
    True — the property block skipping correctness rests on."""
    pdf, sch, enc = space
    cuts = [
        (Pred("a", "<", float(data.draw(st.integers(10, 90)))), data.draw(st.booleans())),
        (Pred("b", ">=", float(data.draw(st.integers(10, 90)))), data.draw(st.booleans())),
        (Pred("c", "in", frozenset(data.draw(
            st.sets(st.integers(0, 3), min_size=1, max_size=3)))), data.draw(st.booleans())),
    ]
    desc = Description.root(sch)
    mask = np.ones(len(enc), dtype=bool)
    for cut, side in cuts:
        desc = desc.restrict(cut, side)
        m = eval_mask(cut, enc)
        mask &= m if side else ~m
    q = And(
        [
            Pred("a", data.draw(st.sampled_from(OPS)), float(data.draw(st.integers(0, 100)))),
            Pred("c", "=", data.draw(st.integers(0, 3))),
        ]
    )
    rows_satisfying = mask & eval_mask(q, enc)
    if rows_satisfying.any():
        assert desc.may_intersect(q)
