"""Candidate-cut extraction (Sec 3.4)."""
from repro.core.cuts import extract_cuts
from repro.core.predicates import AdvPred, And, Or, Pred


def test_extracts_all_unary_preds():
    q = And([Pred("a", "<", 10), Or([Pred("b", ">", 90), Pred("c", "in", frozenset([0, 4]))])])
    cuts = extract_cuts([q])
    assert cuts == [Pred("a", "<", 10), Pred("b", ">", 90), Pred("c", "in", frozenset([0, 4]))]


def test_dedup_across_queries():
    p = Pred("a", "<", 10)
    cuts = extract_cuts([p, And([p, Pred("b", ">", 1)]), p])
    assert cuts.count(p) == 1
    assert len(cuts) == 2


def test_order_is_first_appearance():
    q1 = Pred("b", ">", 1)
    q2 = Pred("a", "<", 10)
    assert extract_cuts([q1, q2]) == [q1, q2]


def test_advanced_cuts_extracted_positive():
    ac = AdvPred("x", "a", "<", "b")
    cuts = extract_cuts([And([ac.negate(), Pred("a", "<", 1)])])
    assert ac in cuts
    assert ac.negate() not in cuts


def test_unary_cuts_before_acs_per_query():
    ac = AdvPred("x", "a", "<", "b")
    p1, p2 = Pred("a", "<", 1), Pred("b", ">", 2)
    cuts = extract_cuts([And([ac, p1]), Or([p2, ac.negate()])])
    assert cuts == [p1, ac, p2]


def test_tpch_cut_count_in_paper_range(tpch_bundle, tpch_cuts):
    """Paper: 'a few hundreds to low thousands of candidate cuts'."""
    assert 30 <= len(tpch_cuts) <= 2000
    names = {c.name for c in tpch_cuts if isinstance(c, AdvPred)}
    assert names == set(tpch_bundle.ac_names)


def test_cuts_unique(tpch_cuts):
    assert len(tpch_cuts) == len(set(tpch_cuts))
