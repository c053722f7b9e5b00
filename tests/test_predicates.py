"""Predicate AST: evaluation, SQL emission, Spark parity via DuckDB."""
import duckdb
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.predicates import (
    AdvPred,
    And,
    Or,
    Pred,
    eval_mask,
    atoms,
    to_sql,
)
from repro.core.schema import infer_schema


@pytest.fixture(scope="module")
def frame():
    g = np.random.default_rng(7)
    n = 500
    pdf = pd.DataFrame(
        {
            "a": g.integers(0, 100, n).astype(float),
            "b": g.integers(0, 100, n).astype(float),
            "c": g.choice(["x", "y", "z"], n),
            "d": pd.to_datetime("1992-01-01") + pd.to_timedelta(g.integers(0, 100, n), "D"),
        }
    )
    sch = infer_schema(pdf, categorical=["c"])
    return pdf, sch, sch.encode(pdf)


OPS = ["<", "<=", ">", ">="]


@pytest.mark.parametrize("op", OPS)
def test_range_ops_match_numpy(frame, op):
    _, _, enc = frame
    m = eval_mask(Pred("a", op, 50.0), enc)
    expected = {"<": enc.a < 50, "<=": enc.a <= 50, ">": enc.a > 50, ">=": enc.a >= 50}[op]
    assert (m == expected.to_numpy()).all()


def test_eq_mask(frame):
    _, _, enc = frame
    m = eval_mask(Pred("c", "=", 1), enc)
    assert (m == (enc.c == 1).to_numpy()).all()


def test_in_mask(frame):
    _, _, enc = frame
    m = eval_mask(Pred("c", "in", frozenset([0, 2])), enc)
    assert (m == enc.c.isin([0, 2]).to_numpy()).all()


def test_in_coerces_value_to_frozenset():
    p = Pred("c", "in", [1, 2, 2])
    assert p.value == frozenset([1, 2])


def test_bad_op_rejected():
    with pytest.raises(ValueError):
        Pred("a", "!=", 1)
    with pytest.raises(ValueError):
        AdvPred("x", "a", "in", "b")


def test_adv_pred_mask(frame):
    _, _, enc = frame
    ac = AdvPred("ab", "a", "<", "b")
    m = eval_mask(ac, enc)
    assert (m == (enc.a < enc.b).to_numpy()).all()
    assert (eval_mask(ac.negate(), enc) == ~m).all()


def test_negate_involution():
    ac = AdvPred("ab", "a", "<", "b")
    assert ac.negate().negate() == ac


def test_and_or_masks(frame):
    _, _, enc = frame
    p1, p2 = Pred("a", "<", 30.0), Pred("b", ">", 70.0)
    assert (
        eval_mask(And([p1, p2]), enc) == (eval_mask(p1, enc) & eval_mask(p2, enc))
    ).all()
    assert (
        eval_mask(Or([p1, p2]), enc) == (eval_mask(p1, enc) | eval_mask(p2, enc))
    ).all()


def test_nested_query_mask(frame):
    _, _, enc = frame
    q = Or([And([Pred("a", "<", 20.0), Pred("c", "=", 0)]), Pred("b", ">=", 95.0)])
    expected = ((enc.a < 20) & (enc.c == 0)) | (enc.b >= 95)
    assert (eval_mask(q, enc) == expected.to_numpy()).all()


@given(v=st.integers(0, 100), op=st.sampled_from(OPS))
@settings(max_examples=30, deadline=None)
def test_range_sql_matches_eval_mask(v, op):
    """to_sql on DuckDB must select exactly the rows eval_mask selects."""
    g = np.random.default_rng(1)
    pdf = pd.DataFrame({"a": g.integers(0, 100, 300).astype(float)})
    sch = infer_schema(pdf)
    enc = sch.encode(pdf)
    q = Pred("a", op, float(v))
    sql = f"SELECT count(*) AS n FROM t WHERE {to_sql(q, sch)}"
    con = duckdb.connect()
    con.register("t", pdf)
    n_sql = con.execute(sql).fetchone()[0]
    con.close()
    assert n_sql == int(eval_mask(q, enc).sum())


def test_categorical_and_date_sql_matches(frame):
    pdf, sch, enc = frame
    day = int(enc.d.iloc[0])
    q = And([Pred("c", "in", frozenset([0, 1])), Pred("d", ">=", day)])
    con = duckdb.connect()
    con.register("t", pdf)
    n_sql = con.execute(
        f"SELECT count(*) AS n FROM t WHERE {to_sql(q, sch)}"
    ).fetchone()[0]
    con.close()
    assert n_sql == int(eval_mask(q, enc).sum())


def test_adv_sql(frame):
    pdf, sch, enc = frame
    ac = AdvPred("ab", "a", "<", "b")
    con = duckdb.connect()
    con.register("t", pdf)
    n_pos = con.execute(f"SELECT count(*) FROM t WHERE {to_sql(ac, sch)}").fetchone()[0]
    n_neg = con.execute(
        f"SELECT count(*) FROM t WHERE {to_sql(ac.negate(), sch)}"
    ).fetchone()[0]
    con.close()
    assert n_pos == int(eval_mask(ac, enc).sum())
    assert n_pos + n_neg == len(pdf)


def test_null_matches_neither_ac_side():
    """A NULL (NaN) operand satisfies neither ``a < b`` nor ``NOT(a < b)``:
    numpy selects the rows DuckDB selects by the ``to_sql`` text."""
    pdf = pd.DataFrame({"a": [1.0, np.nan, 5.0, 2.0], "b": [2.0, 3.0, np.nan, 1.0]})
    sch = infer_schema(pdf)
    enc = sch.encode(pdf)
    ac = AdvPred("ab", "a", "<", "b")
    con = duckdb.connect()
    con.register("t", pdf.assign(_row=np.arange(len(pdf))))
    for q, want in ((ac, [0]), (ac.negate(), [3]),
                    (Or([ac.negate(), Pred("a", ">", 4.0)]), [2, 3])):
        got = con.execute(f"SELECT _row FROM t WHERE {to_sql(q, sch)} ORDER BY _row").fetchall()
        assert [r for (r,) in got] == want == np.flatnonzero(eval_mask(q, enc)).tolist(), q
    con.close()


def test_iter_unary_preds():
    p1, p2 = Pred("a", "<", 1), Pred("b", ">", 2)
    q = And([p1, Or([p2, AdvPred("z", "a", "<", "b")])])
    assert [a for a in atoms(q) if isinstance(a, Pred)] == [p1, p2]


def test_iter_adv_preds():
    ac = AdvPred("z", "a", "<", "b")
    q = And([Pred("a", "<", 1), Or([Pred("b", ">", 2), ac])])
    assert [a for a in atoms(q) if isinstance(a, AdvPred)] == [ac]


def test_atoms_in_order():
    p1, p2, ac = Pred("a", "<", 1), Pred("b", ">", 2), AdvPred("z", "a", "<", "b")
    q = And([p1, Or([ac, p2]), Or([p1])])
    assert list(atoms(q)) == [p1, ac, p2, p1]
    assert list(atoms(ac)) == [ac]


def test_pred_repr_stable():
    assert repr(Pred("a", "<", 5)) == "a < 5"
    assert repr(Pred("c", "in", frozenset([2, 1]))) == "c IN (1,2)"
    assert "AND" in repr(And([Pred("a", "<", 1), Pred("b", ">", 2)]))
    assert "OR" in repr(Or([Pred("a", "<", 1), Pred("b", ">", 2)]))


def test_preds_hashable_and_eq():
    assert Pred("a", "<", 5) == Pred("a", "<", 5)
    assert len({Pred("a", "<", 5), Pred("a", "<", 5), Pred("a", "<", 6)}) == 2
