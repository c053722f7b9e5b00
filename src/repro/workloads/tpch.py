"""Denormalised TPC-H-lite: dataset + the paper's 15 filter templates.

The paper (following Sun et al. [45]) denormalises TPC-H so one wide fact
table carries every filter column, then uses *all* 15 templates touching
lineitem (q1,q3,q4,q5,q6,q7,q8,q9,q10,q12,q14,q17,q18,q19,q21), 10 random
seeds each → 150 queries. No dbgen is available offline, so
:func:`denormalized` synthesises the flat table directly with the joins'
*correlations* baked in:

* date chains ``o_orderdate ≤ l_shipdate``, ``l_commitdate`` vs
  ``l_receiptdate`` overlapping — so the paper's advanced cuts
  ``AC1: l_shipdate < l_commitdate`` and ``AC2: l_commitdate <
  l_receiptdate`` are selective but non-trivial;
* ``r_name`` is the supplier's region, a pure function of ``s_nationkey``;
* ``AC0: c_nationkey = s_nationkey`` (the denormalised q5/q7 join residue)
  holds for ~1/25 of rows.

Literal substitutions vs real TPC-H (documented in DESIGN.md): ``q9``'s
``p_type LIKE '%green%'`` becomes ``p_type IN (types with that colour)``
— identical semantics over the dictionary; ``q18``'s HAVING-derived filter
becomes a weak ``l_quantity`` filter so the template still requires a
near-full scan (the property the paper relies on).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from ..core.predicates import AdvPred, And, Or, Pred
from ..core.schema import ColumnSpec, TableSchema
from . import Query

N_PER_SF = 6_000_000

REGIONS = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")
SHIPMODES = ("AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK")
SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY")
PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")
BRANDS = tuple(f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6))
CONTAINERS = tuple(
    f"{a} {b}"
    for a in ("SM", "MED", "LG", "JUMBO", "WRAP")
    for b in ("CASE", "BOX", "PACK", "PKG", "BAG")
)
_TYPE_ADJ = ("STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO")
_TYPE_COLOR = ("GREEN", "BLUE", "RED", "IVORY", "STEEL")
TYPES = tuple(f"{a} {c}" for a in _TYPE_ADJ for c in _TYPE_COLOR)  # 30

AC0 = AdvPred("ac0_cnat_eq_snat", "c_nationkey", "=", "s_nationkey")
AC1 = AdvPred("ac1_ship_lt_commit", "l_shipdate", "<", "l_commitdate")
AC2 = AdvPred("ac2_commit_lt_receipt", "l_commitdate", "<", "l_receiptdate")
AC_NAMES = (AC0.name, AC1.name, AC2.name)
AC_MAP = {AC0.name: AC0, AC1.name: AC1, AC2.name: AC2}

_EPOCH = pd.Timestamp("1970-01-01")
_START = pd.Timestamp("1992-01-01")
_N_DAYS = 2406  # o_orderdate span, as in dbgen


def _day(ts: str) -> int:
    return (pd.Timestamp(ts) - _EPOCH).days


def denormalized(*, sf: float = 0.01, seed: int = 0) -> pd.DataFrame:
    """Raw (un-encoded) denormalised fact table at scale factor ``sf``."""
    n = max(1, int(N_PER_SF * sf))
    g = np.random.default_rng(seed)
    o_orderdate = _START + pd.to_timedelta(g.integers(0, _N_DAYS, n), unit="D")
    ship_lag = g.integers(1, 122, n)
    commit_lag = g.integers(30, 91, n)
    receipt_lag = g.integers(1, 31, n)
    s_nationkey = g.integers(0, 25, n)
    pdf = pd.DataFrame(
        {
            "l_orderkey": g.integers(1, max(2, n // 4), n),
            "l_quantity": g.integers(1, 51, n).astype("float64"),
            "l_extendedprice": (g.random(n) * 90000 + 900).round(2),
            "l_discount": (g.integers(0, 11, n) / 100.0),
            "l_returnflag": g.choice(list("NRA"), n, p=[0.5, 0.25, 0.25]),
            "l_linestatus": g.choice(list("OF"), n),
            "l_shipmode": g.choice(SHIPMODES, n),
            "o_orderdate": o_orderdate,
            "l_shipdate": o_orderdate + pd.to_timedelta(ship_lag, unit="D"),
            "l_commitdate": o_orderdate + pd.to_timedelta(commit_lag, unit="D"),
            "l_receiptdate": o_orderdate
            + pd.to_timedelta(ship_lag + receipt_lag, unit="D"),
            "o_totalprice": (g.random(n) * 500000 + 1000).round(2),
            "o_orderpriority": g.choice(PRIORITIES, n),
            "c_mktsegment": g.choice(SEGMENTS, n),
            "c_nationkey": g.integers(0, 25, n),
            "s_nationkey": s_nationkey,
            "r_name": np.array(REGIONS)[s_nationkey // 5],
            "p_brand": g.choice(BRANDS, n),
            "p_type": g.choice(TYPES, n),
            "p_container": g.choice(CONTAINERS, n),
            "p_size": g.integers(1, 51, n),
        }
    )
    return pdf


_CATEGORICAL = (
    "l_returnflag",
    "l_linestatus",
    "l_shipmode",
    "o_orderpriority",
    "c_mktsegment",
    "c_nationkey",
    "s_nationkey",
    "r_name",
    "p_brand",
    "p_type",
    "p_container",
)


def schema() -> TableSchema:
    """Fixed (data-independent) schema so cuts/queries are stable across SFs."""
    from ..core.schema import CATEGORICAL, DATE, NUMERIC

    cols: dict[str, ColumnSpec] = {}

    def cat(name, dom):
        cols[name] = ColumnSpec(name, CATEGORICAL, tuple(dom))

    def num(name, lo, hi):
        cols[name] = ColumnSpec(name, NUMERIC, (lo, hi))

    def date(name, lo, hi):
        cols[name] = ColumnSpec(name, DATE, (_day(lo), _day(hi)))

    num("l_orderkey", 1, N_PER_SF)
    num("l_quantity", 1, 50)
    num("l_extendedprice", 900, 91000)
    num("l_discount", 0.0, 0.10)
    cat("l_returnflag", sorted("NRA"))
    cat("l_linestatus", sorted("OF"))
    cat("l_shipmode", SHIPMODES)
    date("o_orderdate", "1992-01-01", "1998-08-02")
    date("l_shipdate", "1992-01-02", "1998-12-01")
    date("l_commitdate", "1992-01-31", "1998-10-31")
    date("l_receiptdate", "1992-01-03", "1998-12-31")
    num("o_totalprice", 1000, 501000)
    cat("o_orderpriority", PRIORITIES)
    cat("c_mktsegment", SEGMENTS)
    cat("c_nationkey", range(25))
    cat("s_nationkey", range(25))
    cat("r_name", REGIONS)
    cat("p_brand", BRANDS)
    cat("p_type", TYPES)
    cat("p_container", CONTAINERS)
    num("p_size", 1, 50)
    return TableSchema(cols)


# ------------------------------------------------------------- templates
def _code(sch: TableSchema, col: str, raw) -> int:
    return sch[col].code_of(raw)


def _rand_date(g, lo: str, hi: str) -> int:
    a, b = _day(lo), _day(hi)
    return int(g.integers(a, b + 1))


def _templates(sch: TableSchema):
    """name -> (rng -> predicate AST). One entry per paper template."""

    def q1(g):
        # l_shipdate <= '1998-12-01' - [60..120] days: near-full scan
        return Pred("l_shipdate", "<=", _day("1998-12-01") - int(g.integers(60, 121)))

    def q3(g):
        seg = _code(sch, "c_mktsegment", g.choice(SEGMENTS))
        d = _rand_date(g, "1995-03-01", "1995-03-31")
        return And([
            Pred("c_mktsegment", "=", seg),
            Pred("o_orderdate", "<", d),
            Pred("l_shipdate", ">", d),
        ])

    def q4(g):
        d = _rand_date(g, "1993-01-01", "1997-10-01")
        return And([
            Pred("o_orderdate", ">=", d),
            Pred("o_orderdate", "<", d + 92),
            AC2,
        ])

    def q5(g):
        r = _code(sch, "r_name", g.choice(REGIONS))
        y = _rand_date(g, "1993-01-01", "1997-01-01")
        return And([
            Pred("r_name", "=", r),
            Pred("o_orderdate", ">=", y),
            Pred("o_orderdate", "<", y + 365),
            AC0,
        ])

    def q6(g):
        y = _day(f"{g.integers(1993, 1998)}-01-01")
        d = round(float(g.integers(2, 10)) / 100.0, 2)
        return And([
            Pred("l_shipdate", ">=", y),
            Pred("l_shipdate", "<", y + 365),
            Pred("l_discount", ">=", round(d - 0.01, 2)),
            Pred("l_discount", "<=", round(d + 0.01, 2)),
            Pred("l_quantity", "<", float(g.integers(24, 26))),
        ])

    def q7(g):
        a, b = g.choice(25, size=2, replace=False)
        pair = Or([
            And([Pred("c_nationkey", "=", int(a)), Pred("s_nationkey", "=", int(b))]),
            And([Pred("c_nationkey", "=", int(b)), Pred("s_nationkey", "=", int(a))]),
        ])
        return And([
            pair,
            Pred("l_shipdate", ">=", _day("1995-01-01")),
            Pred("l_shipdate", "<=", _day("1996-12-31")),
        ])

    def q8(g):
        r = _code(sch, "r_name", g.choice(REGIONS))
        t = _code(sch, "p_type", g.choice(TYPES))
        return And([
            Pred("r_name", "=", r),
            Pred("o_orderdate", ">=", _day("1995-01-01")),
            Pred("o_orderdate", "<=", _day("1996-12-31")),
            Pred("p_type", "=", t),
        ])

    def q9(g):
        # LIKE '%<color>%' over the p_type dictionary → IN(matching types)
        color = g.choice(_TYPE_COLOR)
        codes = frozenset(
            i for i, t in enumerate(sch["p_type"].domain) if color in t
        )
        return Pred("p_type", "in", codes)

    def q10(g):
        d = _rand_date(g, "1993-02-01", "1995-01-01")
        return And([
            Pred("o_orderdate", ">=", d),
            Pred("o_orderdate", "<", d + 92),
            Pred("l_returnflag", "=", _code(sch, "l_returnflag", "R")),
        ])

    def q12(g):
        m1, m2 = g.choice(len(SHIPMODES), size=2, replace=False)
        y = _day(f"{g.integers(1993, 1998)}-01-01")
        return And([
            Pred("l_shipmode", "in", frozenset([int(m1), int(m2)])),
            AC1,
            AC2,
            Pred("l_receiptdate", ">=", y),
            Pred("l_receiptdate", "<", y + 365),
        ])

    def q14(g):
        d = _rand_date(g, "1993-01-01", "1998-06-01")
        return And([Pred("l_shipdate", ">=", d), Pred("l_shipdate", "<", d + 30)])

    def q17(g):
        return And([
            Pred("p_brand", "=", _code(sch, "p_brand", g.choice(BRANDS))),
            Pred("p_container", "=", _code(sch, "p_container", g.choice(CONTAINERS))),
        ])

    def q18(g):
        # HAVING sum(l_quantity) > K residue → weak filter, near-full scan
        return Pred("l_quantity", ">=", float(g.integers(2, 7)))

    def q19(g):
        def block(bi, ci_prefix, qlo, smax):
            conts = frozenset(
                i
                for i, c in enumerate(sch["p_container"].domain)
                if c.startswith(ci_prefix)
            )
            return And([
                Pred("p_brand", "=", bi),
                Pred("p_container", "in", conts),
                Pred("l_quantity", ">=", float(qlo)),
                Pred("l_quantity", "<=", float(qlo + 10)),
                Pred("p_size", ">=", 1.0),
                Pred("p_size", "<=", float(smax)),
            ])

        brands = g.choice(len(BRANDS), size=3, replace=False)
        q1_, q2_, q3_ = int(g.integers(1, 11)), int(g.integers(10, 21)), int(g.integers(20, 31))
        return Or([
            block(int(brands[0]), "SM", q1_, 5),
            block(int(brands[1]), "MED", q2_, 10),
            block(int(brands[2]), "LG", q3_, 15),
        ])

    def q21(g):
        return And([
            AC2,  # l_receiptdate > l_commitdate ≡ l_commitdate < l_receiptdate
            Pred("s_nationkey", "=", int(g.integers(0, 25))),
            Pred("l_linestatus", "=", _code(sch, "l_linestatus", "F")),
        ])

    return {
        "q1": q1, "q3": q3, "q4": q4, "q5": q5, "q6": q6, "q7": q7, "q8": q8,
        "q9": q9, "q10": q10, "q12": q12, "q14": q14, "q17": q17, "q18": q18,
        "q19": q19, "q21": q21,
    }


def workload(
    sch: TableSchema | None = None, n_seeds: int = 10, seed: int = 0
) -> list[Query]:
    """The paper's TPC-H workload: 15 templates × ``n_seeds`` instances."""
    sch = sch or schema()
    out: list[Query] = []
    for ti, (name, tmpl) in enumerate(_templates(sch).items()):
        for k in range(n_seeds):
            # stable per-(template, seed) stream: python hash() is salted
            g = np.random.default_rng((seed, ti, k))
            out.append(Query(name, tmpl(g)))
    return out
