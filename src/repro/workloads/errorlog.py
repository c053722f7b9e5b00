"""Synthetic ErrorLog-Int / ErrorLog-Ext: crash-dump log workloads.

The paper's two real datasets are proprietary Microsoft telemetry; these
generators reproduce their reported *shape* (DESIGN.md §4):

**ErrorLog-Int** — kernel crash dumps from internal customers: a
categorical ``event_type`` with 8 distinct values, OS build date, OS
version, ingest date over ~1 week, a validity boolean; queries are
IN/equality predicates over the categoricals plus date ranges, with a
minuscule overall selectivity (paper: 0.0005%, <100 rows/query).

**ErrorLog-Ext** — crash logs from external applications: ~3600-value
categorical domain (``app_id``), 15-day window, more dimensions, higher
selectivity (paper: 0.0697%).

The essential property the paper's 10–100× wins rest on is *correlation*:
event types concentrate on few versions/components, apps concentrate on
few countries/versions, and queries follow the data (users ask about real
combinations). Both are encoded here: hidden latent draws tie the columns
together, and each query is anchored at a sampled row so its literals
co-occur. An ingest-time column exists but queries do not filter on it —
which is exactly why the deployed range-on-ingest-time baseline accesses
~100% of tuples (paper Table 2).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from ..core.predicates import And, Pred
from ..core.schema import ColumnSpec, TableSchema, dates_of, day_number
from . import Query, take

# =========================================================== ErrorLog-Int
N_INT_DEFAULT = 300_000
_INT_EVENTS = tuple(
    f"evt_{s}" for s in (
        "device_crash", "live_kernel", "app_hang", "bugcheck",
        "watchdog", "thermal", "driver_fault", "oom",
    )
)
_INT_VERSIONS = tuple(f"10.0.{19000 + 10 * i}" for i in range(40))
_INT_COMPONENTS = tuple(f"comp_{i:02d}" for i in range(30))
_INT_COUNTRIES = tuple(f"cc_{i:02d}" for i in range(20))
_INT_SEVERITIES = ("critical", "error", "warning", "info", "debug")
_BOOLS = ("false", "true")
_INT_BUILD_BASE = day_number("2019-01-01")
_INT_INGEST_BASE = day_number("2020-02-01")  # one-week ingest window


def errorlog_int(*, n: int = N_INT_DEFAULT, seed: int = 0) -> pd.DataFrame:
    """Raw ErrorLog-Int table: correlated event/version/component/build."""
    g = np.random.default_rng(seed)
    # skewed event mix (a few event types dominate, as in real telemetry)
    evt_p = np.array([0.35, 0.25, 0.12, 0.10, 0.07, 0.05, 0.04, 0.02])
    event = g.choice(len(_INT_EVENTS), n, p=evt_p)
    # version correlated with event: each event concentrates on ~5 versions
    version = np.clip(
        np.round(event * 5 + g.normal(0, 2.0, n)).astype(int), 0, len(_INT_VERSIONS) - 1
    )
    # build date is a function of version (+jitter): newer versions → newer builds
    build = _INT_BUILD_BASE + version * 9 + g.integers(0, 9, n)
    # component correlated with event
    component = (event * 4 + g.integers(0, 6, n)) % len(_INT_COMPONENTS)
    country = g.choice(len(_INT_COUNTRIES), n, p=_zipf_p(len(_INT_COUNTRIES), 1.2))
    ingest = _INT_INGEST_BASE + g.integers(0, 7, n)
    return pd.DataFrame(
        {
            "event_type": take(_INT_EVENTS, event),
            "os_version": take(_INT_VERSIONS, version),
            "os_build_date": dates_of(build),
            "ingest_date": dates_of(ingest),
            "component": take(_INT_COMPONENTS, component),
            "country": take(_INT_COUNTRIES, country),
            "severity": take(
                _INT_SEVERITIES, np.minimum(event // 2, 3) + (g.random(n) < 0.1)
            ),
            "is_valid": take(_BOOLS, (g.random(n) < 0.9).astype(np.int64)),
            "error_code": (event * 1000 + g.integers(0, 400, n)).astype(np.int64),
            "mem_mb": g.integers(512, 65536, n).astype(np.int64),
            "duration_ms": (g.random(n) * 1e5).round(1),
        },
        copy=False,  # the arrays are fresh: keep each as its own block, uncopied
    )


def int_schema() -> TableSchema:
    from ..core.schema import CATEGORICAL, DATE, NUMERIC

    cols = {}

    def cat(name, dom):
        cols[name] = ColumnSpec(name, CATEGORICAL, tuple(dom))

    cat("event_type", _INT_EVENTS)
    cat("os_version", _INT_VERSIONS)
    cols["os_build_date"] = ColumnSpec(
        "os_build_date", DATE, (_INT_BUILD_BASE, _INT_BUILD_BASE + 40 * 9 + 9)
    )
    cols["ingest_date"] = ColumnSpec(
        "ingest_date", DATE, (_INT_INGEST_BASE, _INT_INGEST_BASE + 7)
    )
    cat("component", _INT_COMPONENTS)
    cat("country", _INT_COUNTRIES)
    cat("severity", _INT_SEVERITIES)
    cat("is_valid", _BOOLS)
    cols["error_code"] = ColumnSpec("error_code", NUMERIC, (0, 8400))
    cols["mem_mb"] = ColumnSpec("mem_mb", NUMERIC, (512, 65536))
    cols["duration_ms"] = ColumnSpec("duration_ms", NUMERIC, (0.0, 1e5))
    return TableSchema(cols)


def int_workload(
    raw: pd.DataFrame, sch: TableSchema, n_queries: int = 200, seed: int = 100
) -> list[Query]:
    """Anchored point-lookup-ish queries: IN + equality + build-date range.

    Each query is anchored at a random existing row (real combinations, as
    API/UI-driven workloads are), constraining 5–6 dimensions. No ingest
    filter — so range-on-ingest partitioning cannot skip.
    """
    g = np.random.default_rng(seed)
    out = []
    anchors = g.integers(0, len(raw), n_queries)
    for row in sch.encode(raw.iloc[anchors]).to_dict("records"):  # Python scalars
        ev = row["event_type"]
        extra_ev = int(g.integers(0, len(_INT_EVENTS)))
        build = row["os_build_date"]
        preds = [
            Pred("event_type", "in", frozenset({ev, extra_ev})),
            Pred("os_version", "=", row["os_version"]),
            Pred("os_build_date", ">=", build - int(g.integers(2, 10))),
            Pred("os_build_date", "<=", build),
            Pred("component", "=", row["component"]),
            Pred("is_valid", "=", sch["is_valid"].code_of("true")),
        ]
        if g.random() < 0.5:
            preds.append(Pred("country", "=", row["country"]))
        out.append(Query("errlog_int", And(preds)))
    return out


# =========================================================== ErrorLog-Ext
N_EXT_DEFAULT = 300_000
N_APPS = 3600
_EXT_APPS = tuple(f"app_{i:04d}" for i in range(N_APPS))
_EXT_EVENTS = tuple(f"xevt_{i:02d}" for i in range(16))
_EXT_VERSIONS = tuple(f"v{i}" for i in range(100))
_EXT_OS = tuple(f"os_{i:02d}" for i in range(40))
_EXT_COUNTRIES = tuple(f"cc_{i:02d}" for i in range(50))
_EXT_BASE = day_number("2020-03-01")  # 15-day window


def _zipf_p(k: int, alpha: float) -> np.ndarray:
    p = 1.0 / np.arange(1, k + 1) ** alpha
    return p / p.sum()


def errorlog_ext(*, n: int = N_EXT_DEFAULT, seed: int = 1) -> pd.DataFrame:
    """Raw ErrorLog-Ext: ~3600 apps (zipf), app-correlated columns, 15 days."""
    g = np.random.default_rng(seed)
    app = g.choice(N_APPS, n, p=_zipf_p(N_APPS, 1.05))
    # per-app latent anchors tie version / os / country to the app
    ga = np.random.default_rng(seed + 1)
    app_ver = ga.integers(0, len(_EXT_VERSIONS), N_APPS)
    app_os = ga.integers(0, len(_EXT_OS), N_APPS)
    app_cc = ga.integers(0, len(_EXT_COUNTRIES), N_APPS)
    version = (app_ver[app] + g.integers(0, 4, n)) % len(_EXT_VERSIONS)
    osv = (app_os[app] + g.integers(0, 3, n)) % len(_EXT_OS)
    country = (app_cc[app] + g.integers(0, 5, n)) % len(_EXT_COUNTRIES)
    event = (app % 4) * 4 + g.integers(0, 4, n)
    date = _EXT_BASE + g.integers(0, 15, n)
    return pd.DataFrame(
        {
            "app_id": take(_EXT_APPS, app),
            "app_version": take(_EXT_VERSIONS, version),
            "os_version": take(_EXT_OS, osv),
            "event_type": take(_EXT_EVENTS, event),
            "country": take(_EXT_COUNTRIES, country),
            "event_date": dates_of(date),
            # external clients batch-upload with long, device-dependent lag,
            # so ingest order is ~independent of event time — which is why
            # the deployed range-on-ingest baseline cannot skip (Table 2)
            "ingest_date": dates_of(_EXT_BASE + g.integers(0, 16, n)),
            "error_code": (event * 500 + g.integers(0, 500, n)).astype(np.int64),
            "session_min": (g.random(n) * 600).round(1),
            "is_fatal": take(_BOOLS, (g.random(n) < 0.4).astype(np.int64)),
        },
        copy=False,  # the arrays are fresh: keep each as its own block, uncopied
    )


def ext_schema() -> TableSchema:
    from ..core.schema import CATEGORICAL, DATE, NUMERIC

    cols = {}

    def cat(name, dom):
        cols[name] = ColumnSpec(name, CATEGORICAL, tuple(dom))

    cat("app_id", _EXT_APPS)
    cat("app_version", _EXT_VERSIONS)
    cat("os_version", _EXT_OS)
    cat("event_type", _EXT_EVENTS)
    cat("country", _EXT_COUNTRIES)
    cols["event_date"] = ColumnSpec("event_date", DATE, (_EXT_BASE, _EXT_BASE + 14))
    cols["ingest_date"] = ColumnSpec("ingest_date", DATE, (_EXT_BASE, _EXT_BASE + 15))
    cat("is_fatal", _BOOLS)
    cols["error_code"] = ColumnSpec("error_code", NUMERIC, (0, 8000))
    cols["session_min"] = ColumnSpec("session_min", NUMERIC, (0.0, 600.0))
    return TableSchema(cols)


def ext_workload(
    raw: pd.DataFrame, sch: TableSchema, n_queries: int = 200, seed: int = 200
) -> list[Query]:
    """Anchored app-centric queries: app IN (…) + event IN (…) + date range."""
    g = np.random.default_rng(seed)
    out = []
    anchors = g.integers(0, len(raw), n_queries)
    for row in sch.encode(raw.iloc[anchors]).to_dict("records"):  # Python scalars
        a = row["app_id"]
        apps = frozenset({a} | {int(x) for x in g.integers(0, N_APPS, g.integers(0, 3))})
        ev = row["event_type"]
        d = row["event_date"]
        preds = [
            Pred("app_id", "in", apps),
            Pred("event_type", "in", frozenset({ev, (ev + 1) % len(_EXT_EVENTS)})),
            Pred("event_date", ">=", d - int(g.integers(1, 5))),
            Pred("event_date", "<=", d),
        ]
        if g.random() < 0.5:
            preds.append(Pred("os_version", "=", row["os_version"]))
        out.append(Query("errlog_ext", And(preds)))
    return out
