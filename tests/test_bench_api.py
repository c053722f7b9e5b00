"""The benchmark driver's calls into the package still bind.

``perfbench/workloads.py`` drives the package through a few public calls.
A refactor that changed one of their signatures would fail every benchmark
operation; this checks the argument shapes it passes, without running
Spark.
"""
import inspect
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return workloads


def _binds(fn, *args, **kwargs):
    inspect.signature(fn).bind(*args, **kwargs)


def test_build_calls_bind(bench):
    x = object()
    _binds(bench.extract_cuts, x)
    _binds(bench.greedy_qdtree, x, x, x, x, 1, ac_names=())
    _binds(bench.woodblock_qdtree, x, x, x, x, 1, ac_names=(), config=x)
    _binds(bench.WoodblockConfig, episodes=8, seed=0)
    _binds(bench.evaluate_layout, x, x, x, x, acs={})


def test_spark_calls_bind():
    from repro.spark_io.layout import read_routed, write_tree_layout

    x = object()
    _binds(read_routed, x, "path", x, x, tree=x)
    _binds(write_tree_layout, x, x, "path")


def test_cut_matrix_build_is_a_staticmethod(bench):
    # the benchmark counts builds by re-wrapping it as a staticmethod
    raw = inspect.getattr_static(bench.greedy_mod.CutMatrix, "build")
    assert isinstance(raw, staticmethod)
