"""The trees Greedy and WOODBLOCK build, pinned node by node.

Each tree is walked in preorder (a node, then its left subtree, then its
right), as ``(repr(cut), n_rows, bid)`` per node: a leaf's cut is
``None``, an internal node's BID ``-1``. The pin is the SHA-1 of that
list as JSON, so it holds every cut, every node's build-row count and
every leaf's BID, and so the whole shape of the tree.
"""
import hashlib
import json

import pytest

from repro.core.cuts import extract_cuts
from repro.core.greedy import greedy_qdtree
from repro.core.woodblock import WoodblockConfig, woodblock_qdtree
from repro.workloads import asts


def _preorder(tree) -> list:
    out, stack = [], [0]
    while stack:
        i = stack.pop()
        ci = int(tree.cut[i])
        out.append((repr(tree.cuts[ci] if ci >= 0 else None), int(tree.n_rows[i]),
                    int(tree.bid[i])))
        if ci >= 0:
            stack += [tree.left[i] + 1, tree.left[i]]
    return out


def _sha(tree) -> str:
    return hashlib.sha1(json.dumps(_preorder(tree)).encode()).hexdigest()


_PINNED = {
    "tpch_bundle": ("d63a444029f29fa2c7967b1ee8b28b539e164230",
                    "be804d2ed940149d96c877880ea10ec3ff22d345"),
    "errlog_int_bundle": ("1d0b98ffd24e99c9e52475bc820e188eec681508",
                          "e114486ec0f942a7fb2c8d4da0c284d0646e9b35"),
    "errlog_ext_bundle": ("c744664513931a73d57e06d8bdd3450119bb44b5",
                          "24f8bf077a4b0819329e45edfe200e998034f2ae"),
    "capped": "0db140fdb64f34c8266cc9aec9064e41586f3360",
}


@pytest.mark.parametrize("bundle", ["tpch_bundle", "errlog_int_bundle", "errlog_ext_bundle"])
def test_bundle_trees_pinned(bundle, request):
    """Greedy, and WOODBLOCK over two episodes, on a whole test bundle."""
    bd = request.getfixturevalue(bundle)
    W = asts(bd.queries)
    cuts = extract_cuts(W)
    greedy = greedy_qdtree(bd.encoded, bd.schema, cuts, W, bd.b, ac_names=bd.ac_names)
    wood = woodblock_qdtree(bd.encoded, bd.schema, cuts, W, bd.b, ac_names=bd.ac_names,
                            config=WoodblockConfig(episodes=2, seed=0)).tree
    assert (_sha(greedy), _sha(wood)) == _PINNED[bundle]


def test_capped_tree_pinned(tpch_bundle):
    """The deployed tree of ``test_capped_run_pinned``'s 20-leaf run."""
    enc, sch = tpch_bundle.encoded, tpch_bundle.schema
    W = asts(tpch_bundle.queries)
    sample = enc.sample(n=3000, random_state=0).reset_index(drop=True)
    res = woodblock_qdtree(
        sample, sch, extract_cuts(W), W, b_sample=60, ac_names=tpch_bundle.ac_names,
        config=WoodblockConfig(episodes=4, seed=0, max_leaves=20),
    )
    assert res.tree.n_leaves == 20
    assert _sha(res.tree) == _PINNED["capped"]
