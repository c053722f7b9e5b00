"""WOODBLOCK: deep-RL qd-tree construction (paper Sec 5).

Tree-structured MDP exactly as the paper defines it:

* **state** — a node's semantic description, featurised as the
  concatenation of its (normalised) range hypercube, categorical masks and
  AC bits; :class:`Featurizer` reads them from the node's
  :class:`~.intersect.Blocks` row with array operations, in schema order;
* **action** — one of the candidate cuts; a cut is *legal* on a node iff
  both resulting children hold ≥ ``b_sample`` records of the construction
  sample (Sec 5.2.1, :func:`~repro.core.greedy.legal_cuts`) — when no
  cut is legal the node becomes a leaf;
* **reward** — for every internal node ``n`` with chosen cut ``p``,
  ``R((n,p)) = S(n) / (|W|·|n.records|)`` where ``S(n)`` recursively sums
  the skipped-record counts of the leaves below ``n`` (Sec 5.2.2).

Each episode builds a whole tree with :func:`repro.core.greedy.grow`, the
construction loop Greedy also uses; WOODBLOCK only supplies the chooser.
``grow`` hands it one breadth-first level at a time; the chooser
featurises the level's splittable nodes, runs one policy forward over
them, samples one cut per node in breadth-first order (the order a
node-at-a-time loop would draw in, so a seed gives the same trees) and
records the transitions. The cut matrix and the compiled workload
(:mod:`.intersect`) are built once per call and shared by every episode.
PPO updates the shared policy/value net after every ``BATCH_EPISODES``
episodes and after the last one; the best tree seen —
measured by the sample's description-based access fraction — is deployed
(paper: "the best tree found is deployed").
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import pandas as pd

from ..rl.mlp import PolicyValueNet
from ..rl.ppo import Batch, PPOTrainer
from .greedy import CutMatrix, Level, grow
from .intersect import Blocks, Space, Workload, compile_workload
from .predicates import Node as QueryNode
from .qdtree import QdTree
from .schema import TableSchema


# ------------------------------------------------------------- featurizer
@dataclass
class Featurizer:
    """Maps description rows to fixed-size float state vectors: per schema
    column, its mask bits (categorical) or its ``lo``, ``hi`` scaled to the
    column's domain and clipped to [0, 1] (numeric, date); then per AC its
    may-true and may-false bits."""

    schema: TableSchema
    ac_names: tuple[str, ...]
    dim: int = field(init=False)
    _lo: np.ndarray = field(init=False, repr=False)  # domain low per numeric column
    _span: np.ndarray = field(init=False, repr=False)
    _order: np.ndarray = field(init=False, repr=False)  # state position -> stacked field

    def __post_init__(self):
        sp = Space.of(self.schema, self.ac_names)
        k, w, a = len(sp.num), sp.width, len(sp.ac)
        dom = np.array([self.schema[c].domain for c in sp.num], dtype=float).reshape(k, 2)
        self._lo, self._span = dom[:, 0], np.maximum(dom[:, 1] - dom[:, 0], 1e-12)
        # stacked fields: lo (k), hi (k), masks (w), may_true (a), may_false (a)
        order = []
        for name in self.schema.columns:
            if name in sp.num:
                order += [sp.num[name], k + sp.num[name]]
            else:
                off, card = sp.cat[name]
                order += range(2 * k + off, 2 * k + off + card)
        order += [2 * k + w + j + s for j in range(a) for s in (0, a)]
        self._order = np.array(order, dtype=np.int64)
        self.dim = len(order)

    def __call__(self, b: Blocks) -> np.ndarray:
        """(rows, dim) float64: the state of each row of ``b``."""
        lo = np.clip((b.lo - self._lo) / self._span, 0.0, 1.0)
        hi = np.clip((b.hi - self._lo) / self._span, 0.0, 1.0)
        return np.concatenate([lo, hi, b.masks, b.may_true, b.may_false], axis=1,
                              dtype=np.float64)[:, self._order]


# PPO settings (paper defaults scaled down). The hidden width (128), clip
# (0.2), value coefficient (0.5), epochs (4) and minibatch (128) are the
# PolicyValueNet/PPOTrainer defaults.
LR = 3e-3
ENT_COEF = 0.02
BATCH_EPISODES = 4  # episodes per PPO update


@dataclass
class WoodblockConfig:
    """Training budget and seed."""

    episodes: int = 40
    max_leaves: int = 4096  # safety cap on tree size per episode
    seed: int = 0


@dataclass
class WoodblockResult:
    tree: QdTree
    best_fraction: float  # sample access fraction of the deployed tree
    history: list  # (episode, this_episode_fraction, best_so_far)


def _episode(
    trainer: PPOTrainer,
    feat: Featurizer,
    cm: CutMatrix,
    root_desc: Blocks,
    wl: Workload,
    b_sample: int,
    max_leaves: int,
    deterministic: bool = False,
):
    """Build one tree from the current policy (sampled, or argmax when
    ``deterministic``); returns (root, transitions, rewards, access_fraction)."""
    transitions = []  # (obs, action, legal, logp, value, node)

    def choose(lv: Level) -> np.ndarray:
        """Sample (or take the argmax of) the policy on the level's nodes in
        one forward. Each split adds one open leaf, so ``max_leaves`` admits
        the first ``max_leaves − n_open`` nodes; the rest become leaves."""
        out = np.full(len(lv.nodes), -1)
        k = max(0, min(len(lv.nodes), max_leaves - lv.n_open))
        if not k:
            return out
        obs, legal = feat(lv.desc[:k]), lv.legal[:k]
        if deterministic:
            logits, values, _ = trainer.net.forward(obs)
            ci, logp = np.where(legal, logits, -np.inf).argmax(axis=1), np.zeros(k)
        else:
            ci, logp, values = trainer.action_logp(obs, legal)
        transitions.extend(
            (obs[j], int(ci[j]), legal[j], float(logp[j]), float(values[j]), lv.nodes[j])
            for j in range(k)
        )
        out[:k] = ci
        return out

    root, leaves = grow(cm, root_desc, wl, b_sample, False, choose)
    w = wl.n_queries
    accessed = sum(node.n_rows * nact for node, nact in leaves)
    fraction = accessed / (root.n_rows * w) if w else 0.0

    # S(n): skipped records below each node (Sec 5.2.2), bottom-up; the
    # transitions are in breadth-first order, so children come after parents
    skipped = {id(node): node.n_rows * (w - nact) for node, nact in leaves}
    for *_, node in reversed(transitions):
        skipped[id(node)] = skipped[id(node.left)] + skipped[id(node.right)]
    rewards = [
        skipped[id(node)] / (w * node.n_rows) if w and node.n_rows else 0.0
        for *_, node in transitions
    ]
    return root, transitions, rewards, fraction


def woodblock_qdtree(
    encoded_sample: pd.DataFrame,
    schema: TableSchema,
    cuts: Sequence,
    workload: Sequence[QueryNode],
    b_sample: int,
    ac_names: tuple[str, ...] = (),
    config: WoodblockConfig | None = None,
) -> WoodblockResult:
    """Train WOODBLOCK on a data sample and return the best tree found.

    ``encoded_sample`` is the fixed construction sample (paper: s=0.1–1% of
    the data); ``b_sample`` is the min-block-size constraint scaled to the
    sample (``s·b``).
    """
    cfg = config or WoodblockConfig()
    cm = CutMatrix.build(cuts, encoded_sample)
    root_desc = Blocks.root(schema, ac_names)
    wl = compile_workload(workload, root_desc.space, cm.cuts)
    feat = Featurizer(schema, tuple(ac_names))
    net = PolicyValueNet(feat.dim, len(cm.cuts), seed=cfg.seed)
    trainer = PPOTrainer(net, lr=LR, ent_coef=ENT_COEF, seed=cfg.seed)

    best_root, best_frac = None, np.inf
    history = []
    pend: list[tuple] = []  # transitions since the last PPO update
    for ep in range(cfg.episodes):
        root, transitions, rewards, frac = _episode(
            trainer, feat, cm, root_desc, wl, b_sample, cfg.max_leaves,
        )
        if frac < best_frac:
            best_frac, best_root = frac, root
        history.append((ep, frac, best_frac))
        pend.extend(
            (obs, a, legal, logp, value, r)
            for (obs, a, legal, logp, value, _), r in zip(transitions, rewards)
        )
        if ((ep + 1) % BATCH_EPISODES == 0 or ep == cfg.episodes - 1) and pend:
            batch = Batch(
                obs=np.stack([t[0] for t in pend]),
                actions=np.array([t[1] for t in pend], dtype=np.int64),
                legal=np.stack([t[2] for t in pend]),
                old_logp=np.array([t[3] for t in pend]),
                returns=np.array([t[5] for t in pend]),
                advantages=np.array([t[5] - t[4] for t in pend]),
            )
            trainer.update(batch)
            pend = []

    # deterministic deployment rollout: the argmax-policy tree is a strong
    # candidate once the policy has concentrated
    root, _, _, frac = _episode(
        trainer, feat, cm, root_desc, wl, b_sample, cfg.max_leaves,
        deterministic=True,
    )
    if frac < best_frac:
        best_frac, best_root = frac, root
    history.append((cfg.episodes, frac, best_frac))

    return WoodblockResult(
        tree=QdTree.build(best_root, schema), best_fraction=best_frac, history=history
    )
