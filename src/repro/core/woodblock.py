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
  ``R((n,p)) = S(n) / (|W|·|n.records|)`` where ``S(n)`` sums the
  skipped-record counts of the leaves below ``n`` (Sec 5.2.2): one pass
  back over the tree's node arrays.

Each episode builds a whole tree, as node arrays, with
:func:`repro.core.greedy.grow`, the construction loop Greedy also uses;
WOODBLOCK only supplies the chooser.
The policy is fixed between two PPO updates, so the ``BATCH_EPISODES``
episodes of one update are grown together, as one forest (:func:`_episodes`):
``grow`` hands the chooser one breadth-first level of every tree at a
time; the chooser featurises the level's splittable nodes, runs one policy
forward over them and samples one cut per node by inverse CDF. Episode
``e`` draws from its own generator, spawned from the seed, and its nodes
draw in breadth-first order, so an episode's tree does not depend on the
episodes grown beside it. The cut matrix and the compiled workload
(:mod:`.intersect`) are built once per call and shared by every episode.
PPO updates the shared policy/value net after every ``BATCH_EPISODES``
episodes and after the last one, on their transitions in episode order;
the best tree seen — measured by the sample's description-based access
fraction — is deployed (paper: "the best tree found is deployed").
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import pandas as pd

from ..rl.mlp import PolicyValueNet
from ..rl.ppo import Batch, PPOTrainer
from .greedy import CutMatrix, Level, Nodes, grow
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
        k = len(sp.num)
        dom = np.array([self.schema[c].domain for c in sp.num], dtype=float).reshape(k, 2)
        self._lo, self._span = dom[:, 0], np.maximum(dom[:, 1] - dom[:, 0], 1e-12)
        # stacked fields: lo (k), hi (k), the mask row (the AC pairs at its tail)
        order = []
        for name in self.schema.columns:
            if name in sp.num:
                order += [sp.num[name], k + sp.num[name]]
            else:
                off, card = sp.cat[name]
                order += range(2 * k + off, 2 * k + off + card)
        order += [2 * k + off + s for off in sp.ac.values() for s in (0, 1)]
        self._order = np.array(order, dtype=np.int64)
        self.dim = len(order)

    def __call__(self, b: Blocks) -> np.ndarray:
        """(rows, dim) float64: the state of each row of ``b``."""
        lo = np.clip((b.lo - self._lo) / self._span, 0.0, 1.0)
        hi = np.clip((b.hi - self._lo) / self._span, 0.0, 1.0)
        return np.concatenate([lo, hi, b.masks], axis=1, dtype=np.float64)[:, self._order]


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


@dataclass
class Episode:
    """One tree built by the policy, and its transitions as arrays, one row
    per chosen cut: per internal node of ``nodes``, in order."""

    nodes: Nodes
    fraction: float  # the tree's sample access fraction
    obs: np.ndarray  # (steps, dim)
    actions: np.ndarray  # (steps,)
    legal: np.ndarray  # (steps, cuts)
    logp: np.ndarray  # (steps,)
    values: np.ndarray  # (steps,)
    rewards: np.ndarray  # (steps,)


def _episodes(
    trainer: PPOTrainer,
    feat: Featurizer,
    cm: CutMatrix,
    root_desc: Blocks,
    wl: Workload,
    b_sample: int,
    max_leaves: int,
    rngs: Sequence[np.random.Generator] | None,
) -> list[Episode]:
    """Build one tree per generator of ``rngs`` from the current policy,
    all together, one breadth-first level at a time; or, when ``rngs`` is
    None, the one tree of the policy's argmax. Every node draws its
    uniform from its own episode's generator, in breadth-first order, so
    an episode is the same whichever episodes are grown beside it."""
    n_trees = 1 if rngs is None else len(rngs)
    levels = []  # per level: (tree, obs, actions, legal, logp, values)

    def choose(lv: Level) -> np.ndarray:
        """Sample (or take the argmax of) the policy on the level's nodes in
        one forward. Each split adds one open leaf, so ``max_leaves`` admits
        the first ``max_leaves − n_open`` nodes of each tree; the rest
        become leaves."""
        out = np.full(len(lv.tree), -1)
        rank = np.arange(len(lv.tree)) - np.searchsorted(lv.tree, lv.tree)
        sel = np.flatnonzero(rank < max_leaves - lv.n_open[lv.tree])
        if not len(sel):
            return out
        tree, obs, legal = lv.tree[sel], feat(lv.desc[sel]), lv.legal[sel]
        if rngs is None:
            logits, values, _ = trainer.net.forward(obs)
            ci, logp = np.where(legal, logits, -np.inf).argmax(axis=1), np.zeros(len(sel))
        else:
            trees, k = np.unique(tree, return_counts=True)
            u = np.concatenate([rngs[t].random(kt) for t, kt in zip(trees, k)])
            ci, logp, values = trainer.action_logp(obs, legal, u)
        levels.append((tree, obs, ci, legal, logp, values))
        out[sel] = ci
        return out

    trees = grow(cm, root_desc[np.zeros(n_trees, dtype=np.int64)], wl, b_sample, False, choose)
    if not levels:  # no root has a legal cut
        none = np.zeros(0, dtype=np.int64)
        levels = [(none, np.zeros((0, feat.dim)), none, np.zeros((0, len(cm.cuts)), dtype=bool),
                   np.zeros(0), np.zeros(0))]
    # episode by episode, each in breadth-first order: the order of its
    # internal nodes
    tree, *cols = (np.concatenate(c) for c in zip(*levels))
    order = np.argsort(tree, kind="stable")
    ends = np.cumsum(np.bincount(tree, minlength=n_trees))[:-1]
    per_episode = zip(*(np.split(c[order], ends) for c in cols))
    w, n = wl.n_queries, len(cm.masks)
    out = []
    for t, parts in zip(trees, per_episode):
        # S(n): skipped records below each node (Sec 5.2.2), in one pass
        # from the last node back, as children come after their parent
        leaf = t.cut < 0
        skipped = np.where(leaf, t.n_rows * (w - t.n_active), 0)
        for i in np.flatnonzero(~leaf)[::-1]:
            skipped[i] = skipped[t.left[i]] + skipped[t.left[i] + 1]
        rewards = skipped[~leaf] / (w * t.n_rows[~leaf]) if w else np.zeros(len(parts[0]))
        fraction = float(t.n_rows[leaf] @ t.n_active[leaf]) / (n * w) if w else 0.0
        out.append(Episode(t, fraction, *parts, rewards))
    return out


def _batch(episodes: list[Episode]) -> Batch:
    """The episodes' transitions, in order, as one PPO batch; a node's
    reward is its return and its advantage is the reward minus its value."""
    def cat(name):
        return np.concatenate([getattr(e, name) for e in episodes])

    returns = cat("rewards")
    return Batch(cat("obs"), cat("actions"), cat("legal"), cat("logp"), returns,
                 returns - cat("values"))


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

    best, best_frac = None, np.inf
    history = []
    # episode e samples from its own stream, so that what it draws does not
    # depend on which episodes are grown beside it
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.episodes)
    for start in range(0, cfg.episodes, BATCH_EPISODES):
        batch = _episodes(
            trainer, feat, cm, root_desc, wl, b_sample, cfg.max_leaves,
            [np.random.default_rng(s) for s in streams[start:start + BATCH_EPISODES]],
        )
        for ep, e in enumerate(batch, start):
            if e.fraction < best_frac:
                best_frac, best = e.fraction, e.nodes
            history.append((ep, e.fraction, best_frac))
        if sum(len(e.actions) for e in batch):
            trainer.update(_batch(batch))

    # deterministic deployment rollout: the argmax-policy tree is a strong
    # candidate once the policy has concentrated
    [e] = _episodes(trainer, feat, cm, root_desc, wl, b_sample, cfg.max_leaves, None)
    if e.fraction < best_frac:
        best_frac, best = e.fraction, e.nodes
    history.append((cfg.episodes, e.fraction, best_frac))

    return WoodblockResult(
        tree=QdTree(schema, cm.cuts, best.cut, best.left, best.n_rows, best.desc),
        best_fraction=best_frac, history=history,
    )
