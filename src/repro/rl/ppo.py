"""Proximal Policy Optimization (clip variant) in numpy.

Loss per sample (Schulman et al. 2017, as used by the paper):

    L = −min(r·Â, clip(r, 1−ε, 1+ε)·Â) − c_ent·H(π(s)) + c_vf·½(V(s)−R)²

with r = π(a|s)/π_old(a|s) and Â = R − V_old(s) (per the paper's tree MDP,
the per-node reward *is* the return — no bootstrapping across the tree).
Gradients are derived analytically and verified against finite differences
in ``tests/test_rl.py``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mlp import Adam, PolicyValueNet, masked_exp, masked_log_softmax


@dataclass
class Batch:
    """One update's worth of (state, action, legality, old-logp, return)."""

    obs: np.ndarray  # (B, in_dim)
    actions: np.ndarray  # (B,) int
    legal: np.ndarray  # (B, A) bool
    old_logp: np.ndarray  # (B,)
    returns: np.ndarray  # (B,)
    advantages: np.ndarray  # (B,)


def ppo_loss_and_grads(
    net: PolicyValueNet,
    batch: Batch,
    clip: float = 0.2,
    vf_coef: float = 0.5,
    ent_coef: float = 0.01,
):
    """Mean PPO loss over the batch and its gradients w.r.t. net params."""
    B = len(batch.actions)
    logits, values, cache = net.forward(batch.obs)
    logp_all = masked_log_softmax(logits, batch.legal)
    p_all = masked_exp(logp_all, batch.legal)
    rows = np.arange(B)
    logp = logp_all[rows, batch.actions]
    ratio = np.exp(logp - batch.old_logp)
    adv = batch.advantages

    unclipped = ratio * adv
    clipped = np.clip(ratio, 1 - clip, 1 + clip) * adv
    surrogate = np.minimum(unclipped, clipped)
    # gradient flows through the unclipped term only where it is the min
    # (ties resolve to unclipped, matching reference implementations)
    active = unclipped <= clipped
    # d(-surrogate)/d logp = -adv * ratio where active else 0
    g_logp = np.where(active, -adv * ratio, 0.0) / B

    # entropy of the masked policy; dH/dlogits_k = -p_k (log p_k + H)
    plogp = np.where(p_all > 0, p_all * logp_all, 0.0)
    entropy = -plogp.sum(axis=1)
    dH_dlogits = -p_all * (np.where(p_all > 0, logp_all, 0.0) + entropy[:, None])

    # d logp(a) / d logits = onehot(a) - p
    onehot = np.zeros_like(p_all)
    onehot[rows, batch.actions] = 1.0
    dlogits = g_logp[:, None] * (onehot - p_all) - (ent_coef / B) * dH_dlogits

    verr = values - batch.returns
    dvalues = vf_coef * verr / B

    loss = float(
        (-surrogate).mean() - ent_coef * entropy.mean() + vf_coef * 0.5 * (verr**2).mean()
    )
    grads = net.backward(cache, dlogits, dvalues)
    return loss, grads


@dataclass
class PPOTrainer:
    """Minibatch PPO with Adam, mirroring RLlib's default loop shape."""

    net: PolicyValueNet
    lr: float = 3e-4
    clip: float = 0.2
    vf_coef: float = 0.5
    ent_coef: float = 0.01
    epochs: int = 4
    minibatch: int = 128
    seed: int = 0
    opt: Adam = field(init=False)
    _rng: np.random.Generator = field(init=False)

    def __post_init__(self):
        self.opt = Adam(self.net.params, lr=self.lr)
        self._rng = np.random.default_rng(self.seed)

    def action_logp(self, obs: np.ndarray, legal: np.ndarray, u: np.ndarray):
        """Sample one action per state by inverse CDF from the uniforms ``u``
        (one per state, in [0, 1)): the same draw, from the same uniform,
        as ``Generator.choice(A, p=row)``. Returns (actions, logp, values)."""
        logits, values, _ = self.net.forward(obs)
        logp_all = masked_log_softmax(logits, legal)
        p = masked_exp(logp_all, legal)
        p /= p.sum(axis=1, keepdims=True)
        cdf = np.cumsum(p, axis=1)
        cdf /= cdf[:, -1:]
        actions = (cdf <= u[:, None]).sum(axis=1)
        return actions, logp_all[np.arange(len(actions)), actions], values

    def update(self, batch: Batch) -> float:
        """Run the PPO epochs over the batch; returns last mean loss."""
        n = len(batch.actions)
        adv = batch.advantages
        if n > 1 and adv.std() > 1e-8:
            batch = Batch(
                batch.obs, batch.actions, batch.legal, batch.old_logp,
                batch.returns, (adv - adv.mean()) / (adv.std() + 1e-8),
            )
        loss = 0.0
        for _ in range(self.epochs):
            order = self._rng.permutation(n)
            for start in range(0, n, self.minibatch):
                sel = order[start : start + self.minibatch]
                mb = Batch(
                    batch.obs[sel], batch.actions[sel], batch.legal[sel],
                    batch.old_logp[sel], batch.returns[sel], batch.advantages[sel],
                )
                loss, grads = ppo_loss_and_grads(
                    self.net, mb, self.clip, self.vf_coef, self.ent_coef
                )
                self.opt.step(self.net.params, grads)
        return loss
