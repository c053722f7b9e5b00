"""Shared-trunk policy/value network in numpy (paper Sec 5.2.3).

Architecture mirrors the paper: two fully-connected ReLU layers shared by
both heads; the policy head is a ``|A|``-dim linear projection, the value
head a scalar projection. Hidden width is configurable (paper uses 512; at
reproduction scale 128 trains faster with no quality loss).
"""
from __future__ import annotations

import numpy as np


class PolicyValueNet:
    """MLP with policy logits + state-value heads and manual backprop."""

    def __init__(self, in_dim: int, n_actions: int, hidden: int = 128, seed: int = 0):
        g = np.random.default_rng(seed)

        def he(fan_in, shape):
            return (g.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(np.float64)

        self.params = {
            "W1": he(in_dim, (in_dim, hidden)),
            "b1": np.zeros(hidden),
            "W2": he(hidden, (hidden, hidden)),
            "b2": np.zeros(hidden),
            "Wp": he(hidden, (hidden, n_actions)) * 0.01,  # near-uniform init policy
            "bp": np.zeros(n_actions),
            "Wv": he(hidden, (hidden, 1)) * 0.01,
            "bv": np.zeros(1),
        }
        self.in_dim = in_dim
        self.n_actions = n_actions

    def forward(self, X: np.ndarray):
        """Return (logits (B,A), values (B,), cache for backward)."""
        p = self.params
        z1 = X @ p["W1"] + p["b1"]
        h1 = np.maximum(z1, 0.0)
        z2 = h1 @ p["W2"] + p["b2"]
        h2 = np.maximum(z2, 0.0)
        logits = h2 @ p["Wp"] + p["bp"]
        values = (h2 @ p["Wv"] + p["bv"]).ravel()
        return logits, values, (X, z1, h1, z2, h2)

    def backward(self, cache, dlogits: np.ndarray, dvalues: np.ndarray):
        """Gradients of a scalar loss given d loss / d logits and d loss / d values."""
        X, z1, h1, z2, h2 = cache
        p = self.params
        dv = dvalues.reshape(-1, 1)
        grads = {
            "Wp": h2.T @ dlogits,
            "bp": dlogits.sum(axis=0),
            "Wv": h2.T @ dv,
            "bv": dv.sum(axis=0),
        }
        dh2 = dlogits @ p["Wp"].T + dv @ p["Wv"].T
        dz2 = dh2 * (z2 > 0)
        grads["W2"] = h1.T @ dz2
        grads["b2"] = dz2.sum(axis=0)
        dh1 = dz2 @ p["W2"].T
        dz1 = dh1 * (z1 > 0)
        grads["W1"] = X.T @ dz1
        grads["b1"] = dz1.sum(axis=0)
        return grads


class Adam:
    """Standard Adam optimiser over a param dict. The moments are updated in
    place and the step goes through two scratch buffers per parameter, with
    the textbook formula's operations in its order, so the parameters are
    the formula's to the bit."""

    def __init__(self, params: dict, lr: float = 3e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self._scratch = {k: (np.empty_like(v), np.empty_like(v)) for k, v in params.items()}
        self.t = 0

    def step(self, params: dict, grads: dict) -> None:
        self.t += 1
        for k, g in grads.items():
            m, v, (step, tmp) = self.m[k], self.v[k], self._scratch[k]
            m *= self.b1  # m = b1·m + (1 − b1)·g
            m += np.multiply(g, 1 - self.b1, out=tmp)
            v *= self.b2  # v = b2·v + (1 − b2)·g·g
            np.multiply(g, 1 - self.b2, out=tmp)
            v += np.multiply(tmp, g, out=tmp)
            # step = lr·(m / (1 − b1^t)) / (sqrt(v / (1 − b2^t)) + eps)
            np.divide(m, 1 - self.b1**self.t, out=step)
            step *= self.lr
            np.divide(v, 1 - self.b2**self.t, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += self.eps
            step /= tmp
            params[k] -= step


def masked_exp(x: np.ndarray, legal: np.ndarray) -> np.ndarray:
    """``np.exp(x)`` where ``legal``, else 0. Rows masked as below hold about
    −1e9 at illegal actions, whose exp is 0 exactly; this gives that 0
    without the exp's slow underflow path (about 7× slower per entry)."""
    keep = legal.astype(x.dtype)
    out = np.exp(x * keep)
    out *= keep
    return out


def masked_log_softmax(logits: np.ndarray, legal: np.ndarray) -> np.ndarray:
    """Log-softmax with illegal actions forced to ~zero probability."""
    masked = np.where(legal, logits, -1e9)
    masked -= masked.max(axis=-1, keepdims=True)
    masked -= np.log(masked_exp(masked, legal).sum(axis=-1, keepdims=True))
    return masked
