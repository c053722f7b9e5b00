"""RL substrate: gradient checks for the MLP and the PPO loss, Adam, and
a behavioural check that PPO solves a contextual bandit."""
import numpy as np
import pytest

from repro.rl.mlp import Adam, PolicyValueNet, masked_log_softmax
from repro.rl.ppo import Batch, PPOTrainer, ppo_loss_and_grads


def _numeric_grads(net, batch, eps=1e-6, **kw):
    """Central finite differences of the PPO loss w.r.t. every parameter."""
    grads = {}
    for k, p in net.params.items():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            i = it.multi_index
            old = p[i]
            p[i] = old + eps
            lp, _ = ppo_loss_and_grads(net, batch, **kw)
            p[i] = old - eps
            lm, _ = ppo_loss_and_grads(net, batch, **kw)
            p[i] = old
            g[i] = (lp - lm) / (2 * eps)
            it.iternext()
        grads[k] = g
    return grads


def _tiny_batch(seed=0, n=6, in_dim=3, n_act=4):
    g = np.random.default_rng(seed)
    obs = g.standard_normal((n, in_dim))
    legal = g.random((n, n_act)) > 0.3
    legal[np.arange(n), g.integers(0, n_act, n)] = True  # ≥1 legal each
    actions = np.array([g.choice(np.flatnonzero(row)) for row in legal])
    old_logp = np.log(g.random(n) * 0.5 + 0.25)
    returns = g.random(n)
    adv = g.standard_normal(n)
    return Batch(obs, actions, legal, old_logp, returns, adv)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ppo_gradcheck(seed):
    net = PolicyValueNet(3, 4, hidden=8, seed=seed)
    batch = _tiny_batch(seed)
    _, grads = ppo_loss_and_grads(net, batch, clip=0.2, vf_coef=0.5, ent_coef=0.01)
    num = _numeric_grads(net, batch, clip=0.2, vf_coef=0.5, ent_coef=0.01)
    for k in grads:
        denom = max(np.abs(num[k]).max(), 1e-6)
        err = np.abs(grads[k] - num[k]).max() / denom
        assert err < 1e-4, f"grad mismatch for {k}: {err}"


def test_ppo_gradcheck_no_entropy_no_value():
    net = PolicyValueNet(3, 4, hidden=8, seed=3)
    batch = _tiny_batch(3)
    _, grads = ppo_loss_and_grads(net, batch, clip=0.2, vf_coef=0.0, ent_coef=0.0)
    num = _numeric_grads(net, batch, clip=0.2, vf_coef=0.0, ent_coef=0.0)
    for k in grads:
        denom = max(np.abs(num[k]).max(), 1e-6)
        assert np.abs(grads[k] - num[k]).max() / denom < 1e-4


def test_forward_shapes():
    net = PolicyValueNet(5, 7, hidden=16)
    X = np.random.default_rng(0).standard_normal((9, 5))
    logits, values, _ = net.forward(X)
    assert logits.shape == (9, 7)
    assert values.shape == (9,)


def test_masked_log_softmax_zeroes_illegal():
    logits = np.array([[1.0, 2.0, 3.0]])
    legal = np.array([[True, False, True]])
    lp = masked_log_softmax(logits, legal)
    p = np.exp(lp)
    assert p[0, 1] < 1e-12
    assert p.sum() == pytest.approx(1.0, abs=1e-9)


def test_masked_log_softmax_matches_plain():
    g = np.random.default_rng(0)
    logits = g.standard_normal((4, 6))
    legal = np.ones((4, 6), dtype=bool)
    lp = masked_log_softmax(logits, legal)
    ref = logits - np.log(np.exp(logits - logits.max(1, keepdims=True)).sum(1, keepdims=True)) - logits.max(1, keepdims=True)
    assert np.allclose(lp, ref)


def test_adam_reduces_quadratic():
    params = {"w": np.array([5.0, -3.0])}
    opt = Adam(params, lr=0.1)
    for _ in range(200):
        opt.step(params, {"w": 2 * params["w"]})  # d/dw of w²
    assert np.abs(params["w"]).max() < 0.05


def test_adam_in_place_matches_formula():
    """The in-place step gives the textbook formula's parameters to the bit."""
    g = np.random.default_rng(4)
    shapes = {"W": (7, 5), "b": (5,)}
    params = {k: g.standard_normal(s) for k, s in shapes.items()}
    ref = {k: p.copy() for k, p in params.items()}
    m = {k: np.zeros(s) for k, s in shapes.items()}
    v = {k: np.zeros(s) for k, s in shapes.items()}
    opt, lr, b1, b2, eps = Adam(params, lr=3e-3), 3e-3, 0.9, 0.999, 1e-8
    for t in range(1, 61):
        grads = {k: g.standard_normal(s) * 10.0 ** g.integers(-3, 3) for k, s in shapes.items()}
        opt.step(params, grads)
        for k, gk in grads.items():
            m[k] = b1 * m[k] + (1 - b1) * gk
            v[k] = b2 * v[k] + (1 - b2) * gk * gk
            ref[k] -= lr * (m[k] / (1 - b1**t)) / (np.sqrt(v[k] / (1 - b2**t)) + eps)
        for k in shapes:
            assert np.array_equal(params[k], ref[k]), (t, k)


def test_inverse_cdf_draw_matches_choice():
    """``action_logp`` draws what ``Generator.choice(A, p=row)`` draws for
    each of 200 random distributions, and the generator that gave the
    uniforms ends in the state ``choice`` leaves it in."""
    g = np.random.default_rng(5)
    net = PolicyValueNet(6, 9, hidden=16, seed=5)
    net.params["Wp"] *= 300.0  # from near-uniform to peaked policies
    tr = PPOTrainer(net, seed=0)
    obs = g.standard_normal((200, 6)) * 3.0
    legal = g.random((200, 9)) > 0.5
    legal[np.arange(200), g.integers(0, 9, 200)] = True
    p = np.exp(masked_log_softmax(net.forward(obs)[0], legal))
    p = p / p.sum(axis=1, keepdims=True)
    ours, theirs = np.random.default_rng(6), np.random.default_rng(6)
    actions, _, _ = tr.action_logp(obs, legal, ours.random(200))
    assert actions.tolist() == [int(theirs.choice(9, p=row)) for row in p]
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert len(set(actions.tolist())) > 3 and legal[np.arange(200), actions].all()


def test_action_logp_only_legal():
    net = PolicyValueNet(2, 5, hidden=8, seed=0)
    tr = PPOTrainer(net, seed=0)
    g = np.random.default_rng(1)
    obs = g.standard_normal((50, 2))
    legal = np.zeros((50, 5), dtype=bool)
    legal[:, [1, 3]] = True
    actions, logp, values = tr.action_logp(obs, legal, g.random(len(obs)))
    assert set(actions.tolist()) <= {1, 3}
    assert np.isfinite(logp).all() and np.isfinite(values).all()


def test_ppo_learns_contextual_bandit():
    """2 contexts, 3 arms; reward 1 iff the context-matching arm is pulled.
    After a few updates the policy must strongly prefer the right arms."""
    g = np.random.default_rng(0)
    net = PolicyValueNet(2, 3, hidden=32, seed=0)
    tr = PPOTrainer(net, lr=5e-3, seed=0, epochs=4, minibatch=64)
    legal = np.ones((128, 3), dtype=bool)
    for _ in range(40):
        ctx = g.integers(0, 2, 128)
        obs = np.eye(2)[ctx]
        actions, logp, values = tr.action_logp(obs, legal, g.random(len(obs)))
        rewards = (actions == ctx).astype(float)  # arm i correct for ctx i
        tr.update(Batch(obs, actions, legal, logp, rewards, rewards - values))
    # evaluate greedily
    logits, _, _ = net.forward(np.eye(2))
    assert logits[0].argmax() == 0
    assert logits[1].argmax() == 1


def test_value_head_learns_returns():
    net = PolicyValueNet(2, 2, hidden=32, seed=1)
    tr = PPOTrainer(net, lr=5e-3, seed=1)
    g = np.random.default_rng(2)
    legal = np.ones((256, 2), dtype=bool)
    for _ in range(60):
        ctx = g.integers(0, 2, 256)
        obs = np.eye(2)[ctx]
        actions, logp, values = tr.action_logp(obs, legal, g.random(len(obs)))
        returns = np.where(ctx == 0, 0.2, 0.8)
        tr.update(Batch(obs, actions, legal, logp, returns, returns - values))
    _, v, _ = net.forward(np.eye(2))
    assert abs(v[0] - 0.2) < 0.1 and abs(v[1] - 0.8) < 0.1
