"""The replay-training pieces every learner shares.

The DQN, Wolpertinger and per-cell sequential learners differ only in how they
act and update; the episode loop, replay gating, exploration schedule and
Q-head TD update they have in common live here once.
"""

from __future__ import annotations

import numpy as np

from .. import neural
from ..environment import NetworkEnv


def linear_schedule(start: float, end: float, fraction: float, step: int,
                    total_steps: int) -> float:
    """Anneal linearly from start to end over fraction of total_steps, then hold."""
    ramp = max(int(fraction * total_steps), 1)
    frac = min(step / ramp, 1.0)
    return start + frac * (end - start)


def q_td_step(agent, batch: neural.Batch) -> float:
    """One Huber TD update of a Q-head network; returns the mean loss.

    agent carries online and target nets, an Adam state, a train_calls
    counter and a config with gamma and target_sync; the target net is
    synced to the online one every target_sync calls.
    """
    c = agent.config
    bootstrap = neural.forward(agent.target, batch.next_states).max(axis=1)
    targets = batch.rewards + c.gamma * np.where(batch.dones, 0.0, bootstrap)
    out, cache = neural.forward_cached(agent.online, batch.states)
    rows = np.arange(out.shape[0])
    acts = batch.actions.astype(np.int64)
    loss, dloss = neural.huber(out[rows, acts] - targets)
    upstream = np.zeros_like(out)
    upstream[rows, acts] = dloss / out.shape[0]
    grads = neural.backward_from_cache(agent.online, cache, upstream)
    neural.adam_step(agent.opt, agent.online.parameters(), grads)
    agent.train_calls += 1
    if agent.train_calls % c.target_sync == 0:
        agent.target.copy_from(agent.online)
    return float(loss.mean())


def run_episodes(env: NetworkEnv, agent, episodes: int,
                 rng: np.random.Generator, frozen_seed, step, learn) -> dict:
    """Run episodes of act, store, replay; returns per-episode totals.

    frozen_seed pins every episode to one network draw (the single-instance
    regime); otherwise each episode draws a fresh instance from rng.
    step(features) acts and advances env, returning (stored_action, outcome,
    reward); agent.global_step then counts the step, and agent.buffer stores
    reward times agent.config.reward_scale. Once the buffer holds
    max(train_start, batch_size) transitions, every step ends with
    learn(batch) on a fresh minibatch, which returns a loss.
    """
    buffer, config = agent.buffer, agent.config
    history = {"episode_reward": [], "episode_best_rate": [], "loss": []}
    for _ in range(episodes):
        seed = frozen_seed if frozen_seed is not None else int(rng.integers(2 ** 63))
        features = env.reset(seed)
        ep_reward = 0.0
        best_rate = 0.0
        losses = []
        done = False
        while not done:
            action, outcome, reward = step(features)
            agent.global_step += 1
            buffer.push(features, action, reward * config.reward_scale,
                        outcome.features, outcome.done)
            features = outcome.features
            done = outcome.done
            ep_reward += reward
            best_rate = max(best_rate, outcome.info["sum_rate"])
            if len(buffer) >= max(config.train_start, config.batch_size):
                losses.append(learn(buffer.sample(config.batch_size, rng)))
        history["episode_reward"].append(ep_reward)
        history["episode_best_rate"].append(best_rate)
        history["loss"].append(float(np.mean(losses)) if losses else np.nan)
    return history
