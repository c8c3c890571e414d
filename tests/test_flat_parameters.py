"""One flat parameter vector per network trains exactly like per-layer arrays.

Each learner's train step is run side by side with a per-array twin (separate
weight and bias arrays, per-array Adam, soft update and hard sync from
helpers) on the same batches; losses, parameters and Adam moments must agree
bit for bit.
"""

import numpy as np
import pytest

from helpers import (flat, list_agent, list_q_td_step,
                     list_wolpertinger_train_step)
from skycell.agents.dqn import DqnAgent, DqnConfig, dqn_train_step
from skycell.agents.sequential import CellAgent, SequentialConfig
from skycell.agents.wolpertinger import (DENSE_MAX_WIDTH, WolpertingerAgent,
                                         WolpertingerConfig,
                                         wolpertinger_train_step)
from skycell.neural import Batch


def _batches(rng, num_features, make_actions, count=6, size=16):
    return [Batch(states=rng.random((size, num_features)),
                  actions=make_actions(size),
                  rewards=rng.normal(size=size),
                  next_states=rng.random((size, num_features)),
                  dones=rng.random(size) < 0.2)
            for _ in range(count)]


def _assert_same(agent, twin, nets, opts):
    for name in nets:
        assert np.array_equal(getattr(agent, name).parameters(),
                              flat(getattr(twin, name).parameters())), name
    for name in opts:
        opt, ref = getattr(agent, name), getattr(twin, name)
        assert opt.t == ref.t
        assert np.array_equal(opt.m, flat(ref.m)), name
        assert np.array_equal(opt.v, flat(ref.v)), name


def test_dqn_train_steps_match_per_array_reference():
    # target_sync=2 puts three hard syncs inside the six steps
    agent = DqnAgent(10, 2, DqnConfig(hidden=(24, 16), target_sync=2), seed=3)
    twin = list_agent(agent, ("online", "target"))
    rng = np.random.default_rng(4)
    for batch in _batches(rng, 10, lambda n: rng.integers(0, 16, n)):
        assert dqn_train_step(agent, batch) == list_q_td_step(twin, batch)
    assert agent.train_calls == twin.train_calls == 6
    _assert_same(agent, twin, ("online", "target"), ("opt",))


def test_cell_agent_train_steps_match_per_array_reference():
    agent = CellAgent(10, SequentialConfig(hidden=(16, 8), target_sync=4),
                      seed=5)
    twin = list_agent(agent, ("online", "target"))
    rng = np.random.default_rng(6)
    for batch in _batches(rng, 10, lambda n: rng.integers(0, 4, n)):
        assert agent.train_step(batch) == list_q_td_step(twin, batch)
    _assert_same(agent, twin, ("online", "target"), ("opt",))


@pytest.mark.parametrize("num_cells", [2, 5])  # dense and heap k-NN widths
def test_wolpertinger_train_steps_match_per_array_reference(num_cells):
    assert (2 * num_cells <= DENSE_MAX_WIDTH) == (num_cells == 2)
    nets = ("actor", "critic", "actor_target", "critic_target")
    agent = WolpertingerAgent(5 * num_cells, num_cells,
                              WolpertingerConfig(hidden=(16, 16), k=8), seed=7)
    twin = list_agent(agent, nets)
    rng = np.random.default_rng(8)
    batches = _batches(rng, 5 * num_cells,
                       lambda n: rng.integers(0, 2, (n, 2 * num_cells))
                       .astype(np.float64), count=4)
    for batch in batches:
        assert (wolpertinger_train_step(agent, batch)
                == list_wolpertinger_train_step(twin, batch))
    _assert_same(agent, twin, nets, ("actor_opt", "critic_opt"))
