"""The tabular Q-learning oracle: backup arithmetic and convergence toward Q*.

test_dqn compares a DQN's greedy policy with this oracle's, so the oracle
itself is checked against value iteration here.
"""

import numpy as np

from helpers import QTable, q_update


def test_backup_hand_case():
    table = QTable(num_actions=2, alpha=0.5, gamma=0.9)
    table.table["s2"] = np.array([1.0, 2.0])
    q_update(table, "s1", 0, 1.0, "s2", done=False)
    np.testing.assert_allclose(table.values("s1"), [1.4, 0.0])


def test_done_masks_the_bootstrap():
    table = QTable(num_actions=2, alpha=0.5, gamma=0.9)
    table.table["s2"] = np.array([5.0, 5.0])
    q_update(table, "s1", 1, 1.0, "s2", done=True)
    np.testing.assert_allclose(table.values("s1"), [0.0, 0.5])


def test_unseen_states_read_the_initial_value_without_insertion():
    table = QTable(num_actions=3, initial_value=2.5)
    np.testing.assert_allclose(table.values("never"), [2.5, 2.5, 2.5])
    assert table.table == {}


def test_greedy_ties_take_the_lowest_action():
    table = QTable(num_actions=3)
    table.table["s"] = np.array([1.0, 1.0, 0.5])
    assert table.act("s", 0.0, np.random.default_rng(0)) == 0


def test_exploration_visits_non_greedy_actions():
    table = QTable(num_actions=4)
    table.table["s"] = np.array([9.0, 0.0, 0.0, 0.0])
    rng = np.random.default_rng(1)
    seen = {table.act("s", 1.0, rng) for _ in range(200)}
    assert seen == {0, 1, 2, 3}


def _synthetic_mdp(rng, num_states=10, num_actions=4):
    transition = rng.random((num_states, num_actions, num_states))
    transition /= transition.sum(axis=2, keepdims=True)
    reward = rng.random((num_states, num_actions))
    return transition, reward


def _q_star(transition, reward, gamma, sweeps=2000):
    q = np.zeros_like(reward)
    for _ in range(sweeps):
        q = reward + gamma * transition @ q.max(axis=1)
    return q


def test_updates_contract_toward_the_value_iteration_fixed_point():
    rng = np.random.default_rng(7)
    transition, reward = _synthetic_mdp(rng)
    gamma = 0.9
    q_star = _q_star(transition, reward, gamma)

    table = QTable(num_actions=4, alpha=0.05, gamma=gamma)

    def sup_error():
        learned = np.stack([table.values(s) for s in range(10)])
        return float(np.max(np.abs(learned - q_star)))

    errors = [sup_error()]
    for _ in range(6):
        for _ in range(5000):
            s = int(rng.integers(10))
            a = int(rng.integers(4))
            s_next = int(rng.choice(10, p=transition[s, a]))
            q_update(table, s, a, float(reward[s, a]), s_next, done=False)
        errors.append(sup_error())
    # distance to Q* shrinks block over block and ends far below the start
    slack = 0.02 * errors[0]
    assert all(b <= a + slack for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 0.2 * errors[0]
