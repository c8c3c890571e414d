"""Single-file save and restore for every agent kind."""

import hashlib
import json

import numpy as np
import pytest

from skycell.agents.checkpoint import load_checkpoint, save_checkpoint
from skycell.agents.dqn import DqnAgent, DqnConfig
from skycell.agents.sequential import (CellAgent, SequentialConfig,
                                       SequentialResult, sequential_train)
from skycell.agents.wolpertinger import (WolpertingerAgent, WolpertingerConfig,
                                         wolpertinger_act)
from skycell.environment import EnvConfig, NetworkEnv, RewardSpec
from skycell.neural import pack_params, unpack_params
from skycell.scenario import ScenarioConfig


def _env(num_cells, horizon=10):
    return NetworkEnv(EnvConfig(
        scenario=ScenarioConfig(num_cells=num_cells),
        power_levels_dbm=(27.0, 28.0, 29.0, 30.0),
        codebook_size=8,
        horizon=horizon,
        reward=RewardSpec(gamma_min_db=-30.0),
    ))


def test_dqn_roundtrip(tmp_path):
    agent = DqnAgent(10, 2, DqnConfig(hidden=(24, 16)), seed=4)
    path = tmp_path / "dqn.ckpt"
    save_checkpoint(path, agent)
    back = load_checkpoint(path)
    rng = np.random.default_rng(0)
    for _ in range(5):
        f = rng.random(10)
        assert np.array_equal(agent.q_values(f), back.q_values(f))
    assert np.array_equal(back.online.parameters(), agent.online.parameters())
    assert np.array_equal(back.target.parameters(), back.online.parameters())


def test_wolpertinger_roundtrip(tmp_path):
    agent = WolpertingerAgent(10, 2, WolpertingerConfig(hidden=(24, 16), k=6),
                              seed=5)
    path = tmp_path / "wolp.ckpt"
    save_checkpoint(path, agent)
    back = load_checkpoint(path)
    assert back.config.k == 6
    rng = np.random.default_rng(1)
    for _ in range(5):
        f = rng.random(10)
        assert np.array_equal(agent.propose(f), back.propose(f))
        cands = rng.integers(0, 2, (4, 4))
        assert np.array_equal(agent.critic_values(f, cands),
                              back.critic_values(f, cands))
        assert np.array_equal(wolpertinger_act(agent, f, k=6),
                              wolpertinger_act(back, f, k=6))


def test_sequential_roundtrip(tmp_path):
    env = _env(2)
    config = SequentialConfig(episodes_per_agent=2, hidden=(16,),
                              train_start=16, batch_size=8)
    result = sequential_train(env, config, seed=2, frozen_seed=5)
    path = tmp_path / "seq.ckpt"
    save_checkpoint(path, result)
    back = load_checkpoint(path)
    assert back.order == result.order
    features = env.reset(5)
    assert np.array_equal(result.joint_action(features),
                          back.joint_action(features))


def test_header_is_one_json_line(tmp_path):
    agent = DqnAgent(6, 1, DqnConfig(hidden=(8,)), seed=0)
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, agent)
    with open(path, "rb") as f:
        head = json.loads(f.readline().decode("utf-8"))
    assert head["kind"] == "dqn"
    assert head["num_features"] == 6
    assert head["num_cells"] == 1
    assert head["hidden"] == [8]


def test_rejects_unknown_object(tmp_path):
    with pytest.raises(TypeError):
        save_checkpoint(tmp_path / "x.ckpt", object())


def test_rejects_garbage_header(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"\xff\xfe not json\n1234")
    with pytest.raises(ValueError, match="unreadable checkpoint header"):
        load_checkpoint(path)


def test_rejects_unknown_kind(tmp_path):
    path = tmp_path / "kind.ckpt"
    agent = DqnAgent(6, 1, DqnConfig(hidden=(8,)), seed=0)
    save_checkpoint(path, agent)
    head, _, payload = path.read_bytes().partition(b"\n")
    doc = json.loads(head)
    doc["kind"] = "tabular"
    path.write_bytes(json.dumps(doc).encode() + b"\n" + payload)
    with pytest.raises(ValueError, match="unknown checkpoint kind"):
        load_checkpoint(path)


def test_rejects_mismatched_layout(tmp_path):
    path = tmp_path / "layout.ckpt"
    agent = DqnAgent(6, 1, DqnConfig(hidden=(8,)), seed=0)
    save_checkpoint(path, agent)
    head, _, payload = path.read_bytes().partition(b"\n")
    doc = json.loads(head)
    doc["hidden"] = [12]
    path.write_bytes(json.dumps(doc).encode() + b"\n" + payload)
    with pytest.raises(ValueError, match="does not match the network layout"):
        load_checkpoint(path)


@pytest.mark.parametrize("change", ["extra", "missing"])
@pytest.mark.parametrize("kind", ["dqn", "wolpertinger", "sequential"])
def test_rejects_payload_with_an_array_too_many_or_too_few(tmp_path, kind,
                                                           change):
    path = tmp_path / f"{kind}.ckpt"
    save_checkpoint(path, _seeded(kind))
    head, _, payload = path.read_bytes().partition(b"\n")
    arrays = unpack_params(payload)
    arrays = arrays + [np.zeros(3)] if change == "extra" else arrays[:-1]
    path.write_bytes(head + b"\n" + pack_params(arrays))
    with pytest.raises(ValueError, match="does not match the network layout"):
        load_checkpoint(path)


def test_rejects_truncated_payload(tmp_path):
    path = tmp_path / "trunc.ckpt"
    agent = DqnAgent(6, 1, DqnConfig(hidden=(8,)), seed=0)
    save_checkpoint(path, agent)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) - 40])
    with pytest.raises(ValueError):
        load_checkpoint(path)


# sha256 of each seeded agent's file, taken when every network still kept
# its weights as separate per-layer arrays; the payload format must not drift
PINNED = {
    "dqn": "b871219cae5744723f57c280f3ef3d872f26242df7557da896584f15474da2d2",
    "wolpertinger":
        "7a8e9d45f319a0e81e18628249cd73fd0d2dde6a34872669d752cc85f839d6c6",
    "sequential":
        "b1cc8a3e9a7d83a6e226466f73555f19c1b47947718a33203bfa463794f19cfb",
}


def _seeded(kind):
    if kind == "dqn":
        return DqnAgent(10, 2, DqnConfig(hidden=(24, 16)), seed=4)
    if kind == "wolpertinger":
        return WolpertingerAgent(10, 2, WolpertingerConfig(hidden=(24, 16),
                                                           k=6), seed=5)
    config = SequentialConfig(hidden=(16, 8))
    return SequentialResult(order=(1, 0), history={}, policies={
        cell: CellAgent(10, config, seed=cell + 7) for cell in (1, 0)})


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_checkpoint_bytes_match_the_pinned_format(tmp_path, kind):
    path = tmp_path / f"{kind}.ckpt"
    save_checkpoint(path, _seeded(kind))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED[kind]
    # loading fills every network; saving the result writes the same bytes
    again = tmp_path / "again.ckpt"
    save_checkpoint(again, load_checkpoint(path))
    assert again.read_bytes() == path.read_bytes()
