"""One-file policy checkpoints: a JSON header line plus the weight payload.

The header is a single UTF-8 JSON line naming the agent kind, the feature
width and cell count the policy was trained for, and the network layout
needed to rebuild it. Everything after the newline is the neural module's
binary array format holding every network of the agent, in the order _nets
lists them.
"""

from __future__ import annotations

import json

import numpy as np

from .. import neural
from .dqn import DqnAgent, DqnConfig
from .sequential import CellAgent, SequentialConfig, SequentialResult
from .wolpertinger import WolpertingerAgent, WolpertingerConfig


def _arrays(net: neural.Mlp) -> list:
    """The net's per-layer W, b views, in the order the payload stores them."""
    return neural.layer_views(net.parameters(), net.widths)


def _nets(agent) -> list:
    """The agent's (net, target) pairs, in the order the payload stores them."""
    if isinstance(agent, DqnAgent):
        return [(agent.online, agent.target)]
    if isinstance(agent, WolpertingerAgent):
        return [(agent.actor, agent.actor_target),
                (agent.critic, agent.critic_target)]
    if isinstance(agent, SequentialResult):
        return [pair for cell in agent.order
                for pair in _nets(agent.policies[cell])]
    raise TypeError(f"cannot checkpoint object of type {type(agent).__name__}")


def save_checkpoint(path, agent) -> None:
    """Write a DQN, Wolpertinger or sequential policy to one file."""
    nets = [net for net, _ in _nets(agent)]
    head = {"num_features": nets[0].widths[0],
            "hidden": list(nets[0].widths[1:-1])}
    if isinstance(agent, SequentialResult):
        head.update(kind="sequential", num_cells=len(agent.order),
                    order=[int(c) for c in agent.order])
    elif isinstance(agent, WolpertingerAgent):
        head.update(kind="wolpertinger", num_cells=agent.num_cells,
                    k=int(agent.config.k))
    else:
        head.update(kind="dqn", num_cells=agent.num_cells)
    with open(path, "wb") as f:
        f.write(json.dumps(head, sort_keys=True).encode("utf-8") + b"\n")
        f.write(neural.pack_params([a for net in nets for a in _arrays(net)]))


def load_checkpoint(path):
    """Rebuild the agent saved by save_checkpoint; target nets get copies."""
    with open(path, "rb") as f:
        line = f.readline()
        blob = f.read()
    try:
        head = json.loads(line.decode("utf-8"))
        kind = head["kind"]
        num_features = int(head["num_features"])
        num_cells = int(head["num_cells"])
        hidden = tuple(int(h) for h in head["hidden"])
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ValueError("unreadable checkpoint header") from exc
    arrays = neural.unpack_params(blob)
    if kind == "dqn":
        agent = DqnAgent(num_features, num_cells, DqnConfig(hidden=hidden))
    elif kind == "wolpertinger":
        agent = WolpertingerAgent(
            num_features, num_cells,
            WolpertingerConfig(hidden=hidden, k=int(head["k"])))
    elif kind == "sequential":
        order = tuple(int(c) for c in head["order"])
        config = SequentialConfig(hidden=hidden)
        agent = SequentialResult(order=order, history={}, policies={
            cell: CellAgent(num_features, config, seed=0) for cell in order})
    else:
        raise ValueError(f"unknown checkpoint kind {kind!r}")
    nets = _nets(agent)
    views = [a for net, _ in nets for a in _arrays(net)]
    if list(map(np.shape, arrays)) != list(map(np.shape, views)):
        raise ValueError("checkpoint payload does not match the network layout")
    for view, array in zip(views, arrays):
        view[...] = array
    for net, target in nets:
        target.copy_from(net)
    return agent
