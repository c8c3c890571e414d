"""One-file policy checkpoints: a JSON header line plus the weight payload.

The header is a single UTF-8 JSON line naming the agent kind, the feature
width and cell count the policy was trained for, and the network layout
needed to rebuild it. Everything after the newline is the neural module's
binary array format holding every network of the agent in a fixed order per
kind (value net; actor then critic; per-cell nets in training order).
"""

from __future__ import annotations

import json

import numpy as np

from .. import neural
from .dqn import DqnAgent, DqnConfig
from .sequential import CellAgent, SequentialConfig, SequentialResult
from .wolpertinger import WolpertingerAgent, WolpertingerConfig


def _arrays(net: neural.Mlp) -> list:
    """The net's per-layer W, b arrays, in the order the payload stores them."""
    return neural.layer_views(net.parameters(), net.widths)


def _fill(net: neural.Mlp, arrays) -> None:
    if list(map(np.shape, arrays)) != list(map(np.shape, _arrays(net))):
        raise ValueError("checkpoint payload does not match the network layout")
    net.parameters()[...] = np.concatenate(arrays, axis=None)


def save_checkpoint(path, agent) -> None:
    """Write a DQN, Wolpertinger or sequential policy to one file."""
    if isinstance(agent, DqnAgent):
        head = {"kind": "dqn",
                "num_features": agent.online.widths[0],
                "num_cells": agent.num_cells,
                "hidden": list(agent.config.hidden)}
        arrays = _arrays(agent.online)
    elif isinstance(agent, WolpertingerAgent):
        head = {"kind": "wolpertinger",
                "num_features": agent.actor.widths[0],
                "num_cells": agent.num_cells,
                "hidden": list(agent.config.hidden),
                "k": int(agent.config.k)}
        arrays = _arrays(agent.actor) + _arrays(agent.critic)
    elif isinstance(agent, SequentialResult):
        first = agent.policies[agent.order[0]]
        head = {"kind": "sequential",
                "num_features": first.online.widths[0],
                "num_cells": len(agent.order),
                "hidden": list(first.config.hidden),
                "order": [int(c) for c in agent.order]}
        arrays = []
        for cell in agent.order:
            arrays.extend(_arrays(agent.policies[cell].online))
    else:
        raise TypeError(f"cannot checkpoint object of type {type(agent).__name__}")
    with open(path, "wb") as f:
        f.write(json.dumps(head, sort_keys=True).encode("utf-8") + b"\n")
        f.write(neural.pack_params(arrays))


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
        _fill(agent.online, arrays)
        agent.target.copy_from(agent.online)
        return agent
    if kind == "wolpertinger":
        agent = WolpertingerAgent(
            num_features, num_cells,
            WolpertingerConfig(hidden=hidden, k=int(head["k"])))
        split = 2 * agent.actor.num_layers
        _fill(agent.actor, arrays[:split])
        _fill(agent.critic, arrays[split:])
        agent.actor_target.copy_from(agent.actor)
        agent.critic_target.copy_from(agent.critic)
        return agent
    if kind == "sequential":
        order = tuple(int(c) for c in head["order"])
        config = SequentialConfig(hidden=hidden)
        policies = {}
        offset = 0
        for cell in order:
            cell_agent = CellAgent(num_features, config, seed=0)
            count = 2 * cell_agent.online.num_layers
            _fill(cell_agent.online, arrays[offset:offset + count])
            cell_agent.target.copy_from(cell_agent.online)
            policies[cell] = cell_agent
            offset += count
        if offset != len(arrays):
            raise ValueError("checkpoint payload does not match the network layout")
        return SequentialResult(order=order, policies=policies, history={})
    raise ValueError(f"unknown checkpoint kind {kind!r}")
