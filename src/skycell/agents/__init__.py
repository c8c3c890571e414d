"""Learning controllers for the joint power and beam task."""

from .dqn import DqnAgent, DqnConfig, dqn_act, dqn_train_step, train_dqn
from .wolpertinger import (WolpertingerAgent, WolpertingerConfig, knn_actions,
                           knn_actions_batch, wolpertinger_act,
                           wolpertinger_train_step, train_wolpertinger)
from .sequential import (SequentialConfig, SequentialResult, rank_cells,
                         sequential_train)
from .checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "DqnAgent", "DqnConfig", "dqn_act", "dqn_train_step", "train_dqn",
    "WolpertingerAgent", "WolpertingerConfig", "knn_actions",
    "knn_actions_batch", "wolpertinger_act", "wolpertinger_train_step",
    "train_wolpertinger",
    "SequentialConfig", "SequentialResult", "rank_cells", "sequential_train",
    "load_checkpoint", "save_checkpoint",
]
