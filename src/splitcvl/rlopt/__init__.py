from .agents import (
    ConvergenceTrace,
    Hyperparams,
    TrainedPolicy,
    train_actor_critic,
    train_dqn,
    train_multi_q,
    train_ppo,
    train_q_learning,
)
from .env import PartitionEnv, ReplayBuffer
from .nets import TinyNet

__all__ = [
    "ConvergenceTrace",
    "Hyperparams",
    "PartitionEnv",
    "ReplayBuffer",
    "TinyNet",
    "TrainedPolicy",
    "train_actor_critic",
    "train_dqn",
    "train_multi_q",
    "train_ppo",
    "train_q_learning",
]
