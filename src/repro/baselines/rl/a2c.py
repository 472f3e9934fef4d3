"""Advantage actor-critic (A2C) baseline — DRiLLS with the A2C update rule."""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.baselines.rl.env import SynthesisEnvironment
from repro.baselines.rl.networks import PolicyValueNetwork
from repro.bo.base import SequenceOptimiser
from repro.bo.space import SequenceSpace
from repro.qor.evaluator import QoREvaluator, SequenceEvaluation
from repro.registry import register_optimiser


@register_optimiser("a2c", display_name="DRiLLS (A2C)")
class A2COptimiser(SequenceOptimiser):
    """On-policy actor-critic over the synthesis MDP.

    Every episode is one tested sequence; the optimiser keeps collecting
    episodes, updating the policy/value networks after each one, until the
    evaluation budget (in tested sequences) is exhausted.

    The batch protocol is episode-shaped: :meth:`suggest` rolls out one
    episode with the current policy and returns its sequence, and
    :meth:`observe` performs the A2C update for that episode.  The
    environment records nothing itself: :func:`~repro.bo.base.drive`
    scores each finished sequence.  (A2C updates after every episode, so
    its batches are single episodes by construction.)
    """

    name = "DRiLLS (A2C)"

    def __init__(
        self,
        space: Optional[SequenceSpace] = None,
        seed: int = 0,
        hidden_dim: int = 32,
        learning_rate: float = 3e-3,
        discount: float = 0.99,
        entropy_coefficient: float = 0.01,
        use_graph_features: bool = False,
    ) -> None:
        super().__init__(space=space, seed=seed)
        self.hidden_dim = hidden_dim
        self.learning_rate = learning_rate
        self.discount = discount
        self.entropy_coefficient = entropy_coefficient
        self.use_graph_features = use_graph_features

    # ------------------------------------------------------------------
    # Batch protocol (episode-shaped)
    # ------------------------------------------------------------------
    def attach_environment(self, env: SynthesisEnvironment) -> None:
        """Bind the MDP and build the policy/value networks for it."""
        self._env = env
        self._network = PolicyValueNetwork(
            state_dim=env.state_dim,
            num_actions=env.num_actions,
            hidden_dim=self.hidden_dim,
            learning_rate=self.learning_rate,
            seed=self.seed,
        )
        self._episode_returns: List[float] = []
        self._pending_episode = None

    def suggest(self, n: int = 1) -> np.ndarray:
        """Roll out one episode with the current policy; returns its sequence."""
        if getattr(self, "_env", None) is None:
            raise RuntimeError("attach_environment() must be called before suggest()")
        states, actions, rewards = self._rollout(self._env, self._network)
        self._pending_episode = (states, actions, rewards)
        return np.array([self._env.current_sequence()], dtype=int)

    def observe(self, rows: np.ndarray, records: Sequence[SequenceEvaluation]) -> None:
        """A2C update for the episode proposed by the last :meth:`suggest`."""
        assert self._pending_episode is not None
        states, actions, rewards = self._pending_episode
        self._pending_episode = None
        returns = self._discounted_returns(rewards)
        values = np.array([self._network.state_value(s) for s in states])
        advantages = returns - values
        if np.std(advantages) > 1e-8:
            advantages = (advantages - advantages.mean()) / advantages.std()
        self._network.policy_gradient_step(
            np.array(states), np.array(actions), advantages,
            entropy_coefficient=self.entropy_coefficient,
        )
        self._network.value_step(np.array(states), returns)
        self._episode_returns.append(float(np.sum(rewards)))

    # ------------------------------------------------------------------
    # Drive hooks: episodes are collected until ``budget`` sequences have
    # been tested (suggest ignores ``n`` — A2C updates per episode).
    # ------------------------------------------------------------------
    def prepare(self, evaluator: QoREvaluator, budget: int) -> None:
        self.attach_environment(SynthesisEnvironment(
            evaluator, space=self.space,
            use_graph_features=self.use_graph_features,
        ))

    def run_metadata(self) -> dict:
        return {"episode_returns": self._episode_returns}

    # ------------------------------------------------------------------
    # Checkpoint protocol.  At a round boundary there is no in-flight
    # episode (``observe`` consumed it), so the snapshot is the network
    # weights, both Adam states and the episode-return log; ``prepare``
    # must run first (it builds the environment and the network the
    # snapshot overwrites).
    # ------------------------------------------------------------------
    def _state_dict(self) -> dict:
        if getattr(self, "_network", None) is None:
            raise RuntimeError("state_dict() requires prepare() to have run")
        return {
            "network": self._network.state_dict(),
            "episode_returns": [float(value) for value in self._episode_returns],
        }

    def _load_state_dict(self, state: dict) -> None:
        if getattr(self, "_network", None) is None:
            raise RuntimeError("load_state_dict() requires prepare() to have run")
        self._network.load_state_dict(dict(state["network"]))
        self._episode_returns = [float(value)
                                 for value in state["episode_returns"]]
        self._pending_episode = None

    # ------------------------------------------------------------------
    def _rollout(self, env: SynthesisEnvironment, network: PolicyValueNetwork):
        states, actions, rewards = [], [], []
        state = env.reset()
        done = False
        while not done:
            action = network.sample_action(state, self.rng)
            next_state, reward, done = env.step(action)
            states.append(state)
            actions.append(action)
            rewards.append(reward)
            state = next_state
        return states, actions, rewards

    def _discounted_returns(self, rewards: List[float]) -> np.ndarray:
        returns = np.zeros(len(rewards))
        running = 0.0
        for index in reversed(range(len(rewards))):
            running = rewards[index] + self.discount * running
            returns[index] = running
        return returns
