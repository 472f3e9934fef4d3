"""Proximal policy optimisation (PPO) baseline — DRiLLS with PPO updates."""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.baselines.rl.env import SynthesisEnvironment
from repro.baselines.rl.networks import PolicyValueNetwork
from repro.bo.base import SequenceOptimiser
from repro.bo.space import SequenceSpace
from repro.qor.evaluator import QoREvaluator, SequenceEvaluation
from repro.registry import register_optimiser


@register_optimiser("ppo", display_name="DRiLLS (PPO)")
class PPOOptimiser(SequenceOptimiser):
    """Clipped-surrogate PPO over the synthesis MDP.

    Episodes are collected in small batches; each batch is reused for a few
    epochs of clipped policy updates, which is PPO's defining difference
    from A2C.

    The batch protocol mirrors that structure: :meth:`suggest` rolls out
    up to ``episodes_per_batch`` episodes with the fixed current policy
    and returns their sequences as one batch, and :meth:`observe` runs
    the clipped update epochs on the collected batch.  The environment
    records nothing itself: :func:`~repro.bo.base.drive` scores the
    batch's finished sequences like any other optimiser's proposals.

    Near budget exhaustion the caller caps the batch at the *remaining*
    budget so a batch can never overshoot it.  This is slightly more
    conservative than the old per-episode inner loop: a memoised
    duplicate episode costs no budget, so with one evaluation left the
    old loop could still group a duplicate with a fresh episode into one
    update batch where this cap yields two single-episode updates.  The
    budget accounting is identical; only the update grouping in that
    corner differs.
    """

    name = "DRiLLS (PPO)"

    def __init__(
        self,
        space: Optional[SequenceSpace] = None,
        seed: int = 0,
        hidden_dim: int = 32,
        learning_rate: float = 3e-3,
        discount: float = 0.99,
        clip_epsilon: float = 0.2,
        update_epochs: int = 4,
        episodes_per_batch: int = 2,
        entropy_coefficient: float = 0.01,
        use_graph_features: bool = False,
    ) -> None:
        super().__init__(space=space, seed=seed)
        self.hidden_dim = hidden_dim
        self.learning_rate = learning_rate
        self.discount = discount
        self.clip_epsilon = clip_epsilon
        self.update_epochs = update_epochs
        self.episodes_per_batch = max(1, episodes_per_batch)
        self.entropy_coefficient = entropy_coefficient
        self.use_graph_features = use_graph_features

    # ------------------------------------------------------------------
    # Batch protocol (episode-batch-shaped)
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
        self._pending_batch: List[tuple] = []

    def suggest(self, n: int = 1) -> np.ndarray:
        """Roll out up to ``min(n, episodes_per_batch)`` episodes."""
        if getattr(self, "_env", None) is None:
            raise RuntimeError("attach_environment() must be called before suggest()")
        count = min(max(1, int(n)), self.episodes_per_batch)
        self._pending_batch = []
        rows: List[List[int]] = []
        for _ in range(count):
            states, actions, rewards, old_probs = self._rollout(self._env, self._network)
            self._pending_batch.append((states, actions, rewards, old_probs))
            rows.append(self._env.current_sequence())
        return np.array(rows, dtype=int)

    def observe(self, rows: np.ndarray, records: Sequence[SequenceEvaluation]) -> None:
        """Clipped-surrogate update epochs on the collected episode batch."""
        batch_states: List[np.ndarray] = []
        batch_actions: List[int] = []
        batch_returns: List[float] = []
        batch_old_probs: List[float] = []
        for states, actions, rewards, old_probs in self._pending_batch:
            returns = self._discounted_returns(rewards)
            batch_states.extend(states)
            batch_actions.extend(actions)
            batch_returns.extend(returns.tolist())
            batch_old_probs.extend(old_probs)
            self._episode_returns.append(float(np.sum(rewards)))
        self._pending_batch = []
        if not batch_states:
            return
        states_arr = np.array(batch_states)
        actions_arr = np.array(batch_actions, dtype=int)
        returns_arr = np.array(batch_returns)
        old_probs_arr = np.array(batch_old_probs)
        values = np.array([self._network.state_value(s) for s in batch_states])
        advantages = returns_arr - values
        if np.std(advantages) > 1e-8:
            advantages = (advantages - advantages.mean()) / advantages.std()
        for _ in range(self.update_epochs):
            self._network.policy_gradient_step(
                states_arr, actions_arr, advantages,
                entropy_coefficient=self.entropy_coefficient,
                old_probs=old_probs_arr,
                clip_epsilon=self.clip_epsilon,
            )
            self._network.value_step(states_arr, returns_arr)

    # ------------------------------------------------------------------
    # Drive hooks: PPO batches are collected until ``budget`` sequences
    # have been tested (the driver passes the remaining budget as ``n``,
    # so a batch never overshoots it).
    # ------------------------------------------------------------------
    def prepare(self, evaluator: QoREvaluator, budget: int) -> None:
        self.attach_environment(SynthesisEnvironment(
            evaluator, space=self.space,
            use_graph_features=self.use_graph_features,
        ))

    def run_metadata(self) -> dict:
        return {"episode_returns": self._episode_returns}

    # ------------------------------------------------------------------
    # Checkpoint protocol (mirrors A2C: round boundaries never hold an
    # in-flight episode batch, and ``prepare`` rebuilds the environment
    # scaffolding the snapshot overwrites).
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
        self._pending_batch = []

    # ------------------------------------------------------------------
    def _rollout(self, env: SynthesisEnvironment, network: PolicyValueNetwork):
        states, actions, rewards, old_probs = [], [], [], []
        state = env.reset()
        done = False
        while not done:
            probs = network.action_probabilities(state)
            action = int(self.rng.choice(env.num_actions, p=probs))
            next_state, reward, done = env.step(action)
            states.append(state)
            actions.append(action)
            rewards.append(reward)
            old_probs.append(float(probs[action]))
            state = next_state
        return states, actions, rewards, old_probs

    def _discounted_returns(self, rewards: List[float]) -> np.ndarray:
        returns = np.zeros(len(rewards))
        running = 0.0
        for index in reversed(range(len(rewards))):
            running = rewards[index] + self.discount * running
            returns[index] = running
        return returns
