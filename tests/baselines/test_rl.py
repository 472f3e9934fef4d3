"""Tests for the RL baselines: networks, environment, A2C/PPO/Graph-RL."""

import numpy as np
import pytest

from repro.baselines.rl import (
    A2COptimiser,
    GraphRLOptimiser,
    MLP,
    PolicyValueNetwork,
    PPOOptimiser,
    SynthesisEnvironment,
)
from repro.baselines.rl.networks import AdamState, softmax
from repro.bo.space import SequenceSpace
from repro.circuits import make_adder
from repro.mapping.lut_mapper import LutMapper
from repro.qor import QoREvaluator


@pytest.fixture(scope="module")
def adder():
    return make_adder(4)


@pytest.fixture(scope="module")
def space():
    return SequenceSpace(sequence_length=3)


class TestNetworks:
    def test_mlp_forward_shape(self, rng):
        mlp = MLP(input_dim=5, hidden_dim=8, output_dim=3, rng=rng)
        out, cache = mlp.forward(np.zeros((4, 5)))
        assert out.shape == (4, 3)
        assert cache["x"].shape == (4, 5)

    def test_mlp_gradient_check(self, rng):
        """Finite-difference check of the manual backprop."""
        mlp = MLP(input_dim=3, hidden_dim=4, output_dim=2, rng=rng)
        x = rng.normal(size=(2, 3))
        target = rng.normal(size=(2, 2))

        def loss():
            out, _ = mlp.forward(x)
            return 0.5 * float(np.sum((out - target) ** 2))

        out, cache = mlp.forward(x)
        grads = mlp.backward(out - target, cache)
        eps = 1e-5
        for name in ("W1", "b2", "W3"):
            param = mlp.params[name]
            idx = tuple(0 for _ in param.shape)
            original = param[idx]
            param[idx] = original + eps
            plus = loss()
            param[idx] = original - eps
            minus = loss()
            param[idx] = original
            numeric = (plus - minus) / (2 * eps)
            assert grads[name][idx] == pytest.approx(numeric, rel=1e-3, abs=1e-5)

    def test_softmax_normalised(self, rng):
        probs = softmax(rng.normal(size=(5, 7)))
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert np.all(probs >= 0)

    def test_softmax_stability_with_large_logits(self):
        probs = softmax(np.array([1e4, 1e4 + 1]))
        assert np.isfinite(probs).all()

    def test_adam_state_updates_parameters(self, rng):
        params = {"w": np.ones(3)}
        opt = AdamState(params, learning_rate=0.1)
        opt.update(params, {"w": np.ones(3)})
        assert np.all(params["w"] < 1.0)

    def test_policy_value_network_probabilities(self, rng):
        net = PolicyValueNetwork(state_dim=4, num_actions=6, seed=0)
        probs = net.action_probabilities(np.zeros(4))
        assert probs.shape == (6,)
        assert probs.sum() == pytest.approx(1.0)

    def test_policy_gradient_shifts_towards_advantage(self):
        net = PolicyValueNetwork(state_dim=3, num_actions=4, seed=1, learning_rate=0.05)
        state = np.array([0.2, -0.3, 0.5])
        before = net.action_probabilities(state)[2]
        for _ in range(30):
            net.policy_gradient_step(state[None, :], np.array([2]), np.array([1.0]),
                                     entropy_coefficient=0.0)
        after = net.action_probabilities(state)[2]
        assert after > before

    def test_value_step_reduces_loss(self):
        net = PolicyValueNetwork(state_dim=3, num_actions=2, seed=2, learning_rate=0.05)
        states = np.array([[0.0, 1.0, -1.0], [1.0, 0.0, 0.5]])
        returns = np.array([1.0, -1.0])
        first = net.value_step(states, returns)
        for _ in range(50):
            last = net.value_step(states, returns)
        assert last < first


class TestEnvironment:
    def test_reset_and_dims(self, adder, space):
        env = SynthesisEnvironment(QoREvaluator(adder), space=space)
        state = env.reset()
        assert state.shape == (env.state_dim,)
        assert env.num_actions == 11
        assert env.episode_length == 3

    def test_episode_records_no_evaluation(self, adder, space):
        evaluator = QoREvaluator(adder)
        env = SynthesisEnvironment(evaluator, space=space)
        env.reset()
        done = False
        steps = 0
        while not done:
            _, _, done = env.step(0)
            steps += 1
        assert steps == 3
        assert evaluator.num_evaluations == 0
        assert env.current_sequence() == [0, 0, 0]
        # The optimiser's driver scores the finished sequence.
        evaluator.evaluate(space.to_names(env.current_sequence()))
        assert evaluator.num_evaluations == 1

    def test_rewards_telescope_to_qor_decrease(self, adder, space):
        evaluator = QoREvaluator(adder)
        env = SynthesisEnvironment(evaluator, space=space)
        env.reset()
        initial_qor = env._qor_of(env.mapper.map(evaluator.aig))
        rewards = []
        done = False
        actions = [6, 0, 2]
        idx = 0
        while not done:
            _, reward, done = env.step(actions[idx])
            rewards.append(reward)
            idx += 1
        final_record = evaluator.evaluate(
            space.to_names(env.current_sequence()))
        assert sum(rewards) == pytest.approx(initial_qor - final_record.qor, abs=1e-9)

    def test_each_state_is_mapped_once(self, adder, space, monkeypatch):
        env = SynthesisEnvironment(QoREvaluator(adder), space=space)
        calls = []
        original = LutMapper.map

        def counting_map(mapper, aig):
            calls.append(aig)
            return original(mapper, aig)

        monkeypatch.setattr(LutMapper, "map", counting_map)
        env.reset()
        for action in (6, 0, 2):
            env.step(action)
        # One mapping per step: the reward and the next state's features
        # share it, and reset reuses the initial AIG's mapping.
        assert len(calls) == env.episode_length

    def test_step_after_done_raises(self, adder, space):
        env = SynthesisEnvironment(QoREvaluator(adder), space=space)
        env.reset()
        for _ in range(3):
            env.step(0)
        with pytest.raises(RuntimeError):
            env.step(0)

    def test_invalid_action_rejected(self, adder, space):
        env = SynthesisEnvironment(QoREvaluator(adder), space=space)
        env.reset()
        with pytest.raises(ValueError):
            env.step(42)

    def test_graph_features_extend_state(self, adder, space):
        plain = SynthesisEnvironment(QoREvaluator(adder), space=space)
        graph = SynthesisEnvironment(QoREvaluator(adder), space=space,
                                     use_graph_features=True)
        assert graph.state_dim == plain.state_dim + 16


class TestRLOptimisers:
    @pytest.mark.parametrize("cls,name", [
        (A2COptimiser, "DRiLLS (A2C)"),
        (PPOOptimiser, "DRiLLS (PPO)"),
        (GraphRLOptimiser, "Graph-RL"),
    ])
    def test_budget_and_contract(self, cls, name, adder, space):
        result = cls(space=space, seed=0).optimise(QoREvaluator(adder), budget=4)
        assert result.method == name
        assert result.num_evaluations == 4
        assert len(result.best_trajectory) == 4
        assert "episode_returns" in result.metadata

    def test_a2c_deterministic_given_seed(self, adder, space):
        a = A2COptimiser(space=space, seed=11).optimise(QoREvaluator(adder), budget=3)
        b = A2COptimiser(space=space, seed=11).optimise(QoREvaluator(adder), budget=3)
        assert a.history == b.history

    def test_graph_rl_size_guard(self, space):
        optimiser = GraphRLOptimiser(space=space, max_circuit_ands=100)
        assert optimiser.supports_circuit(50)
        assert not optimiser.supports_circuit(200)
        assert GraphRLOptimiser(space=space, max_circuit_ands=None).supports_circuit(10**6)
