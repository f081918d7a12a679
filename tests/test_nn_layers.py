"""Tests for modules, layers, losses, optimizers, training utilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import NumericalInstabilityError
from repro.nn import (Adam, EarlyStopping, Linear, Module, Parameter,
                      Sequential, Tensor, TrainingHistory, bce_loss,
                      clip_grad_norm, kld_loss, load_module, mse_loss,
                      save_module, train_epochs)

RNG = np.random.default_rng(11)


class TinyNet(Module):
    def __init__(self, rng=None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.first = Linear(3, 4, rng)
        self.second = Linear(4, 1, rng)
        self.blocks = [Linear(2, 2, rng), Linear(2, 2, rng)]

    def forward(self, x):
        return self.second(self.first(x).tanh())


class TestModule:
    def test_named_parameters_discovers_nested_and_lists(self):
        net = TinyNet()
        names = {name for name, _ in net.named_parameters()}
        assert "first.weight" in names
        assert "second.bias" in names
        assert "blocks.0.weight" in names
        assert "blocks.1.bias" in names

    def test_num_parameters(self):
        net = TinyNet()
        expected = 3 * 4 + 4 + 4 * 1 + 1 + 2 * (2 * 2 + 2)
        assert net.num_parameters() == expected

    def test_state_dict_roundtrip(self):
        a, b = TinyNet(), TinyNet(np.random.default_rng(99))
        b.load_state_dict(a.state_dict())
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_load_state_dict_rejects_missing_keys(self):
        net = TinyNet()
        state = net.state_dict()
        state.pop("first.weight")
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_load_state_dict_rejects_shape_mismatch(self):
        net = TinyNet()
        state = net.state_dict()
        state["first.weight"] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_train_eval_mode_propagates(self):
        net = TinyNet()
        net.eval()
        assert not net.training
        assert not net.first.training
        assert not net.blocks[0].training
        net.train()
        assert net.blocks[1].training

    def test_zero_grad_clears(self):
        net = TinyNet()
        x = Tensor(RNG.normal(size=(2, 3)))
        net(x).sum().backward()
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())


class TestLinear:
    def test_forward_shape(self):
        layer = Linear(5, 2, RNG)
        out = layer(Tensor(RNG.normal(size=(7, 5))))
        assert out.shape == (7, 2)

    def test_forward_batched_3d(self):
        layer = Linear(5, 2, RNG)
        out = layer(Tensor(RNG.normal(size=(3, 4, 5))))
        assert out.shape == (3, 4, 2)

    def test_rejects_wrong_width(self):
        layer = Linear(5, 2, RNG)
        with pytest.raises(ValueError):
            layer(Tensor(RNG.normal(size=(7, 4))))

    def test_sequential_applies_in_order(self):
        seq = Sequential(Linear(3, 3, RNG), Linear(3, 2, RNG))
        assert len(seq) == 2
        out = seq(Tensor(RNG.normal(size=(4, 3))))
        assert out.shape == (4, 2)


class TestLosses:
    def test_mse_zero_for_identical(self):
        pred = Tensor(np.ones((2, 3)))
        assert mse_loss(pred, np.ones((2, 3))).item() == 0.0

    def test_mse_matches_numpy(self):
        pred_data = RNG.normal(size=(4, 3))
        target = RNG.normal(size=(4, 3))
        loss = mse_loss(Tensor(pred_data), target).item()
        np.testing.assert_allclose(loss, ((pred_data - target) ** 2).mean())

    def test_mse_mask_ignores_padding(self):
        pred = Tensor(np.ones((2, 3)))
        target = np.zeros((2, 3))
        target[:, 2] = 100.0  # padded column with junk
        mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
        np.testing.assert_allclose(mse_loss(pred, target, mask).item(), 1.0)

    def test_mse_empty_mask_raises(self):
        with pytest.raises(ValueError):
            mse_loss(Tensor(np.ones((2, 2))), np.ones((2, 2)),
                     np.zeros((2, 2)))

    def test_kld_zero_for_identical_distributions(self):
        p = np.array([0.2, 0.3, 0.5])
        assert abs(kld_loss(p, Tensor(p)).item()) < 1e-9

    def test_kld_positive_for_different_distributions(self):
        p = np.array([0.9, 0.05, 0.05])
        q = Tensor(np.array([1 / 3, 1 / 3, 1 / 3]))
        assert kld_loss(p, q).item() > 0.0

    def test_kld_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            kld_loss(np.ones(3) / 3, Tensor(np.ones(4) / 4))

    def test_kld_gradient_direction(self):
        # Pushing prediction toward the label must reduce the loss.
        q = Tensor(np.array([0.5, 0.5]), requires_grad=True)
        label = np.array([0.9, 0.1])
        loss = kld_loss(label, q)
        loss.backward()
        # KL = -sum(p log q) + const, so dKL/dq_i = -p_i/q_i: the gradient
        # pulls hardest on the under-weighted coordinate.
        assert q.grad[0] < q.grad[1] < 0

    def test_bce_loss_basics(self):
        good = bce_loss(Tensor(np.array([0.99, 0.01])),
                        np.array([1.0, 0.0])).item()
        bad = bce_loss(Tensor(np.array([0.01, 0.99])),
                       np.array([1.0, 0.0])).item()
        assert good < bad

    def test_bce_finite_at_extremes(self):
        loss = bce_loss(Tensor(np.array([1.0, 0.0])), np.array([0.0, 1.0]))
        assert np.isfinite(loss.item())


class TestOptim:
    def _quadratic_descent(self, optimizer_cls, **kwargs):
        target = np.array([1.0, -2.0, 3.0])
        p = Parameter(np.zeros(3))
        opt = optimizer_cls([p], **kwargs)
        for _ in range(500):
            opt.zero_grad()
            loss = ((p - Tensor(target)) ** 2).sum()
            loss.backward()
            opt.step()
        return p.data, target

    def test_adam_converges_on_quadratic(self):
        value, target = self._quadratic_descent(Adam, lr=0.05)
        np.testing.assert_allclose(value, target, atol=1e-2)

    def test_optimizer_requires_parameters(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_clip_grad_norm(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 10.0)
        before = clip_grad_norm([p], max_norm=1.0)
        np.testing.assert_allclose(before, 20.0)
        np.testing.assert_allclose(np.linalg.norm(p.grad), 1.0, rtol=1e-6)

    def test_clip_grad_norm_noop_below_threshold(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([0.3, 0.4])
        clip_grad_norm([p], max_norm=1.0)
        np.testing.assert_allclose(p.grad, [0.3, 0.4])


class TestTrainingUtilities:
    def test_early_stopping_triggers_after_patience(self):
        stopper = EarlyStopping(patience=2)
        assert not stopper.update(1.0)
        assert not stopper.update(0.5)   # improvement
        assert not stopper.update(0.6)   # bad 1
        assert stopper.update(0.7)       # bad 2 -> stop
        assert stopper.best == 0.5
        assert stopper.best_epoch == 1

    def test_early_stopping_min_delta(self):
        stopper = EarlyStopping(patience=1, min_delta=0.1)
        assert not stopper.update(1.0)
        assert stopper.update(0.95)  # not enough improvement

    @staticmethod
    def _fit(layer, batch_loss, epochs=3, batch_size=4, num_samples=10):
        return train_epochs(
            name="unit", modules={"layer": layer},
            optimizer=Adam(layer.parameters(), lr=1e-2),
            histories=[TrainingHistory("a"), TrainingHistory("b")],
            batch_loss=batch_loss, num_samples=num_samples, epochs=epochs,
            batch_size=batch_size, patience=5, seed=0, max_grad_norm=1.0,
            checkpoint=None, verbose=False)

    def test_train_epochs_batches_and_weighted_means(self):
        layer = Linear(2, 1, np.random.default_rng(0))
        seen = []

        def batch_loss(chosen):
            seen.append(sorted(int(c) for c in chosen))
            loss = (layer(Tensor(np.ones((1, 2)))) ** 2).sum()
            return loss, (1.0 * len(chosen), 2.0 * len(chosen)), len(chosen)

        histories = self._fit(layer, batch_loss)
        # 10 samples in batches of 4: three steps per epoch, each epoch
        # a permutation of every sample.
        assert len(seen) == 9
        for epoch in range(3):
            batches = seen[3 * epoch:3 * epoch + 3]
            assert [len(b) for b in batches] == [4, 4, 2]
            assert sorted(sum(batches, [])) == list(range(10))
        # Components weighted by batch size average back to 1 and 2.
        assert [h.epoch_losses for h in histories] == [[1.0] * 3, [2.0] * 3]
        assert not layer.training

    def test_train_epochs_nonfinite_loss_raises_before_the_step(self):
        layer = Linear(2, 1, np.random.default_rng(0))
        before = {k: v.copy() for k, v in layer.state_dict().items()}

        def batch_loss(chosen):
            loss = (layer(Tensor(np.full((1, 2), np.nan))) ** 2).sum()
            return loss, (loss.item(), 0.0), 1

        with pytest.raises(NumericalInstabilityError, match="non-finite"):
            self._fit(layer, batch_loss)
        for key, value in layer.state_dict().items():
            np.testing.assert_array_equal(value, before[key])


class TestSerialization:
    def test_save_load_roundtrip(self, tmp_path):
        a = TinyNet(np.random.default_rng(1))
        b = TinyNet(np.random.default_rng(2))
        save_module(a, tmp_path / "model.npz")
        load_module(b, tmp_path / "model.npz")
        x = Tensor(RNG.normal(size=(2, 3)))
        np.testing.assert_allclose(a(x).numpy(), b(x).numpy())

    def test_load_appends_suffix(self, tmp_path):
        a = TinyNet()
        save_module(a, tmp_path / "model")
        load_module(a, tmp_path / "model")
