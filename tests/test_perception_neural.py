"""Tests for the NumPy neural network stack and its training."""

import pickle

import numpy as np
import pytest

from repro.perception.neural import training
from repro.perception.neural.dataset import PatchDatasetConfig, generate_patch_dataset
from repro.perception.neural.layers import (
    Conv2d,
    Dense,
    Flatten,
    MaxPool2d,
    Relu,
    SgdOptimizer,
    cross_entropy_loss,
    softmax,
)
from repro.perception.neural.network import MarkerPatchNet, PATCH_SIZE
from repro.perception.neural.training import TrainingConfig, train_marker_net


class TestLayers:
    def test_dense_forward_shape(self):
        rng = np.random.default_rng(0)
        layer = Dense(8, 4, rng)
        out = layer.forward(np.ones((3, 8)))
        assert out.shape == (3, 4)

    def test_dense_gradient_check(self):
        rng = np.random.default_rng(1)
        layer = Dense(5, 3, rng)
        x = rng.normal(size=(2, 5))
        labels = np.array([0, 2])
        eps = 1e-5

        logits = layer.forward(x)
        _, grad = cross_entropy_loss(logits, labels)
        layer.backward(grad)
        analytic = layer.weight_grad[0, 0]

        layer.weight[0, 0] += eps
        loss_plus, _ = cross_entropy_loss(layer.forward(x), labels)
        layer.weight[0, 0] -= 2 * eps
        loss_minus, _ = cross_entropy_loss(layer.forward(x), labels)
        numeric = (loss_plus - loss_minus) / (2 * eps)
        assert analytic == pytest.approx(numeric, rel=1e-3, abs=1e-6)

    def test_relu_zeroes_negative_gradient(self):
        relu = Relu()
        out = relu.forward(np.array([[-1.0, 2.0]]))
        assert out.tolist() == [[0.0, 2.0]]
        grad = relu.backward(np.array([[1.0, 1.0]]))
        assert grad.tolist() == [[0.0, 1.0]]

    def test_conv_output_shape(self):
        rng = np.random.default_rng(2)
        conv = Conv2d(1, 4, 3, rng)
        out = conv.forward(np.ones((2, 1, 8, 8)))
        assert out.shape == (2, 4, 6, 6)

    def test_conv_backward_shape_matches_input(self):
        rng = np.random.default_rng(3)
        conv = Conv2d(2, 3, 3, rng)
        x = rng.normal(size=(2, 2, 7, 7))
        out = conv.forward(x)
        grad_in = conv.backward(np.ones_like(out))
        assert grad_in.shape == x.shape

    def test_maxpool_forward_and_backward(self):
        pool = MaxPool2d(2)
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = pool.forward(x)
        assert out.shape == (1, 1, 2, 2)
        assert out[0, 0, 1, 1] == 15.0
        grad = pool.backward(np.ones_like(out))
        assert grad.shape == x.shape
        assert grad.sum() == pytest.approx(4.0)

    def test_maxpool_odd_size_keeps_input_shape_in_backward(self):
        pool = MaxPool2d(2)
        x = np.random.default_rng(0).normal(size=(1, 1, 5, 5))
        out = pool.forward(x)
        grad = pool.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_softmax_rows_sum_to_one(self):
        probs = softmax(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(probs.sum(axis=1), [1.0, 1.0])

    def test_cross_entropy_decreases_with_correct_confidence(self):
        confident, _ = cross_entropy_loss(np.array([[5.0, -5.0]]), np.array([0]))
        unsure, _ = cross_entropy_loss(np.array([[0.1, -0.1]]), np.array([0]))
        assert confident < unsure

    def test_flatten_round_trip(self):
        flatten = Flatten()
        x = np.ones((2, 3, 4, 4))
        out = flatten.forward(x)
        assert out.shape == (2, 48)
        assert flatten.backward(out).shape == x.shape

    def test_sgd_moves_parameters(self):
        param = np.ones(3)
        grad = np.ones(3)
        optimizer = SgdOptimizer(learning_rate=0.1, momentum=0.0)
        optimizer.step([(param, grad)])
        np.testing.assert_allclose(param, [0.9, 0.9, 0.9])


class TestDataset:
    def test_dataset_is_balanced_and_shaped(self):
        config = PatchDatasetConfig(samples_per_class=50)
        patches, labels = generate_patch_dataset(config, seed=1)
        assert patches.shape == (100, PATCH_SIZE, PATCH_SIZE)
        assert labels.sum() == 50

    def test_dataset_deterministic_given_seed(self):
        config = PatchDatasetConfig(samples_per_class=20)
        a_patches, a_labels = generate_patch_dataset(config, seed=5)
        b_patches, b_labels = generate_patch_dataset(config, seed=5)
        np.testing.assert_allclose(a_patches, b_patches)
        np.testing.assert_array_equal(a_labels, b_labels)

    def test_values_in_unit_range(self):
        patches, _ = generate_patch_dataset(PatchDatasetConfig(samples_per_class=30), seed=2)
        assert patches.min() >= 0.0 and patches.max() <= 1.0


class TestNetworkAndTraining:
    def test_forward_shapes(self):
        network = MarkerPatchNet(seed=0)
        probs = network.predict_probability(np.random.default_rng(0).random((5, PATCH_SIZE, PATCH_SIZE)))
        assert probs.shape == (5,)
        assert np.all((probs >= 0) & (probs <= 1))

    def test_wrong_patch_size_rejected(self):
        network = MarkerPatchNet(seed=0)
        with pytest.raises(ValueError):
            network.predict_probability(np.zeros((1, 8, 8)))

    def test_training_improves_accuracy(self):
        config = TrainingConfig(
            epochs=3,
            dataset=PatchDatasetConfig(samples_per_class=250),
            seed=11,
        )
        network, report = train_marker_net(config)
        assert report.validation_accuracy > 0.8
        assert report.loss_history[-1] < report.loss_history[0]

    def test_state_dict_round_trip(self, tmp_path):
        network, _ = train_marker_net(
            TrainingConfig(epochs=1, dataset=PatchDatasetConfig(samples_per_class=50), seed=3)
        )
        path = str(tmp_path / "net.pkl")
        network.save(path)
        restored = MarkerPatchNet.load(path)
        patches = np.random.default_rng(0).random((4, PATCH_SIZE, PATCH_SIZE))
        np.testing.assert_allclose(
            network.predict_probability(patches), restored.predict_probability(patches)
        )

    def test_load_state_dict_shape_mismatch_rejected(self):
        network = MarkerPatchNet(seed=0)
        state = network.state_dict()
        state[0] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            network.load_state_dict(state)


class TestPretrainedCache:
    """The detector's on-disk weight cache (``repro_marker_net_<seed>.pkl``)."""

    @pytest.fixture
    def retrains(self, tmp_path, monkeypatch):
        """Seeds retrained, with the cache under ``tmp_path`` and an
        untrained network standing in for the training run."""
        monkeypatch.setattr(training.tempfile, "tempdir", str(tmp_path))
        seeds = []

        def train(config):
            seeds.append(config.seed)
            return MarkerPatchNet(seed=config.seed), None

        monkeypatch.setattr(training, "train_marker_net", train)
        return seeds

    @pytest.mark.parametrize(
        "tear", [lambda data: data[: len(data) // 2], lambda data: b""], ids=["half", "empty"]
    )
    def test_torn_cache_retrains(self, retrains, tear):
        path = training._cache_path(7)
        MarkerPatchNet(seed=1).save(path)
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(tear(data))
        # Past the in-process lru_cache: this is the on-disk path.
        network = training.load_pretrained_detector_net.__wrapped__(7)
        assert retrains == [7]
        # The retrained weights replaced the torn file.
        restored = MarkerPatchNet.load(path)
        for saved, live in zip(restored.state_dict(), network.state_dict()):
            np.testing.assert_array_equal(saved, live)

    def test_failed_save_keeps_the_previous_cache(self, tmp_path, monkeypatch):
        path = tmp_path / "net.pkl"
        MarkerPatchNet(seed=1).save(str(path))
        before = path.read_bytes()

        def torn_dump(state, handle):
            handle.write(before[:10])
            raise OSError("disk full")

        monkeypatch.setattr(pickle, "dump", torn_dump)
        with pytest.raises(OSError, match="disk full"):
            MarkerPatchNet(seed=2).save(str(path))
        assert path.read_bytes() == before
        assert [entry.name for entry in tmp_path.iterdir()] == ["net.pkl"]
