"""Training loop and the shared pretrained detector network.

Training the small CNN on the synthetic patch dataset takes a couple of
seconds; the result is cached per process (and optionally on disk) so every
scenario run of MLS-V2/V3 shares one model, just as the real system ships one
trained TPH-YOLO checkpoint.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.perception.neural.dataset import PatchDatasetConfig, generate_patch_dataset
from repro.perception.neural.layers import SgdOptimizer
from repro.perception.neural.network import MarkerPatchNet


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters of the patch-classifier training run."""

    epochs: int = 6
    batch_size: int = 64
    learning_rate: float = 0.05
    momentum: float = 0.9
    validation_fraction: float = 0.15
    seed: int = 7
    dataset: PatchDatasetConfig = PatchDatasetConfig()


@dataclass
class TrainingReport:
    """What the training run produced."""

    epochs: int
    final_train_loss: float
    validation_accuracy: float
    train_samples: int
    validation_samples: int
    loss_history: list[float]


def train_marker_net(
    config: TrainingConfig | None = None,
    network: MarkerPatchNet | None = None,
) -> tuple[MarkerPatchNet, TrainingReport]:
    """Train a :class:`MarkerPatchNet` on the synthetic patch dataset."""
    config = config or TrainingConfig()
    rng = np.random.default_rng(config.seed)
    network = network or MarkerPatchNet(seed=config.seed)

    patches, labels = generate_patch_dataset(config.dataset, seed=config.seed)
    split = int(len(labels) * (1.0 - config.validation_fraction))
    train_x, train_y = patches[:split], labels[:split]
    val_x, val_y = patches[split:], labels[split:]

    optimizer = SgdOptimizer(learning_rate=config.learning_rate, momentum=config.momentum)
    loss_history: list[float] = []
    final_loss = float("inf")
    for _ in range(config.epochs):
        order = rng.permutation(len(train_y))
        epoch_losses = []
        for start in range(0, len(order), config.batch_size):
            batch_idx = order[start : start + config.batch_size]
            loss = network.train_batch(train_x[batch_idx], train_y[batch_idx], optimizer)
            epoch_losses.append(loss)
        final_loss = float(np.mean(epoch_losses))
        loss_history.append(final_loss)

    accuracy = network.accuracy(val_x, val_y) if len(val_y) else float("nan")
    report = TrainingReport(
        epochs=config.epochs,
        final_train_loss=final_loss,
        validation_accuracy=accuracy,
        train_samples=len(train_y),
        validation_samples=len(val_y),
        loss_history=loss_history,
    )
    return network, report


def _cache_path(seed: int) -> str:
    return os.path.join(tempfile.gettempdir(), f"repro_marker_net_{seed}.pkl")


@lru_cache(maxsize=2)
def load_pretrained_detector_net(seed: int = 7, use_disk_cache: bool = True) -> MarkerPatchNet:
    """The shared trained detector network.

    Trains on first use (a few seconds), then reuses the in-process instance;
    when ``use_disk_cache`` is set the weights are also persisted to the
    system temp directory so repeated benchmark processes skip retraining.
    """
    path = _cache_path(seed)
    if use_disk_cache and os.path.exists(path):
        try:
            return MarkerPatchNet.load(path, seed=seed)
        except (OSError, ValueError, EOFError, pickle.UnpicklingError):
            # Corrupt (torn, empty) or stale cache: retrain below.
            pass
    network, _report = train_marker_net(TrainingConfig(seed=seed))
    if use_disk_cache:
        try:
            network.save(path)
        except OSError:
            pass
    return network
