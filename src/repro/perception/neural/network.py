"""The marker-patch classification network.

A small CNN that classifies a square grayscale patch as *marker* or
*background*.  Its job in the learned detector is the same as the objectness
head of TPH-YOLO: decide robustly whether a candidate region contains a
fiducial, even when glare, fog, noise or partial occlusion has destroyed the
clean black-and-white structure the classical decoder needs.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

import numpy as np

from repro.jsonl import atomic_bytes
from repro.perception.neural.layers import (
    Conv2d,
    Dense,
    Flatten,
    Layer,
    MaxPool2d,
    Relu,
    SgdOptimizer,
    cross_entropy_loss,
    softmax,
)

#: Side length of the patches the network consumes.
PATCH_SIZE = 16


class MarkerPatchNet:
    """Conv-pool-conv-pool-dense binary classifier over 16x16 patches."""

    def __init__(self, seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        self.layers: list[Layer] = [
            Conv2d(1, 6, 3, rng),       # 16 -> 14
            Relu(),
            MaxPool2d(2),               # 14 -> 7
            Conv2d(6, 12, 3, rng),      # 7 -> 5
            Relu(),
            MaxPool2d(2),               # 5 -> 2
            Flatten(),                  # 12 * 2 * 2 = 48
            Dense(48, 24, rng),
            Relu(),
            Dense(24, 2, rng),
        ]

    # ------------------------------------------------------------------ #
    # inference
    # ------------------------------------------------------------------ #
    def forward(self, patches: np.ndarray) -> np.ndarray:
        """Logits for a batch of patches shaped ``(N, 16, 16)`` or ``(N, 1, 16, 16)``."""
        x = self._prepare(patches)
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def predict_probability(self, patches: np.ndarray) -> np.ndarray:
        """Probability that each patch contains a marker, shape ``(N,)``."""
        logits = self.forward(patches)
        return softmax(logits)[:, 1]

    def _prepare(self, patches: np.ndarray) -> np.ndarray:
        x = np.asarray(patches, dtype=float)
        if x.ndim == 2:
            x = x[None, ...]
        if x.ndim == 3:
            x = x[:, None, :, :]
        if x.shape[-1] != PATCH_SIZE or x.shape[-2] != PATCH_SIZE:
            raise ValueError(f"patches must be {PATCH_SIZE}x{PATCH_SIZE}, got {x.shape}")
        # Per-patch standardisation makes the network brightness/contrast invariant
        # on top of whatever the augmentation taught it.
        mean = x.mean(axis=(2, 3), keepdims=True)
        std = x.std(axis=(2, 3), keepdims=True) + 1e-6
        return (x - mean) / std

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #
    def train_batch(
        self, patches: np.ndarray, labels: np.ndarray, optimizer: SgdOptimizer
    ) -> float:
        """One SGD step on a minibatch; returns the batch loss."""
        logits = self.forward(patches)
        loss, grad = cross_entropy_loss(logits, labels)
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        parameters: list[tuple[np.ndarray, np.ndarray]] = []
        for layer in self.layers:
            parameters.extend(layer.parameters())
        optimizer.step(parameters)
        return loss

    def accuracy(self, patches: np.ndarray, labels: np.ndarray) -> float:
        probabilities = self.predict_probability(patches)
        predictions = (probabilities > 0.5).astype(int)
        return float((predictions == labels).mean())

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def state_dict(self) -> list[np.ndarray]:
        return [param.copy() for layer in self.layers for param, _ in layer.parameters()]

    def load_state_dict(self, state: list[np.ndarray]) -> None:
        parameters = [param for layer in self.layers for param, _ in layer.parameters()]
        if len(parameters) != len(state):
            raise ValueError("state dict does not match network architecture")
        for param, saved in zip(parameters, state):
            if param.shape != saved.shape:
                raise ValueError(f"shape mismatch: {param.shape} vs {saved.shape}")
            param[...] = saved

    def save(self, path: str) -> None:
        """Replace ``path`` with the weights whole: a failed save keeps the old file."""
        with atomic_bytes(path) as handle:
            pickle.dump(self.state_dict(), handle)

    @classmethod
    def load(cls, path: str, seed: int = 0) -> "MarkerPatchNet":
        network = cls(seed=seed)
        with open(path, "rb") as handle:
            network.load_state_dict(pickle.load(handle))
        return network
