"""Neural-network layers implemented on NumPy arrays.

Each layer exposes ``forward(x)`` and ``backward(grad)`` plus a list of
``(parameter, gradient)`` pairs for the optimiser.  Shapes follow the NCHW
convention for convolutional layers and (N, features) for dense layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class Layer:
    """Base class: stateless layers only need ``forward``/``backward``."""

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def parameters(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(parameter, gradient) pairs; empty for stateless layers."""
        return []


class Dense(Layer):
    """Fully connected layer ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator) -> None:
        scale = np.sqrt(2.0 / in_features)
        self.weight = rng.normal(0.0, scale, size=(in_features, out_features))
        self.bias = np.zeros(out_features)
        self.weight_grad = np.zeros_like(self.weight)
        self.bias_grad = np.zeros_like(self.bias)
        self._input: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input = x
        return x @ self.weight + self.bias

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._input is not None, "forward must run before backward"
        self.weight_grad[...] = self._input.T @ grad
        self.bias_grad[...] = grad.sum(axis=0)
        return grad @ self.weight.T

    def parameters(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return [(self.weight, self.weight_grad), (self.bias, self.bias_grad)]


class Relu(Layer):
    """Rectified linear activation."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._mask is not None
        return grad * self._mask


class Flatten(Layer):
    """NCHW -> (N, C*H*W)."""

    def __init__(self) -> None:
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._shape is not None
        return grad.reshape(self._shape)


def _im2col(x: np.ndarray, kernel: int, stride: int) -> tuple[np.ndarray, int, int]:
    """Unfold (N, C, H, W) into (N, out_h*out_w, C*kernel*kernel) patches."""
    n, c = x.shape[:2]
    windows = sliding_window_view(x, (kernel, kernel), axis=(2, 3))[:, :, ::stride, ::stride]
    out_h, out_w = windows.shape[2:4]
    cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5), dtype=float)
    return cols.reshape(n, out_h * out_w, c * kernel * kernel), out_h, out_w


class Conv2d(Layer):
    """2D convolution (valid padding) via im2col."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
    ) -> None:
        fan_in = in_channels * kernel_size * kernel_size
        scale = np.sqrt(2.0 / fan_in)
        self.weight = rng.normal(0.0, scale, size=(out_channels, in_channels, kernel_size, kernel_size))
        self.bias = np.zeros(out_channels)
        self.weight_grad = np.zeros_like(self.weight)
        self.bias_grad = np.zeros_like(self.bias)
        self.kernel_size = kernel_size
        self.stride = stride
        self._cols: np.ndarray | None = None
        self._input_shape: tuple[int, ...] | None = None
        self._out_hw: tuple[int, int] = (0, 0)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input_shape = x.shape
        cols, out_h, out_w = _im2col(x, self.kernel_size, self.stride)
        self._cols = cols
        self._out_hw = (out_h, out_w)
        flat_weight = self.weight.reshape(self.weight.shape[0], -1)
        out = cols @ flat_weight.T + self.bias
        n = x.shape[0]
        return out.transpose(0, 2, 1).reshape(n, self.weight.shape[0], out_h, out_w)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._cols is not None and self._input_shape is not None
        n, out_channels, out_h, out_w = grad.shape
        grad_flat = grad.reshape(n, out_channels, out_h * out_w).transpose(0, 2, 1)

        flat_weight = self.weight.reshape(out_channels, -1)
        self.weight_grad[...] = (
            np.einsum("npk,npc->ck", self._cols, grad_flat).reshape(self.weight.shape)
        )
        self.bias_grad[...] = grad_flat.sum(axis=(0, 1))

        grad_cols = grad_flat @ flat_weight  # (N, positions, C*k*k)
        return self._col2im(grad_cols)

    def _col2im(self, grad_cols: np.ndarray) -> np.ndarray:
        n, c, h, w = self._input_shape  # type: ignore[misc]
        out_h, out_w = self._out_hw
        k, s = self.kernel_size, self.stride
        grad_input = np.zeros((n, c, h, w))
        idx = 0
        for i in range(out_h):
            for j in range(out_w):
                patch_grad = grad_cols[:, idx, :].reshape(n, c, k, k)
                grad_input[:, :, i * s : i * s + k, j * s : j * s + k] += patch_grad
                idx += 1
        return grad_input

    def parameters(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return [(self.weight, self.weight_grad), (self.bias, self.bias_grad)]


class MaxPool2d(Layer):
    """2x2 max pooling with stride 2."""

    def __init__(self, size: int = 2) -> None:
        self.size = size
        self._input_shape: tuple[int, ...] | None = None
        self._max_mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        s = self.size
        out_h, out_w = h // s, w // s
        self._input_shape = x.shape
        trimmed = x[:, :, : out_h * s, : out_w * s]
        reshaped = trimmed.reshape(n, c, out_h, s, out_w, s)
        out = reshaped.max(axis=(3, 5))
        # Mask of max positions for backward.
        expanded = out.repeat(s, axis=2).repeat(s, axis=3)
        self._max_mask = trimmed == expanded
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._input_shape is not None and self._max_mask is not None
        s = self.size
        upsampled = grad.repeat(s, axis=2).repeat(s, axis=3) * self._max_mask
        # Rows/columns trimmed off in forward (odd input sizes) get zero gradient.
        grad_input = np.zeros(self._input_shape)
        grad_input[:, :, : upsampled.shape[2], : upsampled.shape[3]] = upsampled
        return grad_input


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with the usual max-subtraction for stability."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def cross_entropy_loss(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross entropy and its gradient with respect to the logits."""
    probabilities = softmax(logits)
    n = logits.shape[0]
    clipped = np.clip(probabilities[np.arange(n), labels], 1e-12, 1.0)
    loss = float(-np.log(clipped).mean())
    grad = probabilities.copy()
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


@dataclass
class SgdOptimizer:
    """Plain SGD with momentum."""

    learning_rate: float = 0.05
    momentum: float = 0.9
    _velocity: dict[int, np.ndarray] = field(default_factory=dict)

    def step(self, parameters: list[tuple[np.ndarray, np.ndarray]]) -> None:
        for index, (param, grad) in enumerate(parameters):
            velocity = self._velocity.setdefault(index, np.zeros_like(param))
            velocity *= self.momentum
            velocity -= self.learning_rate * grad
            param += velocity
