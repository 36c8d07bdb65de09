"""Neural-network modules.

:class:`Module` provides parameter registration (attribute assignment of
tensors/submodules auto-registers them, like PyTorch), recursive
``parameters()`` / ``named_parameters()``, train/eval mode, and a
``state_dict`` for serialization. The concrete layers cover what mmHand
needs: linear, conv, transposed conv, batch/layer norm, dropout and the
simple activations.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import ModelError
from repro.nn import functional as F
from repro.nn.init import kaiming_uniform
from repro.nn.tensor import Tensor

_RECORDER = threading.local()


@contextlib.contextmanager
def recording(recorder):
    """Route every ``Module.__call__`` on this thread to
    ``recorder.call(module, args, kwargs)`` (see
    :mod:`repro.nn.inference`, which records plans this way)."""
    previous = getattr(_RECORDER, "active", None)
    _RECORDER.active = recorder
    try:
        yield
    finally:
        _RECORDER.active = previous


class Module:
    """Base class with parameter/submodule registration."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Tensor) and value.requires_grad:
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Track non-trainable state (e.g. batch-norm running stats)."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def parameters(self) -> List[Tensor]:
        return [t for _, t in self.named_parameters()]

    def named_parameters(
        self, prefix: str = ""
    ) -> Iterator[Tuple[str, Tensor]]:
        for name, param in self._parameters.items():
            yield prefix + name, param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix + name + ".")

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name in self._buffers:
            yield prefix + name, getattr(self, name)
        for name, module in self._modules.items():
            yield from module.named_buffers(prefix + name + ".")

    def modules(self) -> Iterator["Module"]:
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def train(self) -> "Module":
        for module in self.modules():
            object.__setattr__(module, "training", True)
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            object.__setattr__(module, "training", False)
        return self

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def state_dict(self) -> Dict[str, np.ndarray]:
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        for name, buf in self.named_buffers():
            state["buffer:" + name] = np.array(buf, copy=True)
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        buffers = {name: None for name, _ in self.named_buffers()}
        for key, value in state.items():
            if key.startswith("buffer:"):
                name = key[len("buffer:"):]
                if name not in buffers:
                    raise ModelError(f"unexpected buffer {name!r} in state")
                self._assign_buffer(name, value)
            else:
                if key not in params:
                    raise ModelError(f"unexpected parameter {key!r} in state")
                if params[key].data.shape != value.shape:
                    raise ModelError(
                        f"shape mismatch for {key!r}: "
                        f"{params[key].data.shape} vs {value.shape}"
                    )
                params[key].data = value.astype(params[key].data.dtype)
                # Invalidate any compiled inference plan folded from the
                # previous weights (repro.nn.inference memoizes on this).
                params[key].bump_version()
        missing = set(params) - {
            k for k in state if not k.startswith("buffer:")
        }
        if missing:
            raise ModelError(f"missing parameters in state: {sorted(missing)}")

    def _assign_buffer(self, dotted: str, value: np.ndarray) -> None:
        parts = dotted.split(".")
        target: Module = self
        for part in parts[:-1]:
            target = target._modules[part]
        target._buffers[parts[-1]] = value
        object.__setattr__(target, parts[-1], value)

    def __call__(self, *args, **kwargs):
        recorder = getattr(_RECORDER, "active", None)
        if recorder is not None:
            return recorder.call(self, args, kwargs)
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class Linear(Module):
    """Fully-connected layer ``y = x W^T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: Optional[np.random.Generator] = None,
        bias: bool = True,
    ) -> None:
        super().__init__()
        if rng is None:
            rng = np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(
            kaiming_uniform(rng, (out_features, in_features), in_features),
            requires_grad=True,
        )
        self.bias = (
            Tensor(np.zeros(out_features, dtype=np.float32),
                   requires_grad=True)
            if bias
            else None
        )

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_features:
            raise ModelError(
                f"Linear expects {self.in_features} input features, got "
                f"{x.shape[-1]}"
            )
        out = x @ self.weight.transpose()
        if self.bias is not None:
            out = out + self.bias
        return out


class Conv2d(Module):
    """2-D convolution on NCHW tensors."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        rng: Optional[np.random.Generator] = None,
        bias: bool = True,
    ) -> None:
        super().__init__()
        if rng is None:
            rng = np.random.default_rng(0)
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Tensor(
            kaiming_uniform(
                rng,
                (out_channels, in_channels, kernel_size, kernel_size),
                fan_in,
            ),
            requires_grad=True,
        )
        self.bias = (
            Tensor(np.zeros(out_channels, dtype=np.float32),
                   requires_grad=True)
            if bias
            else None
        )

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(
            x, self.weight, self.bias, stride=self.stride,
            padding=self.padding,
        )


class ConvTranspose2d(Module):
    """Transposed convolution (sub-pixel kernel, see
    :func:`repro.nn.functional.conv_transpose2d`).

    Multiplies the spatial size by ``stride``; used by the hourglass
    upsampling path. The parameters live in ``conv`` (a ``Conv2d`` of
    the same kernel), so state dicts keep the ``conv.weight`` /
    ``conv.bias`` keys.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 2,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if kernel_size % 2 != 1:
            raise ModelError("ConvTranspose2d requires an odd kernel size")
        self.stride = stride
        self.conv = Conv2d(
            in_channels,
            out_channels,
            kernel_size,
            stride=1,
            padding=kernel_size // 2,
            rng=rng,
        )

    def forward(self, x: Tensor) -> Tensor:
        return F.conv_transpose2d(
            x, self.conv.weight, self.conv.bias, stride=self.stride
        )


class BatchNorm2d(Module):
    """Batch normalisation over NCHW channels with running statistics."""

    def __init__(self, channels: int, momentum: float = 0.1,
                 eps: float = 1e-5) -> None:
        super().__init__()
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.gamma = Tensor(np.ones(channels, dtype=np.float32),
                            requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=np.float32),
                           requires_grad=True)
        self.register_buffer(
            "running_mean", np.zeros(channels, dtype=np.float32)
        )
        self.register_buffer(
            "running_var", np.ones(channels, dtype=np.float32)
        )

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ModelError(
                f"BatchNorm2d expects (N, {self.channels}, H, W), got "
                f"{x.shape}"
            )
        if self.training:
            mean = x.data.mean(axis=(0, 2, 3))
            var = x.data.var(axis=(0, 2, 3))
            m = self.momentum
            new_mean = ((1 - m) * self.running_mean + m * mean).astype(
                np.float32
            )
            new_var = ((1 - m) * self.running_var + m * var).astype(
                np.float32
            )
            self._buffers["running_mean"] = new_mean
            self._buffers["running_var"] = new_var
            object.__setattr__(self, "running_mean", new_mean)
            object.__setattr__(self, "running_var", new_var)
            return F.batch_norm2d(
                x, self.gamma, self.beta, mean, var, self.eps,
                batch_stats=True,
            )
        return F.batch_norm2d(
            x, self.gamma, self.beta, self.running_mean, self.running_var,
            self.eps, batch_stats=False,
        )


class GroupNorm(Module):
    """Group normalisation over NCHW channels (batch-size independent)."""

    def __init__(self, groups: int, channels: int, eps: float = 1e-5) -> None:
        super().__init__()
        if groups < 1 or channels % groups != 0:
            raise ModelError(
                f"channels ({channels}) must be divisible by groups "
                f"({groups})"
            )
        self.groups = groups
        self.channels = channels
        self.eps = eps
        self.gamma = Tensor(np.ones(channels, dtype=np.float32),
                            requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=np.float32),
                           requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ModelError(
                f"GroupNorm expects (N, {self.channels}, H, W), got "
                f"{x.shape}"
            )
        return F.group_norm(x, self.groups, self.gamma, self.beta,
                            self.eps)


class LayerNorm(Module):
    """Layer normalisation over the last dimension.

    The mesh-recovery networks use fully-connected layers with layer
    normalisation (paper Sec. V).
    """

    def __init__(self, features: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.features = features
        self.eps = eps
        self.gamma = Tensor(np.ones(features, dtype=np.float32),
                            requires_grad=True)
        self.beta = Tensor(np.zeros(features, dtype=np.float32),
                           requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.features:
            raise ModelError(
                f"LayerNorm expects trailing dim {self.features}, got "
                f"{x.shape[-1]}"
            )
        mean = x.mean(axis=-1, keepdims=True)
        centred = x - mean
        var = (centred * centred).mean(axis=-1, keepdims=True)
        normed = centred * ((var + self.eps) ** -0.5)
        return normed * self.gamma + self.beta


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Dropout(Module):
    """Inverted dropout; identity in eval mode or at rate 0."""

    def __init__(self, rate: float, seed: int = 0) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ModelError("dropout rate must lie in [0, 1)")
        self.rate = rate
        self._rng = np.random.default_rng(seed)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.rate == 0.0:
            return x
        keep = 1.0 - self.rate
        mask = self._rng.random(x.shape) < keep
        return x * Tensor(mask.astype(np.float32) / keep)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            self._modules[str(i)] = layer

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]
