"""Attention blocks of mmSpaceNet (paper Sec. IV-A, Fig. 6).

Three mechanisms:

* :class:`FrameAttention` -- stage 1 of the two-stage channel attention:
  each frame of a segment is pooled over its whole 3-D volume (TGAP +
  TGMP) and a small conv block turns the pooled sequence into per-frame
  weights (Eq. 2-3).
* :class:`VelocityChannelAttention` -- stage 2: per velocity channel, GAP
  and GMP over the range-angle map are concatenated and a fully-connected
  layer encodes them into per-channel weights (Eq. 4-5).
* :class:`SpatialAttention` -- mean and max over the velocity/channel
  axis feed a conv producing a weight per range-angle position (Eq. 6-7).

Each forward is one call of its fused kernel in
:mod:`repro.nn.functional`, the same kernel the compiled plan runs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ModelError
from repro.nn import functional as F
from repro.nn.layers import Conv2d, Linear, Module
from repro.nn.tensor import Tensor


class FrameAttention(Module):
    """Per-frame weights from 3-D global pooling (Eq. 2-3).

    Input ``(B, st, V, D, A)``; output the same shape with each frame
    scaled by its learned weight ``a_i = sigmoid(Conv1(TGAP + TGMP))``.
    The Conv1 block is two 1-D convolutions across the frame axis.
    """

    def __init__(
        self, segment_frames: int, hidden: int = 4,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if rng is None:
            rng = np.random.default_rng(0)
        # 1-D convs across frames implemented as 2-D convs on (1, st).
        self.conv1 = Conv2d(1, hidden, kernel_size=3, padding=1, rng=rng)
        self.conv2 = Conv2d(hidden, 1, kernel_size=3, padding=1, rng=rng)
        self.segment_frames = segment_frames

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 5:
            raise ModelError(
                f"FrameAttention expects (B, st, V, D, A), got {x.shape}"
            )
        return F.frame_attention(
            x, self.conv1.weight, self.conv1.bias, self.conv2.weight,
            self.conv2.bias,
        )


class VelocityChannelAttention(Module):
    """Per-velocity-channel weights from GAP||GMP features (Eq. 4-5).

    Input ``(N, C, D, A)`` (``C`` is the velocity/channel axis); output
    the input scaled per channel by ``b = sigmoid(FC([GAP, GMP]))``.
    """

    def __init__(
        self, channels: int, rng: Optional[np.random.Generator] = None
    ) -> None:
        super().__init__()
        if rng is None:
            rng = np.random.default_rng(0)
        self.channels = channels
        self.fc = Linear(2 * channels, channels, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ModelError(
                f"VelocityChannelAttention expects (N, {self.channels}, D, "
                f"A), got {x.shape}"
            )
        return F.channel_attention(x, self.fc.weight, self.fc.bias)


class SpatialAttention(Module):
    """Range-angle spatial weights from channel mean/max maps (Eq. 6-7)."""

    def __init__(
        self, kernel_size: int = 5, rng: Optional[np.random.Generator] = None
    ) -> None:
        super().__init__()
        if rng is None:
            rng = np.random.default_rng(0)
        if kernel_size % 2 != 1:
            raise ModelError("spatial attention kernel must be odd")
        self.conv = Conv2d(
            2, 1, kernel_size=kernel_size, padding=kernel_size // 2, rng=rng
        )

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ModelError(
                f"SpatialAttention expects (N, C, D, A), got {x.shape}"
            )
        return F.spatial_attention(x, self.conv.weight, self.conv.bias)

