"""mmSpaceNet: the attention-based hourglass network (paper Sec. IV-A).

The network extracts multi-scale spatial features of the hand from radar
cube segments. Each attention residual block has two branches: a 1x1
convolution preserving current-level features, and an hourglass branch
that downsamples with strided convolutions to extract fine-grained
high-dimensional features before deconvolving back to full resolution.
Two-stage channel attention (frames, then velocity channels) and spatial
attention over the range-angle maps focus the network on the informative
parts of the spectrum.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import DspConfig, ModelConfig
from repro.errors import ModelError
from repro.obs import trace
from repro.nn.attention import (
    FrameAttention,
    SpatialAttention,
    VelocityChannelAttention,
)
from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    ConvTranspose2d,
    Linear,
    Module,
    ReLU,
    Sequential,
)
from repro.nn.tensor import Tensor


class AttentionResidualBlock(Module):
    """One residual block of mmSpaceNet (paper Fig. 5).

    ``out = attn(relu(conv1x1(x) + hourglass(x)))`` where the hourglass
    branch downsamples ``depth`` times with stride-2 convolutions and
    upsamples back with transposed convolutions, and ``attn`` chains the
    channel and spatial attention mechanisms.
    """

    def __init__(
        self,
        channels: int,
        depth: int,
        use_channel_attention: bool = True,
        use_spatial_attention: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if rng is None:
            rng = np.random.default_rng(0)
        if depth < 1:
            raise ModelError("hourglass depth must be >= 1")
        self.preserve = Conv2d(channels, channels, kernel_size=1, rng=rng)

        down_layers = []
        for _ in range(depth):
            down_layers.extend(
                [
                    Conv2d(channels, channels, kernel_size=3, stride=2,
                           padding=1, rng=rng),
                    BatchNorm2d(channels),
                    ReLU(),
                ]
            )
        up_layers = []
        for _ in range(depth):
            up_layers.extend(
                [
                    ConvTranspose2d(channels, channels, kernel_size=3,
                                    stride=2, rng=rng),
                    BatchNorm2d(channels),
                    ReLU(),
                ]
            )
        self.down = Sequential(*down_layers)
        self.up = Sequential(*up_layers)

        self.channel_attention = (
            VelocityChannelAttention(channels, rng=rng)
            if use_channel_attention
            else None
        )
        self.spatial_attention = (
            SpatialAttention(rng=rng) if use_spatial_attention else None
        )

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ModelError(
                f"residual block expects (N, C, H, W), got {x.shape}"
            )
        h, w = x.shape[2], x.shape[3]
        depth_factor = 2 ** len(self.down.layers[::3])
        if h % depth_factor or w % depth_factor:
            raise ModelError(
                f"spatial size {h}x{w} must be divisible by {depth_factor} "
                "for the hourglass branch"
            )
        preserved = self.preserve(x)
        deep = self.up(self.down(x))
        out = (preserved + deep).relu()
        if self.channel_attention is not None:
            out = self.channel_attention(out)
        if self.spatial_attention is not None:
            out = self.spatial_attention(out)
        return out


class MmSpaceNet(Module):
    """Spatial feature extractor over radar cube segments.

    Input ``(B, st, V, D, A)``; output per-frame feature vectors
    ``(B, st, feature_dim)`` that feed the temporal LSTM model.
    """

    def __init__(
        self,
        dsp: DspConfig,
        model: ModelConfig,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if rng is None:
            rng = np.random.default_rng(0)
        self.dsp = dsp
        self.model_config = model
        st = dsp.segment_frames
        v = dsp.doppler_bins
        c = model.base_channels

        self.frame_attention = (
            FrameAttention(st, rng=rng) if model.use_frame_attention else None
        )
        self.input_velocity_attention = (
            VelocityChannelAttention(v, rng=rng)
            if model.use_velocity_attention
            else None
        )
        self.input_spatial_attention = (
            SpatialAttention(rng=rng) if model.use_spatial_attention else None
        )
        self.stem = Sequential(
            Conv2d(v, c, kernel_size=3, padding=1, rng=rng),
            BatchNorm2d(c),
            ReLU(),
        )
        blocks = [
            AttentionResidualBlock(
                c,
                depth=model.hourglass_depth,
                use_channel_attention=model.use_velocity_attention,
                use_spatial_attention=model.use_spatial_attention,
                rng=rng,
            )
            for _ in range(model.num_blocks)
        ]
        self.blocks = Sequential(*blocks)
        self.head_convs = Sequential(
            Conv2d(c, c, kernel_size=3, stride=2, padding=1, rng=rng),
            ReLU(),
            Conv2d(c, 2 * c, kernel_size=3, stride=2, padding=1, rng=rng),
            ReLU(),
        )
        head_h = dsp.range_bins // 4
        head_w = dsp.angle_bins_total // 4
        self._head_features = 2 * c * head_h * head_w
        self.head_fc = Linear(self._head_features, model.feature_dim, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim == 4:
            # A single segment (st, V, D, A): promote to a batch of one
            # so callers can use the same code path for one window or a
            # serving micro-batch.
            x = x.reshape(1, *x.shape)
        if x.ndim != 5:
            raise ModelError(
                f"MmSpaceNet expects (B, st, V, D, A) or a single "
                f"(st, V, D, A) segment, got {x.shape}"
            )
        b, st, v, d, a = x.shape
        if st != self.dsp.segment_frames or v != self.dsp.doppler_bins:
            raise ModelError(
                "input segment does not match the DSP configuration: "
                f"got st={st}, V={v}; expected "
                f"st={self.dsp.segment_frames}, V={self.dsp.doppler_bins}"
            )
        with trace.span("model.spatial.forward", batch=b):
            if self.frame_attention is not None:
                x = self.frame_attention(x)
            frames = x.reshape(b * st, v, d, a)
            if self.input_velocity_attention is not None:
                frames = self.input_velocity_attention(frames)
            if self.input_spatial_attention is not None:
                frames = self.input_spatial_attention(frames)
            features = self.stem(frames)
            features = self.blocks(features)
            features = self.head_convs(features)
            flat = features.reshape(b * st, self._head_features)
            out = self.head_fc(flat).relu()
            return out.reshape(b, st, self.model_config.feature_dim)
