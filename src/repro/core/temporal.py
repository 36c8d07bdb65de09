"""Temporal feature model (paper Sec. IV-A, "Extracting Temporal
Features based on LSTM").

The per-frame feature vectors mmSpaceNet produces form a sequence; an
LSTM consumes it and the final hidden state summarises the hand motion
over the segment.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import ModelConfig
from repro.errors import ModelError
from repro.nn.layers import Module
from repro.obs import trace
from repro.nn.rnn import LSTM
from repro.nn.tensor import Tensor


class TemporalModel(Module):
    """LSTM over the segment's per-frame features.

    Input ``(B, st, feature_dim)``; output ``(B, lstm_hidden)`` -- the
    final hidden state carrying the segment's temporal context.
    """

    def __init__(
        self, model: ModelConfig, rng: Optional[np.random.Generator] = None
    ) -> None:
        super().__init__()
        if rng is None:
            rng = np.random.default_rng(0)
        self.model_config = model
        self.lstm = LSTM(model.feature_dim, model.lstm_hidden, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 3 or x.shape[2] != self.model_config.feature_dim:
            raise ModelError(
                f"TemporalModel expects (B, st, {self.model_config.feature_dim}), "
                f"got {x.shape}"
            )
        with trace.span("model.temporal.lstm", batch=x.shape[0]):
            _, (hidden, _) = self.lstm(x)
            return hidden
