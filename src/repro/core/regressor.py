"""End-to-end 3-D hand joint regression network (paper Fig. 5).

Radar cube segment -> mmSpaceNet spatial features -> LSTM temporal
features -> fully-connected layers regressing the 21 joints in 3-D.
Label normalisation statistics live on the module as buffers so saved
weights carry them.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import DspConfig, ModelConfig
from repro.core.mmspacenet import MmSpaceNet
from repro.core.temporal import TemporalModel
from repro.errors import InferenceCompileError, ModelError
from repro.obs import trace
from repro.nn.inference import CompiledModel, compile_model
from repro.nn.layers import Linear, Module, ReLU, Sequential
from repro.nn.tensor import Tensor, no_grad


class HandJointRegressor(Module):
    """The full joint-regression network.

    ``forward`` maps normalised radar cube segments ``(B, st, V, D, A)``
    to normalised joint predictions ``(B, 21, 3)``; :meth:`predict`
    additionally applies input standardisation and label denormalisation
    and returns plain numpy joints in metres.
    """

    def __init__(
        self,
        dsp: Optional[DspConfig] = None,
        model: Optional[ModelConfig] = None,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.dsp = dsp if dsp is not None else DspConfig()
        self.model_config = model if model is not None else ModelConfig()
        rng = np.random.default_rng(seed)
        self.spatial = MmSpaceNet(self.dsp, self.model_config, rng=rng)
        self.temporal = TemporalModel(self.model_config, rng=rng)
        hidden = self.model_config.lstm_hidden
        joints = self.model_config.num_joints
        self.head = Sequential(
            Linear(hidden, hidden, rng=rng),
            ReLU(),
            Linear(hidden, joints * 3, rng=rng),
        )
        # Input/label normalisation, fitted by the trainer.
        self.register_buffer("input_mean", np.zeros(1, dtype=np.float32))
        self.register_buffer("input_std", np.ones(1, dtype=np.float32))
        self.register_buffer(
            "label_mean", np.zeros((joints, 3), dtype=np.float32)
        )
        self.register_buffer(
            "label_std", np.ones((joints, 3), dtype=np.float32)
        )

    # ------------------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:
        if x.ndim == 4:
            # Promote a single (st, V, D, A) segment to a batch of one;
            # the serving micro-batcher relies on the batched form.
            x = x.reshape(1, *x.shape)
        with trace.span("model.forward", batch=x.shape[0]):
            features = self.spatial(x)
            context = self.temporal(features)
            out = self.head(context)
            joints = self.model_config.num_joints
            return out.reshape(out.shape[0], joints, 3)

    # ------------------------------------------------------------------
    def compiled(self) -> Optional[CompiledModel]:
        """The cached autograd-free plan for this network (or ``None``).

        Created on first use and recorded from :meth:`forward` on its
        first run; a model whose recording failed is remembered as
        uncompilable so every later call falls straight through to the
        eager forward.
        """
        if getattr(self, "_compile_failed", False):
            return None
        plan = getattr(self, "_compiled_plan", None)
        if plan is None:
            plan = compile_model(self)
            object.__setattr__(self, "_compiled_plan", plan)
        return plan

    # ------------------------------------------------------------------
    def set_normalization(
        self,
        input_mean: float,
        input_std: float,
        label_mean: np.ndarray,
        label_std: np.ndarray,
    ) -> None:
        """Record dataset statistics used by :meth:`predict`."""
        if input_std <= 0:
            raise ModelError("input_std must be positive")
        label_std = np.asarray(label_std, dtype=np.float32)
        if np.any(label_std <= 0):
            raise ModelError("label_std entries must be positive")
        self._buffers["input_mean"] = np.array([input_mean], dtype=np.float32)
        self._buffers["input_std"] = np.array([input_std], dtype=np.float32)
        self._buffers["label_mean"] = np.asarray(
            label_mean, dtype=np.float32
        )
        self._buffers["label_std"] = label_std
        for name in ("input_mean", "input_std", "label_mean", "label_std"):
            object.__setattr__(self, name, self._buffers[name])

    def normalize_inputs(self, segments: np.ndarray) -> np.ndarray:
        """Standardise raw cube segments with the fitted statistics."""
        return (
            (segments - float(self.input_mean[0]))
            / float(self.input_std[0])
        ).astype(np.float32)

    def normalize_labels(self, joints: np.ndarray) -> np.ndarray:
        return ((joints - self.label_mean) / self.label_std).astype(
            np.float32
        )

    def denormalize_labels(self, normalised: np.ndarray) -> np.ndarray:
        return normalised * self.label_std + self.label_mean

    # ------------------------------------------------------------------
    # ------------------------------------------------------------------
    def predict(
        self,
        segments: np.ndarray,
        batch_size: int = 64,
        use_compiled: bool = True,
    ) -> np.ndarray:
        """Joints in metres for raw cube segments ``(N, st, V, D, A)``.

        Runs with inference semantics (running BN statistics, dropout
        off) without recording gradients. By default each batch executes
        the compiled autograd-free plan (:mod:`repro.nn.inference`);
        ``use_compiled=False`` forces the eager forward in eval mode.
        """
        segments = np.asarray(segments, dtype=np.float32)
        if segments.ndim == 4:
            segments = segments[None]
        if segments.ndim != 5:
            raise ModelError(
                f"predict expects (N, st, V, D, A) segments, got "
                f"{segments.shape}"
            )
        joints = self.model_config.num_joints
        if segments.shape[0] == 0:
            # An empty micro-batch (e.g. every window was served from
            # the cache) regresses to an empty prediction.
            return np.zeros((0, joints, 3), dtype=np.float32)
        plan = self.compiled() if use_compiled else None
        if plan is not None:
            # The plan folds BN from running statistics and never reads
            # the training flag, so only the eager forward switches to
            # eval mode (a walk over every module).
            try:
                return self._predict_batches(
                    segments, batch_size, plan.run, compiled=True
                )
            except InferenceCompileError:
                object.__setattr__(self, "_compile_failed", True)
                object.__setattr__(self, "_compiled_plan", None)
        was_training = self.training
        self.eval()
        try:
            return self._predict_batches(
                segments, batch_size,
                lambda batch: self.forward(Tensor(batch)).data,
                compiled=False,
            )
        finally:
            if was_training:
                self.train()

    def _predict_batches(
        self, segments: np.ndarray, batch_size: int, forward,
        compiled: bool,
    ) -> np.ndarray:
        outputs = []
        with no_grad(), trace.span(
            "model.predict", segments=len(segments), compiled=compiled
        ):
            for start in range(0, len(segments), batch_size):
                batch = self.normalize_inputs(
                    segments[start : start + batch_size]
                )
                outputs.append(self.denormalize_labels(forward(batch)))
        return np.concatenate(outputs, axis=0)
