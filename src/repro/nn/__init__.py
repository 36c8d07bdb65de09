"""From-scratch numpy deep-learning framework.

The paper trains its network in a GPU framework; none is available
offline, so this package implements the needed subset on numpy: a
reverse-mode autograd :class:`Tensor`, conv / deconv / pooling / linear /
normalisation layers, LSTM, the attention blocks, Adam with cosine decay,
and weight serialization. Shapes follow the PyTorch conventions
(``NCHW`` for images) to keep the model code readable.
"""

from repro.nn.tensor import Tensor, concat, stack, no_grad
from repro.nn import functional
from repro.nn.layers import (
    Module,
    Linear,
    Conv2d,
    ConvTranspose2d,
    BatchNorm2d,
    LayerNorm,
    ReLU,
    Sigmoid,
    Tanh,
    Sequential,
    Dropout,
)
from repro.nn.rnn import LSTM
from repro.nn.attention import (
    FrameAttention,
    VelocityChannelAttention,
    SpatialAttention,
)
from repro.nn.optim import SGD, Adam, CosineSchedule
from repro.nn.loss import mse_loss, l2_joint_loss
from repro.nn.serialization import save_state, load_state
from repro.nn.inference import (
    CompiledModel,
    ForwardPlan,
    compile_model,
)

__all__ = [
    "Tensor",
    "concat",
    "stack",
    "no_grad",
    "functional",
    "Module",
    "Linear",
    "Conv2d",
    "ConvTranspose2d",
    "BatchNorm2d",
    "LayerNorm",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "Sequential",
    "Dropout",
    "LSTM",
    "FrameAttention",
    "VelocityChannelAttention",
    "SpatialAttention",
    "SGD",
    "Adam",
    "CosineSchedule",
    "mse_loss",
    "l2_joint_loss",
    "save_state",
    "load_state",
    "CompiledModel",
    "ForwardPlan",
    "compile_model",
]
