"""A compact numpy neural-network substrate.

The paper trains LeNet/ConvNet with Caffe; this package provides the minimal
but complete training stack needed to reproduce the algorithms offline:
layers with explicit forward/backward, losses, optimizers, regularizers and
an iteration-based trainer with callbacks (through which rank clipping and
group connection deletion hook into training).
"""

from repro.nn import dtype, functional
from repro.nn.batched import (
    NetworkStack,
    StackedParameter,
    architecture_signature,
)
from repro.nn.dtype import as_float, default_dtype, dtype_scope, set_default_dtype
from repro.nn.initializers import available_initializers, get_initializer
from repro.nn.layers import (
    AvgPool2D,
    Conv2D,
    Dropout,
    Flatten,
    Layer,
    LeakyReLU,
    Linear,
    LowRankConv2D,
    LowRankLinear,
    MaxPool2D,
    ReLU,
    Sigmoid,
    Tanh,
)
from repro.nn.losses import L1Loss, Loss, MSELoss, SoftmaxCrossEntropy
from repro.nn.metrics import accuracy, confusion_matrix, error_rate, top_k_accuracy
from repro.nn.network import Sequential
from repro.nn.optim import (
    SGD,
    Adam,
    ConstantLR,
    CosineLR,
    ExponentialLR,
    InverseDecayLR,
    LockstepSGD,
    LRSchedule,
    Optimizer,
    StepLR,
)
from repro.nn.parameter import Parameter
from repro.nn.regularization import (
    GroupLassoRegularizer,
    L2Regularizer,
    LockstepRegularizer,
    Regularizer,
    WeightGroup,
)
from repro.nn.trainer import (
    Callback,
    LockstepPointHandle,
    LockstepTrainer,
    Trainer,
    TrainingHistory,
)

__all__ = [
    "functional",
    "dtype",
    "as_float",
    "default_dtype",
    "dtype_scope",
    "set_default_dtype",
    "Parameter",
    "Layer",
    "Linear",
    "LowRankLinear",
    "Conv2D",
    "LowRankConv2D",
    "MaxPool2D",
    "AvgPool2D",
    "ReLU",
    "LeakyReLU",
    "Sigmoid",
    "Tanh",
    "Flatten",
    "Dropout",
    "Sequential",
    "Loss",
    "SoftmaxCrossEntropy",
    "MSELoss",
    "L1Loss",
    "Optimizer",
    "SGD",
    "Adam",
    "LockstepSGD",
    "LRSchedule",
    "ConstantLR",
    "StepLR",
    "ExponentialLR",
    "InverseDecayLR",
    "CosineLR",
    "Regularizer",
    "L2Regularizer",
    "GroupLassoRegularizer",
    "LockstepRegularizer",
    "WeightGroup",
    "architecture_signature",
    "NetworkStack",
    "StackedParameter",
    "accuracy",
    "error_rate",
    "top_k_accuracy",
    "confusion_matrix",
    "Trainer",
    "TrainingHistory",
    "Callback",
    "LockstepTrainer",
    "LockstepPointHandle",
    "get_initializer",
    "available_initializers",
]
