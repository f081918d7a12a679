"""Neural substrate: numpy autograd, layers, RNNs, losses, optimizers.

The paper trains its models with a mainstream deep-learning framework; this
package is a from-scratch replacement providing exactly the pieces LEAD
needs (see DESIGN.md S1-S4).
"""

from .attention import SelfAttentionAggregator
from .checkpoint import CheckpointManager, CheckpointState
from .fused import gru_sequence, lstm_sequence
from .init import orthogonal, xavier_uniform
from .layers import Linear, Sequential
from .losses import bce_loss, kld_loss, mse_loss
from .module import Module, Parameter
from .optim import Adam, Optimizer, clip_grad_norm
from .precision import (VALID_DTYPES, active_dtype, active_dtype_name,
                        clear_weight_views, inference_dtype, weight_view,
                        weight_view_stats)
from .rnn import (BiLSTMLayer, GRU, GRUCell, LSTM, LSTMCell, LSTMDecoder,
                  StackedBiLSTM, sequence_mask)
from .serialization import load_module, module_path, save_module
from .tensor import Tensor, concat, is_grad_enabled, no_grad, stack
from .training import EarlyStopping, TrainingHistory, train_epochs

__all__ = [
    "Tensor", "concat", "stack", "no_grad", "is_grad_enabled",
    "Module", "Parameter", "Linear", "Sequential",
    "LSTMCell", "GRUCell", "LSTM", "GRU", "BiLSTMLayer", "StackedBiLSTM",
    "LSTMDecoder", "sequence_mask",
    "lstm_sequence", "gru_sequence",
    "inference_dtype", "active_dtype", "active_dtype_name", "VALID_DTYPES",
    "weight_view", "weight_view_stats",
    "clear_weight_views",
    "SelfAttentionAggregator",
    "mse_loss", "kld_loss", "bce_loss",
    "Optimizer", "Adam", "clip_grad_norm",
    "EarlyStopping", "TrainingHistory", "train_epochs",
    "CheckpointManager", "CheckpointState",
    "save_module", "load_module", "module_path",
    "xavier_uniform", "orthogonal",
]
