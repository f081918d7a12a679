"""Candidate trajectory encoding — LEAD component 2 (paper §IV).

Feature sequences are compressed into 64-dim c-vecs by a hierarchical
autoencoder (DESIGN.md S15).
"""

from .operators import CompressionOperator, DecompressionOperator, RunState
from .autoencoder import EncoderConfig, EncodingState, HierarchicalAutoencoder
from .trainer import AutoencoderTrainer, AutoencoderTrainingConfig

__all__ = [
    "CompressionOperator", "DecompressionOperator",
    "EncoderConfig", "EncodingState", "HierarchicalAutoencoder", "RunState",
    "AutoencoderTrainer", "AutoencoderTrainingConfig",
]
