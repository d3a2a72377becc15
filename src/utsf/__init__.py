"""U-shaped transformer for long-horizon time-series forecasting, with its
own minimal autodiff core, data pipeline, two-stage trainer, and CLI."""

from .data import SamplerConfig, SeriesFrame
from .errors import CheckpointError, ConfigError, DimensionError, IngestionError, NumericError, UsageError
from .model import AttentionMap, ModelConfig, ParameterStore, UShapedTransformer, patch_merge_naive, preset
from .tensor import GradTape, Tensor, finite_diff_check
from .training import (Adam, TrainerConfig, TrainReport, backbone_hash, compute_metrics, evaluate, load_checkpoint,
                       save_checkpoint)

__version__ = "0.1.0"

__all__ = [
    "Adam", "AttentionMap", "CheckpointError", "ConfigError", "DimensionError", "GradTape", "IngestionError",
    "ModelConfig", "NumericError", "ParameterStore", "SamplerConfig", "SeriesFrame", "Tensor", "TrainerConfig",
    "TrainReport", "UsageError", "UShapedTransformer", "backbone_hash", "compute_metrics", "evaluate",
    "finite_diff_check", "load_checkpoint", "patch_merge_naive", "preset", "save_checkpoint",
]
