"""Decoupled transformer feature pyramid, implemented from scratch on numpy
with verifiable gradients, an analytic attention-cost model, and a CLI for
synthetic-pyramid experiments."""

from .arf import arf, arf_grad, arf_op
from .attention import AttentionWeights, attention_weights, multi_head_attention
from .cdi import (CdiBlock, DecoupledPair, DecoupleWeights, decouple,
                  decouple_loss, mga, recouple, total_loss)
from .complexity import (COCO_LEVEL_DIMS, LevelDims, MacCounter, flops_table,
                         input_level_dims, measured_macs, resolution_sweep)
from .config import ConfigurationError, PipelineConfig, load_config
from .gradcheck import GradCheckReport, registered_cases, run_all, run_case, vjp_check
from .isp import IspBlock, mma, sinusoidal_embedding_2d
from .pyramid import (FeaturePyramid, Pipeline, TrainingDiverged, TrainTrace,
                      cross_level_sensitivity, synthetic_pyramid, toy_train,
                      variant_rows, zero_enhancement_branches)
from .tensor import ContractViolation, Tensor

__version__ = "0.1.0"

__all__ = [
    "arf", "arf_grad", "arf_op",
    "AttentionWeights", "attention_weights", "multi_head_attention",
    "CdiBlock", "DecoupledPair", "DecoupleWeights", "decouple",
    "decouple_loss", "mga", "recouple", "total_loss",
    "COCO_LEVEL_DIMS", "LevelDims", "MacCounter", "flops_table",
    "input_level_dims", "measured_macs", "resolution_sweep",
    "ConfigurationError", "PipelineConfig", "load_config",
    "GradCheckReport", "registered_cases", "run_all", "run_case", "vjp_check",
    "IspBlock", "mma", "sinusoidal_embedding_2d",
    "FeaturePyramid", "Pipeline", "TrainingDiverged", "TrainTrace",
    "cross_level_sensitivity", "synthetic_pyramid", "toy_train",
    "variant_rows", "zero_enhancement_branches",
    "ContractViolation", "Tensor",
    "__version__",
]
