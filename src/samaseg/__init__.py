"""Desk-scale segmentation kit: differential aggregated attention encoder
blocks, causal-resonance multi-scale skip connections over a selective
state-space scan, and a U-shaped network with training, evaluation, and
profiling tooling, all on a minimal reverse-mode autodiff tensor core."""

from .attention import AttnConfig, DiffAggAttention
from .crmsm import CrMsm, CrMsmScale
from .model import ModelConfig, SamaUNet, seg_loss
from .sama import AblationFlags, SamaBlock
from .ssm import SelectiveSsm
from .tensor import Tensor

__all__ = [
    "AblationFlags", "AttnConfig", "CrMsm", "CrMsmScale", "DiffAggAttention",
    "ModelConfig", "SamaBlock", "SamaUNet", "SelectiveSsm", "Tensor", "seg_loss",
]
