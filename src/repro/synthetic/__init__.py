"""The synthetic application of [15, 17], reimplemented on simulated MPI.

Emulates configurable iterative MPI applications (stage sequences, byte
counts, reconfiguration schedules) and is the workload of every figure in
the paper's evaluation.  See :func:`cg_emulation_config` for the §4.2 CG
preset.
"""

from .application import SyntheticApp, launch_synthetic
from .configfile import SyntheticConfig
from .presets import SCALES, ScalePreset, cg_emulation_config
from .stages import STAGE_KINDS, StageSpec, run_stage

__all__ = [
    "SyntheticApp",
    "launch_synthetic",
    "SyntheticConfig",
    "StageSpec",
    "STAGE_KINDS",
    "run_stage",
    "SCALES",
    "ScalePreset",
    "cg_emulation_config",
]
