"""Processor models: Mipsy, MXS, Embra, and the R10K gold standard."""

from repro.common.errors import ConfigurationError
from repro.cpu.base import (
    CoreParams,
    HW_TLB_REFILL_CYCLES,
    L2_PORT_OCCUPANCY_CYCLES,
    MIPSY_UNTUNED_TLB_CYCLES,
    MXS_UNTUNED_TLB_CYCLES,
    embra_params,
    mipsy_params,
    mxs_params,
    r10k_params,
)
from repro.cpu.core import CpuCore
from repro.cpu.embra import EmbraCore
from repro.cpu.interface import CpuMemInterface
from repro.cpu.mipsy import MipsyCore
from repro.cpu.window import MxsCore, R10kCore, WindowCore

_CORE_CLASSES = {
    "mipsy": MipsyCore,
    "mxs": MxsCore,
    "r10k": R10kCore,
    "embra": EmbraCore,
}


def core_class(model: str) -> type:
    """The core class a ``CoreParams.model`` selects."""
    try:
        return _CORE_CLASSES[model]
    except KeyError:
        raise ConfigurationError(
            f"unknown core model {model!r}; known: {sorted(_CORE_CLASSES)}"
        ) from None


def make_core(env, node, params, iface, os_model, registry=None) -> CpuCore:
    """Instantiate the core class selected by ``params.model``."""
    return core_class(params.model)(env, node, params, iface, os_model,
                                    registry)


__all__ = [
    "CoreParams",
    "HW_TLB_REFILL_CYCLES",
    "L2_PORT_OCCUPANCY_CYCLES",
    "MIPSY_UNTUNED_TLB_CYCLES",
    "MXS_UNTUNED_TLB_CYCLES",
    "embra_params",
    "mipsy_params",
    "mxs_params",
    "r10k_params",
    "CpuCore",
    "CpuMemInterface",
    "EmbraCore",
    "MipsyCore",
    "MxsCore",
    "R10kCore",
    "WindowCore",
    "core_class",
    "make_core",
]
