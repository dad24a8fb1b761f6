"""Named simulator configurations: the columns of the paper's figures.

A :class:`SimulatorConfig` is a complete recipe: processor model (+clock),
operating-system model, and memory-system parameter set.  The study's
configurations:

=====================  =========  ==========  =====================
name                   core       OS model    memory system
=====================  =========  ==========  =====================
hardware               R10K       SimOS/IRIX  hardware params
simos-mipsy-<mhz>      Mipsy      SimOS/IRIX  FlashLite (un)tuned
simos-mxs-150          MXS        SimOS/IRIX  FlashLite (un)tuned
solo-mipsy-<mhz>       Mipsy      Solo        FlashLite (un)tuned
*-numa                 any        any         NUMA model
embra                  Embra      SimOS/IRIX  (none exercised)
=====================  =========  ==========  =====================

``tuned=False`` gives the simulators as they existed before the validation
loop (Figures 1-2); ``tuned=True`` gives them after Section 3.1's tuning
(TLB refill cost 65 cycles, L2-interface occupancy on, FlashLite latencies
calibrated) used in Figures 3-7.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.cpu.base import (
    CoreParams,
    embra_params,
    mipsy_params,
    mxs_params,
    r10k_params,
)
from repro.memsys.params import DsmParams, PARAM_SETS
from repro.os.base import OsModel, simos_kernel, solo_backdoor


from typing import Optional


@dataclass(frozen=True)
class SimulatorConfig:
    """A complete simulator recipe."""

    name: str
    core: CoreParams
    os_model: OsModel
    memsys_key: str          #: key into repro.memsys.params.PARAM_SETS
    description: str = ""
    #: Direct parameter set (set by the calibration loop); overrides
    #: ``memsys_key`` when present.
    memsys_override: Optional[DsmParams] = None

    def memsys_params(self, n_nodes: int) -> DsmParams:
        if self.memsys_override is not None:
            return self.memsys_override
        try:
            factory = PARAM_SETS[self.memsys_key]
        except KeyError:
            raise ConfigurationError(
                f"unknown memsys parameter set {self.memsys_key!r}"
            ) from None
        return factory(n_nodes)

    def with_core(self, core: CoreParams, suffix: str = "") -> "SimulatorConfig":
        return SimulatorConfig(
            name=self.name + suffix, core=core, os_model=self.os_model,
            memsys_key=self.memsys_key, description=self.description,
            memsys_override=self.memsys_override,
        )

    def with_memsys_override(self, params: DsmParams,
                             suffix: str = "") -> "SimulatorConfig":
        return SimulatorConfig(
            name=self.name + suffix, core=self.core, os_model=self.os_model,
            memsys_key=self.memsys_key, description=self.description,
            memsys_override=params,
        )


def _fl(tuned: bool) -> str:
    return "flashlite_tuned" if tuned else "flashlite_untuned"


def hardware_config() -> SimulatorConfig:
    """The gold standard every simulator is validated against."""
    return SimulatorConfig(
        name="hardware",
        core=r10k_params(150.0),
        os_model=simos_kernel(),
        memsys_key="hardware",
        description="16-node FLASH stand-in: R10K core + hardware-timed DSM",
    )


def simos_mipsy(clock_mhz: float = 150.0, tuned: bool = False) -> SimulatorConfig:
    return SimulatorConfig(
        name=f"simos-mipsy-{int(clock_mhz)}" + ("-tuned" if tuned else ""),
        core=mipsy_params(clock_mhz, tuned=tuned),
        os_model=simos_kernel(),
        memsys_key=_fl(tuned),
        description=f"SimOS with Mipsy at {clock_mhz:g} MHz on FlashLite",
    )


def simos_mxs(tuned: bool = False, buggy: bool = False) -> SimulatorConfig:
    name = "simos-mxs-150" + ("-tuned" if tuned else "") + ("-buggy" if buggy else "")
    return SimulatorConfig(
        name=name,
        core=mxs_params(150.0, tuned=tuned, buggy=buggy),
        os_model=simos_kernel(),
        memsys_key=_fl(tuned),
        description="SimOS with the MXS out-of-order model on FlashLite",
    )


def solo_mipsy(clock_mhz: float = 150.0, tuned: bool = False) -> SimulatorConfig:
    return SimulatorConfig(
        name=f"solo-mipsy-{int(clock_mhz)}" + ("-tuned" if tuned else ""),
        core=mipsy_params(clock_mhz, tuned=tuned),
        os_model=solo_backdoor(),
        memsys_key=_fl(tuned),
        description=f"Solo (no OS, no TLB) with Mipsy at {clock_mhz:g} MHz",
    )


def embra_config() -> SimulatorConfig:
    return SimulatorConfig(
        name="embra",
        core=embra_params(150.0),
        os_model=simos_kernel(),
        memsys_key="flashlite_untuned",
        description="Embra positioning model (fixed CPI)",
    )


#: The simulator line-up of the uniprocessor comparison figures, in the
#: paper's X-axis order (Figures 1-3).
def figure_lineup(tuned: bool):
    return [
        simos_mipsy(150, tuned),
        simos_mipsy(225, tuned),
        simos_mipsy(300, tuned),
        simos_mxs(tuned),
        solo_mipsy(150, tuned),
        solo_mipsy(225, tuned),
        solo_mipsy(300, tuned),
    ]


def get_config(name: str) -> SimulatorConfig:
    """Resolve a configuration by its canonical name."""
    tuned = name.endswith("-tuned")
    base = name[: -len("-tuned")] if tuned else name
    if base == "hardware":
        return hardware_config()
    if base == "embra":
        return embra_config()
    if base == "simos-mxs-150":
        return simos_mxs(tuned)
    if base == "simos-mxs-150-buggy":
        return simos_mxs(tuned, buggy=True)
    for prefix, factory in (("simos-mipsy-", simos_mipsy),
                            ("solo-mipsy-", solo_mipsy)):
        if base.startswith(prefix):
            try:
                clock = float(base[len(prefix):])
            except ValueError:
                break
            return factory(clock, tuned)
    raise ConfigurationError(f"unknown simulator configuration {name!r}")
