"""Named simulator configurations: the columns of the paper's figures.

A :class:`SimulatorConfig` is a complete recipe: processor model (+clock),
operating-system model, and memory-system parameter set (``memsys``, a
:class:`~repro.memsys.params.DsmParams` built by one of
:mod:`repro.memsys.params`' named factories).  The study's configurations:

=====================  =========  ==========  ========================
name                   core       OS model    ``memsys``
=====================  =========  ==========  ========================
hardware               R10K       SimOS/IRIX  ``hardware()``
simos-mipsy-<mhz>      Mipsy      SimOS/IRIX  ``flashlite_(un)tuned()``
simos-mxs-150          MXS        SimOS/IRIX  ``flashlite_(un)tuned()``
solo-mipsy-<mhz>       Mipsy      Solo        ``flashlite_(un)tuned()``
=====================  =========  ==========  ========================

``tuned=False`` gives the simulators as they existed before the validation
loop (Figures 1-2); ``tuned=True`` (a ``-tuned`` name) gives them after
Section 3.1's tuning (TLB refill cost 65 cycles, L2-interface occupancy
on, FlashLite latencies calibrated) used in Figures 3-7.  Variants are
derived, not named: Figure 7's NUMA column is
``config.derive("-numa", memsys=numa())``, and the MXS bugs are injected
by :mod:`repro.validation.bugs`.  :func:`get_config` resolves every name,
including the study's shorthand (:data:`CONFIG_ALIASES`).

A recipe holds only what some configuration sets to a second value.
What every configuration shares is a constant in the module that uses
it: the Table 1 core limits ``WINDOW`` (32) and ``MAX_OUTSTANDING`` (4)
and ``MISPREDICT_PENALTY_CYCLES`` (5) in :mod:`repro.cpu.window`,
``L2_HIT_CYCLES`` and ``ICACHE_REFILL_CYCLES_PER_LINE`` (10 each) in
:mod:`repro.cpu.interface`, the four-entry write buffer in
:mod:`repro.mem.write_buffer`, and the message sizes ``REQ_FLITS`` (1)
and ``DATA_FLITS`` (4) in :mod:`repro.memsys.params`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.common.errors import ConfigurationError
from repro.cpu.base import CoreParams, mipsy_params, mxs_params, r10k_params
from repro.memsys.params import (
    DsmParams,
    flashlite_tuned,
    flashlite_untuned,
    hardware,
)
from repro.os.base import OsModel, simos_kernel, solo_backdoor


@dataclass(frozen=True)
class SimulatorConfig:
    """A complete simulator recipe."""

    name: str
    core: CoreParams
    os_model: OsModel
    memsys: DsmParams

    def derive(self, suffix: str = "", **changes) -> "SimulatorConfig":
        """This recipe with *changes* applied and *suffix* on its name."""
        return replace(self, name=self.name + suffix, **changes)


def _flashlite(tuned: bool) -> DsmParams:
    return flashlite_tuned() if tuned else flashlite_untuned()


def hardware_config() -> SimulatorConfig:
    """The gold standard every simulator is validated against."""
    return SimulatorConfig(
        name="hardware",
        core=r10k_params(150.0),
        os_model=simos_kernel(),
        memsys=hardware(),
    )


def simos_mipsy(clock_mhz: float = 150.0, tuned: bool = False) -> SimulatorConfig:
    return SimulatorConfig(
        name=f"simos-mipsy-{int(clock_mhz)}" + ("-tuned" if tuned else ""),
        core=mipsy_params(clock_mhz, tuned=tuned),
        os_model=simos_kernel(),
        memsys=_flashlite(tuned),
    )


def simos_mxs(tuned: bool = False) -> SimulatorConfig:
    return SimulatorConfig(
        name="simos-mxs-150" + ("-tuned" if tuned else ""),
        core=mxs_params(150.0, tuned=tuned),
        os_model=simos_kernel(),
        memsys=_flashlite(tuned),
    )


def solo_mipsy(clock_mhz: float = 150.0, tuned: bool = False) -> SimulatorConfig:
    return SimulatorConfig(
        name=f"solo-mipsy-{int(clock_mhz)}" + ("-tuned" if tuned else ""),
        core=mipsy_params(clock_mhz, tuned=tuned),
        os_model=solo_backdoor(),
        memsys=_flashlite(tuned),
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


#: Shorthand for the figure lineup's usual suspects (150 MHz, tuned).
CONFIG_ALIASES = {
    "solo": "solo-mipsy-150-tuned",
    "mipsy": "simos-mipsy-150-tuned",
    "simos-mipsy": "simos-mipsy-150-tuned",
    "mxs": "simos-mxs-150-tuned",
    "simos-mxs": "simos-mxs-150-tuned",
}


def get_config(name: str) -> SimulatorConfig:
    """Resolve a configuration by its canonical name or shorthand."""
    name = CONFIG_ALIASES.get(name, name)
    tuned = name.endswith("-tuned")
    base = name[: -len("-tuned")] if tuned else name
    if base == "hardware":
        return hardware_config()
    if base == "simos-mxs-150":
        return simos_mxs(tuned)
    for prefix, factory in (("simos-mipsy-", simos_mipsy),
                            ("solo-mipsy-", solo_mipsy)):
        if base.startswith(prefix):
            try:
                clock = float(base[len(prefix):])
            except ValueError:
                break
            return factory(clock, tuned)
    raise ConfigurationError(f"unknown simulator configuration {name!r}")
