#!/usr/bin/env python
"""A tour of the snbench microbenchmarks against every simulator.

Measures the five dependent-load protocol cases (Table 3) and the TLB
refill cost on the hardware stand-in and on each simulator configuration,
before and after tuning.  This is the measurement layer the whole
validation methodology rests on.
"""

from repro import (
    hardware_config,
    measure_all_cases,
    measure_tlb_refill,
    simos_mipsy,
    simos_mxs,
    solo_mipsy,
)
from repro.memsys.params import PROTOCOL_CASES
from repro.obs.doc import Para, Table, render_text


def main() -> None:
    configs = [
        hardware_config(),
        simos_mipsy(150, tuned=False),
        simos_mipsy(150, tuned=True),
        simos_mxs(tuned=False),
        solo_mipsy(150, tuned=False),
    ]
    case_rows = []
    tlb_rows = []
    for config in configs:
        cases = measure_all_cases(config)
        case_rows.append([config.name]
                         + [f"{cases[c]:.0f}" for c in PROTOCOL_CASES])
        tlb_rows.append([config.name,
                         f"{measure_tlb_refill(config):.1f}"])
    print(render_text([
        Para("dependent-load latency (ns per load)"),
        Table("t" + "n" * len(PROTOCOL_CASES),
              ["configuration", *PROTOCOL_CASES], case_rows),
        Para("TLB refill cost (cycles)"),
        Table("tn", ["configuration", "cycles"], tlb_rows)]))
    print("\nPaper reference: hardware row should read ~587 / 2201 / 1484 /"
          "\n2359 / 2617 ns and 65 cycles; untuned Mipsy ~25 cycles.")


if __name__ == "__main__":
    main()
