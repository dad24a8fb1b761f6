#!/usr/bin/env python
"""Closing the simulation loop on a simulator you built.

This walks the paper's whole methodology on SimOS-Mipsy as it existed
before validation:

1. measure its error on the application suite against the hardware
   stand-in (the sobering Figure 1 moment);
2. run the microbenchmark-driven calibration loop
   (:class:`repro.validation.Tuner`): fix the TLB refill cost, recover the
   secondary-cache interface occupancy, fit the five protocol-case
   latencies;
3. re-measure the application error with the tuned simulator.

The point of the paper -- and of this example -- is step 2's *procedure*:
without a reference platform you cannot even tell which effects your
simulator mis-models.
"""

from repro import Tuner, compare_simulators, simos_mipsy
from repro.workloads import app_suite


def mean_abs_error(table) -> float:
    rows = table.rows
    return sum(abs(row.relative - 1.0) for row in rows) / len(rows)


def main() -> None:
    untuned = simos_mipsy(150, tuned=False)
    suite = app_suite(tuned_inputs=True)

    print("step 1: errors before tuning")
    before = compare_simulators([untuned], suite, title="before tuning")
    print(before.format())
    print(f"mean |error| = {mean_abs_error(before):.0%}\n")

    print("step 2: the calibration loop")
    tuned, report = Tuner().fit(untuned)
    print(report.format())
    print()

    print("step 3: errors after tuning (same binaries, calibrated simulator)")
    after = compare_simulators([tuned], suite, title="after tuning")
    print(after.format())
    print(f"mean |error| = {mean_abs_error(after):.0%}")
    print("\nRemaining error is the *character* of the simulator (blocking"
          "\nreads, no instruction latencies), which no latency tuning fixes"
          "\n-- Section 3.1.3 of the paper.")


if __name__ == "__main__":
    main()
