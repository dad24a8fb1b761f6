#!/usr/bin/env python
"""Trend-accuracy scorecard across the whole simulator family.

For every application, computes each simulator's speedup-trend error
against the gold standard (Section 3.2's question: do simulators predict
*trends* even when absolute time is wrong?) and prints a scorecard.
The paper's summary -- "any simulator that does a reasonable job of
modeling the important performance effects will do a reasonable job of
predicting trends" -- shows up as small errors everywhere except the
configurations with a missing effect.
"""

from repro import hardware_config, simos_mipsy, simos_mxs, solo_mipsy, speedup_study
from repro.obs.doc import Para, Table, render_text
from repro.workloads import make_app


def main() -> None:
    configs = [
        hardware_config(),
        simos_mipsy(225, tuned=True),
        simos_mipsy(300, tuned=True),
        simos_mxs(tuned=True),
        solo_mipsy(225, tuned=True),
    ]
    rows = []
    for app in ("fft", "radix", "lu", "ocean"):
        workload = make_app(app)
        study = speedup_study(configs, workload, cpu_counts=(1, 4, 16))
        errors = study.trend_errors("hardware")
        for name, error in errors.items():
            rows.append([workload.name, name, f"{error:.0%}"])
    print(render_text([
        Para("speedup-trend error vs the gold standard"),
        Table("ttn", ["application", "simulator", "trend error"], rows)]))
    print("\nNote the paper's caveat: even 'good' trend predictors can be"
          "\noff by 30% -- often more than the gains architecture papers"
          "\nreport (Section 3.4).")


if __name__ == "__main__":
    main()
