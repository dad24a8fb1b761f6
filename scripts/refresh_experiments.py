#!/usr/bin/env python
"""Refresh selected sections of EXPERIMENTS.md in place.

Re-runs the named experiments and splices their regenerated markdown into
the existing file (useful after a change that touches only a few
experiments; ``python -m repro.harness all --markdown EXPERIMENTS.md``
rebuilds everything from scratch).
"""

import re
import sys

from repro.common.config import get_scale
from repro.harness import run_experiment


def splice(path: str, exp_ids, scale_name: str = "repro") -> None:
    text = open(path).read()
    scale = get_scale(scale_name)
    for exp_id in exp_ids:
        result = run_experiment(exp_id, scale)
        pattern = re.compile(
            rf"^## {re.escape(exp_id)}:.*?(?=^## |\Z)", re.S | re.M)
        if not pattern.search(text):
            raise SystemExit(f"section {exp_id!r} not found in {path}")
        section = result.to_markdown() + "\n\n"
        text = pattern.sub(lambda _match: section, text, count=1)
        print(f"refreshed {exp_id}: "
              f"{sum(f.ok for f in result.findings)}/{len(result.findings)} ok")
    text = recount(text)
    open(path, "w").write(text)
    print("total now " + re.search(r"\*\*(\d+/\d+) shape", text)[1])


def recount(text: str) -> str:
    """*text* with its headline number recounted from the findings rows
    (the last cell of a table row; rendered output in fences is skipped)."""
    rows = re.sub(r"^```.*?^```$", "", text, flags=re.S | re.M)
    oks = len(re.findall(r"\| yes \|$", rows, re.M))
    total = oks + len(re.findall(r"\| \*\*no\*\* \|$", rows, re.M))
    return re.sub(r"\*\*\d+/\d+ shape checks hold\.\*\*",
                  f"**{oks}/{total} shape checks hold.**", text)


if __name__ == "__main__":
    ids = sys.argv[1:] or ["table3", "tuning_loop"]
    splice("EXPERIMENTS.md", ids)
