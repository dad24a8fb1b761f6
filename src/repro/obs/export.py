"""Exporters: Chrome ``trace_event`` JSON and a flamegraph-style summary.

``chrome_trace`` emits the JSON Object Format of the Trace Event
specification, loadable in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``: complete events (``"ph": "X"``) for spans with a
duration and instant events (``"ph": "i"``) for point events.  Timestamps
are microseconds per the spec; simulated picoseconds divide by 1e6.

``flame_summary`` is the text fallback: total time per ``category;name``
stack, widest first, with a proportional bar -- the same shape a collapsed
flamegraph gives, without leaving the terminal.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.obs.doc import Table, render_text

#: tid used for spans that carry no CPU id, keyed by category.
_MACHINE_TID_BASE = 1000


def chrome_trace(recorder) -> Dict:
    """*recorder*'s retained spans as a Chrome trace-event JSON object."""
    events: List[Dict] = []
    machine_tids: Dict[str, int] = {}
    for span in recorder.spans():
        cpu = span.cpu
        if cpu is None:
            tid = machine_tids.setdefault(
                span.category, _MACHINE_TID_BASE + len(machine_tids))
        else:
            tid = cpu
        event = {
            "name": span.name,
            "cat": span.category,
            "ts": span.t_ps / 1e6,   # ps -> us
            "pid": 0,
            "tid": tid,
        }
        if span.dur_ps > 0:
            event["ph"] = "X"
            event["dur"] = span.dur_ps / 1e6
        else:
            event["ph"] = "i"
            event["s"] = "t"
        if type(span.args) is dict:
            event["args"] = span.args
        elif span.args is not None:
            event["args"] = {"cpu": span.args}
        events.append(event)

    metadata = [
        {"name": "process_name", "ph": "M", "ts": 0, "pid": 0, "tid": 0,
         "args": {"name": "repro simulated machine"}},
    ]
    for category, tid in sorted(machine_tids.items(), key=lambda kv: kv[1]):
        metadata.append(
            {"name": "thread_name", "ph": "M", "ts": 0, "pid": 0, "tid": tid,
             "args": {"name": category}}
        )
    seen_cpus = sorted({s.cpu for s in recorder.spans() if s.cpu is not None})
    for cpu in seen_cpus:
        metadata.append(
            {"name": "thread_name", "ph": "M", "ts": 0, "pid": 0, "tid": cpu,
             "args": {"name": f"cpu{cpu}"}}
        )
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ns",
        "otherData": {
            "recorded": recorder.recorded,
            "dropped": recorder.dropped,
        },
    }


def write_chrome_trace(recorder, path: str) -> None:
    """Write the Chrome trace JSON for *recorder* to *path*."""
    with open(path, "w") as fh:
        json.dump(chrome_trace(recorder), fh)


def flame_summary(recorder, width: int = 40, top: int = 30) -> str:
    """Collapsed-stack style summary: total duration per category;name."""
    folded: Dict[str, List[float]] = {}
    for (cpu, category, name), (count, dur_ps) in recorder.aggregates().items():
        stack = f"{category};{name}"
        entry = folded.setdefault(stack, [0, 0.0])
        entry[0] += count
        entry[1] += dur_ps
    if not folded:
        return "(no spans recorded)"
    ranked = sorted(folded.items(), key=lambda kv: kv[1][1], reverse=True)[:top]
    peak = max(dur for _stack, (_n, dur) in ranked) or 1.0
    return render_text([Table("tnnt", ["stack", "total_ms", "events", ""], [
        [stack, f"{dur_ps / 1e9:.3f}", int(count),
         "#" * max(1, int(width * dur_ps / peak)) if dur_ps else ""]
        for stack, (count, dur_ps) in ranked])])
