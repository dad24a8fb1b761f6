"""repro.obs -- the observability subsystem.

The paper's methodology is *error attribution*: explaining simulator-vs-
hardware gaps by breaking execution time into causes (TLB refill, L2
interface occupancy, synchronisation imbalance, ...).  This package gives
the reproduction the same visibility into itself:

* :mod:`repro.obs.trace` -- a ring-buffered low-overhead span recorder;
* :mod:`repro.obs.hooks` -- the probe: the one ambient slot the simulator's
  hot paths check (a single ``active is not None`` test when disabled),
  the event vocabulary, and ``observing(*recorders)``.  Observation is
  out of band: a run's :class:`~repro.sim.results.RunResult` is the same
  observed or not, and each report is read from its recorder afterwards;
* :mod:`repro.obs.profile` -- folds a tracer's spans into a per-CPU
  cycle-attribution breakdown (``build_breakdown(tracer)``);
* :mod:`repro.obs.export` -- Chrome ``trace_event`` JSON (Perfetto) and a
  flamegraph-style text summary;
* :mod:`repro.obs.diff` -- differential error attribution: runs a
  reference and a candidate request, each under a fresh tracer, into the
  signed per-category waterfall explaining their cycle gap;
* :mod:`repro.obs.metrics` -- the two frozen-schema ledgers: the
  run-over-run metrics ledger (:class:`~repro.obs.metrics.MetricsWriter`)
  and the BENCH perf ledgers, their one append-only JSON-lines format
  (:func:`~repro.obs.metrics.append_records`,
  :func:`~repro.obs.metrics.scan_ledger`), and the one gate that judges
  both (:class:`~repro.obs.metrics.GateReport`);
* :mod:`repro.obs.topo` -- spatial observability: the
  (requesting node, home node, address region) counters, directory
  transitions, per-link traffic, and the queue-occupancy sampler;
* :mod:`repro.obs.hotspot` -- folds a topo recording into the NUMA
  traffic matrix, top-K hot regions with sharer sets, and contention heat;
* :mod:`repro.obs.txn` -- per-transaction anatomy: every memory
  transaction's latency cut into wait/service segments, per-kind
  histograms and the slowest-K critical paths;
* :mod:`repro.obs.record` -- the one dict codec: every report and ledger
  row above is a dataclass whose payload is its field list;
* :mod:`repro.obs.doc` -- report documents: the block vocabulary every
  report above describes itself in, and the text/markdown/HTML emitters;
* :mod:`repro.obs.bisect` -- the first event where two configurations'
  timelines part, from one state forked at a quiescent gate;
* :mod:`repro.obs.cli` -- ``python -m repro.obs
  trace|diff|hotspot|txn|bisect|perf|watch``.

The package itself imports nothing: import each name from its submodule
(``from repro.obs.trace import TraceRecorder``).  The model imports only
:mod:`repro.obs.hooks`, so a run loads none of the tooling above.
"""
