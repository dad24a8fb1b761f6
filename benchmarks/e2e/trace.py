"""Outside-in host-time tracer: exclusive (self) time per layer.

The simulator is not edited.  :class:`Tracer` replaces the layers' public
entry points (the :data:`BOUNDARIES` table) with timing wrappers and hands
``Engine.process`` a proxy for each spawned generator, so every resume of
a simulated process is a span labelled by the package that owns the
generator's code.  All spans share one stack: a span's *self* time is its
duration minus the part its child spans cover, so the layers' self times
partition the root span and what is left over is reported as the residual
instead of being silently dropped.

Two properties later PRs rely on:

* **Refactor tolerance** -- boundaries are resolved by name when
  :meth:`Tracer.install` runs.  A module, class or method that no longer
  exists is listed in :attr:`Tracer.missing` and skipped; nothing here can
  crash because the program was refactored.
* **No behaviour change** -- wrappers only read the clock.  The benchmark
  proves it per run: the traced pass must produce the same result digests
  as the untraced ones.

Wrapper bookkeeping is paid *outside* the wrapped call's own interval, so
it lands in the parent's self time: hot callers of cheap boundaries (the
row loop calling ``classify``) look somewhat heavier traced than they
are.  ``trace.overhead_x`` states the total inflation.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Where a code object lives -> the layer its time is charged to.  First
#: match wins, so ``cpu/interface`` is split from the cores.
_PATH_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro/cpu/interface", "cpu.interface"),
    ("repro/cpu/", "cpu.core"),
    ("repro/os/", "cpu.core"),
    ("repro/engine/", "engine"),
    ("repro/mem/", "mem"),
    ("repro/memsys/", "memsys"),
    ("repro/proto/", "proto"),
    ("repro/network/", "network"),
    ("repro/sim/", "sim"),
    ("repro/workloads/", "workloads"),
    ("repro/isa/", "workloads"),
    ("repro/vm/", "workloads"),
    ("repro/fastpath/", "fastpath"),
    ("repro/harness/", "harness"),
    ("repro/common/", "harness"),
    ("repro/validation/", "validation"),
)

#: Layer of the benchmark's own root spans; its self time is the residual.
ROOT_LAYER = "bench"
#: Layer of the host-speed reference samples taken inside a traced pass
#: (``hostspeed.py``): benchmark work, but accounted for, not residual.
CALIBRATION_LAYER = "calibration"

#: ``(module, "Class.method" | "Class.*" | "function", layer)``.  ``Class.*``
#: means every public method and property the class defines itself
#: (``ckpt_*`` excluded: checkpointing is not on any benchmark path).
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sim.machine", "Machine.begin", "sim"),
    ("repro.sim.machine", "Machine.advance", "sim"),
    ("repro.sim.machine", "Machine.finish", "sim"),
    ("repro.sim.sync", "SyncDomain.*", "sim"),
    ("repro.workloads.base", "Workload.build", "workloads"),
    ("repro.engine.kernel", "Engine.run", "engine"),
    ("repro.engine.kernel", "Engine.schedule_at", "engine"),
    ("repro.engine.kernel", "Engine.timeout", "engine"),
    ("repro.engine.kernel", "Engine.event", "engine"),
    ("repro.engine.kernel", "Engine.all_of", "engine"),
    ("repro.engine.kernel", "Engine.any_of", "engine"),
    ("repro.engine.kernel", "Engine.process", "engine"),
    ("repro.engine.resources", "Resource.use", "engine"),
    ("repro.engine.resources", "Resource.acquire", "engine"),
    ("repro.engine.resources", "Resource.release", "engine"),
    ("repro.cpu.interface", "CpuMemInterface.classify", "cpu.interface"),
    ("repro.cpu.interface", "CpuMemInterface.issue_miss", "cpu.interface"),
    ("repro.cpu.interface", "CpuMemInterface.fetch_cost_cycles",
     "cpu.interface"),
    ("repro.cpu.interface", "CpuMemInterface.l2_peek", "cpu.interface"),
    ("repro.cpu.interface", "CpuMemInterface.l2_fill", "cpu.interface"),
    ("repro.cpu.interface", "CpuMemInterface.l2_invalidate", "cpu.interface"),
    ("repro.cpu.interface", "CpuMemInterface.l2_downgrade", "cpu.interface"),
    ("repro.mem.cache", "SetAssocCache.lookup", "mem"),
    ("repro.mem.cache", "SetAssocCache.fill", "mem"),
    ("repro.mem.cache", "SetAssocCache.peek", "mem"),
    ("repro.mem.cache", "SetAssocCache.invalidate", "mem"),
    ("repro.mem.cache", "SetAssocCache.downgrade", "mem"),
    ("repro.mem.cache", "SetAssocCache.set_state", "mem"),
    ("repro.mem.page_table", "PageTable.translate", "mem"),
    ("repro.mem.write_buffer", "WriteBuffer.*", "mem"),
    ("repro.memsys.dsm", "DsmMemorySystem.request", "memsys"),
    ("repro.proto.magic", "MagicController.pp_busy", "proto"),
    ("repro.proto.magic", "MagicController.dram_access", "proto"),
    ("repro.proto.directory", "Directory.*", "proto"),
    ("repro.network.fabric", "Network.send", "network"),
    ("repro.fastpath.filter", "BatchFilter.consume", "fastpath"),
    ("repro.harness.farm", "Farm.map", "harness"),
    ("repro.harness.farm", "ResultCache.get", "harness"),
    ("repro.harness.farm", "ResultCache.put", "harness"),
    ("repro.sim.request", "RunRequest.cache_key", "harness"),
    ("repro.sim.request", "RunRequest.execute", "harness"),
    ("repro.sim.results", "RunResult.to_dict", "harness"),
    ("repro.sim.results", "RunResult.from_dict", "harness"),
    # The experiment body is validation code (studies, findings, rendering);
    # the farm work it triggers is a child span and not charged here.
    ("repro.harness.experiments", "run_experiment", "validation"),
)

#: The one boundary whose *argument* is proxied: every generator handed to
#: it is driven through a :class:`_GenProxy` from then on.
_PROCESS_BOUNDARY = ("repro.engine.kernel", "Engine.process")

#: ``Workload.build`` is abstract; the work is in the subclasses' overrides.
_SUBCLASS_BOUNDARIES = frozenset({("repro.workloads.base", "Workload.build")})


def layer_of_path(filename: str) -> str:
    """The layer charged for code defined in *filename*."""
    path = filename.replace("\\", "/")
    for fragment, layer in _PATH_LAYERS:
        if fragment in path:
            return layer
    return "other"


class _GenProxy:
    """Drives one generator; every resume is a span on the shared stack.

    Implements the part of the generator protocol ``Process._resume`` and
    ``yield from`` use (``send``/``throw``/``close``/iteration), so it can
    stand in for the generator anywhere the simulator holds one.
    """

    __slots__ = ("_gen", "_span")

    def __init__(self, gen, span: Callable):
        self._gen = gen
        self._span = span

    def send(self, value):
        return self._span(self._gen.send, value)

    def throw(self, *exc_info):
        return self._span(self._gen.throw, *exc_info)

    def close(self):
        return self._gen.close()

    def __iter__(self):
        return self

    def __next__(self):
        return self._span(self._gen.send, None)


class Tracer:
    """Span stack + per-boundary aggregates for one traced pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 keep_spans: int = 1000):
        self.clock = clock
        self.keep_spans = keep_spans
        #: Open spans, innermost last: ``[child seconds so far, span id]``.
        self._stack: List[list] = []
        self._next_id = [0]
        #: boundary name -> ``[calls, total seconds, self seconds]``.
        self._stats: Dict[str, list] = {}
        self._layer_of: Dict[str, str] = {}
        self._resume_spans: Dict[object, Callable] = {}
        #: The first ``keep_spans`` spans by start order:
        #: ``(id, name, layer, start, end, parent id)``.
        self.raw: List[tuple] = []
        #: Boundaries of :data:`BOUNDARIES` that did not resolve.
        self.missing: List[str] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- the span primitive ------------------------------------------------

    def _make_span(self, name: str, layer: str) -> Callable:
        """``span(fn, *args, **kwargs)``: call *fn* inside one span."""
        stat = self._stats.setdefault(name, [0, 0.0, 0.0])
        self._layer_of[name] = layer
        stack = self._stack
        clock = self.clock
        next_id = self._next_id
        raw = self.raw
        keep = self.keep_spans

        def span(fn, *args, **kwargs):
            sid = next_id[0]
            next_id[0] = sid + 1
            parent = stack[-1] if stack else None
            frame = [0.0, sid]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                stat[0] += 1
                stat[1] += took
                stat[2] += took - frame[0]
                if parent is not None:
                    parent[0] += took
                if sid < keep:
                    raw.append((sid, name, layer, start, end,
                                None if parent is None else parent[1]))

        return span

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        """A drop-in replacement for *fn* that runs it inside a span.

        A generator function is wrapped so that each *resume* of the
        generator it returns is the span (creating a generator does no
        work worth timing).
        """
        span = self._make_span(name, layer)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return _GenProxy(fn(*args, **kwargs), span)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return span(fn, *args, **kwargs)
        return wrapper

    def span(self, name: str, layer: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span opened by the
        benchmark itself (root spans, constructors it calls directly)."""
        return self._make_span(name, layer)(fn, *args, **kwargs)

    def proxy(self, gen):
        """*gen* driven through resume spans named after its code."""
        code = getattr(gen, "gi_code", None)
        if code is None:
            return gen
        span = self._resume_spans.get(code)
        if span is None:
            qualname = getattr(code, "co_qualname", code.co_name)
            span = self._make_span(f"resume:{qualname}",
                                   layer_of_path(code.co_filename))
            self._resume_spans[code] = span
        return _GenProxy(gen, span)

    # -- installing over the program ---------------------------------------

    def install(self) -> None:
        """Patch every resolvable boundary; record the rest as missing."""
        for module_name, target, layer in BOUNDARIES:
            try:
                module = importlib.import_module(module_name)
                owner_name, _, attr = target.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                if attr == "*":
                    attrs = [a for a, v in vars(owner).items()
                             if not a.startswith(("_", "ckpt_"))
                             and (callable(v) or isinstance(v, property))]
                else:
                    getattr(owner, attr)
                    attrs = [attr]
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}:{target}")
                continue
            if (module_name, target) in _SUBCLASS_BOUNDARIES:
                owners = [cls for cls in _all_subclasses(owner)
                          if attr in vars(cls)]
            else:
                owners = [owner]
            for cls in owners:
                for a in attrs:
                    # Patch where the attribute is defined: a refactor may
                    # have moved it to a base class.
                    definer = next(c for c in getattr(cls, "__mro__", (cls,))
                                   if a in vars(c))
                    name = f"{owner_name}.{a}" if owner_name else a
                    self._patch(definer, a, name, layer,
                                (module_name, target) == _PROCESS_BOUNDARY)

    def _patch(self, owner, attr: str, name: str, layer: str,
               proxies_arg: bool) -> None:
        original = vars(owner)[attr]
        if isinstance(original, property):
            patched = property(self.wrap(original.fget, name, layer),
                               original.fset, original.fdel, original.__doc__)
        elif isinstance(original, (staticmethod, classmethod)):
            patched = type(original)(
                self.wrap(original.__func__, name, layer))
        elif proxies_arg:
            proxy = self.proxy

            @functools.wraps(original)
            def process(engine, gen, *args, **kwargs):
                return original(engine, proxy(gen), *args, **kwargs)
            patched = self.wrap(process, name, layer)
        else:
            patched = self.wrap(original, name, layer)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, patched)

    def uninstall(self) -> None:
        """Put every original back (reverse order of patching)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- reading the result --------------------------------------------------

    @property
    def balanced(self) -> bool:
        """True when no span is open (every enter had its exit)."""
        return not self._stack

    @property
    def n_spans(self) -> int:
        return self._next_id[0]

    def boundaries(self) -> Dict[str, dict]:
        """name -> layer, calls, inclusive and self seconds."""
        return {
            name: {"layer": self._layer_of[name], "calls": calls,
                   "total_s": total, "self_s": own}
            for name, (calls, total, own) in sorted(self._stats.items())
            if calls
        }

    def layers(self) -> Dict[str, dict]:
        """layer -> spans and self seconds (self times partition the root)."""
        out: Dict[str, dict] = {}
        for name, (calls, _total, own) in self._stats.items():
            agg = out.setdefault(self._layer_of[name],
                                 {"calls": 0, "self_s": 0.0})
            agg["calls"] += calls
            agg["self_s"] += own
        return dict(sorted(out.items()))

    def stat(self, name: str) -> dict:
        """One boundary's aggregate (zeros when it never ran)."""
        calls, total, own = self._stats.get(name, (0, 0.0, 0.0))
        return {"calls": calls, "total_s": total, "self_s": own}

    def report(self, root: str) -> dict:
        """Everything ``trace.json`` holds for the pass rooted at *root*."""
        root_stat = self.stat(root)
        wall = root_stat["total_s"]
        return {
            "root": root,
            "wall_s": wall,
            "residual_s": root_stat["self_s"],
            "residual_frac": root_stat["self_s"] / wall if wall else 0.0,
            "spans": self.n_spans,
            "missing_boundaries": list(self.missing),
            "layers": self.layers(),
            "boundaries": self.boundaries(),
            "raw_spans": [
                {"id": sid, "name": name, "layer": layer, "start": start,
                 "end": end, "parent": parent}
                for sid, name, layer, start, end, parent in sorted(self.raw)
            ],
        }


def _all_subclasses(cls) -> List[type]:
    """*cls* and every class derived from it that is loaded right now."""
    seen: List[type] = []
    todo = [cls]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.append(current)
            todo.extend(current.__subclasses__())
    return seen


def traced_call(tracer: Optional[Tracer], name: str, layer: str,
                fn: Callable, *args, **kwargs):
    """``fn(*args, **kwargs)``, inside a benchmark-opened span when traced."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.span(name, layer, fn, *args, **kwargs)
