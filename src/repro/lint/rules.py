"""The rule registry: contract checks (L1-L3) and determinism hazards
(D1-D5).

The L rules pin the subsystem contracts; the D rules guard the property
the whole reproduction stands on -- bit-identical replay -- at its weakest
points: hash-order-dependent iteration, ambient wall-clock/environment
reads inside the simulated machine, undisciplined ambient-hook calls,
``id()``-keyed ordering of simulated objects, and host-clock reads
outside the observability/harness layers.

Scopes are dotted-module based so the same registry runs over the live
tree and over the fixture mini-packages in ``tests/lint_fixtures/``.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.engine import (
    FileContext,
    Rule,
    RunContext,
    _in_packages,
)
from repro.obs.hooks import EVENTS

#: The ambient slots: the only modules under ``src/repro`` that define a
#: module-level ``active`` with an installer (``tests/test_lint.py`` fails
#: on a fourth), and what model code reaches through each.  D3's slot set
#: and L2's hints derive from this table.
AMBIENT_SLOTS: Dict[str, str] = {
    "repro.obs.hooks": "observability (the probe and its recorders)",
    "repro.sim.farm_hooks": "the experiment farm",
}

#: Packages whose code runs *inside* the simulated machine.  Determinism
#: rules apply here: anything order- or environment-dependent in these
#: packages lands directly in cycle counts and replay digests.
SIMULATOR_PACKAGES = (
    "repro.engine", "repro.cpu", "repro.mem", "repro.memsys",
    "repro.proto", "repro.network", "repro.vm", "repro.sim",
    "repro.isa", "repro.workloads", "repro.os",
)

#: The subset whose *configuration* must arrive through requests, never
#: ambient process state (wall clock, environment variables).
AMBIENT_BANNED_PACKAGES = (
    "repro.engine", "repro.cpu", "repro.mem", "repro.memsys",
    "repro.proto", "repro.network", "repro.vm",
)


# ---------------------------------------------------------------------------
# L1: hot-path tracer guards
# ---------------------------------------------------------------------------

class HotPathGuardRule(Rule):
    """Every probe call in the hot path sits behind an ``is not None``
    guard on a local."""

    id = "L1"
    title = "hot-path probe calls must be guarded"
    rationale = (
        "The observability contract is zero cost when disabled.  The "
        "engine dispatch loop and the model inner loops run once per "
        "event / memory reference, so a probe event call there must read "
        "the slot into a local and test `is not None` first; an "
        "unguarded call re-introduces per-event overhead even with "
        "nothing observing.")
    hint = ("read the slot into a local (`probe = obs_hooks.active`) and "
            "wrap the call in `if probe is not None:` right above it")
    subsystem = "repro.obs"

    #: Modules whose every probe call must be guarded: the engine kernel
    #: (contractual) plus the model inner loops.
    HOT_PATH_MODULES = (
        "repro.engine.kernel",
        "repro.cpu.core",
        "repro.cpu.mipsy",
        "repro.cpu.window",
        "repro.cpu.interface",
        "repro.mem.cache",
        "repro.mem.tlb",
    )

    _GUARD = re.compile(r"if\s+\w+(\.\w+)*\s+is\s+not\s+None")
    #: The call must start right under the guard: at most a two-line
    #: comment in between (``CpuCore._drain_writes``' ``drain`` is one of
    #: the three longest sites).
    GUARD_WINDOW = 3

    def scope(self, module: str) -> bool:
        return module in self.HOT_PATH_MODULES

    def visit(self, ctx: FileContext, node: ast.AST) -> None:
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in EVENTS):
            return
        lineno = node.lineno
        window = ctx.lines[max(0, lineno - 1 - self.GUARD_WINDOW):lineno - 1]
        if not any(self._GUARD.search(prev) for prev in window):
            ctx.report(self, node,
                       f"unguarded probe call in hot path: "
                       f"{ctx.lines[lineno - 1].strip()}")


# ---------------------------------------------------------------------------
# L2: subsystem import bans in model code
# ---------------------------------------------------------------------------

class ImportBanRule(Rule):
    """Harness-side subsystems stay importable-free from model code."""

    id = "L2"
    title = "model code must not import harness-side subsystems"
    rationale = (
        "The models' only channels to observability and the farm are "
        f"the ambient slots ({', '.join(AMBIENT_SLOTS)}): one attribute "
        "read and a None test when disabled.  Checkpointing needs no "
        "channel at all: a gate and a starting state arrive as "
        "`Machine.begin` arguments.  Importing the subsystems themselves "
        "couples reference semantics to optional machinery and "
        "re-introduces cost and cycles into the dependency graph.")
    hint = ("reach the subsystem through its sanctioned slot instead: "
            + ", ".join(f"{module} ({what})"
                        for module, what in AMBIENT_SLOTS.items())
            + "; model code needs nothing from repro.ckpt")
    subsystem = "repro.obs / repro.ckpt"

    #: banned module -> (packages it is banned in, the slot to use
    #: instead; None where model code needs nothing from the module).
    BANS: Tuple[Tuple[str, Tuple[str, ...], Optional[str]], ...] = (
        ("repro.obs.metrics",
         ("repro.cpu", "repro.mem", "repro.engine"),
         "repro.sim.farm_hooks"),
        ("repro.obs.topo",
         ("repro.cpu", "repro.mem", "repro.engine", "repro.memsys",
          "repro.network"),
         "repro.obs.hooks"),
        ("repro.obs.txn",
         ("repro.cpu", "repro.mem", "repro.memsys", "repro.proto",
          "repro.network", "repro.engine"),
         "repro.obs.hooks"),
        ("repro.ckpt",
         ("repro.cpu", "repro.mem", "repro.engine"),
         None),
    )

    def scope(self, module: str) -> bool:
        return any(_in_packages(module, packages)
                   for _banned, packages, _slot in self.BANS)

    def _imported_targets(self, ctx: FileContext,
                          node: ast.AST) -> List[str]:
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom):
            base = ctx.import_base(node)
            return [f"{base}.{alias.name}" if base else alias.name
                    for alias in node.names]
        return []

    def visit(self, ctx: FileContext, node: ast.AST) -> None:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            return
        for target in self._imported_targets(ctx, node):
            for banned, packages, slot in self.BANS:
                if not _in_packages(ctx.module, packages):
                    continue
                if target == banned or target.startswith(banned + "."):
                    hint = (
                        f"model code needs nothing from {banned}: implement "
                        "ckpt_state/ckpt_restore and duck-type the `gate` "
                        "argument (`at_ps`, `hold(node, env)`)"
                        if slot is None else
                        "use the slot instead: the models reach "
                        f"{AMBIENT_SLOTS[slot]} through the guarded "
                        f"{slot}.active")
                    ctx.report(self, node,
                               f"{banned} imported in model code "
                               f"({ctx.lines[node.lineno - 1].strip()})",
                               hint=hint)


# ---------------------------------------------------------------------------
# L3: checkpoint coverage
# ---------------------------------------------------------------------------

_CONTAINER_CALLS = {"dict", "list", "set", "deque", "OrderedDict",
                    "defaultdict", "Counter"}
_CONTAINER_NODES = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                    ast.SetComp)


def _is_container(value: ast.AST) -> bool:
    if isinstance(value, _CONTAINER_NODES):
        return True
    if isinstance(value, ast.Call):
        fn = value.func
        name = fn.id if isinstance(fn, ast.Name) else (
            fn.attr if isinstance(fn, ast.Attribute) else None)
        return name in _CONTAINER_CALLS
    return False


def _assigns_self_container(fn: ast.FunctionDef) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            value = node.value
            if value is None or not _is_container(value):
                continue
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    return True
    return False


def _base_name(base: ast.AST) -> str:
    if isinstance(base, ast.Name):
        return base.id
    if isinstance(base, ast.Attribute):
        return base.attr
    return ""


class CkptCoverageRule(Rule):
    """Every stateful simulator class implements the checkpoint
    contract."""

    id = "L3"
    title = "stateful simulator classes must implement ckpt_state"
    rationale = (
        "repro.ckpt can only promise a *complete* machine capture if no "
        "component quietly accumulates state outside the "
        "ckpt_state/ckpt_restore protocol.  A class whose __init__ "
        "assigns a mutable container to an instance attribute holds "
        "state; if neither it nor a scanned base defines ckpt_state, "
        "that state silently escapes every checkpoint.")
    hint = ("implement ckpt_state/ckpt_restore, or allowlist the class in "
            "lint_allow.toml with the reason it is deliberately not "
            "Checkpointable (transient event machinery, build-time-"
            "constant structure)")
    subsystem = "repro.ckpt"

    SCAN_PACKAGES = (
        "repro.engine", "repro.cpu", "repro.mem", "repro.memsys",
        "repro.proto", "repro.network", "repro.sim", "repro.vm",
    )

    def scope(self, module: str) -> bool:
        return _in_packages(module, self.SCAN_PACKAGES)

    def visit(self, ctx: FileContext, node: ast.AST) -> None:
        if not isinstance(node, ast.ClassDef):
            return
        stateful = False
        defines = False
        for item in node.body:
            if not isinstance(item, ast.FunctionDef):
                continue
            if item.name == "__init__":
                stateful = _assigns_self_container(item)
            elif item.name == "ckpt_state":
                defines = True
        classes = ctx.run.scratch(self).setdefault("classes", {})
        # Keyed by bare name: base-chain references are bare names too.
        classes[node.name] = {
            "stateful": stateful,
            "defines": defines,
            "bases": [_base_name(b) for b in node.bases],
            "relpath": ctx.relpath,
            "line": node.lineno,
            "qualname": ctx.qualname_at([node.name]),
        }

    def _inherits(self, name: str, classes: dict, seen: set) -> bool:
        if name in seen or name not in classes:
            return False
        seen.add(name)
        info = classes[name]
        if info["defines"]:
            return True
        return any(self._inherits(base, classes, seen)
                   for base in info["bases"])

    def finalize(self, run: RunContext) -> None:
        classes = run.scratch(self).get("classes", {})
        for name, info in sorted(classes.items()):
            if not info["stateful"]:
                continue
            if not self._inherits(name, classes, set()):
                run.report(self, path=info["relpath"], line=info["line"],
                           qualname=info["qualname"],
                           message=f"stateful class {name} implements no "
                                   "ckpt_state (and inherits none from a "
                                   "scanned base)")


# ---------------------------------------------------------------------------
# D1: hash-order-dependent set iteration
# ---------------------------------------------------------------------------

#: Consumers whose result does not depend on iteration order, so feeding
#: them a set directly is deterministic.
_ORDER_FREE_CONSUMERS = {"set", "frozenset", "sorted", "sum", "min", "max",
                         "len", "any", "all", "Counter"}


class SetIterationRule(Rule):
    """No bare iteration over sets in simulator packages."""

    id = "D1"
    title = "set iteration in simulator code must be sorted"
    rationale = (
        "Set iteration order depends on element hashes; for str and most "
        "object keys that order is salted per process (PYTHONHASHSEED), "
        "and even for ints it depends on insertion history.  Any set "
        "iteration whose order reaches event scheduling, message "
        "ordering, or serialized state makes cycle counts and replay "
        "digests process-dependent -- the exact property the "
        "reproduction's bit-identical claims forbid.  Order-insensitive "
        "reductions (sorted/set/frozenset/sum/min/max/len/any/all) are "
        "exempt.")
    hint = ("wrap the iterable in sorted(...) -- cycle counts must not "
            "change; if they do, the iteration order was already "
            "load-bearing and that is the bug")
    subsystem = "simulator core"

    def scope(self, module: str) -> bool:
        return _in_packages(module, SIMULATOR_PACKAGES)

    # -- collection --------------------------------------------------------

    def _note_set_binding(self, ctx: FileContext, target: ast.AST,
                          value: Optional[ast.AST],
                          annotation: Optional[ast.AST]) -> None:
        is_set = False
        if value is not None:
            if isinstance(value, (ast.Set, ast.SetComp)):
                is_set = True
            elif (isinstance(value, ast.Call)
                  and isinstance(value.func, ast.Name)
                  and value.func.id in ("set", "frozenset")):
                is_set = True
        if annotation is not None and not is_set:
            text = ast.unparse(annotation)
            if re.search(r"\b([Ff]rozen[Ss]et|Set|set)\[", text):
                is_set = True
        if not is_set:
            return
        scratch = ctx.run.scratch(self)
        if isinstance(target, ast.Attribute):
            # Any attribute assigned a set anywhere in the scanned tree:
            # the attr name joins a tree-wide registry, so cross-module
            # uses (entry.sharers in memsys over proto's DirEntry) match.
            scratch.setdefault("set_attrs", set()).add(target.attr)
        elif isinstance(target, ast.Name):
            scratch.setdefault("set_names", set()).add(
                (ctx.module, ctx.qualname, target.id))

    def _exempt(self, ctx: FileContext, node: ast.AST) -> bool:
        """Iteration feeding an order-insensitive consumer."""
        if isinstance(node, ast.SetComp):
            return True  # the output is itself unordered
        if isinstance(node, (ast.GeneratorExp, ast.ListComp)):
            parent = ctx.parent()
            if (isinstance(parent, ast.Call)
                    and isinstance(parent.func, ast.Name)
                    and parent.func.id in _ORDER_FREE_CONSUMERS
                    and parent.args and parent.args[0] is node):
                return True
        return False

    def _candidate(self, ctx: FileContext, comp_or_for: ast.AST,
                   iterable: ast.AST) -> None:
        if isinstance(iterable, ast.Call) and isinstance(iterable.func,
                                                         ast.Name):
            if iterable.func.id == "sorted":
                return
            if iterable.func.id in ("set", "frozenset"):
                if not self._exempt(ctx, comp_or_for):
                    ctx.report(self, iterable,
                               f"iteration over {iterable.func.id}(...) "
                               "with order-dependent consumption")
                return
        if isinstance(iterable, ast.Set):
            if not self._exempt(ctx, comp_or_for):
                ctx.report(self, iterable,
                           "iteration over a set literal with "
                           "order-dependent consumption")
            return
        if self._exempt(ctx, comp_or_for):
            return
        scratch = ctx.run.scratch(self)
        if isinstance(iterable, ast.Name):
            scratch.setdefault("deferred", []).append({
                "kind": "name", "ident": iterable.id,
                "module": ctx.module, "scope": ctx.qualname,
                "relpath": ctx.relpath, "line": iterable.lineno,
                "qualname": ctx.qualname,
                "display": ctx.lines[iterable.lineno - 1].strip(),
            })
        elif isinstance(iterable, ast.Attribute):
            scratch.setdefault("deferred", []).append({
                "kind": "attr", "ident": iterable.attr,
                "module": ctx.module, "scope": ctx.qualname,
                "relpath": ctx.relpath, "line": iterable.lineno,
                "qualname": ctx.qualname,
                "display": ctx.lines[iterable.lineno - 1].strip(),
            })

    def visit(self, ctx: FileContext, node: ast.AST) -> None:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                self._note_set_binding(ctx, target, node.value, None)
        elif isinstance(node, ast.AnnAssign):
            self._note_set_binding(ctx, node.target, node.value,
                                   node.annotation)
        if isinstance(node, ast.For):
            self._candidate(ctx, node, node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for generator in node.generators:
                self._candidate(ctx, node, generator.iter)

    def finalize(self, run: RunContext) -> None:
        scratch = run.scratch(self)
        set_attrs = scratch.get("set_attrs", set())
        set_names = scratch.get("set_names", set())
        for cand in scratch.get("deferred", []):
            hit = False
            if cand["kind"] == "attr":
                hit = cand["ident"] in set_attrs
            else:
                hit = (((cand["module"], cand["scope"], cand["ident"])
                        in set_names)
                       or ((cand["module"], cand["module"], cand["ident"])
                           in set_names))
            if hit:
                run.report(
                    self, path=cand["relpath"], line=cand["line"],
                    qualname=cand["qualname"],
                    message=f"iteration over set-valued "
                            f"`{cand['ident']}` with order-dependent "
                            f"consumption: {cand['display']}")


# ---------------------------------------------------------------------------
# D2: ambient wall-clock / environment reads inside the machine
# ---------------------------------------------------------------------------

class AmbientReadRule(Rule):
    """No wall-clock or environment reads inside simulator packages."""

    id = "D2"
    title = "no wall-clock or os.environ reads inside the simulated machine"
    rationale = (
        "The machine's only clock is the event calendar, and its only "
        "configuration is the request.  A time.time/perf_counter/"
        "datetime.now or os.environ read inside engine/cpu/mem/memsys/"
        "proto/network/vm makes behaviour depend on the host process -- "
        "two runs of the same request stop being comparable, and replay "
        "digests stop being re-checkable.  Ambient configuration flows "
        "through repro.common (slots, config objects) and wall time "
        "belongs to the harness.")
    hint = ("thread the value through the request/config (or a "
            "repro.common slot installed by the harness); measure wall "
            "time in repro.harness, never in the machine")
    subsystem = "simulator core"

    FORBIDDEN_CALLS = {
        "time.time", "time.time_ns", "time.perf_counter",
        "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
        "time.process_time", "time.process_time_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
        "os.getenv", "os.environ.get",
    }
    FORBIDDEN_READS = {"os.environ", "os.environb"}

    def scope(self, module: str) -> bool:
        return _in_packages(module, AMBIENT_BANNED_PACKAGES)

    def visit(self, ctx: FileContext, node: ast.AST) -> None:
        if isinstance(node, ast.Call):
            dotted = ctx.resolve(node.func)
            if dotted in self.FORBIDDEN_CALLS:
                ctx.report(self, node,
                           f"ambient read {dotted}() inside the simulated "
                           f"machine: {ctx.lines[node.lineno - 1].strip()}")
        elif isinstance(node, ast.Attribute):
            dotted = ctx.resolve(node)
            if dotted in self.FORBIDDEN_READS:
                ctx.report(self, node,
                           f"ambient read of {dotted} inside the simulated "
                           f"machine: {ctx.lines[node.lineno - 1].strip()}")
        elif isinstance(node, ast.Name):
            dotted = ctx.resolve(node)
            if dotted in self.FORBIDDEN_CALLS | self.FORBIDDEN_READS:
                ctx.report(self, node,
                           f"ambient {dotted} reference inside the "
                           "simulated machine: "
                           f"{ctx.lines[node.lineno - 1].strip()}")


# ---------------------------------------------------------------------------
# D3: ambient-hook slot discipline
# ---------------------------------------------------------------------------

class HookSlotRule(Rule):
    """Ambient hook slots are read into a local and guarded, never called
    through the module attribute."""

    id = "D3"
    title = "hook slots: read into a local, guard, then call"
    rationale = (
        f"The ambient slots ({', '.join(AMBIENT_SLOTS)}: each one's "
        "`active`) can be swapped between any two statements by a "
        "context manager in another layer.  Calling through the module "
        "attribute (`obs_hooks.active.span(...)`) re-reads the slot per "
        "use: it crashes when the slot is None, tears when it changes "
        "mid-sequence, and costs an extra attribute load per event.  The "
        "sanctioned shape is one read into a local, one `is not None` "
        "guard, then calls on the local.")
    hint = ("hoist: `slot = obs_hooks.active` then "
            "`if slot is not None: slot.method(...)`")
    subsystem = "repro.obs / repro.sim"

    SLOTS = {f"{module}.active" for module in AMBIENT_SLOTS}

    def scope(self, module: str) -> bool:
        return _in_packages(module, SIMULATOR_PACKAGES)

    def visit(self, ctx: FileContext, node: ast.AST) -> None:
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            return
        dotted = ctx.resolve(node.func.value)
        if dotted in self.SLOTS:
            ctx.report(self, node,
                       f"hook slot {dotted} called through the module "
                       f"attribute: {ctx.lines[node.lineno - 1].strip()}")


# ---------------------------------------------------------------------------
# D4: id()-keyed ordering
# ---------------------------------------------------------------------------

class IdOrderingRule(Rule):
    """No id()-derived keys or ordering of simulated objects."""

    id = "D4"
    title = "no id()-keyed ordering of simulated objects"
    rationale = (
        "id() is a memory address: unique per process, unstable across "
        "processes, and reusable within one.  Keying, sorting, or "
        "deduplicating simulated objects by id() produces orderings "
        "that differ between the saving and restoring process, so "
        "checkpoints and replays silently diverge.  Simulated objects "
        "already carry stable identities (node index, chunk uid, name).")
    hint = ("key by the object's stable identity -- node index, uid, "
            "name -- never id()")
    subsystem = "simulator core"

    def scope(self, module: str) -> bool:
        return _in_packages(module, SIMULATOR_PACKAGES)

    def visit(self, ctx: FileContext, node: ast.AST) -> None:
        flagged = False
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "id" and "id" not in ctx.imports):
            flagged = True
        elif (isinstance(node, ast.keyword) and node.arg == "key"
              and isinstance(node.value, ast.Name)
              and node.value.id == "id"):
            # sorted(xs, key=id) / xs.sort(key=id)
            flagged = True
        if flagged:
            line = getattr(node, "lineno",
                           getattr(node.value, "lineno", 1)
                           if isinstance(node, ast.keyword) else 1)
            ctx.report(self, line,
                       f"id()-derived key on a simulated object: "
                       f"{ctx.lines[line - 1].strip()}")


# ---------------------------------------------------------------------------
# D5: host-clock confinement
# ---------------------------------------------------------------------------

class HostClockRule(Rule):
    """The host performance clock is read only by the observability and
    harness layers."""

    id = "D5"
    title = "host perf_counter reads are confined to repro.obs/repro.harness"
    rationale = (
        "Host-time measurement is an observability concern with exactly "
        "two sanctioned homes: repro.obs (`python -m repro.obs perf` "
        "times one whole run) and repro.harness (experiment wall "
        "timing).  A perf_counter call anywhere else in the tree either "
        "duplicates that machinery ad hoc -- unguarded, so it costs "
        "every run -- or creeps toward making simulated behaviour depend "
        "on host timing.  D2 already bans the machine's core packages; "
        "this rule closes the rest of the tree (sim, ckpt, validation, "
        "...), so 'where does the wall time go' has one answer: the "
        "outside-in per-layer trace of benchmarks/e2e, which times the "
        "model without editing it.")
    hint = ("time whole runs from repro.obs.cli or repro.harness; for "
            "per-layer host time run `python3 benchmarks/e2e/run.py`, "
            "which wraps the layer boundaries from outside the model")
    subsystem = "repro.obs"

    FORBIDDEN = {"time.perf_counter", "time.perf_counter_ns"}

    #: The two layers that own the host clock.
    ALLOWED_PACKAGES = ("repro.obs", "repro.harness")

    def scope(self, module: str) -> bool:
        return (_in_packages(module, ("repro",))
                and not _in_packages(module, self.ALLOWED_PACKAGES))

    def visit(self, ctx: FileContext, node: ast.AST) -> None:
        if isinstance(node, ast.Call):
            dotted = ctx.resolve(node.func)
            if dotted in self.FORBIDDEN:
                ctx.report(self, node,
                           f"host clock read {dotted}() outside "
                           "repro.obs/repro.harness: "
                           f"{ctx.lines[node.lineno - 1].strip()}")
        elif isinstance(node, ast.Name):
            dotted = ctx.resolve(node)
            if dotted in self.FORBIDDEN:
                ctx.report(self, node,
                           f"host clock reference {dotted} outside "
                           "repro.obs/repro.harness: "
                           f"{ctx.lines[node.lineno - 1].strip()}")


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

REGISTRY: Tuple[Rule, ...] = (
    HotPathGuardRule(),
    ImportBanRule(),
    CkptCoverageRule(),
    SetIterationRule(),
    AmbientReadRule(),
    HookSlotRule(),
    IdOrderingRule(),
    HostClockRule(),
)

RULES_BY_ID: Dict[str, Rule] = {rule.id: rule for rule in REGISTRY}


def select_rules(ids: Optional[Sequence[str]]) -> List[Rule]:
    """The registry subset for *ids* (``None`` selects everything)."""
    if ids is None:
        return list(REGISTRY)
    unknown = [i for i in ids if i not in RULES_BY_ID]
    if unknown:
        raise KeyError(
            f"unknown rule id(s) {', '.join(unknown)}; known: "
            f"{', '.join(RULES_BY_ID)}")
    return [RULES_BY_ID[i] for i in ids]
