"""The rule registry: contract checks (L1-L2) and determinism hazards
(D1-D5), and the deliberate exceptions to them (``ALLOW``).

The L rules pin the subsystem contracts; the D rules guard the property
the whole reproduction stands on -- bit-identical replay -- at its weakest
points.  Seven rules, four mechanisms: L2, D2, D3 and D5 are one check
-- *this dotted name may not be imported / referenced / called through
in these packages* -- so they are four :class:`BanRule` tables of
:class:`Ban` rows.  Scopes are dotted-module based so the same registry
runs over the live tree and over the fixture mini-package in
``tests/lint_fixtures/``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.lint.engine import FileContext, Rule, Violation, _in_packages
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

#: Deliberate exceptions: ``"rule-id:qualname"`` -- the violation's exact
#: dotted scope (module + class/function chain), or the bare module for
#: the whole file -- to the reason.  A blank reason is an error (an
#: allowlist without reasons decays into a mute button) and an entry
#: that stops suppressing anything is an A0 violation.  The live tree
#: needs none today.
ALLOW: Dict[str, str] = {}


# -- L1: hot-path tracer guards -----------------------------------------------

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


# -- L2, D2, D3, D5: dotted names banned from packages ------------------------

@dataclass(frozen=True)
class Ban:
    """One row of a :class:`BanRule`: none of *names* may be *how* in
    *packages* (outside *allowed*)."""

    names: Tuple[str, ...]      #: dotted origins; each bans all under it
    #: ``"imported"`` (named by an import statement), ``"referenced"`` (an
    #: attribute chain or name resolves to it) or ``"called through"`` (a
    #: method is called on it).
    how: str
    packages: Tuple[str, ...]
    what: str                   #: closes the message: "... {how} {what}"
    allowed: Tuple[str, ...] = ()
    hint: Optional[str] = None  #: overrides the rule's hint for this row

    def applies(self, module: str) -> bool:
        return (_in_packages(module, self.packages)
                and not _in_packages(module, self.allowed))


class BanRule(Rule):
    """Dotted names that may not be imported, referenced or called
    through in some packages: one table of :class:`Ban` rows."""

    def __init__(self, id: str, title: str, subsystem: str, rationale: str,
                 hint: str, bans: Sequence[Ban]):
        self.id = id
        self.title = title
        self.subsystem = subsystem
        self.rationale = rationale
        self.hint = hint
        self.bans = tuple(bans)

    def scope(self, module: str) -> bool:
        return any(ban.applies(module) for ban in self.bans)

    def visit(self, ctx: FileContext, node: ast.AST) -> None:
        if isinstance(node, ast.Import):
            uses = [("imported", alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ctx.import_base(node)
            uses = [("imported", f"{base}.{alias.name}" if base
                     else alias.name) for alias in node.names]
        elif isinstance(node, (ast.Attribute, ast.Name)):
            uses = [("referenced", ctx.resolve(node))]
            parent = ctx.node_stack[-1]
            if (isinstance(node, ast.Attribute)
                    and isinstance(parent, ast.Call) and parent.func is node):
                uses.append(("called through", ctx.resolve(node.value)))
        else:
            return
        for how, dotted in uses:
            if dotted is None:  # most names: not an import's binding
                continue
            for ban in self.bans:
                if (how == ban.how and _in_packages(dotted, ban.names)
                        and ban.applies(ctx.module)):
                    ctx.report(self, node,
                               f"{dotted} {how} {ban.what}: "
                               f"{ctx.lines[node.lineno - 1].strip()}",
                               hint=ban.hint)


def _use_slot(slot: str) -> str:
    return ("use the slot instead: the models reach "
            f"{AMBIENT_SLOTS[slot]} through the guarded {slot}.active")


IMPORT_BANS = BanRule(
    id="L2",
    title="model code must not import harness-side subsystems",
    subsystem="repro.obs",
    rationale=(
        "The models' only channels to observability and the farm are "
        f"the ambient slots ({', '.join(AMBIENT_SLOTS)}): one attribute "
        "read and a None test when disabled.  Importing the subsystems "
        "themselves couples reference semantics to optional machinery "
        "and re-introduces cost and cycles into the dependency graph."),
    hint=("reach the subsystem through its sanctioned slot instead: "
          + ", ".join(f"{module} ({what})"
                      for module, what in AMBIENT_SLOTS.items())),
    bans=(
        Ban(("repro.obs.metrics",), "imported",
            ("repro.cpu", "repro.mem", "repro.engine"),
            "in model code", hint=_use_slot("repro.sim.farm_hooks")),
        Ban(("repro.obs.topo",), "imported",
            ("repro.cpu", "repro.mem", "repro.engine", "repro.memsys",
             "repro.network"),
            "in model code", hint=_use_slot("repro.obs.hooks")),
        Ban(("repro.obs.txn",), "imported",
            ("repro.cpu", "repro.mem", "repro.memsys", "repro.proto",
             "repro.network", "repro.engine"),
            "in model code", hint=_use_slot("repro.obs.hooks")),
    ))

AMBIENT_READS = BanRule(
    id="D2",
    title="no wall-clock or os.environ reads inside the simulated machine",
    subsystem="simulator core",
    rationale=(
        "The machine's only clock is the event calendar, and its only "
        "configuration is the request.  A time.time/perf_counter/"
        "datetime.now or os.environ read inside engine/cpu/mem/memsys/"
        "proto/network/vm makes behaviour depend on the host process -- "
        "two runs of the same request stop being comparable, and replay "
        "digests stop being re-checkable.  Ambient configuration flows "
        "through repro.common (slots, config objects) and wall time "
        "belongs to the harness."),
    hint=("thread the value through the request/config (or a "
          "repro.common slot installed by the harness); measure wall "
          "time in repro.harness, never in the machine"),
    bans=(
        Ban(("time.time", "time.time_ns", "time.perf_counter",
             "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
             "time.process_time", "time.process_time_ns",
             "datetime.datetime.now", "datetime.datetime.utcnow",
             "datetime.datetime.today", "datetime.date.today",
             "os.getenv", "os.environ.get", "os.environ", "os.environb"),
            "referenced", AMBIENT_BANNED_PACKAGES,
            "inside the simulated machine"),
    ))

HOOK_SLOTS = BanRule(
    id="D3",
    title="hook slots: read into a local, guard, then call",
    subsystem="repro.obs / repro.sim",
    rationale=(
        f"The ambient slots ({', '.join(AMBIENT_SLOTS)}: each one's "
        "`active`) can be swapped between any two statements by a "
        "context manager in another layer.  Calling through the module "
        "attribute (`obs_hooks.active.span(...)`) re-reads the slot per "
        "use: it crashes when the slot is None, tears when it changes "
        "mid-sequence, and costs an extra attribute load per event.  The "
        "sanctioned shape is one read into a local, one `is not None` "
        "guard, then calls on the local."),
    hint=("hoist: `slot = obs_hooks.active` then "
          "`if slot is not None: slot.method(...)`"),
    bans=(
        Ban(tuple(f"{module}.active" for module in AMBIENT_SLOTS),
            "called through", SIMULATOR_PACKAGES,
            "the module attribute (a hook slot)"),
    ))

HOST_CLOCK = BanRule(
    id="D5",
    title="host perf_counter reads are confined to repro.obs/repro.harness",
    subsystem="repro.obs",
    rationale=(
        "Host-time measurement is an observability concern with exactly "
        "two sanctioned homes: repro.obs (`python -m repro.obs perf` "
        "times one whole run) and repro.harness (experiment wall "
        "timing).  A perf_counter call anywhere else in the tree either "
        "duplicates that machinery ad hoc -- unguarded, so it costs "
        "every run -- or creeps toward making simulated behaviour depend "
        "on host timing.  D2 already bans the machine's core packages; "
        "this rule closes the rest of the tree (sim, validation, "
        "...), so 'where does the wall time go' has one answer: the "
        "outside-in per-layer trace of benchmarks/e2e, which times the "
        "model without editing it."),
    hint=("time whole runs from repro.obs.cli or repro.harness; for "
          "per-layer host time run `python3 benchmarks/e2e/run.py`, "
          "which wraps the layer boundaries from outside the model"),
    bans=(
        Ban(("time.perf_counter", "time.perf_counter_ns"), "referenced",
            ("repro",), "outside repro.obs/repro.harness",
            allowed=("repro.obs", "repro.harness")),
    ))


# -- D1: hash-order-dependent set iteration -----------------------------------

def _bare_name(node: ast.AST) -> str:
    """``x`` of the name ``x`` or the attribute chain ``a.b.x``."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else ""


#: Consumers whose result does not depend on iteration order, so feeding
#: them a set directly is deterministic.
_ORDER_FREE_CONSUMERS = {"set", "frozenset", "sorted", "sum", "min", "max",
                         "len", "any", "all", "Counter"}


def _called(node: Optional[ast.AST]) -> Optional[str]:
    """``f`` when *node* is the call ``f(...)`` of a plain name."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id
    return None


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
    packages = SIMULATOR_PACKAGES

    def __init__(self) -> None:
        #: Everything bound to a set anywhere in the scanned tree: a name
        #: as (module, scope qualname, name); an attribute as (None, None,
        #: attr) -- tree-wide, so cross-module uses (entry.sharers in
        #: memsys over proto's DirEntry) match.
        self._sets: set = set()
        #: Iterations over a bare name or attribute, judged in finalize
        #: once every binding is known: (the bindings that would make it
        #: a set, the violation to raise if one exists).
        self._deferred: List[Tuple[list, Violation]] = []

    def _note_set_binding(self, ctx: FileContext, target: ast.AST,
                          value: Optional[ast.AST],
                          annotation: Optional[ast.AST]) -> None:
        is_set = (isinstance(value, (ast.Set, ast.SetComp))
                  or _called(value) in ("set", "frozenset"))
        if annotation is not None and not is_set:
            is_set = bool(re.search(r"\b([Ff]rozen[Ss]et|Set|set)\[",
                                    ast.unparse(annotation)))
        if is_set and isinstance(target, ast.Attribute):
            self._sets.add((None, None, target.attr))
        elif is_set and isinstance(target, ast.Name):
            self._sets.add((ctx.module, ctx.qualname, target.id))

    def _exempt(self, ctx: FileContext, node: ast.AST) -> bool:
        """Iteration feeding an order-insensitive consumer."""
        if isinstance(node, ast.SetComp):
            return True  # the output is itself unordered
        parent = ctx.node_stack[-1]
        return (isinstance(node, (ast.GeneratorExp, ast.ListComp))
                and _called(parent) in _ORDER_FREE_CONSUMERS
                and bool(parent.args) and parent.args[0] is node)

    def _candidate(self, ctx: FileContext, comp_or_for: ast.AST,
                   iterable: ast.AST) -> None:
        called = _called(iterable)
        if called == "sorted" or self._exempt(ctx, comp_or_for):
            return
        if called in ("set", "frozenset"):
            ctx.report(self, iterable,
                       f"iteration over {called}(...) with "
                       "order-dependent consumption")
        elif isinstance(iterable, ast.Set):
            ctx.report(self, iterable,
                       "iteration over a set literal with "
                       "order-dependent consumption")
        elif isinstance(iterable, (ast.Name, ast.Attribute)):
            ident = _bare_name(iterable)
            bindings = ([(None, None, ident)]
                        if isinstance(iterable, ast.Attribute) else
                        [(ctx.module, ctx.qualname, ident),
                         (ctx.module, ctx.module, ident)])
            self._deferred.append((bindings, Violation(
                self.id, ctx.relpath, iterable.lineno, ctx.qualname,
                f"iteration over set-valued `{ident}` with order-dependent "
                f"consumption: {ctx.lines[iterable.lineno - 1].strip()}",
                self.hint)))

    def visit(self, ctx: FileContext, node: ast.AST) -> None:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                self._note_set_binding(ctx, target, node.value, None)
        elif isinstance(node, ast.AnnAssign):
            self._note_set_binding(ctx, node.target, node.value,
                                   node.annotation)
        elif isinstance(node, ast.For):
            self._candidate(ctx, node, node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for generator in node.generators:
                self._candidate(ctx, node, generator.iter)

    def finalize(self) -> Iterable[Violation]:
        found = [violation for bindings, violation in self._deferred
                 if any(binding in self._sets for binding in bindings)]
        self._sets.clear()
        self._deferred.clear()
        return found


# -- D4: id()-keyed ordering --------------------------------------------------

class IdOrderingRule(Rule):
    """No id()-derived keys or ordering of simulated objects."""

    id = "D4"
    title = "no id()-keyed ordering of simulated objects"
    rationale = (
        "id() is a memory address: unique per process, unstable across "
        "processes, and reusable within one.  Keying, sorting, or "
        "deduplicating simulated objects by id() produces orderings "
        "that differ between two processes, so replays and the digests "
        "that compare them silently diverge.  Simulated objects "
        "already carry stable identities (node index, chunk uid, name).")
    hint = ("key by the object's stable identity -- node index, uid, "
            "name -- never id()")
    subsystem = "simulator core"
    packages = SIMULATOR_PACKAGES

    def visit(self, ctx: FileContext, node: ast.AST) -> None:
        # id(x) itself, or sorted(xs, key=id) / xs.sort(key=id)
        if ((_called(node) == "id" and "id" not in ctx.imports)
                or (isinstance(node, ast.keyword) and node.arg == "key"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "id")):
            ctx.report(self, node,
                       f"id()-derived key on a simulated object: "
                       f"{ctx.lines[node.lineno - 1].strip()}")


# -- registry -----------------------------------------------------------------

REGISTRY: Tuple[Rule, ...] = (
    HotPathGuardRule(),
    IMPORT_BANS,
    SetIterationRule(),
    AMBIENT_READS,
    HOOK_SLOTS,
    IdOrderingRule(),
    HOST_CLOCK,
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
