"""The distributed-shared-memory transaction engine.

One engine serves as both of the paper's memory-system simulators:

* **FlashLite** -- ``DsmParams.contention`` on: every transaction
  queues for the MAGIC protocol processor at its home (and at
  owners/sharers) and for router ports along its network path.
* **NUMA** -- off: the same protocol state machine (coherence must still
  be *correct*) but controller handling and network hops become pure
  latencies.  Memory (DRAM) contention is modelled in both, matching the
  paper's description of the NUMA model.

A transaction is a plan, not a coroutine: a :class:`Transaction` walks
precomputed stage tables (:class:`repro.engine.Steps`) -- the fixed runs
of waits between the protocol's decision points, built once per phase
and the nodes it waits at, and shared -- through the five protocol read
cases of Table 3 (plus writes, upgrades, and writebacks).  The decisions
(directory state at the home, the owner's copy) and the protocol
actions between waits are the plans' ``CALL`` stages.  Racing
transactions on the same line serialize on the directory entry's
``busy`` waiter list, standing in for MAGIC's pending states.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.errors import ConfigurationError, ProtocolError
from repro.common.stats import StatsRegistry
from repro.engine import Engine, Steps
from repro.engine.resources import AGAIN, CALL, FINISH
from repro.mem.address import home_node
from repro.mem.cache import MODIFIED, SHARED as CACHE_SHARED
from repro.memsys.params import (
    DsmParams,
    LOCAL_CLEAN,
    LOCAL_DIRTY_REMOTE,
    REMOTE_CLEAN,
    REMOTE_DIRTY_HOME,
    REMOTE_DIRTY_REMOTE,
)
from repro.network.fabric import Network
from repro.obs import hooks as obs_hooks
from repro.proto.directory import DIRTY, SHARED
from repro.proto.magic import MagicController


class MemKind:
    """Transaction kinds issued by the processor side."""

    READ = "read"            #: load / instruction / shared prefetch miss
    WRITE = "write"          #: store miss (read-exclusive)
    UPGRADE = "upgrade"      #: store hit on a SHARED line
    WRITEBACK = "writeback"  #: dirty eviction (fire-and-forget)

    ALL = (READ, WRITE, UPGRADE, WRITEBACK)


class Transaction(Steps):
    """One walk through the memory system: a demand transaction, a
    writeback, an invalidation round trip or a sharing writeback.  The
    event fires with the completion time."""

    __slots__ = ("node", "home", "paddr", "line", "kind", "entry", "start",
                 "case", "owner", "write", "fill", "acks")

    def __init__(self, env: Engine, stages: tuple, node: int, home: int,
                 paddr: int, kind: str, line: int, txn=None):
        Steps.__init__(self, env, stages, txn)
        self.node = node
        self.home = home
        self.paddr = paddr
        self.kind = kind
        self.line = line
        self.entry = None
        self.case = None
        self.write = kind == MemKind.WRITE
        self.acks = None


class DsmMemorySystem:
    """Everything beyond the processor and its caches (like FlashLite)."""

    def __init__(self, env: Engine, n_nodes: int, params: DsmParams,
                 line_bytes: int, registry: Optional[StatsRegistry] = None):
        self.env = env
        self.n_nodes = n_nodes
        self.line_shift = line_bytes.bit_length() - 1
        if 1 << self.line_shift != line_bytes:
            raise ConfigurationError("line_bytes must be a power of two")
        registry = registry or StatsRegistry()
        self.stats = registry.counter_set("memsys")
        # Transactions are the hottest path: they bump the counters in
        # place (first-touch order kept) under precomputed labels.
        self._counters = self.stats._counters
        self._req_label = {kind: f"req_{kind}" for kind in MemKind.ALL}
        self._case_label = {}
        self._case_latency_label = {}
        for case in (LOCAL_CLEAN, LOCAL_DIRTY_REMOTE, REMOTE_CLEAN,
                     REMOTE_DIRTY_HOME, REMOTE_DIRTY_REMOTE):
            self._case_label[case] = f"case_{case}"
            self._case_latency_label[case] = f"latency_ps_{case}"
        self.net = Network(env, n_nodes, params.net,
                           model_contention=params.contention)
        self.magic: List[MagicController] = [
            MagicController(env, node, params.pp_occ_fraction,
                            model_occupancy=params.contention)
            for node in range(n_nodes)
        ]
        self._hooks: Dict[int, object] = {}
        self.reconfigure(params)

    def reconfigure(self, params: DsmParams) -> None:
        """Time every transaction from now on by *params*, fabric and
        MAGIC included; stage tables built before are dropped.  Whether
        MAGIC occupancy and link contention are modelled at all
        (``params.contention``) is fixed at construction."""
        self.params = params
        self.net.reconfigure(params.net)
        for magic in self.magic:
            magic.reconfigure(params.pp_occ_fraction)
        self._plans: Dict[tuple, tuple] = {}
        self._stages: Dict[tuple, tuple] = {}

    # -- wiring ----------------------------------------------------------

    def attach(self, node: int, hook) -> None:
        """Register the processor-side hook of *node*.

        The hook must provide ``l2_peek(line)``, ``l2_downgrade(line)``,
        ``l2_invalidate(line)`` and ``l2_fill(line, state)``.
        """
        self._hooks[node] = hook

    # -- public request API ------------------------------------------------

    def request(self, node: int, paddr: int, kind: str, txn=None):
        """Start a transaction; the returned event fires with completion ps.

        *txn* is an optional :class:`repro.obs.txn.TxnRecord` opened by
        the issuing side (demand misses); when it is None and a txn
        recorder is observing, the transaction opens its own record
        (victim writebacks, direct test calls).
        """
        home = home_node(paddr)
        return Transaction(self.env, self._plan(
                               ("head", kind == MemKind.WRITEBACK, node, home)),
                           node, home, paddr, kind, paddr >> self.line_shift,
                           txn)

    # -- plans -------------------------------------------------------------
    #
    # Segment accounting (repro.obs.txn): time only advances across
    # waits, so every critical-path wait names the segment it is charged
    # to -- the segments partition the end-to-end latency and the
    # residual is zero by construction.  The cuts with no single wait to
    # ride are in the CALL stages: ``begin``/``close``, the all-wait
    # ``dir_busy`` cut after the busy retries, the all-wait
    # ``inval_wait`` cut, and the fan-out width.  Off-critical-path walks
    # (invalidation round trips, sharing writebacks) are deliberately
    # *not* recorded: their overlap with the dram access is already
    # excluded, and only the non-overlapped remainder surfaces, as
    # ``inval_wait``.

    def _plan(self, key: tuple) -> tuple:
        """The stage table named *key*, built on first use; equal stages
        of different tables are one object (the tables are many)."""
        stages = self._plans.get(key)
        if stages is None:
            shared = self._stages
            stages = self._plans[key] = tuple(
                shared.setdefault(stage, stage) for stage in self._build(*key))
        return stages

    def _build(self, what: str, *args) -> tuple:
        """One phase of a transaction, between two decision points.

        A phase is keyed by the nodes it waits at, and no more: what
        follows a decision (the data's trip to the requester, the reply)
        is a phase of its own, reached by ``goto``, so the tables grow
        with the pairs of nodes that talk, not with their triples.
        """
        p = self.params
        pp = lambda node, hold, label, seg=None: (
            self.magic[node].pp_stages(hold, label, seg))
        send = self.net.send_stages
        dram = lambda node, seg=None: ((self.magic[node].dram, p.dram_ps,
                                        seg),)
        call = lambda fn: ((CALL, fn, None),)
        if what == "head":
            # Processor pins -> (requester MAGIC -> network ->) home,
            # through the line's busy gate and the home handler.
            wb, node, home = args
            stages = call(self._begin_writeback if wb else self._begin)
            stages += ((None, p.bus_ps, "bus_req"),)
            if home != node:
                stages += pp(node, p.pp_out_ps, "out", "pp_out")
                stages += send(node, home,
                               p.data_flits if wb else p.req_flits,
                               "net_req")
            stages += call(self._gate)
            if wb:
                return (stages + pp(home, p.pp_wb_ps, "wb", "pp_wb")
                        + dram(home, "dram") + call(self._written_back)
                        + (FINISH,))
            return stages + pp(home, p.pp_home_ps, "home",
                               "pp_home") + call(self._decide)
        if what == "clean":
            # Memory supplies the data; a write invalidates the sharers.
            write, case, home = args
            stages = pp(home, max(0, p.pp_mem_ps + p.extra(case)), "mem",
                        "pp_mem")
            if write:
                stages += (call(self._fan_out) + dram(home, "dram")
                           + call(self._await_acks) + call(self._acks_in))
            else:
                stages += dram(home, "dram")
            return stages + call(self._clean_done)
        if what == "dirty":
            case, home = args
            return (pp(home, max(0, p.pp_redirect_ps + p.extra(case)),
                       "redirect", "pp_redirect") + call(self._peek_owner))
        if what == "race":
            # The owner's writeback is in flight: fall back to memory.
            home, = args
            return dram(home, "dram") + call(self._race_done)
        if what == "intervene":
            home, owner = args
            stages = ()
            if owner != home:
                stages += (send(home, owner, p.req_flits, "net_fwd")
                           + pp(owner, p.pp_ivn_ps, "ivn", "pp_owner"))
            # Data extraction through the owner R10000's secondary cache.
            return stages + ((None, p.owner_cache_ps, "owner_cache"),) + call(
                self._intervened)
        if what == "data":
            # The data from *src* to the requester, then its fill.
            src, node = args
            stages = (send(src, node, p.data_flits, "net_reply")
                      if src != node else ())
            return stages + call(self._filled)
        if what == "upgrade":
            home, = args
            return (pp(home, p.pp_mem_ps, "upgrade", "pp_upgrade")
                    + call(self._fan_out) + call(self._await_acks)
                    + call(self._acks_in) + call(self._upgraded))
        if what == "reply":
            # Reply delivery at the requester MAGIC (remote replies and
            # owner-forwarded data pass through it; a purely local memory
            # reply does not).
            node, through_magic = args
            stages = (pp(node, p.pp_reply_ps, "reply", "pp_reply")
                      if through_magic else ())
            return (stages + ((None, p.bus_ps, "bus_reply"),)
                    + call(self._close) + (FINISH,))
        if what == "inval":
            # Invalidation round trip home -> sharer -> home (ack).
            home, sharer = args
            return (call(self._inval_sent)
                    + send(home, sharer, p.req_flits)
                    + pp(sharer, p.pp_inval_ps, "inval")
                    + call(self._invalidate)
                    + send(sharer, home, p.req_flits) + (FINISH,))
        if what == "shwb":
            # Sharing writeback to home memory, off the critical path.
            owner, home = args
            stages = (send(owner, home, p.data_flits)
                      if owner != home else ())
            return (stages + pp(home, p.pp_wb_ps, "shwb") + dram(home)
                    + (FINISH,))
        raise ProtocolError(f"no plan {what!r}")

    # -- CALL stages: the protocol between the waits ---------------------

    def _begin(self, t: Transaction) -> None:
        txn = t.txn
        if txn is None:
            probe = obs_hooks.active
            if probe is not None:
                t.txn = txn = probe.open_txn(t.node, t.paddr, t.kind)
        t.start = self.env.now
        if txn is not None:
            txn.begin(t.start)
        self._counters[self._req_label[t.kind]] += 1.0

    def _begin_writeback(self, t: Transaction) -> None:
        """Dirty eviction: the issuing processor does not wait (its
        write buffer tracks completion)."""
        probe = obs_hooks.active
        if probe is not None:
            if t.txn is None:
                t.txn = probe.open_txn(t.node, t.paddr, MemKind.WRITEBACK,
                                       "eviction")
            probe.mem_access(t.node, t.home, t.paddr, MemKind.WRITEBACK)
        if t.txn is not None:
            t.txn.begin(self.env.now)
        self._counters["req_writeback"] += 1.0

    def _gate(self, t: Transaction) -> bool:
        """Wait out a racing transaction on the line, then own it."""
        entry = t.entry
        if entry is None:
            t.entry = entry = self.magic[t.home].directory.entry(t.line)
        waiting = entry.busy
        if waiting is not None:
            if t.kind != MemKind.WRITEBACK:
                self._counters["line_busy_waits"] += 1.0
            waiting.append(t._wake)
            return AGAIN        # check again when woken
        if t.txn is not None:
            t.txn.cut_wait("dir_busy", self.env.now)
        entry.busy = []
        return False

    def _release(self, t: Transaction) -> None:
        entry = t.entry
        waiting, entry.busy = entry.busy, None
        defer = self.env._defer
        for wake in waiting:
            defer((wake, None))

    def _decide(self, t: Transaction) -> None:
        """At the home, after the directory lookup: pick the case."""
        entry = t.entry
        node, home = t.node, t.home
        if t.kind == MemKind.UPGRADE:
            if entry.state == SHARED and node in entry.sharers:
                t.case = LOCAL_CLEAN if home == node else REMOTE_CLEAN
                t.goto(self._plan(("upgrade", home)))
                return
            # Raced: our copy was invalidated while the upgrade was in
            # flight; escalate to a full read-exclusive.
            self._counters["upgrade_races"] += 1.0
            t.write = True
        if entry.state == DIRTY and entry.owner != node:
            # Directory DIRTY at another node: intervene at the owner.
            t.owner = owner = entry.owner
            if home == node:
                t.case = LOCAL_DIRTY_REMOTE
            elif owner == home:
                t.case = REMOTE_DIRTY_HOME
            else:
                t.case = REMOTE_DIRTY_REMOTE
            t.goto(self._plan(("dirty", t.case, home)))
        else:
            # UNOWNED/SHARED (or the requester already owns it).
            t.case = LOCAL_CLEAN if home == node else REMOTE_CLEAN
            t.goto(self._plan(("clean", t.write, t.case, home)))

    def _fan_out(self, t: Transaction) -> None:
        """A write to a SHARED line: invalidate the other sharers."""
        entry = t.entry
        if entry.state != SHARED:
            return
        # Sorted so invalidation fan-out order never depends on set
        # iteration order (replay digests must be process-independent).
        others = sorted(s for s in entry.sharers if s != t.node)
        if others:
            if t.txn is not None:
                t.txn.inval_fanout = len(others)
            home, line = t.home, t.line
            t.acks = self.env.all_of([
                Transaction(self.env, self._plan(("inval", home, sharer)),
                            sharer, home, line << self.line_shift,
                            MemKind.WRITE, line)
                for sharer in others])

    def _await_acks(self, t: Transaction) -> bool:
        """Wait for the invalidation acks, if any are outstanding."""
        return t.acks is not None and t.wait(t.acks)

    def _acks_in(self, t: Transaction) -> None:
        if t.acks is not None:
            t.acks = None
            if t.txn is not None:
                t.txn.cut_wait("inval_wait", self.env.now)

    def _clean_done(self, t: Transaction) -> None:
        directory = self.magic[t.home].directory
        if t.write:
            directory.set_dirty(t.line, t.node)
            t.fill = MODIFIED
        else:
            if t.entry.state == DIRTY:  # requester re-reads its dirty line
                directory.clear(t.line)
            directory.add_sharer(t.line, t.node)
            t.fill = CACHE_SHARED
        t.goto(self._plan(("data", t.home, t.node)))

    def _peek_owner(self, t: Transaction) -> None:
        if self._hooks[t.owner].l2_peek(t.line) != MODIFIED:
            self._counters["race_to_memory"] += 1.0
            t.goto(self._plan(("race", t.home)))
        else:
            t.goto(self._plan(("intervene", t.home, t.owner)))

    def _race_done(self, t: Transaction) -> None:
        directory = self.magic[t.home].directory
        if t.write:
            directory.set_dirty(t.line, t.node)
            t.fill = MODIFIED
        else:
            directory.clear(t.line)
            directory.add_sharer(t.line, t.node)
            t.fill = CACHE_SHARED
        t.goto(self._plan(("data", t.home, t.node)))

    def _intervened(self, t: Transaction) -> None:
        directory = self.magic[t.home].directory
        hook = self._hooks[t.owner]
        if t.write:
            hook.l2_invalidate(t.line)
            directory.set_dirty(t.line, t.node)
            t.fill = MODIFIED
        else:
            hook.l2_downgrade(t.line)
            directory.clear(t.line)
            directory.add_sharer(t.line, t.owner)
            directory.add_sharer(t.line, t.node)
            t.fill = CACHE_SHARED
            Transaction(self.env, self._plan(("shwb", t.owner, t.home)),
                        t.owner, t.home, t.paddr, MemKind.WRITEBACK, t.line)
        t.goto(self._plan(("data", t.owner, t.node)))

    def _upgraded(self, t: Transaction) -> None:
        self.magic[t.home].directory.set_dirty(t.line, t.node)
        self._fill(t.node, t.line, MODIFIED)
        self._counters["upgrades_clean"] += 1.0
        self._reply(t)

    def _filled(self, t: Transaction) -> None:
        self._fill(t.node, t.line, t.fill)
        self._reply(t)

    def _reply(self, t: Transaction) -> None:
        self._release(t)
        t.goto(self._plan(("reply", t.node, t.case != LOCAL_CLEAN)))

    def _close(self, t: Transaction) -> None:
        now = self.env.now
        latency = now - t.start
        case = t.case
        self._counters[self._case_label[case]] += 1.0
        self._counters[self._case_latency_label[case]] += latency
        probe = obs_hooks.active
        if probe is not None:
            probe.mem_access(t.node, t.home, t.paddr, t.kind, t.start,
                             latency, case)
        txn = t.txn
        if txn is not None:
            txn.close(now, case)
            if probe is not None:
                probe.commit_txn(txn)

    def _written_back(self, t: Transaction) -> None:
        """Home memory is updated: the directory forgets the writer --
        unless the writer holds the line again (its later request
        overtook this writeback), when the entry is already current."""
        entry = t.entry
        directory = self.magic[t.home].directory
        if self._hooks[t.node].l2_peek(t.line) is None:
            if entry.state == DIRTY and entry.owner == t.node:
                directory.clear(t.line)
            elif entry.state == SHARED:
                directory.drop_sharer(t.line, t.node)
        self._release(t)
        txn = t.txn
        if txn is not None:
            txn.close(self.env.now, None)
            probe = obs_hooks.active
            if probe is not None:
                probe.commit_txn(txn)

    def _inval_sent(self, t: Transaction) -> None:
        self._counters["invalidations_sent"] += 1.0

    def _invalidate(self, t: Transaction) -> None:
        hook = self._hooks.get(t.node)
        if hook is not None:
            hook.l2_invalidate(t.line)

    # -- helpers -----------------------------------------------------------------

    def _fill(self, node: int, line: int, state: str) -> None:
        hook = self._hooks.get(node)
        if hook is None:
            raise ProtocolError(f"no processor hook attached at node {node}")
        hook.l2_fill(line, state)

    def directory_of(self, paddr: int):
        """The directory entry governing *paddr* (tests / debugging)."""
        return self.magic[home_node(paddr)].directory.peek(
            paddr >> self.line_shift
        )

    def snapshot(self) -> dict:
        """Transaction counters, the fabric, and every node's MAGIC, as
        JSON-able data with every order kept."""
        return {
            "stats": self.stats.snapshot(),
            "net": self.net.snapshot(),
            "magic": [magic.snapshot() for magic in self.magic],
        }
