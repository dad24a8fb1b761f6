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
    DATA_FLITS,
    DsmParams,
    LOCAL_CLEAN,
    LOCAL_DIRTY_REMOTE,
    REMOTE_CLEAN,
    REMOTE_DIRTY_HOME,
    REMOTE_DIRTY_REMOTE,
    REQ_FLITS,
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
        # ``Steps.__init__`` and ``Event.__init__``, inline: a walk is
        # built per transaction.
        self.env = env
        self.value = None
        self._fired = False
        self._failed = None
        self._waiters = []
        self.txn = txn
        self._plan = stages
        self._at = 0
        self._seg = None
        self.note = None
        self._wake = wake = self._walk
        env._defer((wake, None))
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
        #: Whether plans carry the probe's stages (:meth:`watch`); the
        #: network and MAGIC start from the same probe.
        self.observed = obs_hooks.active is not None
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
        self._stages: Dict[tuple, tuple] = {}
        # One table per phase, indexed by what its plan depends on and
        # filled on first use (:meth:`_phase`); see :meth:`_build`.
        n = self.n_nodes
        row = lambda: [None] * n
        grid = lambda: [row() for _ in range(n)]
        demand = grid()
        self._head = {MemKind.READ: demand, MemKind.WRITE: demand,
                      MemKind.UPGRADE: demand, MemKind.WRITEBACK: grid()}
        self._clean = {case: (row(), row())
                       for case in (LOCAL_CLEAN, REMOTE_CLEAN)}
        self._dirty = {case: row() for case in (
            LOCAL_DIRTY_REMOTE, REMOTE_DIRTY_HOME, REMOTE_DIRTY_REMOTE)}
        self._upgrade = row()
        self._race = row()
        self._intervene = grid()
        self._data = grid()
        self._reply_via = (row(), row())
        self._inval = grid()
        self._shwb = grid()

    def watch(self, observed: bool) -> None:
        """Build plans with the probe's stages from now on if *observed*
        (MAGIC's handler span, the fabric's ``net_msg``), without them
        if not; tables built the other way are dropped.  Stages that
        only report to the probe schedule nothing, so the calendar is
        the same either way.  For a quiescent machine: ``Machine``
        calls it where it binds the probe."""
        if observed != self.observed:
            self.observed = self.net.observed = observed
            for magic in self.magic:
                magic.observed = observed
            self.reconfigure(self.params)

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
        heads = self._head[kind][node]
        return Transaction(self.env, heads[home] or self._phase(
                               heads, home, "head",
                               kind == MemKind.WRITEBACK, node, home),
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

    def _phase(self, table: list, at, what: str, *args) -> tuple:
        """Build phase *what* of *args* into ``table[at]``, the slot a
        read found empty, and return it; equal stages of different
        tables are one object (the tables are many)."""
        shared = self._stages
        table[at] = stages = tuple(shared.setdefault(stage, stage)
                                   for stage in self._build(what, *args))
        return stages

    def _build(self, what: str, *args) -> tuple:
        """One phase of a transaction, between two decision points.

        A phase is keyed by the nodes it waits at, and no more: what
        follows a decision (the data's trip to the requester, the reply)
        is a phase of its own, reached by ``goto``, so the tables grow
        with the pairs of nodes that talk, not with their triples.
        Every site reads its phase's table (``self._<phase>``, indexed
        by these arguments) and builds here only on a miss.  The
        probe's stages are in the plan only when it is observed
        (:meth:`watch`, ``pp_stages``, ``send_stages``).
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
                               DATA_FLITS if wb else REQ_FLITS,
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
                stages += (send(home, owner, REQ_FLITS, "net_fwd")
                           + pp(owner, p.pp_ivn_ps, "ivn", "pp_owner"))
            # Data extraction through the owner R10000's secondary cache.
            return stages + ((None, p.owner_cache_ps, "owner_cache"),) + call(
                self._intervened)
        if what == "data":
            # The data from *src* to the requester, then its fill (data
            # already at the requester has no phase: ``_send_data``).
            src, node = args
            return send(src, node, DATA_FLITS, "net_reply") + call(
                self._filled)
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
                    + send(home, sharer, REQ_FLITS)
                    + pp(sharer, p.pp_inval_ps, "inval")
                    + call(self._invalidate)
                    + send(sharer, home, REQ_FLITS) + (FINISH,))
        if what == "shwb":
            # Sharing writeback to home memory, off the critical path.
            owner, home = args
            stages = (send(owner, home, DATA_FLITS)
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
                table = self._upgrade
                t.goto(table[home]
                       or self._phase(table, home, "upgrade", home))
                return
            # Raced: our copy was invalidated while the upgrade was in
            # flight; escalate to a full read-exclusive.
            self._counters["upgrade_races"] += 1.0
            t.write = True
        if entry.state == DIRTY and entry.owner != node:
            # Directory DIRTY at another node: intervene at the owner.
            t.owner = owner = entry.owner
            if home == node:
                t.case = case = LOCAL_DIRTY_REMOTE
            elif owner == home:
                t.case = case = REMOTE_DIRTY_HOME
            else:
                t.case = case = REMOTE_DIRTY_REMOTE
            table = self._dirty[case]
            t.goto(table[home]
                   or self._phase(table, home, "dirty", case, home))
        else:
            # UNOWNED/SHARED (or the requester already owns it).
            t.case = case = LOCAL_CLEAN if home == node else REMOTE_CLEAN
            write = t.write
            table = self._clean[case][write]
            t.goto(table[home]
                   or self._phase(table, home, "clean", write, case, home))

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
            table = self._inval[home]
            t.acks = self.env.all_of([
                Transaction(self.env, table[sharer] or self._phase(
                                table, sharer, "inval", home, sharer),
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
        entry, line = t.entry, t.line
        if t.write:
            directory.set_dirty(entry, line, t.node)
            t.fill = MODIFIED
        else:
            if entry.state == DIRTY:  # requester re-reads its dirty line
                directory.clear(entry, line)
            directory.add_sharer(entry, line, t.node)
            t.fill = CACHE_SHARED
        self._send_data(t, t.home)

    def _send_data(self, t: Transaction, src: int) -> None:
        """The data's trip from *src* to the requester, then its fill:
        with no trip (the requester is *src*) the fill runs here, as
        the one ``CALL`` of that phase would."""
        node = t.node
        if src == node:
            self._filled(t)
            return
        table = self._data[src]
        t.goto(table[node] or self._phase(table, node, "data", src, node))

    def _peek_owner(self, t: Transaction) -> None:
        home, owner = t.home, t.owner
        if self._hooks[owner].l2_peek(t.line) != MODIFIED:
            self._counters["race_to_memory"] += 1.0
            table = self._race
            t.goto(table[home] or self._phase(table, home, "race", home))
        else:
            table = self._intervene[home]
            t.goto(table[owner]
                   or self._phase(table, owner, "intervene", home, owner))

    def _race_done(self, t: Transaction) -> None:
        directory = self.magic[t.home].directory
        entry, line = t.entry, t.line
        if t.write:
            directory.set_dirty(entry, line, t.node)
            t.fill = MODIFIED
        else:
            directory.clear(entry, line)
            directory.add_sharer(entry, line, t.node)
            t.fill = CACHE_SHARED
        self._send_data(t, t.home)

    def _intervened(self, t: Transaction) -> None:
        directory = self.magic[t.home].directory
        entry, line = t.entry, t.line
        hook = self._hooks[t.owner]
        if t.write:
            hook.l2_invalidate(line)
            directory.set_dirty(entry, line, t.node)
            t.fill = MODIFIED
        else:
            hook.l2_downgrade(line)
            directory.clear(entry, line)
            directory.add_sharer(entry, line, t.owner)
            directory.add_sharer(entry, line, t.node)
            t.fill = CACHE_SHARED
            owner, home = t.owner, t.home
            table = self._shwb[owner]
            Transaction(self.env, table[home] or self._phase(
                            table, home, "shwb", owner, home),
                        owner, home, t.paddr, MemKind.WRITEBACK, t.line)
        self._send_data(t, t.owner)

    def _upgraded(self, t: Transaction) -> None:
        self.magic[t.home].directory.set_dirty(t.entry, t.line, t.node)
        self._fill(t.node, t.line, MODIFIED)
        self._counters["upgrades_clean"] += 1.0
        self._reply(t)

    def _filled(self, t: Transaction) -> None:
        self._fill(t.node, t.line, t.fill)
        self._reply(t)

    def _reply(self, t: Transaction) -> None:
        self._release(t)
        node, through_magic = t.node, t.case != LOCAL_CLEAN
        table = self._reply_via[through_magic]
        t.goto(table[node] or self._phase(
            table, node, "reply", node, through_magic))

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
                directory.clear(entry, t.line)
            elif entry.state == SHARED:
                directory.drop_sharer(entry, t.line, t.node)
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
