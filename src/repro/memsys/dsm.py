"""The distributed-shared-memory transaction engine.

One engine serves as both of the paper's memory-system simulators:

* **FlashLite** -- ``model_pp_occupancy`` and ``model_net_contention`` on:
  every transaction queues for the MAGIC protocol processor at its home
  (and at owners/sharers) and for router ports along its network path.
* **NUMA** -- both off: the same protocol state machine (coherence must
  still be *correct*) but controller handling and network hops become pure
  latencies.  Memory (DRAM) contention is modelled in both, matching the
  paper's description of the NUMA model.

A transaction is a coroutine walking the five protocol read cases of
Table 3 (plus writes, upgrades, and writebacks).  Racing transactions on
the same line serialize on the directory entry's ``busy`` event, standing
in for MAGIC's pending states.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.errors import ConfigurationError, ProtocolError
from repro.common.stats import CounterSet, StatsRegistry
from repro.engine import Engine
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
from repro.proto.directory import DIRTY, SHARED, UNOWNED
from repro.proto.magic import MagicController


def seg(txn, name: str, event, all_wait: bool = False):
    """``yield seg(txn, name, event)``: wait on *event* and, when a
    :class:`repro.obs.txn.TxnRecord` is riding along, charge the elapsed
    window to segment *name* (*all_wait*: as pure queueing, for waits on
    other transactions' progress rather than on a resource).

    The cut is registered as a waiter on *event* before the yielding
    process registers its own resume, so it runs first and at the same
    ``env.now`` as the resume -- exactly where a ``txn.cut`` written after
    the yield would run.  No event, calendar entry or generator is
    created; with ``txn is None`` this is one call returning *event*.
    """
    if txn is not None:
        cut = txn.cut_wait if all_wait else txn.cut
        event.add_waiter(lambda ev: cut(name, ev.env.now))
    return event


class MemKind:
    """Transaction kinds issued by the processor side."""

    READ = "read"            #: load / instruction / shared prefetch miss
    WRITE = "write"          #: store miss (read-exclusive)
    UPGRADE = "upgrade"      #: store hit on a SHARED line
    WRITEBACK = "writeback"  #: dirty eviction (fire-and-forget)

    ALL = (READ, WRITE, UPGRADE, WRITEBACK)


class DsmMemorySystem:
    """Everything beyond the processor and its caches (like FlashLite)."""

    def __init__(self, env: Engine, n_nodes: int, params: DsmParams,
                 line_bytes: int, registry: Optional[StatsRegistry] = None):
        self.env = env
        self.n_nodes = n_nodes
        self.params = params
        self.line_shift = line_bytes.bit_length() - 1
        if 1 << self.line_shift != line_bytes:
            raise ConfigurationError("line_bytes must be a power of two")
        registry = registry or StatsRegistry()
        self.stats = registry.counter_set("memsys")
        # Precomputed stat labels: transactions are the hottest path.
        self._req_label = {kind: f"req_{kind}" for kind in MemKind.ALL}
        self._case_label = {}
        self._case_latency_label = {}
        for case in (LOCAL_CLEAN, LOCAL_DIRTY_REMOTE, REMOTE_CLEAN,
                     REMOTE_DIRTY_HOME, REMOTE_DIRTY_REMOTE):
            self._case_label[case] = f"case_{case}"
            self._case_latency_label[case] = f"latency_ps_{case}"
        # Process names are read only in a crash message: format them once.
        nodes = range(n_nodes)
        self._txn_name = {kind: [f"{kind}@{node}" for node in nodes]
                          for kind in MemKind.ALL}
        self._inv_name = [[f"inv{home}->{node}" for node in nodes]
                          for home in nodes]
        self._shwb_name = [[f"shwb{owner}->{home}" for home in nodes]
                           for owner in nodes]
        self.net = Network(env, n_nodes, params.net,
                           model_contention=params.model_net_contention)
        self.magic: List[MagicController] = [
            MagicController(env, node, model_occupancy=params.model_pp_occupancy,
                            pp_occ_fraction=params.pp_occ_fraction)
            for node in range(n_nodes)
        ]
        self._hooks: Dict[int, object] = {}

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
        recorder is observing, the transaction body opens its own record
        (victim writebacks, direct test calls).
        """
        body = (self._writeback(node, paddr, txn)
                if kind == MemKind.WRITEBACK
                else self._transact(node, paddr, kind, txn))
        return self.env.process(body, name=self._txn_name[kind][node])

    # -- transaction body -----------------------------------------------------
    #
    # Segment accounting (repro.obs.txn): time only advances across
    # yields, so every critical-path yield below goes through ``seg``,
    # charging the elapsed window to exactly one named segment -- the
    # segments partition the end-to-end latency and the residual is zero
    # by construction.  The guards that remain have no single event to
    # ride: ``begin``/``close``, the all-wait ``dir_busy`` cut after its
    # retry loop, and the fan-out width.  Off-critical-path
    # processes (invalidation round trips, sharing writebacks) are
    # deliberately *not* threaded: their overlap with the dram access is
    # already excluded, and only the non-overlapped remainder surfaces,
    # as the all-wait ``inval_wait`` segment.

    def _transact(self, node: int, paddr: int, kind: str, txn=None):
        p = self.params
        env = self.env
        line = paddr >> self.line_shift
        home = home_node(paddr)
        if txn is None:
            probe = obs_hooks.active
            if probe is not None:
                txn = probe.open_txn(node, paddr, kind)
        start = env.now
        if txn is not None:
            txn.begin(start)
        self.stats.add(self._req_label[kind])

        # Processor pins -> local MAGIC.
        yield seg(txn, "bus_req", env.timeout(p.bus_ps))
        if home != node:
            yield seg(txn, "pp_out",
                      self.magic[node].pp_busy(p.pp_out_ps, "out", txn))
            yield seg(txn, "net_req",
                      self.net.send(node, home, p.req_flits, txn))

        home_magic = self.magic[home]
        entry = home_magic.directory.entry(line)
        while entry.busy is not None:
            self.stats.add("line_busy_waits")
            yield entry.busy
        if txn is not None:
            txn.cut_wait("dir_busy", env.now)
        entry.busy = env.event()
        try:
            yield seg(txn, "pp_home",
                      home_magic.pp_busy(p.pp_home_ps, "home", txn))
            if kind == MemKind.UPGRADE:
                case = yield from self._do_upgrade(node, home, line, entry,
                                                   txn)
            elif entry.state == DIRTY and entry.owner != node:
                case = yield from self._do_dirty(node, home, line, entry,
                                                 kind, txn)
            else:
                case = yield from self._do_clean(node, home, line, entry,
                                                 kind, txn)
        finally:
            busy, entry.busy = entry.busy, None
            busy.succeed()

        # Reply delivery at the requester MAGIC (remote replies and
        # owner-forwarded data pass through it; a purely local memory reply
        # does not).
        if case != LOCAL_CLEAN:
            yield seg(txn, "pp_reply",
                      self.magic[node].pp_busy(p.pp_reply_ps, "reply", txn))
        yield seg(txn, "bus_reply", env.timeout(p.bus_ps))

        latency = env.now - start
        self.stats.add(self._case_label[case])
        self.stats.add(self._case_latency_label[case], latency)
        probe = obs_hooks.active
        if probe is not None:
            probe.mem_access(node, home, paddr, kind, start, latency, case)
        if txn is not None:
            txn.close(env.now, case)
            if probe is not None:
                probe.commit_txn(txn)
        return env.now

    def _do_clean(self, node: int, home: int, line: int, entry, kind: str,
                  txn=None):
        """Directory UNOWNED/SHARED (or requester already owner): memory
        supplies the data; writes invalidate sharers."""
        p = self.params
        env = self.env
        home_magic = self.magic[home]
        case = LOCAL_CLEAN if home == node else REMOTE_CLEAN
        yield seg(txn, "pp_mem", home_magic.pp_busy(
            max(0, p.pp_mem_ps + p.extra(case)), "mem", txn))

        inval_done = None
        if kind == MemKind.WRITE and entry.state == SHARED:
            # Sorted so invalidation fan-out order never depends on set
            # iteration order (replay digests must be process-independent).
            others = sorted(s for s in entry.sharers if s != node)
            if others:
                if txn is not None:
                    txn.inval_fanout = len(others)
                inval_done = env.all_of(
                    [self._invalidate_sharer(home, s, line) for s in others]
                )
        yield seg(txn, "dram", home_magic.dram_access(p.dram_ps, txn))
        if inval_done is not None:
            yield seg(txn, "inval_wait", inval_done, all_wait=True)

        if kind == MemKind.WRITE:
            home_magic.directory.set_dirty(line, node)
            fill_state = MODIFIED
        else:
            if entry.state == DIRTY:  # requester re-reads its own dirty line
                home_magic.directory.clear(line)
            home_magic.directory.add_sharer(line, node)
            fill_state = CACHE_SHARED
        if home != node:
            yield seg(txn, "net_reply",
                      self.net.send(home, node, p.data_flits, txn))
        self._fill(node, line, fill_state)
        return case

    def _do_dirty(self, node: int, home: int, line: int, entry, kind: str,
                  txn=None):
        """Directory DIRTY at another node: intervene at the owner."""
        p = self.params
        env = self.env
        home_magic = self.magic[home]
        owner = entry.owner
        if home == node:
            case = LOCAL_DIRTY_REMOTE
        elif owner == home:
            case = REMOTE_DIRTY_HOME
        else:
            case = REMOTE_DIRTY_REMOTE
        yield seg(txn, "pp_redirect", home_magic.pp_busy(
            max(0, p.pp_redirect_ps + p.extra(case)), "redirect", txn))

        hook = self._hooks[owner]
        owner_state = hook.l2_peek(line)
        if owner_state != MODIFIED:
            # The owner's writeback is in flight: fall back to memory.
            self.stats.add("race_to_memory")
            yield seg(txn, "dram", home_magic.dram_access(p.dram_ps, txn))
            if kind == MemKind.WRITE:
                home_magic.directory.set_dirty(line, node)
                fill_state = MODIFIED
            else:
                home_magic.directory.clear(line)
                home_magic.directory.add_sharer(line, node)
                fill_state = CACHE_SHARED
            if home != node:
                yield seg(txn, "net_reply",
                          self.net.send(home, node, p.data_flits, txn))
            self._fill(node, line, fill_state)
            return case

        if owner != home:
            yield seg(txn, "net_fwd",
                      self.net.send(home, owner, p.req_flits, txn))
            yield seg(txn, "pp_owner",
                      self.magic[owner].pp_busy(p.pp_ivn_ps, "ivn", txn))
        # Data extraction through the owner R10000's secondary cache.
        yield seg(txn, "owner_cache", env.timeout(p.owner_cache_ps))
        if kind == MemKind.WRITE:
            hook.l2_invalidate(line)
            home_magic.directory.set_dirty(line, node)
            fill_state = MODIFIED
        else:
            hook.l2_downgrade(line)
            home_magic.directory.clear(line)
            home_magic.directory.add_sharer(line, owner)
            home_magic.directory.add_sharer(line, node)
            fill_state = CACHE_SHARED
            # Sharing writeback to home memory, off the critical path.
            env.process(self._sharing_writeback(owner, home),
                        name=self._shwb_name[owner][home])
        if owner != node:
            yield seg(txn, "net_reply",
                      self.net.send(owner, node, p.data_flits, txn))
        self._fill(node, line, fill_state)
        return case

    def _do_upgrade(self, node: int, home: int, line: int, entry, txn=None):
        """Store hit on a SHARED line: invalidate the other sharers."""
        p = self.params
        env = self.env
        home_magic = self.magic[home]
        if entry.state != SHARED or node not in entry.sharers:
            # Raced: our copy was invalidated while the upgrade was in
            # flight; escalate to a full read-exclusive.
            self.stats.add("upgrade_races")
            if entry.state == DIRTY and entry.owner != node:
                return (yield from self._do_dirty(node, home, line, entry,
                                                  MemKind.WRITE, txn))
            return (yield from self._do_clean(node, home, line, entry,
                                              MemKind.WRITE, txn))
        case = LOCAL_CLEAN if home == node else REMOTE_CLEAN
        yield seg(txn, "pp_upgrade",
                  home_magic.pp_busy(p.pp_mem_ps, "upgrade", txn))
        # Sorted for the same reason as _do_clean's invalidation fan-out.
        others = sorted(s for s in entry.sharers if s != node)
        if others:
            if txn is not None:
                txn.inval_fanout = len(others)
            yield seg(txn, "inval_wait", env.all_of(
                [self._invalidate_sharer(home, s, line) for s in others]
            ), all_wait=True)
        home_magic.directory.set_dirty(line, node)
        self._fill(node, line, MODIFIED)
        self.stats.add("upgrades_clean")
        return case

    def _invalidate_sharer(self, home: int, sharer: int, line: int):
        """Invalidation round trip home -> sharer -> home (ack)."""
        return self.env.process(
            self._invalidate_gen(home, sharer, line),
            name=self._inv_name[home][sharer],
        )

    def _invalidate_gen(self, home: int, sharer: int, line: int):
        p = self.params
        self.stats.add("invalidations_sent")
        yield self.net.send(home, sharer, p.req_flits)
        yield self.magic[sharer].pp_busy(p.pp_inval_ps, "inval")
        hook = self._hooks.get(sharer)
        if hook is not None:
            hook.l2_invalidate(line)
        yield self.net.send(sharer, home, p.req_flits)

    def _sharing_writeback(self, owner: int, home: int):
        p = self.params
        if owner != home:
            yield self.net.send(owner, home, p.data_flits)
        yield self.magic[home].pp_busy(p.pp_wb_ps, "shwb")
        yield self.magic[home].dram_access(p.dram_ps)

    # -- writeback -------------------------------------------------------------

    def _writeback(self, node: int, paddr: int, txn=None):
        """Dirty eviction: update home memory and directory.  The issuing
        processor does not wait (its write buffer tracks completion)."""
        p = self.params
        env = self.env
        line = paddr >> self.line_shift
        home = home_node(paddr)
        probe = obs_hooks.active
        if probe is not None:
            if txn is None:
                txn = probe.open_txn(node, paddr, MemKind.WRITEBACK,
                                     "eviction")
            probe.mem_access(node, home, paddr, MemKind.WRITEBACK)
        if txn is not None:
            txn.begin(env.now)
        self.stats.add("req_writeback")
        yield seg(txn, "bus_req", env.timeout(p.bus_ps))
        if home != node:
            yield seg(txn, "pp_out",
                      self.magic[node].pp_busy(p.pp_out_ps, "out", txn))
            yield seg(txn, "net_req",
                      self.net.send(node, home, p.data_flits, txn))
        home_magic = self.magic[home]
        entry = home_magic.directory.entry(line)
        while entry.busy is not None:
            yield entry.busy
        if txn is not None:
            txn.cut_wait("dir_busy", env.now)
        entry.busy = env.event()
        try:
            yield seg(txn, "pp_wb",
                      home_magic.pp_busy(p.pp_wb_ps, "wb", txn))
            yield seg(txn, "dram", home_magic.dram_access(p.dram_ps, txn))
            if entry.state == DIRTY and entry.owner == node:
                home_magic.directory.clear(line)
            elif entry.state == SHARED:
                home_magic.directory.drop_sharer(line, node)
        finally:
            busy, entry.busy = entry.busy, None
            busy.succeed()
        if txn is not None:
            txn.close(env.now, None)
            probe = obs_hooks.active
            if probe is not None:
                probe.commit_txn(txn)
        return env.now

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

    # -- checkpoint contract ---------------------------------------------

    def ckpt_state(self) -> dict:
        """Transaction counters, the fabric, and every node's MAGIC."""
        return {
            "stats": self.stats.ckpt_state(),
            "net": self.net.ckpt_state(),
            "magic": [magic.ckpt_state() for magic in self.magic],
        }

    def ckpt_restore(self, state: dict) -> None:
        if len(state["magic"]) != self.n_nodes:
            raise ProtocolError(
                f"checkpoint has {len(state['magic'])} MAGIC nodes, "
                f"this machine has {self.n_nodes}"
            )
        self.stats.ckpt_restore(state["stats"])
        self.net.ckpt_restore(state["net"])
        for magic, magic_state in zip(self.magic, state["magic"]):
            magic.ckpt_restore(magic_state)
