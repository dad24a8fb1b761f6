"""The DSM as it stood before transactions became plans.

A reference implementation the memory-system tests compare
``repro.memsys.dsm`` against -- never imported by ``src/``.  It is the
parent commit's coroutine ``DsmMemorySystem`` with the bodies of
``MagicController.pp_busy``/``dram_access``, ``Network.send`` and the
pairs-form ``Steps`` it waited on, every scheduling decision kept: a
transaction is a process, each critical-path wait is a ``yield`` whose
segment cut rides as the event's first waiter (``seg``), the busy gate
is an event per entry, invalidations and sharing writebacks are child
processes.  It uses the live model only for its data: the resources,
directories and counter sets of ``MagicController`` and ``Network``.

``branches`` counts the protocol paths a run took, so a test can show
its inputs reached every one of them.
"""

from collections import Counter
from heapq import heappush

from repro.common.errors import ProtocolError, SimulationError
from repro.common.stats import StatsRegistry
from repro.engine.events import Event
from repro.engine.resources import _Use
from repro.mem.address import home_node
from repro.mem.cache import MODIFIED, SHARED as CACHE_SHARED
from repro.memsys.dsm import MemKind
from repro.memsys.params import (
    DATA_FLITS,
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


class PairSteps(_Use):
    """``Steps`` before plans: ``(resource | None, ps)`` pairs, one at a
    time, as one event."""

    __slots__ = ("_todo", "_next")

    def __init__(self, env, steps, txn=None):
        Event.__init__(self, env)
        self.txn = txn
        self._todo = iter(steps)
        self._next = self._advance
        env._defer((self._next, None))

    def _advance(self, _event):
        env = self.env
        step = next(self._todo, None)
        if step is None:
            self._next = None
            self.succeed(env.now)
            return
        res, ps = step
        if ps < 0:
            raise SimulationError(f"negative step {ps}")
        if res is None:
            env._seq = seq = env._seq + 1
            heappush(env._heap, (env.now + ps, seq, self._next, None))
        else:
            self.hold_ps = ps
            res._request(self)

    def _held(self):
        self.env._defer((self._next, None))


def pp_busy(magic, hold_ps, label="handler", txn=None):
    probe = obs_hooks.active
    if probe is not None:
        probe.span(magic.env.now, obs_hooks.DSM, f"pp.{label}", hold_ps,
                   {"node": magic.node})
    if not magic.model_occupancy:
        return magic.env.timeout(hold_ps)
    occ = int(hold_ps * magic.pp_occ_fraction)
    rest = hold_ps - occ
    if rest <= 0:
        return magic.pp.use(hold_ps, txn)
    return PairSteps(magic.env, ((magic.pp, occ), (None, rest)), txn)


def dram_access(magic, hold_ps, txn=None):
    return magic.dram.use(hold_ps, txn)


def send(net, src, dst, flits=1, txn=None):
    net.stats.add("messages")
    net.stats.add("flits", flits)
    hops = net.cube.route(src, dst) if src != dst else ()
    if hops:
        net.stats.add("hops", len(hops))
    occupancy = net.params.occupancy_ps(flits)
    steps = []
    for link in hops:
        port = net._links[link] if net.model_contention else None
        steps += [(port, occupancy), (None, net.params.hop_ps)]
    done = PairSteps(net.env, steps, txn)
    probe = obs_hooks.active
    if probe is not None and hops:
        start = net.env.now
        done.add_waiter(lambda ev: probe.net_msg(
            src, dst, flits, hops, start, ev.value - start))
    return done


def seg(txn, name, event, all_wait=False):
    if txn is not None:
        cut = txn.cut_wait if all_wait else txn.cut
        event.add_waiter(lambda ev: cut(name, ev.env.now))
    return event


class ReferenceDsm:
    """The coroutine ``DsmMemorySystem``: same constructor, same
    ``attach``/``request``/``snapshot``."""

    def __init__(self, env, n_nodes, params, line_bytes, registry=None):
        self.env = env
        self.n_nodes = n_nodes
        self.params = params
        self.line_shift = line_bytes.bit_length() - 1
        self.stats = (registry or StatsRegistry()).counter_set("memsys")
        self.net = Network(env, n_nodes, params.net,
                           model_contention=params.contention)
        self.magic = [
            MagicController(env, node, params.pp_occ_fraction,
                            model_occupancy=params.contention)
            for node in range(n_nodes)
        ]
        self._hooks = {}
        self.branches = Counter()

    def attach(self, node, hook):
        self._hooks[node] = hook

    def request(self, node, paddr, kind, txn=None):
        body = (self._writeback(node, paddr, txn)
                if kind == MemKind.WRITEBACK
                else self._transact(node, paddr, kind, txn))
        return self.env.process(body, name=f"{kind}@{node}")

    def _transact(self, node, paddr, kind, txn=None):
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
        self.stats.add(f"req_{kind}")

        yield seg(txn, "bus_req", env.timeout(p.bus_ps))
        if home != node:
            yield seg(txn, "pp_out",
                      pp_busy(self.magic[node], p.pp_out_ps, "out", txn))
            yield seg(txn, "net_req",
                      send(self.net, node, home, REQ_FLITS, txn))

        home_magic = self.magic[home]
        entry = home_magic.directory.entry(line)
        while entry.busy is not None:
            self.stats.add("line_busy_waits")
            self.branches["busy_wait"] += 1
            yield entry.busy
        if txn is not None:
            txn.cut_wait("dir_busy", env.now)
        entry.busy = env.event()
        try:
            yield seg(txn, "pp_home",
                      pp_busy(home_magic, p.pp_home_ps, "home", txn))
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

        if case != LOCAL_CLEAN:
            yield seg(txn, "pp_reply",
                      pp_busy(self.magic[node], p.pp_reply_ps, "reply", txn))
        yield seg(txn, "bus_reply", env.timeout(p.bus_ps))

        latency = env.now - start
        self.stats.add(f"case_{case}")
        self.stats.add(f"latency_ps_{case}", latency)
        probe = obs_hooks.active
        if probe is not None:
            probe.mem_access(node, home, paddr, kind, start, latency, case)
        if txn is not None:
            txn.close(env.now, case)
            if probe is not None:
                probe.commit_txn(txn)
        return env.now

    def _do_clean(self, node, home, line, entry, kind, txn=None):
        p = self.params
        env = self.env
        home_magic = self.magic[home]
        case = LOCAL_CLEAN if home == node else REMOTE_CLEAN
        yield seg(txn, "pp_mem", pp_busy(
            home_magic, max(0, p.pp_mem_ps + p.extra(case)), "mem", txn))

        inval_done = None
        if kind == MemKind.WRITE and entry.state == SHARED:
            others = sorted(s for s in entry.sharers if s != node)
            if others:
                if txn is not None:
                    txn.inval_fanout = len(others)
                inval_done = env.all_of(
                    [self._invalidate_sharer(home, s, line) for s in others])
        yield seg(txn, "dram", dram_access(home_magic, p.dram_ps, txn))
        if inval_done is not None:
            yield seg(txn, "inval_wait", inval_done, all_wait=True)

        if kind == MemKind.WRITE:
            home_magic.directory.set_dirty(entry, line, node)
            fill_state = MODIFIED
        else:
            if entry.state == DIRTY:
                home_magic.directory.clear(entry, line)
            home_magic.directory.add_sharer(entry, line, node)
            fill_state = CACHE_SHARED
        if home != node:
            yield seg(txn, "net_reply",
                      send(self.net, home, node, DATA_FLITS, txn))
        self._fill(node, line, fill_state)
        return case

    def _do_dirty(self, node, home, line, entry, kind, txn=None):
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
        yield seg(txn, "pp_redirect", pp_busy(
            home_magic, max(0, p.pp_redirect_ps + p.extra(case)), "redirect",
            txn))

        hook = self._hooks[owner]
        owner_state = hook.l2_peek(line)
        if owner_state != MODIFIED:
            self.stats.add("race_to_memory")
            self.branches["race_to_memory"] += 1
            yield seg(txn, "dram", dram_access(home_magic, p.dram_ps, txn))
            if kind == MemKind.WRITE:
                home_magic.directory.set_dirty(entry, line, node)
                fill_state = MODIFIED
            else:
                home_magic.directory.clear(entry, line)
                home_magic.directory.add_sharer(entry, line, node)
                fill_state = CACHE_SHARED
            if home != node:
                yield seg(txn, "net_reply",
                          send(self.net, home, node, DATA_FLITS, txn))
            self._fill(node, line, fill_state)
            return case

        self.branches[f"intervene_{case}"] += 1
        if owner != home:
            yield seg(txn, "net_fwd",
                      send(self.net, home, owner, REQ_FLITS, txn))
            yield seg(txn, "pp_owner",
                      pp_busy(self.magic[owner], p.pp_ivn_ps, "ivn", txn))
        yield seg(txn, "owner_cache", env.timeout(p.owner_cache_ps))
        if kind == MemKind.WRITE:
            hook.l2_invalidate(line)
            home_magic.directory.set_dirty(entry, line, node)
            fill_state = MODIFIED
        else:
            hook.l2_downgrade(line)
            home_magic.directory.clear(entry, line)
            home_magic.directory.add_sharer(entry, line, owner)
            home_magic.directory.add_sharer(entry, line, node)
            fill_state = CACHE_SHARED
            self.branches["sharing_writeback"] += 1
            env.process(self._sharing_writeback(owner, home),
                        name=f"shwb{owner}->{home}")
        if owner != node:
            yield seg(txn, "net_reply",
                      send(self.net, owner, node, DATA_FLITS, txn))
        self._fill(node, line, fill_state)
        return case

    def _do_upgrade(self, node, home, line, entry, txn=None):
        p = self.params
        env = self.env
        home_magic = self.magic[home]
        if entry.state != SHARED or node not in entry.sharers:
            self.stats.add("upgrade_races")
            self.branches["upgrade_race"] += 1
            if entry.state == DIRTY and entry.owner != node:
                return (yield from self._do_dirty(node, home, line, entry,
                                                  MemKind.WRITE, txn))
            return (yield from self._do_clean(node, home, line, entry,
                                              MemKind.WRITE, txn))
        case = LOCAL_CLEAN if home == node else REMOTE_CLEAN
        yield seg(txn, "pp_upgrade",
                  pp_busy(home_magic, p.pp_mem_ps, "upgrade", txn))
        others = sorted(s for s in entry.sharers if s != node)
        if others:
            if txn is not None:
                txn.inval_fanout = len(others)
            yield seg(txn, "inval_wait", env.all_of(
                [self._invalidate_sharer(home, s, line) for s in others]
            ), all_wait=True)
        home_magic.directory.set_dirty(entry, line, node)
        self._fill(node, line, MODIFIED)
        self.stats.add("upgrades_clean")
        return case

    def _invalidate_sharer(self, home, sharer, line):
        if sharer == home:
            self.branches["inval_at_home"] += 1
        return self.env.process(self._invalidate_gen(home, sharer, line),
                                name=f"inv{home}->{sharer}")

    def _invalidate_gen(self, home, sharer, line):
        p = self.params
        self.stats.add("invalidations_sent")
        yield send(self.net, home, sharer, REQ_FLITS)
        yield pp_busy(self.magic[sharer], p.pp_inval_ps, "inval")
        hook = self._hooks.get(sharer)
        if hook is not None:
            hook.l2_invalidate(line)
        yield send(self.net, sharer, home, REQ_FLITS)

    def _sharing_writeback(self, owner, home):
        p = self.params
        if owner != home:
            yield send(self.net, owner, home, DATA_FLITS)
        yield pp_busy(self.magic[home], p.pp_wb_ps, "shwb")
        yield dram_access(self.magic[home], p.dram_ps)

    def _writeback(self, node, paddr, txn=None):
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
                      pp_busy(self.magic[node], p.pp_out_ps, "out", txn))
            yield seg(txn, "net_req",
                      send(self.net, node, home, DATA_FLITS, txn))
        home_magic = self.magic[home]
        entry = home_magic.directory.entry(line)
        while entry.busy is not None:
            self.branches["writeback_busy_wait"] += 1
            yield entry.busy
        if txn is not None:
            txn.cut_wait("dir_busy", env.now)
        entry.busy = env.event()
        try:
            yield seg(txn, "pp_wb", pp_busy(home_magic, p.pp_wb_ps, "wb", txn))
            yield seg(txn, "dram", dram_access(home_magic, p.dram_ps, txn))
            if self._hooks[node].l2_peek(line) is None:   # else stale
                if entry.state == DIRTY and entry.owner == node:
                    home_magic.directory.clear(entry, line)
                elif entry.state == SHARED:
                    home_magic.directory.drop_sharer(entry, line, node)
        finally:
            busy, entry.busy = entry.busy, None
            busy.succeed()
        if txn is not None:
            txn.close(env.now, None)
            probe = obs_hooks.active
            if probe is not None:
                probe.commit_txn(txn)
        return env.now

    def _fill(self, node, line, state):
        hook = self._hooks.get(node)
        if hook is None:
            raise ProtocolError(f"no processor hook attached at node {node}")
        hook.l2_fill(line, state)

    def snapshot(self):
        return {
            "stats": self.stats.snapshot(),
            "net": self.net.snapshot(),
            "magic": [magic.snapshot() for magic in self.magic],
        }
