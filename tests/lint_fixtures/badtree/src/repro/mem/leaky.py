"""Seeded L2 (banned imports) and L3 (checkpoint protocol) violations."""

import repro.obs.metrics                  # L2: ledger in model code
from repro.obs import topo                # L2: spatial recorder import
from repro.ckpt import store              # L2: checkpoint subsystem
from repro.obs import txn as _txn         # L2: txn anatomy import
from repro.obs import hooks as obs_hooks  # sanctioned: must NOT fire


class LeakyBuffer:
    """Stateful (dict attribute) but defines no ckpt_state."""

    def __init__(self):
        self.entries = {}          # L3: state outside the ckpt contract
        self.pending = []


class CoveredBuffer:
    """Stateful but checkpointable: must NOT fire."""

    def __init__(self):
        self.entries = {}

    def ckpt_state(self):
        return {"entries": sorted(self.entries.items())}

    def ckpt_restore(self, state):
        self.entries = dict(state["entries"])


class InheritingBuffer(CoveredBuffer):
    """Inherits ckpt_state through a scanned base: must NOT fire."""

    def __init__(self):
        super().__init__()
        self.extra = {}


class HalfCovered:
    """Can be captured but not restored: L3 names the missing half."""

    def __init__(self):
        self.entries = {}

    def ckpt_state(self):
        return {"entries": sorted(self.entries.items())}


def late_import():
    from repro.obs.txn import TxnRecorder  # L2: function-local, below a name
    return TxnRecorder
