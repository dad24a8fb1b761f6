"""Seeded L2 (banned imports) violations."""

import repro.obs.metrics                  # L2: ledger in model code
from repro.obs import topo                # L2: spatial recorder import
from repro.obs import txn as _txn         # L2: txn anatomy import
from repro.obs import hooks as obs_hooks  # sanctioned: must NOT fire


def late_import():
    from repro.obs.txn import TxnRecorder  # L2: function-local, below a name
    return TxnRecorder
