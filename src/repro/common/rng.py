"""Deterministic random-number helpers.

Simulation runs must be exactly reproducible: the same configuration and
workload must produce the same cycle counts on every host.  All randomness
therefore flows through :func:`derive_rng`, which derives an independent
``numpy`` generator from a root seed and a tuple of string labels, so
components do not perturb each other's streams when the code evolves.
"""

from __future__ import annotations

import hashlib

import numpy as np

DEFAULT_SEED = 0xF1A5_4000  # "FLASH" homage


def derive_rng(*labels: object, seed: int = DEFAULT_SEED) -> np.random.Generator:
    """Return a generator seeded from *seed* and a label path.

    >>> a = derive_rng("fft", "transpose", 0)
    >>> b = derive_rng("fft", "transpose", 0)
    >>> bool((a.integers(0, 100, 8) == b.integers(0, 100, 8)).all())
    True
    """
    digest = hashlib.sha256(
        ("/".join(str(label) for label in labels) + f"#{seed}").encode()
    ).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))
