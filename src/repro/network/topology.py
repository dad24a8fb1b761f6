"""Hypercube topology: FLASH's interconnect (Table 1: "50 ns hops,
hypercube").

Routing is dimension-ordered (lowest differing dimension first), which is
deadlock-free and deterministic, so two simulations of the same workload
take identical paths.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.common.errors import ConfigurationError


class Hypercube:
    """An n-node binary hypercube (n must be a power of two)."""

    def __init__(self, n_nodes: int):
        if n_nodes < 1 or n_nodes & (n_nodes - 1):
            raise ConfigurationError(
                f"hypercube needs a power-of-two node count, got {n_nodes}"
            )
        self.n_nodes = n_nodes
        self.dimensions = n_nodes.bit_length() - 1

    def route(self, src: int, dst: int) -> List[Tuple[int, int]]:
        """Dimension-ordered list of (from, to) links from *src* to *dst*."""
        self._check(src)
        self._check(dst)
        links = []
        here = src
        diff = src ^ dst
        dim = 0
        while diff:
            if diff & 1:
                nxt = here ^ (1 << dim)
                links.append((here, nxt))
                here = nxt
            diff >>= 1
            dim += 1
        return links

    def links(self) -> List[Tuple[int, int]]:
        """All directed links of the cube."""
        out = []
        for node in range(self.n_nodes):
            for dim in range(self.dimensions):
                out.append((node, node ^ (1 << dim)))
        return out

    def _check(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise ConfigurationError(f"node {node} outside cube of {self.n_nodes}")
