"""Consistent-hash ring over registered worker nodes.

Report keys are already content hashes; the ring maps each key to an
*owning* worker so repeated submissions of the same workload always
execute on the same node.  That buys **duplicate suppression**: two
concurrent submissions of one key cannot land on two nodes, because
only the owner may pull them (with a liveness fallback so a dead owner
never strands a job).

Standard construction: each node is hashed onto the ring at
``replicas`` virtual points (sha256 of ``"{node}#{i}"``); a key is
owned by the first node clockwise from the key's own hash.  Adding or
removing one node remaps only ~1/N of the key space — the property
that makes worker churn cheap.  Deterministic: no RNG, no insertion
-order dependence.
"""

from __future__ import annotations

import bisect
import hashlib


def _hash(text: str) -> int:
    """64-bit ring position (sha256-derived, stable across processes)."""
    return int.from_bytes(
        hashlib.sha256(text.encode()).digest()[:8], "big")


class HashRing:
    """Consistent hashing with virtual nodes.

    ``replicas`` is the virtual-node count per real node — 64 keeps
    the ownership spread within a few percent of uniform for small
    fleets while add/remove stays O(replicas log n).
    """

    def __init__(self, replicas: int = 64) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.replicas = replicas
        self._points: list[int] = []          # sorted ring positions
        self._owners: dict[int, str] = {}     # position -> node
        self._nodes: set[str] = set()

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def nodes(self) -> list[str]:
        return sorted(self._nodes)

    def add(self, node: str) -> None:
        """Idempotently place a node's virtual points on the ring."""
        if node in self._nodes:
            return
        self._nodes.add(node)
        for i in range(self.replicas):
            point = _hash(f"{node}#{i}")
            # sha256 collisions across distinct labels are not a real
            # concern; last-writer-wins keeps the structure consistent.
            if point not in self._owners:
                bisect.insort(self._points, point)
            self._owners[point] = node

    def remove(self, node: str) -> None:
        """Remove a node; its arcs fall to the next node clockwise."""
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        for i in range(self.replicas):
            point = _hash(f"{node}#{i}")
            if self._owners.get(point) == node:
                del self._owners[point]
                index = bisect.bisect_left(self._points, point)
                if index < len(self._points) and \
                        self._points[index] == point:
                    del self._points[index]

    def node_for(self, key: str, alive=None) -> str | None:
        """The owner of ``key`` — first node clockwise from its hash.

        ``alive``, when given, is a container of currently-live node
        ids; dead nodes are walked past, so ownership degrades to the
        next live node instead of stranding the key.  ``None`` when the
        ring is empty or nothing is alive.
        """
        if not self._points:
            return None
        start = bisect.bisect(self._points, _hash(key)) % len(self._points)
        seen: set[str] = set()
        for offset in range(len(self._points)):
            point = self._points[(start + offset) % len(self._points)]
            node = self._owners[point]
            if alive is None or node in alive:
                return node
            seen.add(node)
            if len(seen) == len(self._nodes):
                break
        return None
