"""Reference Eulerian augmentation and loop normalization for the golden tests.

`eulerian_augment_reference` is the loop `planted.eulerian_augment` ran before
its BFS stopped at the first level holding a remaining odd vertex, kept word
for word (only the name changed).  It explores the whole component of every
odd vertex it pairs, so it is the definition the level-stopped BFS must
reproduce edge for edge.  `normalize_loop_reference` is the scan over every
rotation and direction that `planted._normalize_loop` ran before it rotated
to the minimum vertex, also kept word for word.  The package never imports
this module.  It takes `Multigraph` and `_adjacency` from
`planted_reference`, the per-edge generator's own tuple forms.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from anneal_rbm.errors import ContractError, InvalidParameterError
from anneal_rbm.topology import Edge, canonical_edge
from planted_reference import Multigraph, _adjacency


def eulerian_augment_reference(n: int, edges: Iterable[Edge]) -> Multigraph:
    """Make every vertex degree even by duplicating existing edges only.

    Odd-degree vertices are paired greedily by shortest-path distance; the
    symmetric difference of the pairing paths is duplicated.  The symmetric
    difference keeps each edge's multiplicity at most 2 and never adds a
    parallel pair that would cancel out.
    """
    base = sorted({canonical_edge(a, b) for a, b in edges})
    for a, b in base:
        if not (0 <= a < n and 0 <= b < n):
            raise InvalidParameterError(f"edge ({a},{b}) out of range for n={n}")
    adj = _adjacency(n, base)
    odd = [v for v in range(n) if len(adj[v]) % 2 == 1]

    tjoin: set[Edge] = set()
    remaining = list(odd)
    while remaining:
        # BFS distances from the first remaining odd vertex to all others;
        # pair it with the closest one (ties to the smallest vertex id) along
        # the BFS tree path, which sorted neighbor order makes deterministic.
        src = remaining[0]
        dist = {src: 0}
        parent = {src: src}
        queue = deque([src])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    parent[w] = v
                    queue.append(w)
        candidates = [(dist[v], v) for v in remaining[1:] if v in dist]
        if not candidates:
            raise ContractError(
                f"odd-degree vertex {src} cannot be paired inside its component")
        _, mate = min(candidates)
        v = mate
        while v != src:
            tjoin ^= {canonical_edge(v, parent[v])}
            v = parent[v]
        remaining.remove(src)
        remaining.remove(mate)

    added = tuple(sorted(tjoin))
    mg = Multigraph(n=n, edges=tuple(base) + added, added=added)
    if any(d % 2 for d in mg.degrees()):
        raise ContractError("augmentation failed to even all degrees")
    return mg


def normalize_loop_reference(loop: Sequence[int]) -> tuple[int, ...]:
    """Canonical rotation/direction so equal cycles serialize identically."""
    k = len(loop)
    best = None
    for start in range(k):
        for step in (1, -1):
            cand = tuple(loop[(start + step * i) % k] for i in range(k))
            if best is None or cand < best:
                best = cand
    return best
