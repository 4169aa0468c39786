"""Hardware connectivity graphs (Pegasus, Chimera) with defect masks.

Qubits are addressed by a linear integer id, the lexicographic rank of the
qubit's coordinate tuple.  Pegasus uses (u, w, k, z) coordinates with the
standard vendor offset lists; Chimera uses (row, col, shore, k).  A graph
keeps its ideal node/edge sets plus a defect mask, so coordinates stay valid
after qubits are disabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Iterable, Iterator

from .errors import InvalidParameterError
from .jsonio import loader

Edge = tuple[int, int]

# Offsets of the vertical / horizontal qubit wires inside a 12-wire tile.
# These are the production chip values; together with the crossing rule below
# they fix the internal-coupler pattern.
PEGASUS_VERTICAL_OFFSETS = (2, 2, 2, 2, 6, 6, 6, 6, 10, 10, 10, 10)
PEGASUS_HORIZONTAL_OFFSETS = (6, 6, 6, 6, 10, 10, 10, 10, 2, 2, 2, 2)


def canonical_edge(a: int, b: int) -> Edge:
    """Order an edge's endpoints; self-loops are rejected."""
    if a == b:
        raise InvalidParameterError(f"self-loop on node {a}")
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class HardwareGraph:
    """Immutable qubit/coupler topology with a defect mask.

    ``nodes`` and ``edges`` describe the ideal (defect-free) graph;
    ``defect_nodes`` / ``defect_edges`` mark disabled elements.  All
    downstream code operates on the active sets.
    """

    family: str
    params: dict = field(default_factory=dict)
    nodes: frozenset[int] = frozenset()
    edges: frozenset[Edge] = frozenset()
    defect_nodes: frozenset[int] = frozenset()
    defect_edges: frozenset[Edge] = frozenset()

    @cached_property
    def active_nodes(self) -> frozenset[int]:
        return self.nodes - self.defect_nodes

    @cached_property
    def active_edges(self) -> frozenset[Edge]:
        dead = self.defect_nodes
        return frozenset(
            e for e in self.edges
            if e not in self.defect_edges and e[0] not in dead and e[1] not in dead
        )

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        """Active neighbors per active node, sorted for determinism."""
        adj: dict[int, list[int]] = {v: [] for v in self.active_nodes}
        for a, b in self.active_edges:
            adj[a].append(b)
            adj[b].append(a)
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}

    def degree(self, v: int) -> int:
        return len(self.adjacency.get(v, ()))

    def has_edge(self, a: int, b: int) -> bool:
        return canonical_edge(a, b) in self.active_edges


def build_pegasus(m: int) -> HardwareGraph:
    """Defect-free Pegasus graph of size ``m`` (node count 24*m*(m-1)).

    Coordinates are (u, w, k, z): orientation, perpendicular tile offset,
    wire index within the tile, parallel tile offset.  The linear id is the
    lexicographic rank of that tuple.  Couplers:

    * external -- consecutive z along the same wire,
    * odd      -- wire pairs (2j, 2j+1) in the same tile position,
    * internal -- a vertical and a horizontal qubit whose segments cross.
    """
    if m < 2:
        raise InvalidParameterError(f"pegasus size m must be >= 2, got {m}")
    nodes = frozenset(range(24 * m * (m - 1)))
    edges: set[Edge] = set()
    span = m - 1

    def lin(u: int, w: int, k: int, z: int) -> int:
        return z + span * (k + 12 * (w + m * u))

    for u in range(2):
        for w in range(m):
            for k in range(12):
                for z in range(span - 1):
                    edges.add(canonical_edge(lin(u, w, k, z), lin(u, w, k, z + 1)))
            for k in range(0, 12, 2):
                for z in range(span):
                    edges.add(canonical_edge(lin(u, w, k, z), lin(u, w, k + 1, z)))

    ov, oh = PEGASUS_VERTICAL_OFFSETS, PEGASUS_HORIZONTAL_OFFSETS
    for w in range(m):
        for k in range(12):
            x = 12 * w + k
            for z in range(span):
                y0 = 12 * z + ov[k]
                for y in range(y0, y0 + 12):
                    w2, k2 = divmod(y, 12)
                    if x < oh[k2]:
                        continue
                    z2 = (x - oh[k2]) // 12
                    if z2 < span:
                        edges.add(canonical_edge(lin(0, w, k, z), lin(1, w2, k2, z2)))

    return HardwareGraph(family="pegasus", params={"m": m},
                         nodes=nodes, edges=frozenset(edges))


def pegasus_coords(m: int, node: int) -> tuple[int, int, int, int]:
    """Linear id -> (u, w, k, z) for a Pegasus graph of size ``m``."""
    span = m - 1
    node, z = divmod(node, span)
    node, k = divmod(node, 12)
    u, w = divmod(node, m)
    if u not in (0, 1):
        raise InvalidParameterError(f"node {node} out of range for pegasus m={m}")
    return u, w, k, z


def pegasus_index(m: int, u: int, w: int, k: int, z: int) -> int:
    """(u, w, k, z) -> linear id for a Pegasus graph of size ``m``."""
    if not (0 <= u < 2 and 0 <= w < m and 0 <= k < 12 and 0 <= z < m - 1):
        raise InvalidParameterError(f"coordinate ({u},{w},{k},{z}) out of range for m={m}")
    return z + (m - 1) * (k + 12 * (w + m * u))


def build_chimera(rows: int, cols: int, shore: int) -> HardwareGraph:
    """Chimera grid of K_{shore,shore} cells with standard inter-cell couplers."""
    if rows < 1 or cols < 1 or shore < 1:
        raise InvalidParameterError(
            f"chimera parameters must be >= 1, got ({rows},{cols},{shore})")

    lin = partial(chimera_index, cols, shore)
    nodes = frozenset(range(rows * cols * 2 * shore))
    edges: set[Edge] = set()
    for r in range(rows):
        for c in range(cols):
            for i in range(shore):
                for j in range(shore):
                    edges.add(canonical_edge(lin(r, c, 0, i), lin(r, c, 1, j)))
                if r + 1 < rows:
                    edges.add(canonical_edge(lin(r, c, 0, i), lin(r + 1, c, 0, i)))
                if c + 1 < cols:
                    edges.add(canonical_edge(lin(r, c, 1, i), lin(r, c + 1, 1, i)))
    return HardwareGraph(family="chimera",
                         params={"rows": rows, "cols": cols, "shore": shore},
                         nodes=nodes, edges=frozenset(edges))


def chimera_index(cols: int, shore: int, r: int, c: int, u: int, k: int) -> int:
    """(row, col, shore side, wire) -> linear id in a Chimera grid."""
    return k + shore * (u + 2 * (c + cols * r))


def build_custom(nodes: Iterable[int], edges: Iterable[Edge],
                 family: str = "custom") -> HardwareGraph:
    """Arbitrary graph wrapped in the HardwareGraph interface.

    Used for logical graphs and for interchange with external tools; no
    coordinate structure is implied.
    """
    node_set = frozenset(int(v) for v in nodes)
    edge_set = set()
    for a, b in edges:
        e = canonical_edge(int(a), int(b))
        if e[0] not in node_set or e[1] not in node_set:
            raise InvalidParameterError(f"edge {e} references unknown node")
        edge_set.add(e)
    return HardwareGraph(family=family, params={}, nodes=node_set,
                         edges=frozenset(edge_set))


def apply_defects(g: HardwareGraph, dead_nodes: Iterable[int] = (),
                  dead_edges: Iterable[Edge] = ()) -> HardwareGraph:
    """Mask nodes and edges as defective.  Idempotent for a fixed mask.

    Masked nodes keep their ids (coordinates remain valid); their incident
    edges drop out of the active sets automatically.
    """
    node_mask = frozenset(int(v) for v in dead_nodes)
    edge_mask = frozenset(canonical_edge(*e) for e in dead_edges)
    unknown = node_mask - g.nodes
    if unknown:
        raise InvalidParameterError(f"defect mask names unknown nodes: {sorted(unknown)[:5]}")
    bad_edges = edge_mask - g.edges
    if bad_edges:
        raise InvalidParameterError(f"defect mask names unknown edges: {sorted(bad_edges)[:5]}")
    return replace(g, defect_nodes=g.defect_nodes | node_mask,
                   defect_edges=g.defect_edges | edge_mask)


@dataclass(frozen=True)
class GraphStats:
    num_nodes: int
    num_edges: int
    degree_histogram: dict[int, int]
    average_degree: float

    @property
    def max_degree(self) -> int:
        return max(self.degree_histogram) if self.degree_histogram else 0


def graph_stats(g: HardwareGraph) -> GraphStats:
    """Exact counts over the active node/edge sets."""
    n = len(g.active_nodes)
    e = len(g.active_edges)
    hist: dict[int, int] = {}
    for v in g.active_nodes:
        d = g.degree(v)
        hist[d] = hist.get(d, 0) + 1
    avg = 2.0 * e / n if n else 0.0
    return GraphStats(n, e, dict(sorted(hist.items())), avg)


def graph_to_dict(g: HardwareGraph) -> dict:
    return {
        "family": g.family,
        "params": dict(g.params),
        "nodes": sorted(g.nodes),
        "edges": [list(e) for e in sorted(g.edges)],
        "defects": {
            "nodes": sorted(g.defect_nodes),
            "edges": [list(e) for e in sorted(g.defect_edges)],
        },
    }


@loader("defect mask")
def defects_from_dict(data: dict) -> tuple[frozenset[int], frozenset[Edge]]:
    """Dead nodes and edges of a ``{"nodes": [...], "edges": [[a, b], ...]}``
    mask; a missing key masks nothing."""
    return (frozenset(int(v) for v in data.get("nodes", ())),
            frozenset(canonical_edge(int(a), int(b)) for a, b in data.get("edges", ())))


#: graph family -> the integer parameters its coordinate scheme needs
_FAMILY_PARAMS = {"pegasus": ("m",), "chimera": ("rows", "cols", "shore")}


@loader("graph")
def graph_from_dict(data: dict) -> HardwareGraph:
    params = dict(data.get("params", {}))
    for key in _FAMILY_PARAMS.get(data["family"], ()):
        if not isinstance(params[key], int):
            raise TypeError(f"{data['family']} parameter {key!r} must be an integer")
    g = HardwareGraph(
        family=data["family"], params=params,
        nodes=frozenset(int(v) for v in data["nodes"]),
        edges=frozenset(canonical_edge(int(a), int(b)) for a, b in data["edges"]))
    return apply_defects(g, *defects_from_dict(data.get("defects", {})))


def iter_block_nodes(m: int, vert_w: range, vert_z: range,
                     horiz_w: range, horiz_z: range) -> Iterator[int]:
    """Linear ids of an axis-aligned Pegasus coordinate block."""
    for w in vert_w:
        for k in range(12):
            for z in vert_z:
                yield pegasus_index(m, 0, w, k, z)
    for w in horiz_w:
        for k in range(12):
            for z in horiz_z:
                yield pegasus_index(m, 1, w, k, z)
