"""Hardware connectivity graphs (Pegasus, Chimera) with defect masks.

Qubits are addressed by a linear integer id, the lexicographic rank of the
qubit's coordinate tuple.  Pegasus uses (u, w, k, z) coordinates with the
standard vendor offset lists; Chimera uses (row, col, shore, k).  A graph
keeps its ideal node/edge sets plus a defect mask, so coordinates stay valid
after qubits are disabled.

Node ids are non-negative, so an edge (a, b) with a < b has the integer code
a*N + b, N being one more than the largest id, and sorted codes are sorted
edges.  Each graph caches its active edges as one sorted int64 code array;
building, masking, loading and writing graphs, and the partition checks in
`embedding`, are numpy passes over such arrays, and the frozensets of the
public fields are built once from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from itertools import chain
from typing import Iterable

import numpy as np

from .errors import InvalidParameterError
from .jsonio import integer_rows, integers, loader

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
        return self.nodes - self.defect_nodes if self.defect_nodes else self.nodes

    @cached_property
    def active_edges(self) -> frozenset[Edge]:
        if not (self.defect_nodes or self.defect_edges):
            return self.edges
        return edge_set(*np.divmod(self.edge_codes, self.code_base))

    @cached_property
    def code_base(self) -> int:
        """N of the edge codes a*N + b: one more than the largest node id."""
        return max(self.nodes, default=-1) + 1

    @cached_property
    def ideal_codes(self) -> np.ndarray:
        """Sorted int64 codes of ``edges``, the ideal couplers."""
        return _codes(edge_array(self.edges), self.code_base)

    @cached_property
    def edge_codes(self) -> np.ndarray:
        """Sorted int64 codes of the active couplers."""
        codes, base = self.ideal_codes, self.code_base
        if self.defect_edges:
            codes = codes[~_contains(_codes(edge_array(self.defect_edges), base), codes)]
        if self.defect_nodes:
            dead = np.zeros(base, dtype=bool)
            dead[list(self.defect_nodes)] = True
            a, b = np.divmod(codes, base)
            codes = codes[~(dead[a] | dead[b])]
        return codes

    @cached_property
    def _active_mask(self) -> np.ndarray:
        mask = np.zeros(self.code_base, dtype=bool)
        mask[list(self.active_nodes)] = True
        return mask

    def has_nodes(self, q: np.ndarray) -> np.ndarray:
        """Elementwise: is qubit ``q`` active?  Any integer array."""
        q = np.asarray(q, dtype=np.int64)
        inside = (q >= 0) & (q < self.code_base)
        out = np.zeros(q.shape, dtype=bool)
        out[inside] = self._active_mask[q[inside]]
        return out

    def has_edges(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise: is there an active coupler between qubits ``a`` and
        ``b``?  Endpoints in either order; unknown ids have none."""
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        known = (lo >= 0) & (hi < self.code_base)
        out = np.zeros(lo.shape, dtype=bool)
        out[known] = _contains(self.edge_codes, lo[known] * self.code_base + hi[known])
        return out

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
    n = 24 * m * (m - 1)
    span = m - 1

    def lin(u, w, k, z):
        return z + span * (k + 12 * (w + m * u))

    u, w, k, z = np.ix_(range(2), range(m), range(12), range(span))
    external = (lin(u, w, k, z[..., :-1]), lin(u, w, k, z[..., 1:]))
    odd = (lin(u, w, k[:, :, 0::2], z), lin(u, w, k[:, :, 1::2], z))

    # a vertical qubit (w, k, z) crosses the horizontal wires y0..y0+11,
    # y0 = 12*z + vertical offset of k; y = 12*w2 + k2 meets it at tile z2
    w, k, z, j = np.ix_(range(m), range(12), range(span), range(12))
    w2, k2 = np.divmod(12 * z + np.take(PEGASUS_VERTICAL_OFFSETS, k) + j, 12)
    x = 12 * w + k - np.take(PEGASUS_HORIZONTAL_OFFSETS, k2)
    z2 = x // 12
    cross = (x >= 0) & (z2 < span)
    internal = (np.broadcast_to(lin(0, w, k, z), cross.shape)[cross],
                lin(1, w2, k2, z2)[cross])

    a, b = (np.concatenate([e.ravel() for e in ends])
            for ends in zip(external, odd, internal))
    return _graph("pegasus", {"m": m}, frozenset(range(n)), n,
                  unique_codes(_codes(np.stack([a, b], axis=1), n)))


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
    base = _known_base(node_set)
    pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
    return _graph(family, {}, node_set, base,
                  unique_codes(_codes(_canonical(pairs, node_set), base)))


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
    masked = replace(g, defect_nodes=g.defect_nodes | node_mask,
                     defect_edges=g.defect_edges | edge_mask)
    vars(masked).update(code_base=g.code_base, ideal_codes=g.ideal_codes)
    return masked


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
        "edges": _edge_list(g.ideal_codes, g.code_base),
        "defects": {
            "nodes": sorted(g.defect_nodes),
            "edges": [list(e) for e in sorted(g.defect_edges)],
        },
    }


@loader("defect mask")
def defects_from_dict(data: dict) -> tuple[frozenset[int], frozenset[Edge]]:
    """Dead nodes and edges of a ``{"nodes": [...], "edges": [[a, b], ...]}``
    mask; a missing key masks nothing."""
    pairs = canonical_edges(integer_rows(data.get("edges", []), 2))
    return frozenset(integers(data.get("nodes", []))), edge_set(*pairs.T)


#: graph family -> the integer parameters its coordinate scheme needs
_FAMILY_PARAMS = {"pegasus": ("m",), "chimera": ("rows", "cols", "shore")}


@loader("graph")
def graph_from_dict(data: dict) -> HardwareGraph:
    params = dict(data.get("params", {}))
    for key in _FAMILY_PARAMS.get(data["family"], ()):
        if not isinstance(params[key], int):
            raise TypeError(f"{data['family']} parameter {key!r} must be an integer")
    nodes = frozenset(integers(data["nodes"]))
    base = _known_base(nodes)
    pairs = _canonical(integer_rows(data["edges"], 2), nodes)
    g = _graph(data["family"], params, nodes, base, unique_codes(_codes(pairs, base)))
    return apply_defects(g, *defects_from_dict(data.get("defects", {})))


# ---------------------------------------------------------------------------
# Edge arrays

def _graph(family: str, params: dict, nodes: frozenset[int], base: int,
           codes: np.ndarray) -> HardwareGraph:
    """The defect-free graph whose ideal edges have the sorted unique
    ``codes`` (base ``base``, one more than the largest of ``nodes``), with
    its code cache already filled."""
    g = HardwareGraph(family=family, params=params, nodes=nodes,
                      edges=edge_set(*np.divmod(codes, base)))
    vars(g).update(code_base=base, ideal_codes=codes)
    return g


def _known_base(nodes: frozenset[int]) -> int:
    """The code base of a node set; InvalidParameterError for a negative id."""
    if nodes and min(nodes) < 0:
        raise InvalidParameterError(f"node ids must be non-negative, got {min(nodes)}")
    return max(nodes, default=-1) + 1


def canonical_edges(pairs: np.ndarray) -> np.ndarray:
    """An (E, 2) array of edge endpoints with the lower id first;
    InvalidParameterError, as canonical_edge raises it, for a self-loop."""
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    loops = np.flatnonzero(lo == hi)
    if loops.size:
        raise InvalidParameterError(f"self-loop on node {int(lo[loops[0]])}")
    return np.stack([lo, hi], axis=1)


def _canonical(pairs: np.ndarray, nodes: frozenset[int]) -> np.ndarray:
    """canonical_edges of ``pairs``; InvalidParameterError, as build_custom
    raises it, for an endpoint outside ``nodes`` too."""
    pairs = canonical_edges(pairs)
    known = np.zeros(_known_base(nodes) + 1, dtype=bool)  # the last slot: unknown
    known[np.fromiter(nodes, dtype=np.int64, count=len(nodes))] = True
    ends = np.where((pairs >= 0) & (pairs < known.size), pairs, -1)
    unknown = np.flatnonzero(~known[ends].all(axis=1))
    if unknown.size:
        e = tuple(pairs[unknown[0]].tolist())
        raise InvalidParameterError(f"edge {e} references unknown node")
    return pairs


def unique_codes(codes: np.ndarray) -> np.ndarray:
    """``codes`` sorted, without repeats (np.unique's result, by one sort)."""
    codes = np.sort(codes)
    return codes[np.r_[True, codes[1:] != codes[:-1]]] if codes.size else codes


def edge_array(edges) -> np.ndarray:
    """A set of edges (a, b) as an (E, 2) int64 array in sorted order."""
    pairs = np.fromiter(chain.from_iterable(edges), dtype=np.int64,
                        count=2 * len(edges)).reshape(-1, 2)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def _codes(pairs: np.ndarray, base: int) -> np.ndarray:
    return pairs[:, 0] * base + pairs[:, 1]


def _contains(sorted_codes: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Elementwise membership of ``codes`` in the sorted ``sorted_codes``."""
    if not sorted_codes.size:
        return np.zeros(np.shape(codes), dtype=bool)
    at = np.searchsorted(sorted_codes, codes)
    return sorted_codes[np.minimum(at, sorted_codes.size - 1)] == codes


def edge_set(a: np.ndarray, b: np.ndarray) -> frozenset[Edge]:
    """The edges (a[i], b[i]) as a set of tuples of ints."""
    return frozenset(zip(a.tolist(), b.tolist()))


def _edge_list(codes: np.ndarray, base: int) -> list[list[int]]:
    """Sorted codes as the sorted ``[a, b]`` rows of a payload."""
    return np.stack(np.divmod(codes, base), axis=1).tolist()
