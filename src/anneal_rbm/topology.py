"""Hardware connectivity graphs (Pegasus, Chimera) with defect masks.

Qubits are addressed by a linear integer id, the lexicographic rank of the
qubit's coordinate tuple.  Pegasus uses (u, w, k, z) coordinates with the
standard vendor offset lists; Chimera uses (row, col, shore, k).  A graph
keeps its ideal qubits and couplers plus a defect mask, so coordinates stay
valid after qubits are disabled.

Node ids are non-negative, so an edge (a, b) with a < b has the integer code
a*N + b, N being one more than the largest id, and sorted codes are sorted
edges.  A graph is its sorted id and code arrays and nothing else: building,
masking, loading and writing graphs, and the partition checks in `embedding`,
are numpy passes over them, and a qubit's neighbours are read from the CSR
``neighbors``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Iterable

import numpy as np

from .errors import InvalidParameterError
from .jsonio import integer, integer_rows, integers, loader

Edge = tuple[int, int]

# Offsets of the vertical / horizontal qubit wires inside a 12-wire tile.
# These are the production chip values; together with the crossing rule below
# they fix the internal-coupler pattern.
PEGASUS_VERTICAL_OFFSETS = (2, 2, 2, 2, 6, 6, 6, 6, 10, 10, 10, 10)
PEGASUS_HORIZONTAL_OFFSETS = (6, 6, 6, 6, 10, 10, 10, 10, 2, 2, 2, 2)


def frozen(values, dtype=np.int64) -> np.ndarray:
    """``values`` as a read-only array, int64 unless ``dtype`` says otherwise."""
    a = np.asarray(values, dtype=dtype)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class HardwareGraph:
    """Immutable qubit/coupler topology with a defect mask.

    ``node_ids`` and ``ideal_codes`` describe the ideal (defect-free) graph;
    ``defect_ids`` and ``defect_codes`` mark disabled elements.  Each is a
    sorted, repeat-free, read-only int64 array, the codes in base
    ``code_base``.  All downstream code operates on the active elements.
    """

    family: str
    params: dict
    node_ids: np.ndarray
    ideal_codes: np.ndarray
    defect_ids: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    defect_codes: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    _ARRAYS = ("node_ids", "ideal_codes", "defect_ids", "defect_codes")

    def __post_init__(self):
        for name in self._ARRAYS:
            object.__setattr__(self, name, frozen(getattr(self, name)))

    def __eq__(self, other):
        if not isinstance(other, HardwareGraph):
            return NotImplemented
        return (self.family == other.family and self.params == other.params
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name in self._ARRAYS))

    @cached_property
    def code_base(self) -> int:
        """N of the edge codes a*N + b: one more than the largest node id."""
        return int(self.node_ids[-1]) + 1 if self.node_ids.size else 0

    @cached_property
    def active_ids(self) -> np.ndarray:
        """Sorted ids of the active qubits."""
        return np.setdiff1d(self.node_ids, self.defect_ids, assume_unique=True)

    @cached_property
    def edge_codes(self) -> np.ndarray:
        """Sorted int64 codes of the active couplers."""
        codes, base = self.ideal_codes, self.code_base
        if self.defect_codes.size:
            codes = codes[~_contains(self.defect_codes, codes)]
        if self.defect_ids.size:
            a, b = np.divmod(codes, base)
            codes = codes[self.has_nodes(a) & self.has_nodes(b)]
        return codes

    @cached_property
    def edge_ranks(self) -> np.ndarray:
        """The (2, E) ends of the active couplers, in code order, as ranks
        in ``active_ids``: the couplers of the graph relabelled 0..n-1."""
        return np.searchsorted(self.active_ids, np.divmod(self.edge_codes, self.code_base))

    @cached_property
    def neighbors(self) -> tuple[np.ndarray, np.ndarray]:
        """(offsets, ranks): the active neighbours of ``active_ids[i]`` are
        ``active_ids[ranks[offsets[i]:offsets[i + 1]]]``, sorted."""
        a, b = self.edge_ranks
        ends, others = np.concatenate([a, b]), np.concatenate([b, a])
        offsets = np.zeros(self.active_ids.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(ends, minlength=self.active_ids.size), out=offsets[1:])
        return offsets, others[np.lexsort((others, ends))]

    def has_nodes(self, q: np.ndarray) -> np.ndarray:
        """Elementwise: is qubit ``q`` active?  Any integer array."""
        return np.isin(np.asarray(q, dtype=np.int64), self.active_ids)

    def has_edges(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise: is there an active coupler between qubits ``a`` and
        ``b``?  Endpoints in either order; unknown ids have none."""
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        # a code is exact only when both ends are known ids
        return (self.has_nodes(lo) & self.has_nodes(hi)
                & _contains(self.edge_codes, lo * self.code_base + hi))


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
    return HardwareGraph("pegasus", {"m": m}, np.arange(n),
                         _coupler_codes(n, external, odd, internal))


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
    n = rows * cols * 2 * shore
    lin = partial(chimera_index, cols, shore)
    r, c, i, j = np.ix_(range(rows), range(cols), range(shore), range(shore))
    cell = (lin(r, c, 0, i), lin(r, c, 1, j))
    r, c, i = np.ix_(range(rows), range(cols), range(shore))
    vertical = (lin(r[:-1], c, 0, i), lin(r[1:], c, 0, i))
    horizontal = (lin(r, c[:, :-1], 1, i), lin(r, c[:, 1:], 1, i))
    return HardwareGraph("chimera", {"rows": rows, "cols": cols, "shore": shore},
                         np.arange(n), _coupler_codes(n, cell, vertical, horizontal))


def chimera_index(cols: int, shore: int, r: int, c: int, u: int, k: int) -> int:
    """(row, col, shore side, wire) -> linear id in a Chimera grid."""
    return k + shore * (u + 2 * (c + cols * r))


def build_custom(nodes: Iterable[int], edges: Iterable[Edge],
                 family: str = "custom") -> HardwareGraph:
    """Arbitrary graph wrapped in the HardwareGraph interface.

    Used for logical graphs and for interchange with external tools; no
    coordinate structure is implied.
    """
    ids = _node_ids(list(nodes))
    pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
    return HardwareGraph(family, {}, ids, _checked_codes(pairs, ids))


def apply_defects(g: HardwareGraph, dead_nodes: Iterable[int] = (),
                  dead_edges: Iterable[Edge] = ()) -> HardwareGraph:
    """Mask nodes and edges as defective.  Idempotent for a fixed mask.

    Masked nodes keep their ids (coordinates remain valid); their incident
    edges drop out of the active sets automatically.
    """
    ids = unique_codes(np.array(list(dead_nodes), dtype=np.int64))
    unknown = ids[~np.isin(ids, g.node_ids)]
    if unknown.size:
        raise InvalidParameterError(f"defect mask names unknown nodes: {unknown[:5].tolist()}")
    pairs = canonical_edges(np.array(list(dead_edges), dtype=np.int64).reshape(-1, 2))
    lo, hi = pairs.T
    known = (np.isin(pairs, g.node_ids).all(axis=1)
             & _contains(g.ideal_codes, lo * g.code_base + hi))
    if not known.all():
        bad = sorted(set(zip(lo[~known].tolist(), hi[~known].tolist())))
        raise InvalidParameterError(f"defect mask names unknown edges: {bad[:5]}")
    return HardwareGraph(g.family, g.params, g.node_ids, g.ideal_codes,
                         np.union1d(g.defect_ids, ids),
                         np.union1d(g.defect_codes, lo * g.code_base + hi))


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
    """Exact counts over the active qubits and couplers."""
    n, e = g.active_ids.size, g.edge_codes.size
    hist = {d: c for d, c in enumerate(np.bincount(np.diff(g.neighbors[0])).tolist()) if c}
    avg = 2.0 * e / n if n else 0.0
    return GraphStats(n, e, hist, avg)


def graph_to_dict(g: HardwareGraph) -> dict:
    return {
        "family": g.family,
        "params": dict(g.params),
        "nodes": g.node_ids.tolist(),
        "edges": edge_rows(g.ideal_codes, g.code_base),
        "defects": {
            "nodes": g.defect_ids.tolist(),
            "edges": edge_rows(g.defect_codes, g.code_base),
        },
    }


@loader("defect mask")
def defects_from_dict(data: dict) -> tuple[np.ndarray, np.ndarray]:
    """Dead node ids and (E, 2) dead edges of a ``{"nodes": [...], "edges":
    [[a, b], ...]}`` mask; a missing key masks nothing."""
    pairs = canonical_edges(integer_rows(data.get("edges", []), 2))
    return np.array(integers(data.get("nodes", [])), dtype=np.int64), pairs


#: graph family -> the integer parameters its coordinate scheme needs
_FAMILY_PARAMS = {"pegasus": ("m",), "chimera": ("rows", "cols", "shore")}


@loader("graph")
def graph_from_dict(data: dict) -> HardwareGraph:
    params = dict(data.get("params", {}))
    for key in _FAMILY_PARAMS.get(data["family"], ()):
        integer(params[key])
    ids = _node_ids(integers(data["nodes"]))
    g = HardwareGraph(data["family"], params, ids,
                      _checked_codes(integer_rows(data["edges"], 2), ids))
    return apply_defects(g, *defects_from_dict(data.get("defects", {})))


# ---------------------------------------------------------------------------
# Edge arrays

def _node_ids(nodes: list) -> np.ndarray:
    """Sorted unique ids; InvalidParameterError for one outside 0..2**31-1,
    where the int64 edge codes a*N + b would overflow."""
    ids = unique_codes(np.array(nodes, dtype=np.int64))
    if ids.size and not 0 <= ids[0] <= ids[-1] < 2**31:
        raise InvalidParameterError(
            f"node ids must be non-negative and below 2**31, got {ids[[0, -1]].tolist()}")
    return ids


def canonical_edges(pairs: np.ndarray) -> np.ndarray:
    """An (E, 2) array of edge endpoints with the lower id first;
    InvalidParameterError for a self-loop."""
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    loops = np.flatnonzero(lo == hi)
    if loops.size:
        raise InvalidParameterError(f"self-loop on node {int(lo[loops[0]])}")
    return np.stack([lo, hi], axis=1)


def _checked_codes(pairs: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Sorted unique codes of the edges ``pairs`` among the sorted node
    ``ids``; InvalidParameterError for a self-loop or an unknown endpoint."""
    pairs = canonical_edges(pairs)
    unknown = np.flatnonzero(~np.isin(pairs, ids).all(axis=1))
    if unknown.size:
        e = tuple(pairs[unknown[0]].tolist())
        raise InvalidParameterError(f"edge {e} references unknown node")
    base = int(ids[-1]) + 1 if ids.size else 0
    return unique_codes(pairs[:, 0] * base + pairs[:, 1])


def _coupler_codes(base: int, *pairs) -> np.ndarray:
    """Sorted unique codes of the couplers (a, b), a < b, of each pair of
    broadcastable id arrays."""
    return unique_codes(np.concatenate([(a * base + b).ravel() for a, b in pairs]))


def unique_codes(codes: np.ndarray) -> np.ndarray:
    """``codes`` sorted, without repeats (np.unique's result, by one sort)."""
    codes = np.sort(codes)
    return codes[np.r_[True, codes[1:] != codes[:-1]]] if codes.size else codes


def _contains(sorted_codes: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Elementwise membership of ``codes`` in the sorted ``sorted_codes``."""
    if not sorted_codes.size:
        return np.zeros(np.shape(codes), dtype=bool)
    at = np.searchsorted(sorted_codes, codes)
    return sorted_codes[np.minimum(at, sorted_codes.size - 1)] == codes


def edge_rows(codes: np.ndarray, base: int) -> list[list[int]]:
    """Sorted codes as the sorted ``[a, b]`` rows of a payload."""
    return np.stack(np.divmod(codes, base), axis=1).tolist()
