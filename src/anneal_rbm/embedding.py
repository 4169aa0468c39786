"""Native embeddings: replica partitions, K_{1,3} tilings, combined structures.

Replica partitions split a Pegasus graph into k congruent axis-aligned
coordinate blocks whose induced subgraphs are isomorphic by construction (the
isomorphism maps are tile translations).  Defects anywhere are excised from
every block through those maps, so the shared logical structure stays valid
on real, defective hardware.  A partition stores its iso maps as one (k,
n_logical) array and its logical edges as sorted codes a*n_logical + b, as
`topology` stores a graph; ``logical_edges``, ``iso_maps`` and ``regions``
are views of those arrays, built on first read.

QAC tilings cover a graph with vertex-disjoint K_{1,3} units (three problem
qubits plus one penalty hub), stored as arrays too.  The combined construction
gives k regions that each carry the same logical graph twice over: once as
one-qubit-per-node (replication) and once as one-unit-per-node (penalty code).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import EmbeddingInfeasibleError, FormatError, InvalidParameterError
from .jsonio import index_keys, integer, integer_rows, integers, loader, numbers
from .topology import (HardwareGraph, canonical_edges, chimera_index, edge_rows,
                       edge_set, frozen, graph_from_dict, unique_codes)

# Block grid (columns x rows) per replica count.
_GRIDS = {2: (2, 1), 4: (2, 2), 8: (4, 2)}


@dataclass(frozen=True, eq=False)
class ReplicaPartition:
    """k disjoint regions carrying isomorphic copies of one logical graph.

    Logical ids are dense 0..n_logical-1.  ``images`` is a read-only (k,
    n_logical) int64 array whose row r sends a logical id to the physical
    qubit hosting it in region r, so region r is the set of row r's values;
    ``edge_codes`` are the sorted codes a*n_logical + b (a < b) of the
    logical edges, the shared structure guaranteed to exist (as active
    couplers) in every region.
    """

    images: np.ndarray
    edge_codes: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "images", frozen(self.images))
        object.__setattr__(self, "edge_codes", frozen(self.edge_codes))

    def __eq__(self, other):
        if not isinstance(other, ReplicaPartition):
            return NotImplemented
        return (self.meta == other.meta and np.array_equal(self.images, other.images)
                and np.array_equal(self.edge_codes, other.edge_codes))

    k = property(lambda p: p.images.shape[0])
    n_logical = property(lambda p: p.images.shape[1])
    # Views of the arrays, built on first read: the logical edge set, and
    # per region its iso map dict and its qubit set
    logical_edges = cached_property(lambda p: edge_set(p.edge_codes, p.n_logical))
    iso_maps = cached_property(
        lambda p: tuple(dict(enumerate(row)) for row in p.images.tolist()))
    regions = cached_property(lambda p: tuple(frozenset(row) for row in p.images.tolist()))

    def logical_graph(self) -> HardwareGraph:
        return HardwareGraph("logical", {}, np.arange(self.n_logical), self.edge_codes)


def partition_replicas(g: HardwareGraph, k: int) -> ReplicaPartition:
    """Split a Pegasus graph into k mutually isomorphic replica regions.

    Regions are congruent coordinate blocks (halves, quadrants or eighths);
    the isomorphisms are tile translations, checked edge-by-edge downstream.
    A defect in any block removes its image from all blocks, so the returned
    logical structure embeds actively in every region.
    """
    if k not in _GRIDS:
        raise InvalidParameterError(f"replica count must be one of {sorted(_GRIDS)}, got {k}")
    if g.family != "pegasus":
        raise InvalidParameterError(f"replica partitioning needs a pegasus graph, got {g.family!r}")
    m = int(g.params["m"])
    gx, gy = _GRIDS[k]
    dx, dy = m // gx, m // gy
    span = m - 1
    # Perpendicular coordinates get the full block width; parallel coordinates
    # are clipped so the last block still fits inside [0, m-1).
    zx = max(0, min(dx, span - (gx - 1) * dx))
    zy = max(0, min(dy, span - (gy - 1) * dy))
    if dx == 0 or dy == 0:
        raise EmbeddingInfeasibleError(f"pegasus m={m} is too small to split {gx}x{gy}")

    # The canonical block in id order: vertical qubits (u=0) before
    # horizontal ones, and the linear id z + span*(k + 12*(w + m*u)) grows
    # with (w, k, z).  Cell (ix, iy) holds its translate by whole tiles.
    def block(u: int, w_len: int, z_len: int, w_shift: int, z_shift: int) -> np.ndarray:
        w, kk, z = np.ix_(range(w_len), range(12), range(z_len))
        return (z + z_shift + span * (kk + 12 * (w + w_shift + m * u))).ravel()

    cells = [(ix, iy) for ix in range(gx) for iy in range(gy)]
    maps = np.array([np.concatenate([block(0, dx, zy, ix * dx, iy * dy),
                                     block(1, dy, zx, iy * dy, ix * dx)])
                     for ix, iy in cells], dtype=np.int64)
    if not maps.shape[1]:
        raise EmbeddingInfeasibleError(f"empty canonical block for m={m}, k={k}")

    maps = maps[:, g.has_nodes(maps).all(axis=0)]
    n = maps.shape[1]
    if not n:
        raise EmbeddingInfeasibleError(f"no qubit of the block survives defects (m={m}, k={k})")
    # logical id = rank in the surviving block, which is maps[0] (cell (0, 0))
    # and sorted, so ra < rb and the codes stay sorted
    a, b = np.divmod(g.ideal_codes, g.code_base)
    inside = np.isin(a, maps[0]) & np.isin(b, maps[0])
    ra, rb = np.searchsorted(maps[0], (a[inside], b[inside]))
    keep = np.ones(ra.size, dtype=bool)
    for mp in maps:
        keep &= g.has_edges(mp[ra], mp[rb])
    meta = {"m": m, "grid": [gx, gy], "block": {"dx": dx, "dy": dy, "zx": zx, "zy": zy}}
    return ReplicaPartition(maps, ra[keep] * n + rb[keep], meta)


def _whole_graph_partition(g: HardwareGraph) -> ReplicaPartition:
    """Trivial k=1 partition: one region spanning all active qubits."""
    a, b = g.edge_ranks
    return ReplicaPartition(g.active_ids[None], a * g.active_ids.size + b, {"grid": [1, 1]})


@dataclass
class PartitionReport:
    """Outcome of verify_partition; ``ok`` is the loud pass/fail signal."""

    ok: bool
    k: int
    disjoint: bool
    bijective: bool
    nodes_active: bool
    edges_embedded: bool
    induced_symmetric: bool
    region_node_counts: list[int]
    region_edge_counts: list[int]
    failures: list[str]


def _region_failures(p: ReplicaPartition) -> dict[str, list[str]]:
    """Failures of the claims a partition makes without reference to a graph.

    Keyed by claim: no qubit in two regions (``disjoint``) and each iso map
    injective, so a bijection from 0..n_logical-1 onto its region
    (``bijective``).
    """
    qubits = unique_codes(p.images.ravel())
    disjoint: list[str] = []
    bijective: list[str] = []
    if qubits.size == p.images.size:  # no qubit is named twice
        return {"disjoint": disjoint, "bijective": bijective}
    first = np.full(qubits.size, -1)  # the first region holding each qubit
    for r, row in enumerate(p.images):
        at = unique_codes(np.searchsorted(qubits, row))
        if at.size < p.n_logical:
            bijective.append(f"region {r}: iso map is not injective")
        shared = at[first[at] >= 0]
        disjoint += [f"qubit {q} shared by regions {s} and {r}"
                     for q, s in zip(qubits[shared].tolist(), first[shared].tolist())]
        first[at[first[at] < 0]] = r
    return {"disjoint": disjoint, "bijective": bijective}


def verify_partition(p: ReplicaPartition, g: HardwareGraph) -> PartitionReport:
    """Re-derive and check every structural claim a partition makes.

    Checks region disjointness, that each iso map is a bijection from the
    logical ids onto its region, that all region qubits are active, and that
    every logical edge embeds as an active coupler in every region (the
    edge-preserving-bijection property).  The report also notes whether the
    regions' induced active edge sets are exactly symmetric, which holds for
    node-only defect masks.
    """
    found = _region_failures(p)
    failures = [f for claim in found.values() for f in claim]
    disjoint, bijective = (not claim for claim in found.values())
    n = p.n_logical

    nodes_active = True
    for r, row in enumerate(p.images):
        dead = np.sort(row[~g.has_nodes(row)])
        if dead.size:
            nodes_active = False
            failures.append(f"region {r}: inactive qubits {dead[:5].tolist()}")

    # an iso map that collapses a logical edge onto one qubit leaves it
    # without a coupler: has_edges(q, q) is False
    edges_embedded = True
    la, lb = np.divmod(p.edge_codes, max(n, 1))
    for r, row in enumerate(p.images):
        missing = ~g.has_edges(row[la], row[lb])
        if missing.any():
            edges_embedded = False
            failures += [f"region {r}: logical edge ({a},{b}) has no active coupler"
                         for a, b in zip(la[missing].tolist(), lb[missing].tolist())]

    # each region's active edges pulled back to logical ids, as sorted codes;
    # an active qubit pulls back to the last (largest) logical id sent to it
    pulled: list[np.ndarray] = []
    for row in p.images:
        alive = g.has_nodes(row)
        inv = np.full(g.active_ids.size, -1, dtype=np.int64)
        np.maximum.at(inv, np.searchsorted(g.active_ids, row[alive]), np.flatnonzero(alive))
        pre = inv[g.edge_ranks]
        va, vb = pre[:, (pre >= 0).all(axis=0)]
        pulled.append(unique_codes(np.minimum(va, vb) * n + np.maximum(va, vb)))
    induced_symmetric = bool(pulled)
    for r, ind in enumerate(pulled[1:], start=1):
        if not np.array_equal(ind, pulled[0]):
            induced_symmetric = False
            va, vb = np.divmod(np.setxor1d(ind, pulled[0])[:3], n)
            diff = list(zip(va.tolist(), vb.tolist()))
            failures.append(f"region {r}: induced edges differ from region 0 near {diff}")

    ok = disjoint and bijective and nodes_active and edges_embedded
    return PartitionReport(
        ok=ok, k=p.k, disjoint=disjoint, bijective=bijective,
        nodes_active=nodes_active, edges_embedded=edges_embedded,
        induced_symmetric=induced_symmetric,
        region_node_counts=[unique_codes(row).size for row in p.images],
        region_edge_counts=[ind.size for ind in pulled], failures=failures)


@dataclass(frozen=True, eq=False)
class QacEncoding:
    """Vertex-disjoint K_{1,3} cover of (part of) a hardware graph.

    Unit i hosts logical qubit i: ``problem[i]`` are its three problem
    qubits and ``penalty[i]`` its hub, u units in all.  ``edge_codes`` are
    the sorted codes a*u + b (a < b) of the coupled logical pairs, and pair
    i's couplers are the rows ``offsets[i]:offsets[i + 1]`` of the (E, 2)
    ``couplers``.  These read-only int64 arrays are checked when made: the
    4u qubit ids are non-negative and distinct, no pair repeats, and each
    pair's couplers, at least one, join a problem qubit of unit a to one of
    unit b, each coupler given once.
    """

    problem: np.ndarray
    penalty: np.ndarray
    edge_codes: np.ndarray
    couplers: np.ndarray
    offsets: np.ndarray
    penalty_weight: float = -1.0

    _ARRAYS = ("problem", "penalty", "edge_codes", "couplers", "offsets")

    def __post_init__(self):
        for name in self._ARRAYS:
            object.__setattr__(self, name, frozen(getattr(self, name)))
        failure = _encoding_failure(self)
        if failure:
            raise InvalidParameterError(f"invalid QAC encoding: {failure}")

    def __eq__(self, other):
        if not isinstance(other, QacEncoding):
            return NotImplemented
        return self.penalty_weight == other.penalty_weight and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in self._ARRAYS)

    n_logical = property(lambda e: e.penalty.size)

    def slots(self, qubits) -> np.ndarray:
        """Each qubit's index s in ``problem.ravel()``, so that it is
        problem qubit s % 3 of unit s // 3, or -1 for a qubit that is none."""
        flat = self.problem.ravel()
        order = np.argsort(flat)
        s = np.r_[order, -1][np.searchsorted(flat, qubits, sorter=order)]  # -1: past the end
        return np.where(np.r_[flat, -1][s] == qubits, s, -1)

    def logical_graph(self) -> HardwareGraph:
        """Graph over logical ids: nodes are units, edges the coupled unit pairs."""
        return HardwareGraph("logical", {}, np.arange(self.n_logical), self.edge_codes)


def _encoding_failure(e: QacEncoding) -> str | None:
    """The first claim of the QacEncoding docstring that ``e`` breaks."""
    u, codes, couplers, offsets = e.n_logical, e.edge_codes, e.couplers, e.offsets
    shapes = [getattr(e, name).shape for name in e._ARRAYS]
    if shapes != [(u, 3), (u,), (codes.size,), (*couplers.shape[:1], 2), (codes.size + 1,)]:
        return f"arrays of shapes {shapes}, not (u, 3), (u,), (L,), (E, 2) and (L + 1,)"
    qubits = np.sort(np.concatenate([e.problem.ravel(), e.penalty]))
    if qubits.size and (qubits[0] < 0 or (qubits[1:] == qubits[:-1]).any()):
        return f"its {qubits.size} qubit ids are not non-negative and distinct"
    a, b = np.divmod(codes, max(u, 1))
    if ((codes < 0) | (codes >= u * u) | (a >= b)).any() or (np.diff(codes) <= 0).any():
        return f"its pair codes are not rising codes a*{u} + b with a < b < {u}"
    sizes = np.diff(offsets)
    if offsets[0] != 0 or offsets[-1] != len(couplers) or (sizes < 1).any():
        return f"its offsets do not split the {len(couplers)} couplers into one run per pair"
    # unit s // 3 holds slot s, and a qubit in no unit has slot -1
    slot = np.sort(e.slots(couplers), axis=1)
    pair = np.repeat(np.arange(codes.size), sizes)
    wrong = (slot[:, 0] // 3 != a[pair]) | (slot[:, 1] // 3 != b[pair])
    if wrong.any():
        return (f"coupler {couplers[wrong.argmax()].tolist()} does not join a problem "
                f"qubit of each unit of its pair")
    if unique_codes(slot[:, 0] * 3 * u + slot[:, 1]).size < len(couplers):
        return "a coupler is given twice"
    return None


def _greedy_units(g: HardwareGraph, taken: list[bool]) -> np.ndarray:
    """Scan active qubits in id order as penalty hubs, claiming K_{1,3}s
    greedily; ``taken[i]`` marks a claimed ``g.active_ids[i]`` and is
    updated.  Returns the (u, 4) units: three problem qubits, then the hub."""
    offsets, ranks = (a.tolist() for a in g.neighbors)
    units = []
    for hub in range(len(taken)):
        if taken[hub]:
            continue
        avail = [nb for nb in ranks[offsets[hub]:offsets[hub + 1]] if not taken[nb]]
        if len(avail) < 3:
            continue
        units.append((*avail[:3], hub))
        for i in units[-1]:
            taken[i] = True
    return g.active_ids[np.array(units, dtype=np.int64).reshape(-1, 4)]


def _chimera_template_units(g: HardwareGraph) -> np.ndarray:
    """The (u, 4) units of two per fully working Chimera cell, penalty hubs
    on wire 3."""
    rows, cols, shore = (int(g.params[x]) for x in ("rows", "cols", "shore"))
    if shore < 4:
        return np.zeros((0, 4), dtype=np.int64)
    # cell (r, c) has a unit with problem qubits on each side, in that order
    r, c, side, k = np.ix_(range(rows), range(cols), range(2), range(3))
    probs = chimera_index(cols, shore, r, c, side, k)
    pens = chimera_index(cols, shore, r, c, 1 - side, 3)
    ok = (g.has_nodes(probs).all(-1) & g.has_nodes(pens).all(-1)
          & g.has_edges(probs, pens).all(-1)).ravel()
    return np.c_[probs.reshape(-1, 3)[ok], pens.ravel()[ok]]


def tile_qac(g: HardwareGraph, penalty_weight: float = -1.0) -> QacEncoding:
    """Greedy maximal vertex-disjoint K_{1,3} tiling of the active graph.

    On Chimera the per-cell template is applied first (two logical qubits per
    working cell); any leftover qubits, and all other graph families, are
    tiled by a deterministic id-order greedy scan.  Logical edges collect all
    hardware couplers between problem-qubit sets of distinct units, each
    unit pair's in sorted order.
    """
    units = _chimera_template_units(g) if g.family == "chimera" else np.zeros((0, 4), np.int64)
    units = np.concatenate([units, _greedy_units(g, np.isin(g.active_ids, units).tolist())])

    owner = np.full(g.active_ids.size, -1)  # the unit of each active qubit's rank, or -1
    owner[np.searchsorted(g.active_ids, units[:, :3])] = np.arange(len(units))[:, None]
    ua, ub = owner[g.edge_ranks]
    keep = (ua >= 0) & (ub >= 0) & (ua != ub)
    pair = np.minimum(ua, ub)[keep] * len(units) + np.maximum(ua, ub)[keep]
    order = np.argsort(pair, kind="stable")  # a pair's couplers stay sorted
    pair = pair[order]
    starts = np.flatnonzero(np.diff(pair, prepend=-1))
    ends = np.stack(np.divmod(g.edge_codes, g.code_base), axis=1)[keep][order]
    return QacEncoding(units[:, :3], units[:, 3], pair[starts], ends,
                       np.r_[starts, pair.size], penalty_weight)


def _pick_representatives(tiling: QacEncoding, shared: HardwareGraph) -> np.ndarray:
    """One problem qubit per unit, chosen to maximize inter-unit adjacency.

    The score of a candidate counts its neighbors that belong to other units'
    problem triples; ties fall to the first, lowest, of a unit's problem
    qubits, keeping the choice deterministic.
    """
    problem = np.searchsorted(shared.active_ids, tiling.problem)
    owner = tiling.slots(shared.active_ids) // 3  # slot -1 is in unit -1
    offsets, ranks = shared.neighbors
    hub = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))  # ranks[i] neighbours hub[i]
    other = owner[ranks]
    score = np.bincount(hub, weights=(other >= 0) & (other != owner[hub]),
                        minlength=offsets.size - 1)
    best = problem[np.arange(len(problem)), np.argmax(score[problem], axis=1)]
    return shared.active_ids[best]


@dataclass(frozen=True)
class CombinedEmbedding:
    """Structure usable by replication and penalty encoding at once.

    Each region carries an isomorphic copy of the instance graph; a node is
    representable either as one qubit (``rbm_partition``) or as one K_{1,3}
    unit (``encodings[r]``).
    """

    k: int
    encodings: tuple[QacEncoding, ...]
    rbm_partition: ReplicaPartition
    base_partition: ReplicaPartition


def combine_qac_rbm(g: HardwareGraph, k: int = 4,
                    penalty_weight: float = -1.0) -> CombinedEmbedding:
    """Build k disjoint regions each admitting the same QAC-able instance graph.

    The shared block structure is tiled with K_{1,3} units once, in canonical
    coordinates, so the per-region unit layouts are translates of each other.
    Instance edges are pairs of units whose representative qubits share a
    hardware coupler in every region, which keeps the one-qubit-per-node
    replica embedding native.
    """
    base = _whole_graph_partition(g) if k == 1 else partition_replicas(g, k)
    shared = base.logical_graph()
    tiling = tile_qac(shared, penalty_weight=penalty_weight)
    if not tiling.n_logical:
        raise EmbeddingInfeasibleError(
            f"no K_(1,3) unit fits the shared block structure (k={k})")

    reps = _pick_representatives(tiling, shared)
    a, b = np.divmod(tiling.edge_codes, tiling.n_logical)
    keep = shared.has_edges(reps[a], reps[b])
    sizes = np.diff(tiling.offsets)
    ends = tiling.couplers[np.repeat(keep, sizes)]
    offsets = np.r_[0, np.cumsum(sizes[keep])]
    codes = tiling.edge_codes[keep]
    encodings = tuple(QacEncoding(image[tiling.problem], image[tiling.penalty], codes,
                                  np.sort(image[ends], axis=1), offsets, penalty_weight)
                      for image in base.images)
    rbm = ReplicaPartition(base.images[:, reps], codes, {**base.meta, "representatives": True})
    return CombinedEmbedding(k=base.k, encodings=encodings, rbm_partition=rbm,
                             base_partition=base)


# ---------------------------------------------------------------------------
# Serialization

def partition_to_dict(p: ReplicaPartition) -> dict:
    keys = list(map(str, range(p.n_logical)))
    return {
        "k": p.k,
        "n_logical": p.n_logical,
        "logical_edges": edge_rows(p.edge_codes, p.n_logical),
        "iso_maps": [dict(zip(keys, row)) for row in p.images.tolist()],
        "regions": [unique_codes(row).tolist() for row in p.images],
        "meta": p.meta,
    }


@loader("partition")
def partition_from_dict(data: dict) -> ReplicaPartition:
    """A partition payload; FormatError also when its ``k`` is not its
    number of regions and of iso maps, a logical edge or an iso map's
    domain is not within 0..n_logical-1, a region is not its map's image,
    or the regions break the other graph-independent claims verify_partition
    checks."""
    k, n = integer(data["k"]), integer(data["n_logical"])
    pairs = canonical_edges(integer_rows(data["logical_edges"], 2))
    maps, regions = data["iso_maps"], data["regions"]
    failures = []
    if not k == len(regions) == len(maps):
        failures.append(f"k={k} but {len(regions)} regions / {len(maps)} iso maps")
    if pairs.size and not 0 <= pairs.min() <= pairs.max() < n:
        failures.append(f"a logical edge leaves 0..{n - 1}")
    images = np.empty((len(maps), n), dtype=np.int64)
    domain = dict.fromkeys(map(str, range(n)))  # the keys "0".."n-1", as printed
    for r, iso in enumerate(maps):
        if iso.keys() != domain.keys():
            failures.append(f"region {r}: iso map domain is not 0..{n - 1}")
            continue
        images[r] = integers([iso[v] for v in domain])
    if not failures:
        p = ReplicaPartition(images, unique_codes(pairs[:, 0] * n + pairs[:, 1]),
                             dict(data.get("meta", {})))
        failures = [f for claim in _region_failures(p).values() for f in claim]
        failures += [f"region {r}: iso map image differs from region set"
                     for r, (reg, row) in enumerate(zip(regions, images))
                     if not np.array_equal(unique_codes(integers(reg)), unique_codes(row))]
    if failures:
        raise FormatError("inconsistent partition payload: " + "; ".join(failures[:3]))
    return p


def encoding_to_dict(e: QacEncoding) -> dict:
    rows, cuts = e.couplers.tolist(), e.offsets.tolist()
    return {
        "units": [{"problem": qs, "penalty": q}
                  for qs, q in zip(e.problem.tolist(), e.penalty.tolist())],
        "logical_edges": {"{},{}".format(*pair): rows[i:j] for pair, i, j
                          in zip(edge_rows(e.edge_codes, e.n_logical), cuts, cuts[1:])},
        "penalty_weight": e.penalty_weight,
    }


@loader("encoding")
def encoding_from_dict(data: dict) -> QacEncoding:
    """An encoding payload; its ``"a,b"`` keys may come in any order, and
    InvalidParameterError also when one leaves 0..u-1 or the encoding breaks
    a claim QacEncoding checks."""
    units, ledges = data["units"], data["logical_edges"]
    n = len(units)
    keys = canonical_edges(np.array(index_keys(ledges, 2), dtype=np.int64).reshape(-1, 2))
    if keys.size and not 0 <= keys.min() <= keys.max() < n:  # else codes could alias
        raise InvalidParameterError(f"a logical pair key leaves 0..{n - 1}")
    codes = keys[:, 0] * n + keys[:, 1]
    order = np.argsort(codes, kind="stable").tolist()
    couplers = list(ledges.values())
    couplers = [couplers[i] for i in order]
    return QacEncoding(
        integer_rows([u["problem"] for u in units], 3), integers([u["penalty"] for u in units]),
        codes[order], canonical_edges(integer_rows(list(chain.from_iterable(couplers)), 2)),
        np.cumsum([0] + [len(cs) for cs in couplers]),
        float(numbers([data.get("penalty_weight", -1.0)])[0]))


def combined_to_dict(c: CombinedEmbedding) -> dict:
    return {
        "k": c.k,
        "encodings": [encoding_to_dict(e) for e in c.encodings],
        "rbm_partition": partition_to_dict(c.rbm_partition),
        "base_partition": partition_to_dict(c.base_partition),
    }


@loader("combined-embedding")
def combined_from_dict(data: dict) -> CombinedEmbedding:
    """A combined payload; FormatError also when its ``k``, its number of
    encodings and its two partitions' ``k`` disagree, or when an encoding's
    units or logical edges are not ``rbm_partition``'s logical ids and edges."""
    c = CombinedEmbedding(
        k=integer(data["k"]),
        encodings=tuple(encoding_from_dict(e) for e in data["encodings"]),
        rbm_partition=partition_from_dict(data["rbm_partition"]),
        base_partition=partition_from_dict(data["base_partition"]))
    if not c.k == len(c.encodings) == c.rbm_partition.k == c.base_partition.k:
        raise FormatError(
            f"inconsistent combined-embedding payload: k={c.k} but "
            f"{len(c.encodings)} encodings, rbm_partition k={c.rbm_partition.k}, "
            f"base_partition k={c.base_partition.k}")
    rbm = c.rbm_partition
    for r, enc in enumerate(c.encodings):
        if enc.n_logical != rbm.n_logical or not np.array_equal(enc.edge_codes, rbm.edge_codes):
            raise FormatError(
                f"inconsistent combined-embedding payload: encoding {r} has {enc.n_logical} "
                f"units and {enc.edge_codes.size} logical edges, rbm_partition "
                f"{rbm.n_logical} and {rbm.edge_codes.size}, or other edges")
    return c


# Structure files.  A flag that names a structure file accepts the file of
# its own kind or a combined one, and a graph flag a partition too; the keys
# below tell the kinds apart.  Only a combined payload holds these keys:
_COMBINED_KEYS = frozenset(("encodings", "rbm_partition", "base_partition"))
_ROLES = ("graph", "partition", "encoding")


@loader("structure")
def structure_from_dict(data: dict, role: str):
    """The hardware graph, replica partition or QAC encoding that a structure
    payload supplies, as ``role`` ("graph", "partition" or "encoding") asks.

    A payload holding any key of a combined file is one, and is loaded and
    checked whole by combined_from_dict: its partition is ``rbm_partition``,
    its encoding ``encodings[0]`` and its graph that partition's logical
    graph.  Otherwise a payload holding ``iso_maps`` is a partition, which
    supplies itself or its logical graph, and any other payload is read as
    the role's own kind.  A file that cannot supply the role, such as an
    encoding read as a graph, raises FormatError.
    """
    if role not in _ROLES:
        raise InvalidParameterError(f"role must be one of {_ROLES}, got {role!r}")
    if _COMBINED_KEYS & data.keys():
        combined = combined_from_dict(data)
        if role == "encoding":
            return combined.encodings[0]
        part = combined.rbm_partition
    elif role == "encoding":
        return encoding_from_dict(data)
    elif role == "graph" and "iso_maps" not in data:
        return graph_from_dict(data)
    else:
        part = partition_from_dict(data)
    return part.logical_graph() if role == "graph" else part
