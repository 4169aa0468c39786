"""Native embeddings: replica partitions, K_{1,3} tilings, combined structures.

Replica partitions split a Pegasus graph into k congruent axis-aligned
coordinate blocks whose induced subgraphs are isomorphic by construction (the
isomorphism maps are tile translations).  Defects anywhere are excised from
every block through those maps, so the shared logical structure stays valid
on real, defective hardware.  A partition is its iso maps as one (k,
n_logical) array, whose row r is region r, and its logical edges as sorted
codes a*n_logical + b, as `topology` stores a graph.  Since it is a pure
function of the graph and k, a partition file is their recipe: the graph's
recipe and ``k``, rebuilt by ``partition_replicas`` when loaded.

QAC tilings cover a graph with vertex-disjoint K_{1,3} units (three problem
qubits plus one penalty hub), stored and written as arrays (a loaded coupler's
unit pair is found from its ends); the penalty weight is the annealing run's
alpha, not part of a tiling.  The combined construction gives
k regions that each carry the same logical graph twice over: once as
one-qubit-per-node (replication) and once as one-unit-per-node (penalty code).
Its file stores the encodings and, for each unit, which of its three problem
qubits hosts the unit's logical qubit under replication (``rbm_slots``), not
the block partition they come from, which for k > 1 is what
`partition_replicas` returns for the same graph and k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmbeddingInfeasibleError, FormatError, InvalidParameterError
from .jsonio import integer, integer_rows, integers, loader
from .topology import (HardwareGraph, canonical_edges, chimera_index, frozen, graph_from_dict,
                       graph_to_dict, unique_codes)

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

    def __post_init__(self):
        object.__setattr__(self, "images", frozen(self.images))
        object.__setattr__(self, "edge_codes", frozen(self.edge_codes))

    def __eq__(self, other):
        if not isinstance(other, ReplicaPartition):
            return NotImplemented
        return (np.array_equal(self.images, other.images)
                and np.array_equal(self.edge_codes, other.edge_codes))

    k = property(lambda p: p.images.shape[0])
    n_logical = property(lambda p: p.images.shape[1])

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
    return ReplicaPartition(maps, ra[keep] * n + rb[keep])


def _whole_graph_partition(g: HardwareGraph) -> ReplicaPartition:
    """Trivial k=1 partition: one region spanning all active qubits."""
    a, b = g.edge_ranks
    return ReplicaPartition(g.active_ids[None], a * g.active_ids.size + b)


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
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in self._ARRAYS)

    n_logical = property(lambda e: e.penalty.size)

    def slots(self, qubits) -> np.ndarray:
        """Each qubit's index s in ``problem.ravel()``, so that it is
        problem qubit s % 3 of unit s // 3, or -1 for a qubit that is none."""
        return _slots(self.problem, qubits)

    def logical_graph(self) -> HardwareGraph:
        """Graph over logical ids: nodes are units, edges the coupled unit pairs."""
        return HardwareGraph("logical", {}, np.arange(self.n_logical), self.edge_codes)


def _slots(problem: np.ndarray, qubits) -> np.ndarray:
    """QacEncoding.slots of the (u, 3) ``problem``."""
    flat = problem.ravel()
    order = np.argsort(flat)
    s = np.r_[order, -1][np.searchsorted(flat, qubits, sorter=order)]  # -1: past the end
    return np.where(np.r_[flat, -1][s] == qubits, s, -1)


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


def tile_qac(g: HardwareGraph) -> QacEncoding:
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
    return QacEncoding(units[:, :3], units[:, 3], pair[starts], ends, np.r_[starts, pair.size])


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
    unit (``encodings[r]``).  Its payload holds ``k``, the encodings and the
    slot of each unit's problem qubit that ``rbm_partition`` picks.
    """

    k: int
    encodings: tuple[QacEncoding, ...]
    rbm_partition: ReplicaPartition


def combine_qac_rbm(g: HardwareGraph, k: int = 4) -> CombinedEmbedding:
    """Build k disjoint regions each admitting the same QAC-able instance graph.

    The shared block structure is tiled with K_{1,3} units once, in canonical
    coordinates, so the per-region unit layouts are translates of each other.
    Instance edges are pairs of units whose representative qubits share a
    hardware coupler in every region, which keeps the one-qubit-per-node
    replica embedding native.
    """
    base = _whole_graph_partition(g) if k == 1 else partition_replicas(g, k)
    shared = base.logical_graph()
    tiling = tile_qac(shared)
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
                                  np.sort(image[ends], axis=1), offsets)
                      for image in base.images)
    return CombinedEmbedding(k=base.k, encodings=encodings,
                             rbm_partition=ReplicaPartition(base.images[:, reps], codes))


# ---------------------------------------------------------------------------
# Serialization

def partition_to_dict(g: HardwareGraph, k: int) -> dict:
    """The recipe of ``partition_replicas(g, k)``: the graph's recipe and k."""
    return {"graph": graph_to_dict(g), "k": k}


# the CLI adds "meta" to every file it writes
@loader("partition", keys=("graph", "k", "meta"))
def partition_from_dict(data: dict) -> ReplicaPartition:
    """A partition payload, rebuilt by partition_replicas from its graph
    payload and its ``k``."""
    return partition_replicas(graph_from_dict(data["graph"]), integer(data["k"]))


def encoding_to_dict(e: QacEncoding) -> dict:
    """The problem qubits and hub of each unit, and the couplers, as rows."""
    return {"problem": e.problem.tolist(), "penalty": e.penalty.tolist(),
            "couplers": e.couplers.tolist()}


# the CLI adds "meta" to every file it writes
@loader("encoding", keys=("problem", "penalty", "couplers", "meta"))
def encoding_from_dict(data: dict) -> QacEncoding:
    """An encoding payload, a coupler's pair being the two units whose problem
    qubits it joins: pairs may come in any order, and a pair's couplers keep
    theirs.  FormatError also for a coupler that does not join problem qubits
    of two units, InvalidParameterError for a claim QacEncoding checks."""
    problem = integer_rows(data["problem"], 3)
    couplers = canonical_edges(integer_rows(data["couplers"], 2))
    unit = np.sort(_slots(problem, couplers) // 3, axis=1)  # a qubit in no unit: -1
    bad = np.flatnonzero((unit[:, 0] < 0) | (unit[:, 0] == unit[:, 1]))
    if bad.size:
        raise FormatError(f"malformed encoding payload: coupler {couplers[bad[0]].tolist()} "
                          f"does not join problem qubits of two units")
    codes = unit[:, 0] * len(problem) + unit[:, 1]
    order = np.argsort(codes, kind="stable")
    starts = np.flatnonzero(np.diff(codes[order], prepend=-1))
    return QacEncoding(problem, np.array(integers(data["penalty"]), dtype=np.int64),
                       codes[order][starts], couplers[order], np.r_[starts, codes.size])


def _slot_partition(encodings, slots: np.ndarray) -> ReplicaPartition:
    """The partition whose region r hosts logical qubit i on problem qubit
    ``slots[i]`` of encoding r's unit i, with the encodings' logical edges."""
    units = np.arange(slots.size)
    return ReplicaPartition(np.stack([e.problem[units, slots] for e in encodings]),
                            encodings[0].edge_codes)


def combined_to_dict(c: CombinedEmbedding) -> dict:
    """``k``, the encodings and ``rbm_slots``, which of each unit's three
    problem qubits hosts its logical qubit under replication.
    InvalidParameterError for an ``rbm_partition`` that is not one problem
    qubit of each unit in every region, which its slots would load as
    another partition."""
    rbm, first = c.rbm_partition, c.encodings[0]
    slots = first.slots(rbm.images[0]) % 3  # a qubit in no unit (-1) is refused below
    if rbm.n_logical != first.n_logical or _slot_partition(c.encodings, slots) != rbm:
        raise InvalidParameterError(
            "rbm_partition does not host each logical qubit on a problem qubit "
            "of its unit, in the same slot in every region")
    return {"k": c.k, "encodings": [encoding_to_dict(e) for e in c.encodings],
            "rbm_slots": slots.tolist()}


@loader("combined-embedding", keys=("k", "encodings", "rbm_slots", "meta"))
def combined_from_dict(data: dict) -> CombinedEmbedding:
    """A combined payload, whose ``rbm_partition`` is each unit's
    ``rbm_slots`` problem qubit in every encoding; FormatError also when its
    ``k`` is not its number of encodings (one or more), an encoding's units
    or logical edges are not encoding 0's, its slots are not u integers in
    0..2, or two encodings share a qubit (so the regions are disjoint)."""
    k = integer(data["k"])
    encodings = tuple(encoding_from_dict(e) for e in data["encodings"])
    slots = np.array(integers(data["rbm_slots"]), dtype=np.int64)
    if not k == len(encodings) >= 1:
        raise FormatError(f"inconsistent combined-embedding payload: k={k} "
                          f"but {len(encodings)} encodings")
    u, codes = encodings[0].n_logical, encodings[0].edge_codes
    for r, enc in enumerate(encodings):
        if enc.n_logical != u or not np.array_equal(enc.edge_codes, codes):
            raise FormatError(
                f"inconsistent combined-embedding payload: encoding {r} has {enc.n_logical} "
                f"units and {enc.edge_codes.size} logical edges, encoding 0 {u} and "
                f"{codes.size}, or other edges")
    if slots.size != u or ((slots < 0) | (slots > 2)).any():
        raise FormatError(f"inconsistent combined-embedding payload: rbm_slots are "
                          f"{slots.size} integers {slots[:5].tolist()}..., not {u} in 0..2")
    qubits = np.concatenate([np.c_[e.problem, e.penalty].ravel() for e in encodings])
    order = np.argsort(qubits, kind="stable")
    shared = np.flatnonzero(np.diff(qubits[order]) == 0)
    if shared.size:
        first, again = order[shared[0]:shared[0] + 2] // (4 * u)
        raise FormatError(f"inconsistent combined-embedding payload: encodings {first} and "
                          f"{again} share qubit {qubits[order[shared[0]]]}")
    return CombinedEmbedding(k, encodings, _slot_partition(encodings, slots))


# Structure files.  A flag that names a structure file accepts the file of
# its own kind or a combined one, and a graph flag a partition too; the keys
# below tell the kinds apart.
_COMBINED_KEYS = frozenset(("encodings", "rbm_slots"))
_PARTITION_KEYS = frozenset(("graph", "k"))  # "k" alone: a listed partition
_ROLES = ("graph", "partition", "encoding")


@loader("structure")
def structure_from_dict(data: dict, role: str):
    """The hardware graph, replica partition or QAC encoding that a structure
    payload supplies, as ``role`` ("graph", "partition" or "encoding") asks.

    A payload holding ``encodings`` or ``rbm_slots`` is a combined file, and
    is loaded and checked whole by combined_from_dict: its partition is
    ``rbm_partition``, its encoding ``encodings[0]`` and its graph that
    partition's logical graph.  Otherwise a payload holding ``graph`` or
    ``k`` is a partition, which supplies itself or its logical graph, and any
    other payload is read as the role's own kind.  A file that cannot supply
    the role, such as an encoding read as a graph, raises FormatError.
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
    elif role == "graph" and not _PARTITION_KEYS & data.keys():
        return graph_from_dict(data)
    else:
        part = partition_from_dict(data)
    return part.logical_graph() if role == "graph" else part
