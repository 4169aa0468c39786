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
qubits plus one penalty hub).  The combined construction produces k regions
that each carry the same logical graph twice over: once as one-qubit-per-node
(for replication) and once as one-unit-per-node (for penalty encoding).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import EmbeddingInfeasibleError, FormatError, InvalidParameterError
from .jsonio import index_keys, integer, integer_rows, integers, loader, numbers
from .topology import (Edge, HardwareGraph, build_custom, canonical_edges,
                       chimera_index, edge_rows, edge_set, frozen, graph_from_dict,
                       unique_codes)

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
    qubits = np.unique(p.images)
    disjoint: list[str] = []
    bijective: list[str] = []
    if qubits.size == p.images.size:  # no qubit is named twice
        return {"disjoint": disjoint, "bijective": bijective}
    first = np.full(qubits.size, -1)  # the first region holding each qubit
    for r, row in enumerate(p.images):
        at = np.unique(np.searchsorted(qubits, row))
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
        region_node_counts=[np.unique(row).size for row in p.images],
        region_edge_counts=[ind.size for ind in pulled], failures=failures)


@dataclass(frozen=True)
class QacUnit:
    """One logical qubit: three problem qubits plus the penalty hub."""

    problem_qubits: tuple[int, int, int]
    penalty_qubit: int


@dataclass(frozen=True)
class QacEncoding:
    """Vertex-disjoint K_{1,3} cover of (part of) a hardware graph.

    ``units[i]`` hosts logical qubit ``i``; ``logical_edges`` maps a logical
    pair to every physical coupler joining the two problem-qubit triples.
    """

    units: tuple[QacUnit, ...]
    logical_edges: dict[Edge, tuple[Edge, ...]]
    penalty_weight: float = -1.0

    @property
    def n_logical(self) -> int:
        return len(self.units)


def _owners(units, g: HardwareGraph) -> tuple[np.ndarray, np.ndarray]:
    """(problem, owner): the units' (u, 3) problem qubits, as ranks in
    ``g.active_ids``, and for each rank the unit it is a problem qubit of,
    or -1."""
    problem = np.array([u.problem_qubits for u in units], dtype=np.int64).reshape(-1, 3)
    problem = np.searchsorted(g.active_ids, problem)
    owner = np.full(g.active_ids.size, -1, dtype=np.int64)
    owner[problem] = np.arange(len(problem))[:, None]
    return problem, owner


def _greedy_units(g: HardwareGraph, taken: list[bool]) -> list[QacUnit]:
    """Scan active qubits in id order as penalty hubs, claiming K_{1,3}s
    greedily; ``taken[i]`` marks a claimed ``g.active_ids[i]`` and is
    updated."""
    offsets, ranks = (a.tolist() for a in g.neighbors)
    ids = g.active_ids.tolist()
    units = []
    for hub in range(len(ids)):
        if taken[hub]:
            continue
        avail = [nb for nb in ranks[offsets[hub]:offsets[hub + 1]] if not taken[nb]]
        if len(avail) < 3:
            continue
        for i in (hub, *avail[:3]):
            taken[i] = True
        units.append(QacUnit(problem_qubits=tuple(ids[i] for i in avail[:3]),
                             penalty_qubit=ids[hub]))
    return units


def _chimera_template_units(g: HardwareGraph) -> tuple[list[QacUnit], np.ndarray]:
    """Two units per fully working Chimera cell, penalty hubs on wire 3; and
    the mask, over ``g.active_ids``, of the qubits they claim."""
    rows, cols, shore = (int(g.params[x]) for x in ("rows", "cols", "shore"))
    taken = np.zeros(g.active_ids.size, dtype=bool)
    if shore < 4:
        return [], taken
    # cell (r, c) has a unit with problem qubits on each side, in that order
    r, c, side, k = np.ix_(range(rows), range(cols), range(2), range(3))
    probs = chimera_index(cols, shore, r, c, side, k)
    pens = chimera_index(cols, shore, r, c, 1 - side, 3)
    ok = (g.has_nodes(probs).all(-1) & g.has_nodes(pens).all(-1)
          & g.has_edges(probs, pens).all(-1)).ravel()
    probs, pens = probs.reshape(-1, 3)[ok], pens.ravel()[ok]
    taken[np.searchsorted(g.active_ids, np.c_[probs, pens])] = True
    return [QacUnit(problem_qubits=tuple(qs), penalty_qubit=q)
            for qs, q in zip(probs.tolist(), pens.tolist())], taken


def tile_qac(g: HardwareGraph, penalty_weight: float = -1.0) -> QacEncoding:
    """Greedy maximal vertex-disjoint K_{1,3} tiling of the active graph.

    On Chimera the per-cell template is applied first (two logical qubits per
    working cell); any leftover qubits, and all other graph families, are
    tiled by a deterministic id-order greedy scan.  Logical edges collect all
    hardware couplers between problem-qubit sets of distinct units, each
    unit pair's in sorted order.
    """
    if g.family == "chimera":
        units, taken = _chimera_template_units(g)
        units += _greedy_units(g, taken.tolist())
    else:
        units = _greedy_units(g, [False] * g.active_ids.size)

    _, owner = _owners(units, g)
    ua, ub = owner[g.edge_ranks]
    keep = (ua >= 0) & (ub >= 0) & (ua != ub)
    pair = np.minimum(ua, ub)[keep] * len(units) + np.maximum(ua, ub)[keep]
    order = np.argsort(pair, kind="stable")  # a pair's couplers stay sorted
    pair = pair[order]
    starts = np.flatnonzero(np.diff(pair, prepend=-1))
    ua, ub = np.divmod(pair[starts], max(len(units), 1))
    ends = np.stack(np.divmod(g.edge_codes, g.code_base), axis=1)[keep][order]
    return QacEncoding(units=tuple(units),
                       logical_edges=_grouped(zip(ua.tolist(), ub.tolist()), ends,
                                              np.r_[starts, pair.size]),
                       penalty_weight=penalty_weight)


def _grouped(keys, ends: np.ndarray, cuts) -> dict[Edge, tuple[Edge, ...]]:
    """{key: its couplers}: key i's are the (a, b) rows cuts[i]:cuts[i + 1]
    of the (E, 2) ``ends``."""
    rows = list(zip(ends[:, 0].tolist(), ends[:, 1].tolist()))
    cuts = np.asarray(cuts).tolist()
    return {e: tuple(rows[i:j]) for e, i, j in zip(keys, cuts, cuts[1:])}


def logical_graph(enc: QacEncoding) -> HardwareGraph:
    """Graph over logical ids: nodes are units, edges the coupled unit pairs."""
    return build_custom(range(enc.n_logical), enc.logical_edges.keys(), family="logical")


def _pick_representatives(tiling: QacEncoding, shared: HardwareGraph) -> list[int]:
    """One problem qubit per unit, chosen to maximize inter-unit adjacency.

    The score of a candidate counts its neighbors that belong to other units'
    problem triples; ties fall to the first, lowest, of a unit's problem
    qubits, keeping the choice deterministic.
    """
    problem, owner = _owners(tiling.units, shared)
    offsets, ranks = shared.neighbors
    hub = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))  # ranks[i] neighbours hub[i]
    other = owner[ranks]
    score = np.bincount(hub, weights=(other >= 0) & (other != owner[hub]),
                        minlength=offsets.size - 1)
    best = problem[np.arange(len(problem)), np.argmax(score[problem], axis=1)]
    return shared.active_ids[best].tolist()


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
    if not tiling.units:
        raise EmbeddingInfeasibleError(
            f"no K_(1,3) unit fits the shared block structure (k={k})")

    reps = np.array(_pick_representatives(tiling, shared), dtype=np.int64)
    n_units = tiling.n_logical
    pairs = np.array(list(tiling.logical_edges), dtype=np.int64).reshape(-1, 2)
    pairs = pairs[shared.has_edges(reps[pairs[:, 0]], reps[pairs[:, 1]])]
    inst_edges = list(map(tuple, pairs.tolist()))  # sorted, as the keys are
    couplers = [tiling.logical_edges[e] for e in inst_edges]
    ends = np.array(list(chain.from_iterable(couplers)), dtype=np.int64).reshape(-1, 2)
    cuts = np.cumsum([0] + [len(cs) for cs in couplers])
    problem = np.array([u.problem_qubits for u in tiling.units], dtype=np.int64)
    penalty = np.array([u.penalty_qubit for u in tiling.units], dtype=np.int64)

    encodings = []
    for image in base.images:
        units = tuple(QacUnit(problem_qubits=tuple(qs), penalty_qubit=q)
                      for qs, q in zip(image[problem].tolist(), image[penalty].tolist()))
        ledges = _grouped(inst_edges, np.sort(image[ends], axis=1), cuts)
        encodings.append(QacEncoding(units=units, logical_edges=ledges,
                                     penalty_weight=penalty_weight))

    rbm = ReplicaPartition(base.images[:, reps], pairs[:, 0] * n_units + pairs[:, 1],
                           {**base.meta, "representatives": True})
    return CombinedEmbedding(k=base.k, encodings=tuple(encodings),
                             rbm_partition=rbm, base_partition=base)


# ---------------------------------------------------------------------------
# Serialization

def partition_to_dict(p: ReplicaPartition) -> dict:
    keys = list(map(str, range(p.n_logical)))
    return {
        "k": p.k,
        "n_logical": p.n_logical,
        "logical_edges": edge_rows(p.edge_codes, p.n_logical),
        "iso_maps": [dict(zip(keys, row)) for row in p.images.tolist()],
        "regions": [np.unique(row).tolist() for row in p.images],
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
                     if not np.array_equal(np.unique(integers(reg)), np.unique(row))]
    if failures:
        raise FormatError("inconsistent partition payload: " + "; ".join(failures[:3]))
    return p


def encoding_to_dict(e: QacEncoding) -> dict:
    return {
        "units": [{"problem": list(u.problem_qubits), "penalty": u.penalty_qubit}
                  for u in e.units],
        "logical_edges": {f"{a},{b}": list(map(list, cs))
                          for (a, b), cs in sorted(e.logical_edges.items())},
        "penalty_weight": e.penalty_weight,
    }


@loader("encoding")
def encoding_from_dict(data: dict) -> QacEncoding:
    units = data["units"]
    problem = integer_rows([u["problem"] for u in units], 3).tolist()
    penalty = integers([u["penalty"] for u in units])
    ledges = data["logical_edges"]
    keys = canonical_edges(np.array(index_keys(ledges, 2), dtype=np.int64).reshape(-1, 2))
    couplers = list(ledges.values())
    ends = canonical_edges(integer_rows(list(chain.from_iterable(couplers)), 2))
    return QacEncoding(
        units=tuple(QacUnit(problem_qubits=tuple(qs), penalty_qubit=q)
                    for qs, q in zip(problem, penalty)),
        logical_edges=_grouped(zip(keys[:, 0].tolist(), keys[:, 1].tolist()), ends,
                               np.cumsum([0] + [len(cs) for cs in couplers])),
        penalty_weight=float(numbers([data.get("penalty_weight", -1.0)])[0]))


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
    rbm, n = c.rbm_partition, c.rbm_partition.n_logical
    for r, enc in enumerate(c.encodings):
        keys = np.array(list(enc.logical_edges), dtype=np.int64).reshape(-1, 2)
        if (enc.n_logical != n or keys.size and keys.max() >= n  # then codes could alias
                or not np.array_equal(np.sort(keys[:, 0] * n + keys[:, 1]), rbm.edge_codes)):
            raise FormatError(
                f"inconsistent combined-embedding payload: encoding {r} has "
                f"{enc.n_logical} units and {len(keys)} logical edges, "
                f"rbm_partition {n} and {rbm.edge_codes.size}, or "
                f"other edges")
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
