"""Native embeddings: replica partitions, K_{1,3} tilings, combined structures.

Replica partitions split a Pegasus graph into k congruent axis-aligned
coordinate blocks whose induced subgraphs are isomorphic by construction (the
isomorphism maps are tile translations).  Defects anywhere are excised from
every block through those maps, so the shared logical structure stays valid
on real, defective hardware.

QAC tilings cover a graph with vertex-disjoint K_{1,3} units (three problem
qubits plus one penalty hub).  The combined construction produces k regions
that each carry the same logical graph twice over: once as one-qubit-per-node
(for replication) and once as one-unit-per-node (for penalty encoding).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from .errors import EmbeddingInfeasibleError, FormatError, InvalidParameterError
from .jsonio import loader
from .topology import (Edge, HardwareGraph, build_custom, canonical_edge,
                       chimera_index, graph_from_dict, iter_block_nodes,
                       pegasus_coords, pegasus_index)

# Block grid (columns x rows) per replica count.
_GRIDS = {2: (2, 1), 4: (2, 2), 8: (4, 2)}


@dataclass(frozen=True)
class ReplicaPartition:
    """k disjoint regions carrying isomorphic copies of one logical graph.

    Logical ids are dense 0..n_logical-1.  ``iso_maps[r]`` sends a logical id
    to the physical qubit hosting it in region ``r``; ``logical_edges`` is the
    shared structure guaranteed to exist (as active couplers) in every region.
    """

    k: int
    n_logical: int
    logical_edges: frozenset[Edge]
    iso_maps: tuple[dict[int, int], ...]
    regions: tuple[frozenset[int], ...]
    meta: dict = field(default_factory=dict)

    def logical_graph(self) -> HardwareGraph:
        return build_custom(range(self.n_logical), self.logical_edges, family="logical")


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

    canon = sorted(iter_block_nodes(m, range(dx), range(zy), range(dy), range(zx)))
    if not canon:
        raise EmbeddingInfeasibleError(f"empty canonical block for m={m}, k={k}")

    def shift(node: int, ix: int, iy: int) -> int:
        u, w, kk, z = pegasus_coords(m, node)
        if u == 0:
            return pegasus_index(m, 0, w + ix * dx, kk, z + iy * dy)
        return pegasus_index(m, 1, w + iy * dy, kk, z + ix * dx)

    cells = [(ix, iy) for ix in range(gx) for iy in range(gy)]
    maps = [{c: shift(c, ix, iy) for c in canon} for ix, iy in cells]

    active = g.active_nodes
    alive = [c for c in canon if all(mp[c] in active for mp in maps)]
    if not alive:
        raise EmbeddingInfeasibleError(f"no qubit of the block survives defects (m={m}, k={k})")
    rank = {c: i for i, c in enumerate(alive)}
    alive_set = set(alive)

    active_edges = g.active_edges
    logical_edges = set()
    for a, b in g.edges:
        if a in alive_set and b in alive_set:
            if all(canonical_edge(mp[a], mp[b]) in active_edges for mp in maps):
                logical_edges.add(canonical_edge(rank[a], rank[b]))

    iso_maps = tuple({rank[c]: mp[c] for c in alive} for mp in maps)
    regions = tuple(frozenset(im.values()) for im in iso_maps)
    meta = {"m": m, "grid": [gx, gy], "block": {"dx": dx, "dy": dy, "zx": zx, "zy": zy}}
    return ReplicaPartition(k=k, n_logical=len(alive),
                            logical_edges=frozenset(logical_edges),
                            iso_maps=iso_maps, regions=regions, meta=meta)


def _whole_graph_partition(g: HardwareGraph) -> ReplicaPartition:
    """Trivial k=1 partition: one region spanning all active qubits."""
    alive = sorted(g.active_nodes)
    rank = {q: i for i, q in enumerate(alive)}
    edges = frozenset(canonical_edge(rank[a], rank[b]) for a, b in g.active_edges)
    iso = {i: q for q, i in rank.items()}
    return ReplicaPartition(k=1, n_logical=len(alive), logical_edges=edges,
                            iso_maps=(iso,), regions=(frozenset(alive),),
                            meta={"grid": [1, 1]})


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

    Keyed by claim: k regions and k iso maps (``structural``), no qubit in two
    regions (``disjoint``), and each iso map a bijection from 0..n_logical-1
    onto its region (``bijective``).
    """
    structural: list[str] = []
    if not p.k == len(p.regions) == len(p.iso_maps):
        structural.append(f"k={p.k} but {len(p.regions)} regions / {len(p.iso_maps)} iso maps")

    disjoint: list[str] = []
    seen: dict[int, int] = {}
    for r, reg in enumerate(p.regions):
        for q in reg:
            if q in seen:
                disjoint.append(f"qubit {q} shared by regions {seen[q]} and {r}")
            else:
                seen[q] = r

    bijective: list[str] = []
    for r, iso in enumerate(p.iso_maps):
        if set(iso.keys()) != set(range(p.n_logical)):
            bijective.append(f"region {r}: iso map domain is not 0..{p.n_logical - 1}")
            continue
        image = set(iso.values())
        if len(image) != p.n_logical:
            bijective.append(f"region {r}: iso map is not injective")
        elif r < len(p.regions) and image != set(p.regions[r]):
            bijective.append(f"region {r}: iso map image differs from region set")
    return {"structural": structural, "disjoint": disjoint, "bijective": bijective}


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
    structural, disjoint, bijective = (not claim for claim in found.values())

    nodes_active = True
    for r, iso in enumerate(p.iso_maps):
        dead = sorted(q for q in iso.values() if q not in g.active_nodes)
        if dead:
            nodes_active = False
            failures.append(f"region {r}: inactive qubits {dead[:5]}")

    edges_embedded = True
    active_edges = g.active_edges
    for r, iso in enumerate(p.iso_maps):
        if set(iso.keys()) != set(range(p.n_logical)):
            continue
        for a, b in sorted(p.logical_edges):
            if canonical_edge(iso[a], iso[b]) not in active_edges:
                edges_embedded = False
                failures.append(f"region {r}: logical edge ({a},{b}) has no active coupler")

    induced_symmetric = True
    region_edge_counts: list[int] = []
    pulled: list[frozenset[Edge]] | None = []
    for r, iso in enumerate(p.iso_maps):
        if set(iso.keys()) != set(range(p.n_logical)):
            pulled = None
            break
        inv = {q: v for v, q in iso.items()}
        induced = frozenset(
            canonical_edge(inv[a], inv[b])
            for a, b in active_edges if a in inv and b in inv)
        region_edge_counts.append(len(induced))
        pulled.append(induced)
    if pulled is not None and pulled:
        ref = pulled[0]
        for r, ind in enumerate(pulled[1:], start=1):
            if ind != ref:
                induced_symmetric = False
                diff = sorted((ind ^ ref))[:3]
                failures.append(f"region {r}: induced edges differ from region 0 near {diff}")
    else:
        induced_symmetric = False

    ok = structural and disjoint and bijective and nodes_active and edges_embedded
    return PartitionReport(
        ok=ok, k=p.k, disjoint=disjoint, bijective=bijective,
        nodes_active=nodes_active, edges_embedded=edges_embedded,
        induced_symmetric=induced_symmetric,
        region_node_counts=[len(reg) for reg in p.regions],
        region_edge_counts=region_edge_counts, failures=failures)


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


def _greedy_units(g: HardwareGraph, claimed: set[int]) -> list[QacUnit]:
    """Scan qubits in id order as penalty hubs, claiming K_{1,3}s greedily."""
    units = []
    for hub in sorted(g.active_nodes):
        if hub in claimed:
            continue
        avail = [nb for nb in g.adjacency[hub] if nb not in claimed]
        if len(avail) < 3:
            continue
        leaves = tuple(avail[:3])
        claimed.add(hub)
        claimed.update(leaves)
        units.append(QacUnit(problem_qubits=leaves, penalty_qubit=hub))
    return units


def _chimera_template_units(g: HardwareGraph) -> tuple[list[QacUnit], set[int]]:
    """Two units per fully working Chimera cell, penalty hubs on wire 3."""
    rows, cols, shore = (int(g.params[x]) for x in ("rows", "cols", "shore"))
    claimed: set[int] = set()
    units: list[QacUnit] = []
    if shore < 4:
        return units, claimed

    lin = partial(chimera_index, cols, shore)
    active, active_edges = g.active_nodes, g.active_edges
    for r in range(rows):
        for c in range(cols):
            for prob_shore in (0, 1):
                pen = lin(r, c, 1 - prob_shore, 3)
                probs = tuple(lin(r, c, prob_shore, k) for k in range(3))
                qubits = probs + (pen,)
                if not all(q in active for q in qubits):
                    continue
                if not all(canonical_edge(q, pen) in active_edges for q in probs):
                    continue
                units.append(QacUnit(problem_qubits=probs, penalty_qubit=pen))
                claimed.update(qubits)
    return units, claimed


def tile_qac(g: HardwareGraph, penalty_weight: float = -1.0) -> QacEncoding:
    """Greedy maximal vertex-disjoint K_{1,3} tiling of the active graph.

    On Chimera the per-cell template is applied first (two logical qubits per
    working cell); any leftover qubits, and all other graph families, are
    tiled by a deterministic id-order greedy scan.  Logical edges collect all
    hardware couplers between problem-qubit sets of distinct units.
    """
    if g.family == "chimera":
        units, claimed = _chimera_template_units(g)
        units += _greedy_units(g, claimed)
    else:
        units = _greedy_units(g, set())

    owner: dict[int, int] = {}
    for idx, unit in enumerate(units):
        for q in unit.problem_qubits:
            owner[q] = idx
    logical_edges: dict[Edge, list[Edge]] = {}
    for a, b in sorted(g.active_edges):
        ua, ub = owner.get(a), owner.get(b)
        if ua is None or ub is None or ua == ub:
            continue
        logical_edges.setdefault(canonical_edge(ua, ub), []).append((a, b))
    return QacEncoding(units=tuple(units),
                       logical_edges={e: tuple(cs) for e, cs in sorted(logical_edges.items())},
                       penalty_weight=penalty_weight)


def logical_graph(enc: QacEncoding) -> HardwareGraph:
    """Graph over logical ids: nodes are units, edges the coupled unit pairs."""
    return build_custom(range(enc.n_logical), enc.logical_edges.keys(), family="logical")


def _pick_representatives(tiling: QacEncoding, shared: HardwareGraph) -> list[int]:
    """One problem qubit per unit, chosen to maximize inter-unit adjacency.

    The score of a candidate counts its neighbors that belong to other units'
    problem triples; ties fall to the lowest qubit id, keeping the choice
    deterministic.
    """
    owner = {q: i for i, u in enumerate(tiling.units) for q in u.problem_qubits}
    reps = []
    for idx, unit in enumerate(tiling.units):
        best, best_score = unit.problem_qubits[0], -1
        for q in unit.problem_qubits:
            score = sum(1 for nb in shared.adjacency.get(q, ())
                        if owner.get(nb, idx) != idx)
            if score > best_score:
                best, best_score = q, score
        reps.append(best)
    return reps


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

    reps = _pick_representatives(tiling, shared)
    shared_edges = shared.active_edges
    n_units = tiling.n_logical
    inst_edges = set()
    for (ua, ub), _couplers in tiling.logical_edges.items():
        if canonical_edge(reps[ua], reps[ub]) in shared_edges:
            inst_edges.add(canonical_edge(ua, ub))

    encodings = []
    for iso in base.iso_maps:
        units = tuple(QacUnit(problem_qubits=tuple(iso[q] for q in u.problem_qubits),
                              penalty_qubit=iso[u.penalty_qubit])
                      for u in tiling.units)
        ledges = {e: tuple(canonical_edge(iso[a], iso[b]) for a, b in tiling.logical_edges[e])
                  for e in sorted(inst_edges)}
        encodings.append(QacEncoding(units=units, logical_edges=ledges,
                                     penalty_weight=penalty_weight))

    iso_maps = tuple({u: iso[reps[u]] for u in range(n_units)} for iso in base.iso_maps)
    regions = tuple(frozenset(im.values()) for im in iso_maps)
    rbm = ReplicaPartition(k=base.k, n_logical=n_units,
                           logical_edges=frozenset(inst_edges),
                           iso_maps=iso_maps, regions=regions,
                           meta={**base.meta, "representatives": True})
    return CombinedEmbedding(k=base.k, encodings=tuple(encodings),
                             rbm_partition=rbm, base_partition=base)


# ---------------------------------------------------------------------------
# Serialization

def partition_to_dict(p: ReplicaPartition) -> dict:
    return {
        "k": p.k,
        "n_logical": p.n_logical,
        "logical_edges": [list(e) for e in sorted(p.logical_edges)],
        "iso_maps": [{str(v): q for v, q in sorted(iso.items())} for iso in p.iso_maps],
        "regions": [sorted(reg) for reg in p.regions],
        "meta": p.meta,
    }


@loader("partition")
def partition_from_dict(data: dict) -> ReplicaPartition:
    """A partition payload; FormatError also when its regions and iso maps
    break the graph-independent claims verify_partition checks."""
    p = ReplicaPartition(
        k=int(data["k"]),
        n_logical=int(data["n_logical"]),
        logical_edges=frozenset(canonical_edge(int(a), int(b))
                                for a, b in data["logical_edges"]),
        iso_maps=tuple({int(v): int(q) for v, q in iso.items()} for iso in data["iso_maps"]),
        regions=tuple(frozenset(int(q) for q in reg) for reg in data["regions"]),
        meta=dict(data.get("meta", {})))
    failures = [f for claim in _region_failures(p).values() for f in claim]
    if failures:
        raise FormatError("inconsistent partition payload: " + "; ".join(failures[:3]))
    return p


def encoding_to_dict(e: QacEncoding) -> dict:
    return {
        "units": [{"problem": list(u.problem_qubits), "penalty": u.penalty_qubit}
                  for u in e.units],
        "logical_edges": {f"{a},{b}": [list(c) for c in cs]
                          for (a, b), cs in sorted(e.logical_edges.items())},
        "penalty_weight": e.penalty_weight,
    }


@loader("encoding")
def encoding_from_dict(data: dict) -> QacEncoding:
    units = tuple(QacUnit(problem_qubits=tuple(int(q) for q in u["problem"]),
                          penalty_qubit=int(u["penalty"]))
                  for u in data["units"])
    ledges = {}
    for key, cs in data["logical_edges"].items():
        a, b = key.split(",")
        ledges[canonical_edge(int(a), int(b))] = tuple(
            canonical_edge(int(x), int(y)) for x, y in cs)
    return QacEncoding(units=units, logical_edges=ledges,
                       penalty_weight=float(data.get("penalty_weight", -1.0)))


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
    encodings and its two partitions' ``k`` disagree."""
    c = CombinedEmbedding(
        k=int(data["k"]),
        encodings=tuple(encoding_from_dict(e) for e in data["encodings"]),
        rbm_partition=partition_from_dict(data["rbm_partition"]),
        base_partition=partition_from_dict(data["base_partition"]))
    if not c.k == len(c.encodings) == c.rbm_partition.k == c.base_partition.k:
        raise FormatError(
            f"inconsistent combined-embedding payload: k={c.k} but "
            f"{len(c.encodings)} encodings, rbm_partition k={c.rbm_partition.k}, "
            f"base_partition k={c.base_partition.k}")
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
