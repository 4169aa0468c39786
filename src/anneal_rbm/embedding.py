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
from itertools import chain

import numpy as np

from .errors import EmbeddingInfeasibleError, FormatError, InvalidParameterError
from .jsonio import index_keys, integer, integer_rows, integers, loader
from .topology import (Edge, HardwareGraph, build_custom, canonical_edge,
                       canonical_edges, chimera_index, edge_array, edge_set,
                       graph_from_dict, unique_codes)

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
    rank = np.full(g.code_base, -1, dtype=np.int64)
    rank[maps[0]] = np.arange(n)
    a, b = np.divmod(g.ideal_codes, g.code_base)
    ra, rb = rank[a], rank[b]
    keep = (ra >= 0) & (rb >= 0)
    ra, rb = ra[keep], rb[keep]
    keep = np.ones(ra.size, dtype=bool)
    for mp in maps:
        keep &= g.has_edges(mp[ra], mp[rb])

    iso_maps = tuple(dict(zip(range(n), mp.tolist())) for mp in maps)
    regions = tuple(frozenset(im.values()) for im in iso_maps)
    meta = {"m": m, "grid": [gx, gy], "block": {"dx": dx, "dy": dy, "zx": zx, "zy": zy}}
    return ReplicaPartition(k=k, n_logical=n,
                            logical_edges=edge_set(ra[keep], rb[keep]),
                            iso_maps=iso_maps, regions=regions, meta=meta)


def _whole_graph_partition(g: HardwareGraph) -> ReplicaPartition:
    """Trivial k=1 partition: one region spanning all active qubits."""
    alive = np.array(sorted(g.active_nodes), dtype=np.int64)
    rank = np.full(g.code_base, -1, dtype=np.int64)
    rank[alive] = np.arange(alive.size)
    a, b = (rank[ends] for ends in np.divmod(g.edge_codes, g.code_base))
    iso = dict(zip(range(alive.size), alive.tolist()))
    return ReplicaPartition(k=1, n_logical=alive.size,
                            logical_edges=edge_set(a, b),
                            iso_maps=(iso,), regions=(frozenset(iso.values()),),
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

    Keyed by claim: k regions and k iso maps, and logical edges between ids
    in 0..n_logical-1 (``structural``), no qubit in two regions
    (``disjoint``), and each iso map a bijection from 0..n_logical-1 onto its
    region (``bijective``).
    """
    structural: list[str] = []
    if not p.k == len(p.regions) == len(p.iso_maps):
        structural.append(f"k={p.k} but {len(p.regions)} regions / {len(p.iso_maps)} iso maps")
    if not set(range(p.n_logical)).issuperset(chain.from_iterable(p.logical_edges)):
        structural.append(f"a logical edge leaves 0..{p.n_logical - 1}")

    disjoint: list[str] = []
    seen: dict[int, int] = {}
    # the union is one C-level pass; only overlapping regions are walked,
    # in their own order, to name each shared qubit
    if len(frozenset().union(*p.regions)) < sum(map(len, p.regions)):
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

    n = p.n_logical
    complete = [iso.keys() == set(range(n)) for iso in p.iso_maps]

    nodes_active = True
    for r, iso in enumerate(p.iso_maps):
        image = np.fromiter(iso.values(), dtype=np.int64, count=len(iso))
        dead = np.sort(image[~g.has_nodes(image)])
        if dead.size:
            nodes_active = False
            failures.append(f"region {r}: inactive qubits {dead[:5].tolist()}")

    edges_embedded = True
    la, lb = edge_array(p.logical_edges).T
    inside = not la.size or (min(la.min(), lb.min()) >= 0 and max(la.max(), lb.max()) < n)
    for r, iso in enumerate(p.iso_maps):
        if not (complete[r] and inside):
            continue
        image = _iso_array(iso)
        # an iso map that collapses a logical edge onto one qubit leaves it
        # without a coupler: has_edges(q, q) is False
        missing = ~g.has_edges(image[la], image[lb])
        if missing.any():
            edges_embedded = False
            failures += [f"region {r}: logical edge ({a},{b}) has no active coupler"
                         for a, b in zip(la[missing].tolist(), lb[missing].tolist())]

    # each region's active edges pulled back to logical ids, as sorted codes
    induced_symmetric = True
    region_edge_counts: list[int] = []
    pulled: list[np.ndarray] | None = []
    qa, qb = np.divmod(g.edge_codes, g.code_base)
    for r, iso in enumerate(p.iso_maps):
        if not complete[r]:
            pulled = None
            break
        inv = _inverse(iso, g.code_base)
        va, vb = inv[qa], inv[qb]
        both = (va >= 0) & (vb >= 0)
        va, vb = va[both], vb[both]
        induced = unique_codes(np.minimum(va, vb) * n + np.maximum(va, vb))
        region_edge_counts.append(induced.size)
        pulled.append(induced)
    if pulled:
        ref = pulled[0]
        for r, ind in enumerate(pulled[1:], start=1):
            if not np.array_equal(ind, ref):
                induced_symmetric = False
                va, vb = np.divmod(np.setxor1d(ind, ref)[:3], n)
                diff = list(zip(va.tolist(), vb.tolist()))
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


def _iso_array(iso: dict[int, int]) -> np.ndarray:
    """A complete iso map (domain 0..n-1) as the array of its images."""
    image = np.empty(len(iso), dtype=np.int64)
    image[np.fromiter(iso.keys(), dtype=np.int64, count=len(iso))] = np.fromiter(
        iso.values(), dtype=np.int64, count=len(iso))
    return image


def _inverse(iso: dict[int, int], base: int) -> np.ndarray:
    """qubit -> logical id for qubits below ``base``, -1 where none; where
    the map is not injective the last logical id in map order wins, as in
    ``{q: v for v, q in iso.items()}``."""
    v = np.fromiter(iso.keys(), dtype=np.int64, count=len(iso))
    q = np.fromiter(iso.values(), dtype=np.int64, count=len(iso))
    inside = (q >= 0) & (q < base)
    v, q = v[inside], q[inside]
    order = np.argsort(q, kind="stable")
    v, q = v[order], q[order]
    last = np.r_[q[1:] != q[:-1], True] if q.size else np.zeros(0, dtype=bool)
    inv = np.full(base, -1, dtype=np.int64)
    inv[q[last]] = v[last]
    return inv


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

    reps = np.array(_pick_representatives(tiling, shared), dtype=np.int64)
    n_units = tiling.n_logical
    pairs = np.array(list(tiling.logical_edges), dtype=np.int64).reshape(-1, 2)
    kept = shared.has_edges(reps[pairs[:, 0]], reps[pairs[:, 1]])
    inst_edges = list(map(tuple, pairs[kept].tolist()))  # sorted, as the keys are
    couplers = [tiling.logical_edges[e] for e in inst_edges]
    ends = np.array(list(chain.from_iterable(couplers)), dtype=np.int64).reshape(-1, 2)
    cuts = np.cumsum([0] + [len(cs) for cs in couplers]).tolist()
    problem = np.array([u.problem_qubits for u in tiling.units], dtype=np.int64)
    penalty = np.array([u.penalty_qubit for u in tiling.units], dtype=np.int64)

    encodings = []
    for iso in base.iso_maps:
        image = _iso_array(iso)
        units = tuple(QacUnit(problem_qubits=tuple(qs), penalty_qubit=q)
                      for qs, q in zip(image[problem].tolist(), image[penalty].tolist()))
        mapped = image[ends]
        rows = list(zip(mapped.min(axis=1).tolist(), mapped.max(axis=1).tolist()))
        ledges = {e: tuple(rows[a:b]) for e, a, b in zip(inst_edges, cuts, cuts[1:])}
        encodings.append(QacEncoding(units=units, logical_edges=ledges,
                                     penalty_weight=penalty_weight))

    iso_maps = tuple(dict(zip(range(n_units), _iso_array(iso)[reps].tolist()))
                     for iso in base.iso_maps)
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
        "logical_edges": edge_array(p.logical_edges).tolist(),
        "iso_maps": [{str(v): q for v, q in sorted(iso.items())} for iso in p.iso_maps],
        "regions": [sorted(reg) for reg in p.regions],
        "meta": p.meta,
    }


@loader("partition")
def partition_from_dict(data: dict) -> ReplicaPartition:
    """A partition payload; FormatError also when its regions and iso maps
    break the graph-independent claims verify_partition checks."""
    p = ReplicaPartition(
        k=integer(data["k"]),
        n_logical=integer(data["n_logical"]),
        logical_edges=edge_set(*canonical_edges(integer_rows(data["logical_edges"], 2)).T),
        iso_maps=tuple(dict(zip(index_keys(iso), integers(list(iso.values()))))
                       for iso in data["iso_maps"]),
        regions=tuple(frozenset(integers(reg)) for reg in data["regions"]),
        meta=dict(data.get("meta", {})))
    failures = [f for claim in _region_failures(p).values() for f in claim]
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
    rows = list(zip(ends[:, 0].tolist(), ends[:, 1].tolist()))
    cuts = np.cumsum([0] + [len(cs) for cs in couplers]).tolist()
    return QacEncoding(
        units=tuple(QacUnit(problem_qubits=tuple(qs), penalty_qubit=q)
                    for qs, q in zip(problem, penalty)),
        logical_edges=dict(zip(zip(keys[:, 0].tolist(), keys[:, 1].tolist()),
                               (tuple(rows[a:b]) for a, b in zip(cuts, cuts[1:])))),
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
        if enc.n_logical != rbm.n_logical or enc.logical_edges.keys() != rbm.logical_edges:
            raise FormatError(
                f"inconsistent combined-embedding payload: encoding {r} has "
                f"{enc.n_logical} units and {len(enc.logical_edges)} logical edges, "
                f"rbm_partition {rbm.n_logical} and {len(rbm.logical_edges)}, or "
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
