"""Reference structure layer for the oracle tests: the per-edge loops.

These are the Pegasus builder, the graph payload conversions, the active
sets, the replica partitioner, the partition verifier and the combined
construction as `topology` and `embedding` computed them one Python tuple at
a time, before those modules moved to array passes over sorted edge codes.
They are kept as they were apart from their names, the package names they
import and the way they construct their results: graphs and partitions
store id and code arrays, so the loops build their node, edge, iso map and
logical edge sets as before and hand them to `_graph` and `_partition`,
which turn them into those arrays; they read a graph's or a partition's
sets through the `conftest` helpers, which decode those arrays.
`graph_from_dict_reference` sets the defect fields directly instead of
checking the payload, and reads a Pegasus or Chimera payload, which holds
its builder's parameters in place of node and edge lists, through the
reference builders; `combine_qac_rbm_reference` covers k > 1, and
`verify_partition_reference` counts a logical edge that an iso map collapses
onto one qubit as a missing coupler instead of raising.  `build_chimera_reference`,
`tile_qac_reference` and `pick_representatives_reference` are the Chimera
builder and the K_{1,3} tiling loops as they were before they too moved to
array passes, kept the same way.  The tests check that the array passes
give equal graphs, partitions, tilings, reports and payloads.

Encodings store unit and coupler arrays too, so the tiling loops build
`QacUnit`s and logical edge dicts as before and hand them to `qac_encoding`;
`QacEncodingReference` is that dict form, and `encoding_reference` rebuilds
it from an encoding's arrays for the loops that read an encoding.  The
package never imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from anneal_rbm.embedding import (CombinedEmbedding, PartitionReport, QacEncoding,
                                  ReplicaPartition, _GRIDS, _pick_representatives,
                                  tile_qac)
from anneal_rbm.errors import EmbeddingInfeasibleError, InvalidParameterError
from anneal_rbm.topology import (PEGASUS_HORIZONTAL_OFFSETS,
                                 PEGASUS_VERTICAL_OFFSETS, Edge, HardwareGraph,
                                 chimera_index, pegasus_coords, pegasus_index)
from conftest import adjacency, edge_tuples, id_set, iso_maps, regions
from problem_helpers import canonical_edge


def _graph(family: str, params: dict, nodes, edges, defect_nodes=(),
           defect_edges=()) -> HardwareGraph:
    """The graph with these node and edge sets."""
    base = max(nodes, default=-1) + 1

    def codes(es):
        return sorted(a * base + b for a, b in es)
    return HardwareGraph(family, params, sorted(nodes), codes(edges),
                         sorted(defect_nodes), codes(defect_edges))


def _partition(n: int, iso_maps, logical_edges) -> ReplicaPartition:
    """The partition with these iso maps (each over 0..n-1) and logical edges."""
    images = np.array([[iso[v] for v in range(n)] for iso in iso_maps], dtype=np.int64)
    return ReplicaPartition(images.reshape(len(iso_maps), n),
                            sorted(a * n + b for a, b in logical_edges))


@dataclass(frozen=True)
class QacUnit:
    """One logical qubit: three problem qubits plus the penalty hub."""

    problem_qubits: tuple[int, int, int]
    penalty_qubit: int


@dataclass(frozen=True)
class QacEncodingReference:
    """An encoding as units and a dict from each logical pair to its couplers."""

    units: tuple[QacUnit, ...]
    logical_edges: dict[Edge, tuple[Edge, ...]]

    @property
    def n_logical(self) -> int:
        return len(self.units)


def qac_encoding(units, logical_edges) -> QacEncoding:
    """The encoding with these units and these couplers per logical pair."""
    n, pairs = len(units), sorted(logical_edges)
    couplers = [c for e in pairs for c in logical_edges[e]]
    return QacEncoding(np.array([u.problem_qubits for u in units], dtype=np.int64).reshape(n, 3),
                       [u.penalty_qubit for u in units], [a * n + b for a, b in pairs],
                       np.array(couplers, dtype=np.int64).reshape(-1, 2),
                       np.cumsum([0] + [len(logical_edges[e]) for e in pairs]))


def encoding_reference(enc: QacEncoding) -> QacEncodingReference:
    """The dict form of an encoding's arrays."""
    rows = list(map(tuple, enc.couplers.tolist()))
    cuts = enc.offsets.tolist()
    a, b = np.divmod(enc.edge_codes, max(enc.n_logical, 1))
    return QacEncodingReference(
        tuple(QacUnit(tuple(qs), q) for qs, q in zip(enc.problem.tolist(), enc.penalty.tolist())),
        {e: tuple(rows[i:j]) for e, i, j in zip(zip(a.tolist(), b.tolist()), cuts, cuts[1:])})


def build_pegasus_reference(m: int) -> HardwareGraph:
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

    return _graph("pegasus", {"m": m}, nodes, edges)


def _edge_set(g: HardwareGraph, codes) -> frozenset[Edge]:
    """A graph's edge codes as a set of (a, b) tuples."""
    return frozenset(edge_tuples(codes, g.code_base))


def active_nodes_reference(g: HardwareGraph) -> frozenset[int]:
    return id_set(g.node_ids) - id_set(g.defect_ids)


def active_edges_reference(g: HardwareGraph) -> frozenset[Edge]:
    dead, dead_edges = id_set(g.defect_ids), _edge_set(g, g.defect_codes)
    return frozenset(
        e for e in _edge_set(g, g.ideal_codes)
        if e not in dead_edges and e[0] not in dead and e[1] not in dead
    )


def graph_to_dict_reference(g: HardwareGraph) -> dict:
    return {
        "family": g.family,
        "params": dict(g.params),
        "nodes": sorted(id_set(g.node_ids)),
        "edges": [list(e) for e in sorted(_edge_set(g, g.ideal_codes))],
        "defects": {
            "nodes": sorted(id_set(g.defect_ids)),
            "edges": [list(e) for e in sorted(_edge_set(g, g.defect_codes))],
        },
    }


def graph_from_dict_reference(data: dict) -> HardwareGraph:
    """The graph a well-formed payload describes (no payload checks): a
    builder family's recipe through its reference builder, or a custom
    graph's lists."""
    defects = data.get("defects", {})
    if data["family"] in ("pegasus", "chimera"):
        build = {"pegasus": build_pegasus_reference, "chimera": build_chimera_reference}
        ideal = build[data["family"]](**data["params"])
        nodes, edges = id_set(ideal.node_ids), _edge_set(ideal, ideal.ideal_codes)
    else:
        nodes = frozenset(int(v) for v in data["nodes"])
        edges = frozenset(canonical_edge(int(a), int(b)) for a, b in data["edges"])
    return _graph(
        data["family"], dict(data.get("params", {})), nodes, edges,
        frozenset(int(v) for v in defects.get("nodes", ())),
        frozenset(canonical_edge(int(a), int(b)) for a, b in defects.get("edges", ())))


def partition_replicas_reference(g: HardwareGraph, k: int) -> ReplicaPartition:
    if k not in _GRIDS:
        raise InvalidParameterError(f"replica count must be one of {sorted(_GRIDS)}, got {k}")
    if g.family != "pegasus":
        raise InvalidParameterError(f"replica partitioning needs a pegasus graph, got {g.family!r}")
    m = int(g.params["m"])
    gx, gy = _GRIDS[k]
    dx, dy = m // gx, m // gy
    span = m - 1
    zx = max(0, min(dx, span - (gx - 1) * dx))
    zy = max(0, min(dy, span - (gy - 1) * dy))
    if dx == 0 or dy == 0:
        raise EmbeddingInfeasibleError(f"pegasus m={m} is too small to split {gx}x{gy}")

    canon = sorted(_iter_block_nodes(m, range(dx), range(zy), range(dy), range(zx)))
    if not canon:
        raise EmbeddingInfeasibleError(f"empty canonical block for m={m}, k={k}")

    def shift(node: int, ix: int, iy: int) -> int:
        u, w, kk, z = pegasus_coords(m, node)
        if u == 0:
            return pegasus_index(m, 0, w + ix * dx, kk, z + iy * dy)
        return pegasus_index(m, 1, w + iy * dy, kk, z + ix * dx)

    cells = [(ix, iy) for ix in range(gx) for iy in range(gy)]
    maps = [{c: shift(c, ix, iy) for c in canon} for ix, iy in cells]

    active = active_nodes_reference(g)
    alive = [c for c in canon if all(mp[c] in active for mp in maps)]
    if not alive:
        raise EmbeddingInfeasibleError(f"no qubit of the block survives defects (m={m}, k={k})")
    rank = {c: i for i, c in enumerate(alive)}
    alive_set = set(alive)

    active_edges = active_edges_reference(g)
    logical_edges = set()
    for a, b in _edge_set(g, g.ideal_codes):
        if a in alive_set and b in alive_set:
            if all(canonical_edge(mp[a], mp[b]) in active_edges for mp in maps):
                logical_edges.add(canonical_edge(rank[a], rank[b]))

    iso_maps = tuple({rank[c]: mp[c] for c in alive} for mp in maps)
    return _partition(len(alive), iso_maps, frozenset(logical_edges))


def _iter_block_nodes(m, vert_w, vert_z, horiz_w, horiz_z):
    for w in vert_w:
        for k in range(12):
            for z in vert_z:
                yield pegasus_index(m, 0, w, k, z)
    for w in horiz_w:
        for k in range(12):
            for z in horiz_z:
                yield pegasus_index(m, 1, w, k, z)


def region_failures_reference(p: ReplicaPartition) -> dict[str, list[str]]:
    regs, isos = regions(p), iso_maps(p)
    structural: list[str] = []
    if not p.k == len(regs) == len(isos):
        structural.append(f"k={p.k} but {len(regs)} regions / {len(isos)} iso maps")

    disjoint: list[str] = []
    seen: dict[int, int] = {}
    for r, reg in enumerate(regs):
        for q in reg:
            if q in seen:
                disjoint.append(f"qubit {q} shared by regions {seen[q]} and {r}")
            else:
                seen[q] = r

    bijective: list[str] = []
    for r, iso in enumerate(isos):
        if set(iso.keys()) != set(range(p.n_logical)):
            bijective.append(f"region {r}: iso map domain is not 0..{p.n_logical - 1}")
            continue
        image = set(iso.values())
        if len(image) != p.n_logical:
            bijective.append(f"region {r}: iso map is not injective")
        elif r < len(regs) and image != set(regs[r]):
            bijective.append(f"region {r}: iso map image differs from region set")
    return {"structural": structural, "disjoint": disjoint, "bijective": bijective}


def verify_partition_reference(p: ReplicaPartition, g: HardwareGraph) -> PartitionReport:
    found = region_failures_reference(p)
    failures = [f for claim in found.values() for f in claim]
    structural, disjoint, bijective = (not claim for claim in found.values())
    isos = iso_maps(p)

    active_nodes = active_nodes_reference(g)
    nodes_active = True
    for r, iso in enumerate(isos):
        dead = sorted(q for q in iso.values() if q not in active_nodes)
        if dead:
            nodes_active = False
            failures.append(f"region {r}: inactive qubits {dead[:5]}")

    edges_embedded = True
    active_edges = active_edges_reference(g)
    for r, iso in enumerate(isos):
        if set(iso.keys()) != set(range(p.n_logical)):
            continue
        for a, b in sorted(edge_tuples(p.edge_codes, p.n_logical)):
            if iso[a] == iso[b] or canonical_edge(iso[a], iso[b]) not in active_edges:
                edges_embedded = False
                failures.append(f"region {r}: logical edge ({a},{b}) has no active coupler")

    induced_symmetric = True
    region_edge_counts: list[int] = []
    pulled: list[frozenset[Edge]] | None = []
    for r, iso in enumerate(isos):
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
        region_node_counts=[len(reg) for reg in regions(p)],
        region_edge_counts=region_edge_counts, failures=failures)


def combine_qac_rbm_reference(g: HardwareGraph, k: int = 4) -> CombinedEmbedding:
    """The combined construction for k > 1 (k = 1 uses the whole graph)."""
    base = partition_replicas_reference(g, k)
    shared = base.logical_graph()
    tiled = tile_qac(shared)
    tiling = encoding_reference(tiled)
    if not tiling.units:
        raise EmbeddingInfeasibleError(
            f"no K_(1,3) unit fits the shared block structure (k={k})")

    reps = _pick_representatives(tiled, shared).tolist()
    shared_edges = active_edges_reference(shared)
    n_units = tiling.n_logical
    inst_edges = set()
    for (ua, ub), _couplers in tiling.logical_edges.items():
        if canonical_edge(reps[ua], reps[ub]) in shared_edges:
            inst_edges.add(canonical_edge(ua, ub))

    encodings = []
    for iso in iso_maps(base):
        units = tuple(QacUnit(problem_qubits=tuple(iso[q] for q in u.problem_qubits),
                              penalty_qubit=iso[u.penalty_qubit])
                      for u in tiling.units)
        ledges = {e: tuple(canonical_edge(iso[a], iso[b]) for a, b in tiling.logical_edges[e])
                  for e in sorted(inst_edges)}
        encodings.append(qac_encoding(units, ledges))

    rbm_maps = tuple({u: iso[reps[u]] for u in range(n_units)} for iso in iso_maps(base))
    rbm = _partition(n_units, rbm_maps, frozenset(inst_edges))
    return CombinedEmbedding(k=base.k, encodings=tuple(encodings), rbm_partition=rbm)


def build_chimera_reference(rows: int, cols: int, shore: int) -> HardwareGraph:
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
    return _graph("chimera", {"rows": rows, "cols": cols, "shore": shore}, nodes, edges)


def _greedy_units_reference(g: HardwareGraph, claimed: set[int]) -> list[QacUnit]:
    units = []
    neighbours = adjacency(g)
    for hub in sorted(id_set(g.active_ids)):
        if hub in claimed:
            continue
        avail = [nb for nb in neighbours[hub] if nb not in claimed]
        if len(avail) < 3:
            continue
        leaves = tuple(avail[:3])
        claimed.add(hub)
        claimed.update(leaves)
        units.append(QacUnit(problem_qubits=leaves, penalty_qubit=hub))
    return units


def _chimera_template_units_reference(g: HardwareGraph) -> tuple[list[QacUnit], set[int]]:
    rows, cols, shore = (int(g.params[x]) for x in ("rows", "cols", "shore"))
    claimed: set[int] = set()
    units: list[QacUnit] = []
    if shore < 4:
        return units, claimed

    lin = partial(chimera_index, cols, shore)
    active, active_edges = id_set(g.active_ids), _edge_set(g, g.edge_codes)
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


def tile_qac_reference(g: HardwareGraph) -> QacEncoding:
    if g.family == "chimera":
        units, claimed = _chimera_template_units_reference(g)
        units += _greedy_units_reference(g, claimed)
    else:
        units = _greedy_units_reference(g, set())

    owner: dict[int, int] = {}
    for idx, unit in enumerate(units):
        for q in unit.problem_qubits:
            owner[q] = idx
    logical_edges: dict[Edge, list[Edge]] = {}
    for a, b in sorted(_edge_set(g, g.edge_codes)):
        ua, ub = owner.get(a), owner.get(b)
        if ua is None or ub is None or ua == ub:
            continue
        logical_edges.setdefault(canonical_edge(ua, ub), []).append((a, b))
    return qac_encoding(tuple(units), {e: tuple(cs) for e, cs in sorted(logical_edges.items())})


def pick_representatives_reference(tiling: QacEncodingReference,
                                   shared: HardwareGraph) -> list[int]:
    owner = {q: i for i, u in enumerate(tiling.units) for q in u.problem_qubits}
    neighbours = adjacency(shared)
    reps = []
    for idx, unit in enumerate(tiling.units):
        best, best_score = unit.problem_qubits[0], -1
        for q in unit.problem_qubits:
            score = sum(1 for nb in neighbours.get(q, ())
                        if owner.get(nb, idx) != idx)
            if score > best_score:
                best, best_score = q, score
        reps.append(best)
    return reps
