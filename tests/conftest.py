import random

import numpy as np
import pytest
from hypothesis import strategies as st

from anneal_rbm.embedding import partition_replicas
from anneal_rbm.ising import replicate
from anneal_rbm.planted import GeneratorParams, build_loop_cover, generate_instance
from anneal_rbm.samplers import NoiseModel, region_biases
from anneal_rbm.topology import build_custom, build_pegasus


def pegasus_ball(m: int, size: int, start: int | None = None):
    """Connected induced subgraph of a Pegasus graph, relabeled to 0..n-1.

    Grows a BFS ball from a high-degree qubit, which keeps the subgraph rich
    in crossings (starting from id 0 would land on a boundary wire with no
    internal couplers).
    """
    g = build_pegasus(m)
    neighbours = adjacency(g)
    if start is None:  # the highest degree, then the lowest id
        start = int(g.active_ids[np.argmax(np.diff(g.neighbors[0]))])
    order = [start]
    seen = {start}
    for v in order:
        for nb in neighbours[v]:
            if nb not in seen and len(order) < size:
                seen.add(nb)
                order.append(nb)
        if len(order) >= size:
            break
    nodes = sorted(seen)
    relabel = {q: i for i, q in enumerate(nodes)}
    edges = [(relabel[a], relabel[b]) for a, b in active_edges(g)
             if a in seen and b in seen]
    return len(nodes), edges


def noisy_replicated():
    """A planted instance on the two replicas of Pegasus m=4, with chip noise
    and a different bias offset on each replica: (problem, noise, placement)."""
    part = partition_replicas(build_pegasus(4), 2)
    cover = build_loop_cover(part.n_logical, logical_edges(part))
    inst = generate_instance(cover, GeneratorParams(seed=3))
    rp = replicate(inst.problem, part)
    noise = NoiseModel(sigma_h=0.05, sigma_j=0.02, chip_seed=11,
                       region_bias=region_biases(part.images, [0.3, -0.2]))
    return rp.problem, noise, rp.placement


@pytest.fixture(scope="session")
def pegasus16():
    return build_pegasus(16)


@pytest.fixture(scope="session")
def p2_ball18():
    return pegasus_ball(2, 18)


def two_stars_graph():
    """Two K_{1,3} stars whose leaves 1 and 5 share one coupler."""
    edges = [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7), (1, 5)]
    return build_custom(range(8), edges)


def loop_tuples(cover) -> tuple[tuple[int, ...], ...]:
    """The loops of a cover as vertex tuples."""
    cuts = cover.offsets.tolist()
    return tuple(tuple(cover.nodes[i:j].tolist()) for i, j in zip(cuts, cuts[1:]))


def edge_tuples(codes, n: int) -> list[tuple[int, int]]:
    """Edge codes a*n + b as (a, b) tuples, in order."""
    a, b = np.divmod(np.asarray(codes), n)
    return list(zip(a.tolist(), b.tolist()))


def defect_mask(g, seed: int, qubits: int, couplers: int) -> dict:
    """A reproducible mask of ``qubits`` dead qubits and ``couplers`` dead
    couplers of the ideal graph ``g``."""
    r = random.Random(seed)
    return {"nodes": sorted(r.sample(g.node_ids.tolist(), qubits)),
            "edges": [list(e) for e in
                      sorted(r.sample(edge_tuples(g.ideal_codes, g.code_base), couplers))]}


def id_set(ids) -> frozenset[int]:
    """An id array as a set of ints."""
    return frozenset(np.asarray(ids).tolist())


def active_edges(g) -> list[tuple[int, int]]:
    """The active couplers of a graph as sorted (a, b) tuples, a < b."""
    return edge_tuples(g.edge_codes, g.code_base)


def adjacency(g) -> dict[int, tuple[int, ...]]:
    """The sorted active neighbours of each active qubit of a graph."""
    offsets, ranks = g.neighbors
    ids, cuts = g.active_ids[ranks].tolist(), offsets.tolist()
    return {v: tuple(ids[i:j]) for v, i, j in zip(g.active_ids.tolist(), cuts, cuts[1:])}


def logical_edges(part) -> list[tuple[int, int]]:
    """The logical edges of a partition as sorted (a, b) tuples, a < b."""
    return edge_tuples(part.edge_codes, part.n_logical)


def iso_maps(part) -> tuple[dict[int, int], ...]:
    """Per region of a partition, its map from logical id to qubit."""
    return tuple(dict(enumerate(row)) for row in part.images.tolist())


def regions(part) -> tuple[frozenset[int], ...]:
    """Per region of a partition, its set of qubits: a row of ``images``."""
    return tuple(map(frozenset, part.images.tolist()))


def listed_partition(part) -> dict:
    """The payload a partition file held before it held the recipe: k, the
    iso maps keyed by logical id, the regions and the logical edges listed."""
    return {"k": part.k, "n_logical": part.n_logical,
            "logical_edges": [list(e) for e in logical_edges(part)],
            "iso_maps": [{str(v): q for v, q in iso.items()} for iso in iso_maps(part)],
            "regions": [sorted(reg) for reg in regions(part)]}


def spins(*values) -> np.ndarray:
    return np.array(values, dtype=np.int8)


@st.composite
def connected_graph(draw):
    """Random connected graph: spanning tree plus extra edges."""
    n = draw(st.integers(min_value=2, max_value=14))
    edges = set()
    for v in range(1, n):
        edges.add(tuple(sorted((v, draw(st.integers(0, v - 1))))))
    extras = draw(st.integers(0, 2 * n))
    for _ in range(extras):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(0, n - 1))
        if a != b:
            edges.add(tuple(sorted((a, b))))
    return n, sorted(edges)
