"""The array passes of `topology` and `embedding` against the per-edge loops
of `structure_reference`, on random defect masks, and `problem_hash`
against its definition."""

import dataclasses
import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anneal_rbm.embedding import (_pick_representatives, combine_qac_rbm, combined_from_dict,
                                  combined_to_dict, partition_from_dict, partition_replicas,
                                  partition_to_dict, tile_qac, verify_partition)
from anneal_rbm.errors import ContractError
from anneal_rbm.ising import make_problem, problem_hash, problem_to_dict, replicate
from anneal_rbm.jsonio import dumps
from anneal_rbm.planted import GeneratorParams, build_loop_cover, generate_instance
from anneal_rbm.topology import (apply_defects, build_chimera, build_custom, build_pegasus,
                                 graph_from_dict, graph_to_dict)
from conftest import (active_edges, adjacency, edge_tuples, id_set, iso_maps, logical_edges,
                      regions)
from problem_helpers import canonical_edge
from problem_reference import ProblemReference, problem_hash_reference
from structure_reference import (active_edges_reference, active_nodes_reference,
                                 build_chimera_reference, build_pegasus_reference,
                                 combine_qac_rbm_reference, encoding_reference,
                                 graph_from_dict_reference,
                                 graph_to_dict_reference, partition_replicas_reference,
                                 pick_representatives_reference, tile_qac_reference,
                                 verify_partition_reference)

ORACLE = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def masked_pegasus(draw):
    """A Pegasus graph of size 2..6 with a random mask of dead qubits and
    dead couplers (either may be empty)."""
    m = draw(st.integers(2, 6))
    g = build_pegasus(m)
    r = random.Random(draw(st.integers(0, 2**32 - 1)))
    nodes = r.sample(g.node_ids.tolist(), draw(st.integers(0, min(12, g.node_ids.size))))
    edges = r.sample(edge_tuples(g.ideal_codes, g.code_base), draw(st.integers(0, 20)))
    return apply_defects(g, nodes, edges)


@st.composite
def masked_chimera(draw):
    """A Chimera graph of up to 3 x 3 cells with a random defect mask."""
    g = build_chimera(draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4)))
    r = random.Random(draw(st.integers(0, 2**32 - 1)))
    nodes = r.sample(g.node_ids.tolist(), draw(st.integers(0, min(6, g.node_ids.size))))
    edges = r.sample(edge_tuples(g.ideal_codes, g.code_base),
                     draw(st.integers(0, min(6, g.ideal_codes.size))))
    return apply_defects(g, nodes, edges)


def assert_sorted_frozen(a):
    assert a.dtype == np.int64 and not a.flags.writeable
    assert np.all(a[1:] > a[:-1])


@ORACLE
@given(masked_pegasus() | masked_chimera())
def test_graph_arrays_equal_reference(g):
    for a in (g.node_ids, g.ideal_codes, g.defect_ids, g.defect_codes):
        assert_sorted_frozen(a)
    assert g.code_base == max(g.node_ids.tolist(), default=-1) + 1
    assert id_set(g.active_ids) == active_nodes_reference(g)
    assert set(active_edges(g)) == active_edges_reference(g)
    neighbours = {v: [] for v in active_nodes_reference(g)}
    for a, b in sorted(active_edges_reference(g)):
        neighbours[a].append(b)
        neighbours[b].append(a)
    assert adjacency(g) == {v: tuple(sorted(ns)) for v, ns in neighbours.items()}


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 1, 4), (2, 3, 4), (3, 2, 2), (4, 4, 6)])
def test_build_chimera_equals_reference(shape):
    g, ref = build_chimera(*shape), build_chimera_reference(*shape)
    assert g == ref
    assert graph_from_dict(json.loads(dumps(graph_to_dict(g)))) == ref


@ORACLE
@given(masked_pegasus() | masked_chimera())
def test_tiling_equals_reference(g):
    tiling = tile_qac(g)
    assert tiling == tile_qac_reference(g)
    assert (_pick_representatives(tiling, g).tolist()
            == pick_representatives_reference(encoding_reference(tiling), g))


@ORACLE
@given(masked_pegasus(), st.sampled_from([1, 2, 4, 8]))
def test_partition_arrays_are_sound(g, k):
    try:
        comb = combine_qac_rbm(g, k)
    except ContractError:
        return
    # the block partition the combined structure is derived from, and its own
    blocks = (partition_replicas(g, k),) if k > 1 else ()
    for part in (*blocks, comb.rbm_partition):
        assert verify_partition(part, g).ok
        n = part.n_logical
        assert part.images.shape == (part.k, n) == (k, n)
        assert part.images.dtype == np.int64 and not part.images.flags.writeable
        assert_sorted_frozen(part.edge_codes)
        lg = part.logical_graph()
        for a in (lg.node_ids, lg.ideal_codes, lg.defect_ids, lg.defect_codes):
            assert_sorted_frozen(a)
        assert lg.node_ids.tolist() == list(range(n)) and lg.code_base == n
        assert np.array_equal(lg.edge_codes, part.edge_codes)
        assert set(active_edges(lg)) == active_edges_reference(lg)


def outcome(fn, *args):
    """fn's result, or the type and text of the contract error it raises."""
    try:
        return fn(*args)
    except ContractError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("m", range(2, 9))
def test_build_pegasus_equals_reference(m):
    g, ref = build_pegasus(m), build_pegasus_reference(m)
    assert g == ref
    assert graph_from_dict(json.loads(dumps(graph_to_dict(g)))) == ref


def _round_trip(g, payload):
    """Load ``payload``, written for ``g``, as JSON text, and check the
    graph it loads as against ``g`` and the reference loader."""
    data = json.loads(dumps(payload))
    loaded = graph_from_dict(data)
    assert loaded == graph_from_dict_reference(data) == g
    assert id_set(loaded.active_ids) == active_nodes_reference(g) == id_set(g.active_ids)
    assert set(active_edges(loaded)) == active_edges_reference(g) == set(active_edges(g))
    assert graph_to_dict(loaded) == payload


@ORACLE
@given(masked_pegasus() | masked_chimera())
def test_graph_round_trip_equals_reference(g):
    # a builder family's payload is its recipe: the reference loader builds
    # it with the reference builder and masks it
    payload = graph_to_dict(g)
    assert set(payload) == {"family", "params", "defects"}
    assert payload["defects"] == graph_to_dict_reference(g)["defects"]
    _round_trip(g, payload)


@ORACLE
@given(masked_pegasus() | masked_chimera())
def test_custom_graph_round_trip_equals_reference(g):
    # the same graph under the custom family: its payload lists its ids and edges
    ideal = build_custom(g.node_ids.tolist(), edge_tuples(g.ideal_codes, g.code_base))
    custom = apply_defects(ideal, g.defect_ids.tolist(), edge_tuples(g.defect_codes, g.code_base))
    payload = graph_to_dict(custom)
    assert payload == graph_to_dict_reference(custom)
    _round_trip(custom, payload)


@ORACLE
@given(masked_pegasus(), st.sampled_from([2, 4, 8]))
def test_partition_and_report_equal_reference(g, k):
    part = outcome(partition_replicas, g, k)
    assert part == outcome(partition_replicas_reference, g, k)
    if isinstance(part, tuple):
        return
    # the recipe file loads as the reference partition
    recipe = json.loads(dumps(partition_to_dict(g, k)))
    assert partition_from_dict(recipe) == partition_replicas_reference(g, k)
    assert verify_partition(part, g) == verify_partition_reference(part, g)
    comb = outcome(combine_qac_rbm, g, k)
    assert comb == outcome(combine_qac_rbm_reference, g, k)
    if not isinstance(comb, tuple):
        loaded = combined_from_dict(json.loads(dumps(combined_to_dict(comb))))
        assert loaded.rbm_partition == combine_qac_rbm_reference(g, k).rbm_partition


def _corruptions(part, g, r: random.Random):
    """(partition, graph, kind): the intact pair, then pairs that break one
    claim each: a qubit in two regions (the last iso map sends a logical id
    to a qubit of region 0), a logical edge whose coupler is dead, a region
    qubit that is dead, an iso map that sends two logical ids to one qubit,
    and two dead qubits under a reversed iso map (so the map's order is not
    the qubits' order)."""
    last = part.k - 1

    def with_last_map(row):
        images = part.images.copy()
        images[last] = row
        return dataclasses.replace(part, images=images)

    q = r.choice(sorted(regions(part)[0]))
    yield part, g, "intact"
    shared = part.images[last].copy()
    shared[r.randrange(part.n_logical)] = q
    yield with_last_map(shared), g, "shared"
    isos = iso_maps(part)
    if part.edge_codes.size:
        a, b = r.choice(logical_edges(part))
        iso = isos[r.randrange(part.k)]
        yield part, apply_defects(g, [], [canonical_edge(iso[a], iso[b])]), "coupler"
    v = r.randrange(part.n_logical)
    yield part, apply_defects(g, [isos[last][v]]), "qubit"
    if part.n_logical > 1:
        v, w = r.sample(range(part.n_logical), 2)
        collapsed = part.images[last].copy()
        collapsed[v] = collapsed[w]
        yield with_last_map(collapsed), g, "iso"
        dead = [isos[last][v], isos[last][w]]
        yield with_last_map(part.images[last, ::-1]), apply_defects(g, dead), "reversed"


@ORACLE
@given(masked_pegasus(), st.sampled_from([2, 4, 8]), st.integers(0, 2**32 - 1))
def test_corrupted_partition_reports_equal_reference(g, k, seed):
    try:
        part = partition_replicas(g, k)
    except ContractError:
        return
    for bad, graph, _ in _corruptions(part, g, random.Random(seed)):
        report = outcome(verify_partition, bad, graph)
        assert report == outcome(verify_partition_reference, bad, graph)


def test_each_corruption_is_reported():
    g = build_pegasus(4)
    part = partition_replicas(g, 4)
    seen = set()
    for bad, graph, kind in _corruptions(part, g, random.Random(3)):
        report = verify_partition(bad, graph)
        assert report == verify_partition_reference(bad, graph)
        assert report.ok == (kind == "intact"), kind
        seen.add(kind)
    assert seen == {"intact", "shared", "coupler", "qubit", "iso", "reversed"}


@pytest.fixture(scope="module")
def m16_replica_problem():
    g = build_pegasus(16)
    part = partition_replicas(g, 4)
    cover = build_loop_cover(part.n_logical, logical_edges(part))
    return replicate(generate_instance(cover, GeneratorParams(seed=5)).problem, part).problem


def _hash_by_definition(p) -> str:
    return hashlib.sha256(json.dumps(problem_to_dict(p), sort_keys=True).encode()).hexdigest()


# ids whose decimals cross a width, so string and numeric key orders differ
# ("10,11" sorts before "100,101", "999" after "1000"), and values whose
# repr is an exponent form, a subnormal or the largest magnitudes
_WIDE = {(9, 10): 1e16, (99, 100): 1e-05, (999, 1000): -0.1, (10, 11): 5e-324,
         (100, 101): 1e308, (1, 10): 2.0, (1, 100): -3.0, (2, 10): 0.5, (0, 1000): 1.0,
         (10, 100): -1e16}


@pytest.mark.parametrize("n, h, j", [
    (3, {}, {(0, 1): 1.0, (1, 2): -0.1}),
    (3, {0: 1e16, 2: 1e-05}, {}),
    (1, {0: -0.1}, {}),
    (0, {}, {}),
    (1001, {i: v for i, v in zip((9, 10, 99, 100, 999, 1000),
                                 (1e16, 1e-05, -0.1, 5e-324, 1e308, -7.0))}, {}),
    (1001, {0: 1.0, 10: -1.0, 100: 2.0}, _WIDE),
], ids=["empty-h", "empty-j", "n-1", "n-0", "h-crossing-widths", "j-crossing-widths"])
def test_problem_hash_equals_definition_and_reference(n, h, j):
    p = make_problem(n, h, j)
    want = _hash_by_definition(p)
    assert problem_hash(p) == want
    assert problem_hash_reference(ProblemReference(n, dict(h), dict(j))) == want


def test_problem_hash_is_the_sorted_payload_digest(m16_replica_problem):
    assert problem_hash(m16_replica_problem) == _hash_by_definition(m16_replica_problem)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_problem_hash_equals_definition_on_random_problems(n, seed):
    r = np.random.default_rng(seed)
    h = {int(i): float(r.normal()) for i in r.permutation(n)[: r.integers(0, n + 1)]}
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    picked = r.permutation(len(pairs))[: r.integers(0, len(pairs) + 1)]
    j = {pairs[i]: float(r.choice([-1.0, 1.0]) * r.integers(1, 12) / 7) for i in picked}
    p = make_problem(n, h, j)
    assert problem_hash(p) == _hash_by_definition(p)
