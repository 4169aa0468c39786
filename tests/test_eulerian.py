"""The level-stopped BFS pairing against the full-BFS loop.

`planted.eulerian_augment` must return the same `Multigraph` as the loop in
`eulerian_reference`: the same base edges, the same duplicated edges, in the
same order, on every structure the workbench builds a loop cover on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anneal_rbm import planted
from anneal_rbm.embedding import combine_qac_rbm, partition_replicas
from anneal_rbm.errors import ContractError
from anneal_rbm.planted import _normalize_loop, build_loop_cover, eulerian_augment
from anneal_rbm.topology import apply_defects, build_chimera

import eulerian_reference
from conftest import connected_graph, pegasus_ball
from eulerian_reference import eulerian_augment_reference, normalize_loop_reference


def assert_matches_reference(n, edges):
    got = eulerian_augment(n, edges)
    assert got == eulerian_augment_reference(n, edges)
    return got


@pytest.mark.parametrize("k", [2, 4, 8])
def test_m16_partitions(pegasus16, k):
    part = partition_replicas(pegasus16, k)
    mg = assert_matches_reference(part.n_logical, sorted(part.logical_edges))
    assert mg.added


def test_m16_combined_structure(pegasus16):
    part = combine_qac_rbm(pegasus16, 4).rbm_partition
    assert assert_matches_reference(part.n_logical, sorted(part.logical_edges)).added


def test_chimera_with_defects():
    g = build_chimera(6, 6, 4)
    g = apply_defects(g, [0, 37, 90], sorted(g.edges)[5:200:17])
    active = sorted(g.active_nodes)
    relabel = {q: i for i, q in enumerate(active)}
    edges = [(relabel[a], relabel[b]) for a, b in sorted(g.active_edges)]
    assert assert_matches_reference(len(active), edges).added


def test_pegasus_ball_and_several_components():
    n, edges = pegasus_ball(3, 60)
    # a second copy, so pairing runs component by component
    both = edges + [(a + n, b + n) for a, b in edges[: len(edges) // 2]]
    assert_matches_reference(2 * n, both)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(connected_graph())
def test_random_graphs(case):
    n, edges = case
    # the relabeling reverses vertex ids, so ties between equally near odd
    # vertices break the other way round
    assert_matches_reference(n, edges)
    assert_matches_reference(n, [(n - 1 - a, n - 1 - b) for a, b in edges])


def test_unpairable_odd_vertex_raises_the_same_error(monkeypatch):
    """Every component of a graph holds an even number of odd vertices, so no
    graph reaches this error; an adjacency that lists 0 -> 1 but not 1 -> 0
    leaves vertex 0 odd and alone."""
    def one_way(n, edges):
        return [[1], [], [3], [2]]

    monkeypatch.setattr(planted, "_adjacency", one_way)
    monkeypatch.setattr(eulerian_reference, "_adjacency", one_way)
    for augment in (eulerian_augment, eulerian_augment_reference):
        with pytest.raises(ContractError, match="odd-degree vertex 0 cannot be paired"):
            augment(4, [(0, 1), (2, 3)])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 30), min_size=2, max_size=12, unique=True)
       | st.permutations(range(12)))
def test_normalized_loop_is_the_smallest_rotation(loop):
    # decompose_loops emits simple cycles, whose vertices are distinct
    assert _normalize_loop(loop) == normalize_loop_reference(loop)
    assert _normalize_loop(tuple(reversed(loop))) == normalize_loop_reference(loop)


def test_m16_loop_cover_equals_the_scanned_normalization(pegasus16, monkeypatch):
    part = partition_replicas(pegasus16, 4)
    edges = sorted(part.logical_edges)
    cover = build_loop_cover(part.n_logical, edges)
    monkeypatch.setattr(planted, "_normalize_loop", normalize_loop_reference)
    assert cover == build_loop_cover(part.n_logical, edges)
