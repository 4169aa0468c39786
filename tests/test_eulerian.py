"""The level-stopped BFS pairing against the full-BFS loop.

`planted.eulerian_augment` must return the same multigraph as the loop in
`eulerian_reference`: the same base edges, the same duplicated edges, in the
same order, on every structure the workbench builds a loop cover on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anneal_rbm import planted
from anneal_rbm.embedding import combine_qac_rbm, partition_replicas
from anneal_rbm.errors import ContractError
from anneal_rbm.planted import _normalize_loops, build_loop_cover, eulerian_augment
from anneal_rbm.topology import apply_defects, build_chimera

import eulerian_reference
from conftest import (active_edges, connected_graph, edge_tuples, logical_edges, loop_tuples,
                      pegasus_ball)
from eulerian_reference import eulerian_augment_reference, normalize_loop_reference


def assert_matches_reference(n, edges):
    got, want = eulerian_augment(n, edges), eulerian_augment_reference(n, edges)
    assert edge_tuples(got.codes, n) == list(want.edges)
    assert edge_tuples(got.added, n) == list(want.added)
    return got


@pytest.mark.parametrize("k", [2, 4, 8])
def test_m16_partitions(pegasus16, k):
    part = partition_replicas(pegasus16, k)
    mg = assert_matches_reference(part.n_logical, logical_edges(part))
    assert mg.n_added


def test_m16_combined_structure(pegasus16):
    part = combine_qac_rbm(pegasus16, 4).rbm_partition
    assert assert_matches_reference(part.n_logical, logical_edges(part)).n_added


def test_chimera_with_defects():
    g = build_chimera(6, 6, 4)
    g = apply_defects(g, [0, 37, 90], edge_tuples(g.ideal_codes, g.code_base)[5:200:17])
    active = g.active_ids.tolist()
    relabel = {q: i for i, q in enumerate(active)}
    edges = [(relabel[a], relabel[b]) for a, b in active_edges(g)]
    assert assert_matches_reference(len(active), edges).n_added


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
    monkeypatch.setattr(planted, "_incidence",
                        lambda n, codes: ([0, 1, 1, 2, 3], [1, 3, 2], [0, 1, 1]))
    monkeypatch.setattr(eulerian_reference, "_adjacency", lambda n, edges: [[1], [], [3], [2]])
    for augment in (eulerian_augment, eulerian_augment_reference):
        with pytest.raises(ContractError, match="odd-degree vertex 0 cannot be paired"):
            augment(4, [(0, 1), (2, 3)])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 30), min_size=2, max_size=12, unique=True)
       | st.permutations(range(12)))
def test_normalized_loop_is_the_smallest_rotation(loop):
    # decompose_loops emits simple cycles, whose vertices are distinct; the
    # loop is normalized forwards and reversed, beside a 2-cycle and a triangle
    loops = [loop, loop[::-1], [9, 4], [7, 5, 6]]
    offsets = np.cumsum([0] + [len(x) for x in loops])
    got = _normalize_loops(np.concatenate(loops).astype(np.int64), offsets)
    cuts = offsets.tolist()
    assert [tuple(got[i:j].tolist()) for i, j in zip(cuts, cuts[1:])] == [
        normalize_loop_reference(x) for x in loops]


def test_m16_loop_cover_equals_the_scanned_normalization(pegasus16):
    part = partition_replicas(pegasus16, 4)
    cover = build_loop_cover(part.n_logical, logical_edges(part))
    loops = loop_tuples(cover)
    assert loops == tuple(map(normalize_loop_reference, loops))
