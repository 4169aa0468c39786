"""The array-native planted layer against the per-edge generator it replaced.

`planted_reference` is the old module word for word.  On every structure the
workbench builds instances on, augmentation, decomposition, generation,
serialization and verification must give what it gives: the same edges and
loops in the same order, the same clauses, the same J terms in the same
stored order and dtypes, the same planted energy and file bytes, and the
same verdicts on sound and on damaged instances.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planted_reference as ref
from anneal_rbm import planted
from anneal_rbm.embedding import combine_qac_rbm, partition_replicas
from anneal_rbm.ising import _TERM_FIELDS, make_problem
from anneal_rbm.jsonio import dumps
from anneal_rbm.topology import apply_defects, build_chimera
from conftest import connected_graph, edge_tuples, loop_tuples, pegasus_ball


def assert_cover_matches(n, pairs):
    """Augment and decompose (n, pairs) both ways; return both covers."""
    edges = [tuple(e) for e in np.asarray(pairs).reshape(-1, 2).tolist()]
    mg, want_mg = planted.eulerian_augment(n, pairs), ref.eulerian_augment(n, edges)
    assert edge_tuples(mg.codes, n) == list(want_mg.edges)
    assert edge_tuples(mg.added, n) == list(want_mg.added)
    cover, want = planted.decompose_loops(mg), ref.decompose_loops(want_mg)
    assert cover.nodes.dtype == cover.offsets.dtype == np.int64
    assert loop_tuples(cover) == want.loops
    assert edge_tuples(cover.edge_codes, n) == [
        e for i in range(len(want.loops)) for e in want.loop_edges(i)]
    return cover, want


def report(r):
    return dataclasses.asdict(r)


def damaged(inst, want):
    """(name, instance, reference instance) for the instance as generated
    and for four ways of damaging it."""
    yield "sound", inst, want
    e0 = next(iter(inst.problem.j))
    j = dict(inst.problem.j)
    j[e0] += 1.0
    corrupted = make_problem(inst.problem.n, {}, j)
    yield ("corrupted coupler", dataclasses.replace(inst, problem=corrupted),
           dataclasses.replace(want, problem=corrupted))
    tampered = inst.planted.copy()
    v = inst.cover.nodes[inst.cover.offsets[inst.clause_loops[0]]]  # on a clause
    tampered[v] = -tampered[v]
    yield ("tampered planted", dataclasses.replace(inst, planted=tampered),
           dataclasses.replace(want, planted=tampered))
    # a flip past the end of its loop, and a zero magnitude
    i = int(np.argmax(inst.flips))
    length = int(inst.cover.lengths[inst.clause_loops[i]])
    flips = inst.flips.copy()
    flips[i] = length
    clauses = list(want.clauses)
    clauses[i] = dataclasses.replace(clauses[i], flip_pos=length)
    yield ("flip out of range", dataclasses.replace(inst, flips=flips),
           dataclasses.replace(want, clauses=tuple(clauses)))
    magnitudes = inst.magnitudes.copy()
    magnitudes[-1] = 0.0
    clauses = list(want.clauses)
    clauses[-1] = dataclasses.replace(clauses[-1], magnitude=0.0)
    yield ("zero magnitude", dataclasses.replace(inst, magnitudes=magnitudes),
           dataclasses.replace(want, clauses=tuple(clauses)))


def assert_instances_match(cover, want, betas=(1.0, 0.5), seeds=(0, 7)):
    for beta in betas:
        for seed in seeds:
            params = planted.GeneratorParams(bias_large=10.0, bias_small=2.0, p_large=0.3,
                                             beta=beta, seed=seed)
            inst = planted.generate_instance(cover, params)
            expect = ref.generate_instance(want, params)
            assert inst.clause_loops.tolist() == [c.loop_index for c in expect.clauses]
            assert inst.magnitudes.tolist() == [c.magnitude for c in expect.clauses]
            assert inst.flips.tolist() == [-1 if c.flip_pos is None else c.flip_pos
                                           for c in expect.clauses]
            for a, dtype in ((inst.clause_loops, np.int64), (inst.magnitudes, np.float64),
                             (inst.flips, np.int64)):
                assert a.dtype == dtype and not a.flags.writeable
            for name in _TERM_FIELDS:
                got, exp = getattr(inst.problem, name), getattr(expect.problem, name)
                assert got.dtype == exp.dtype and np.array_equal(got, exp), name
            assert inst.planted_energy == expect.planted_energy
            assert np.array_equal(inst.planted, expect.planted)
            assert dumps(planted.instance_to_dict(inst)) == dumps(ref.instance_to_dict(expect))
            for name, got, exp in damaged(inst, expect):
                verdict = report(planted.verify_planted(got))
                assert verdict == report(ref.verify_planted(exp)), name
                assert verdict["ok"] == (name == "sound")


@pytest.mark.parametrize("k", [2, 4, 8])
def test_m16_partitions(pegasus16, k):
    part = partition_replicas(pegasus16, k)
    cover, want = assert_cover_matches(part.n_logical, part.logical_graph().edge_ranks.T)
    assert_instances_match(cover, want, seeds=(0,))


def test_m16_combined_structure(pegasus16):
    part = combine_qac_rbm(pegasus16, 4).rbm_partition
    cover, want = assert_cover_matches(part.n_logical, part.logical_graph().edge_ranks.T)
    assert_instances_match(cover, want, seeds=(0,))


def test_chimera_with_defects():
    g = build_chimera(6, 6, 4)
    g = apply_defects(g, [0, 37, 90], edge_tuples(g.ideal_codes, g.code_base)[5:200:17])
    cover, want = assert_cover_matches(g.active_ids.size, g.edge_ranks.T)
    assert_instances_match(cover, want)


@pytest.mark.parametrize("size", [14, 60])
def test_pegasus_ball_and_two_components(size):
    n, edges = pegasus_ball(3, size)
    assert_instances_match(*assert_cover_matches(n, edges))
    # a second copy, so pairing and the walk run component by component
    both = edges + [(a + n, b + n) for a, b in edges]
    assert_instances_match(*assert_cover_matches(2 * n, both))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(connected_graph(), st.sampled_from((0, 1, 2**40 + 3)))
def test_random_graphs(case, seed):
    n, edges = case
    cover, want = assert_cover_matches(n, edges)
    assert_instances_match(cover, want, seeds=(seed,))
