import dataclasses
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anneal_rbm import rng
from anneal_rbm.embedding import partition_replicas
from anneal_rbm.errors import ContractError, InvalidParameterError
from anneal_rbm.ising import energy, gauge_transform, make_problem, problem_from_dict
from anneal_rbm.jsonio import dumps
from anneal_rbm.planted import (GeneratorParams, Multigraph,
                                build_loop_cover, clause_minimum,
                                decompose_loops, eulerian_augment,
                                generate_instance, instance_to_dict,
                                verify_planted)
from anneal_rbm.samplers import solve_exact
from anneal_rbm.topology import build_pegasus
from conftest import connected_graph, edge_tuples, loop_tuples, pegasus_ball, spins


def test_augment_even_graph_unchanged():
    ring = [(0, 1), (1, 2), (2, 3), (0, 3)]
    mg = eulerian_augment(4, ring)
    assert mg.added.size == 0
    assert sorted(edge_tuples(mg.codes, 4)) == sorted(ring)


def test_augment_path_doubles_both_edges():
    mg = eulerian_augment(3, [(0, 1), (1, 2)])
    assert edge_tuples(mg.added, 3) == [(0, 1), (1, 2)]


def test_augment_cycle_with_chord_adds_exactly_the_chord():
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]
    mg = eulerian_augment(4, edges)
    assert edge_tuples(mg.added, 4) == [(0, 2)]
    # no single-parallel augmentation other than the chord fixes parity:
    # vertices 0 and 2 are the odd ones, and (0,2) is the only edge joining them
    base = Multigraph(4, np.array([a * 4 + b for a, b in sorted(edges)]))
    odd = [v for v, d in enumerate(base.degrees()) if d % 2]
    assert odd == [0, 2]


def test_augment_multiplicity_never_exceeds_two():
    n, edges = pegasus_ball(2, 20)
    cover = build_loop_cover(n, edges)
    mult = Counter(edge_tuples(cover.edge_codes, n))
    assert all(1 <= mult[e] <= 2 for e in edges)


def test_decompose_single_cycle():
    mg = eulerian_augment(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    cover = decompose_loops(mg)
    assert loop_tuples(cover) == ((0, 1, 2, 3),)


def test_decompose_figure_eight():
    # two triangles sharing vertex 0
    mg = eulerian_augment(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])
    cover = decompose_loops(mg)
    assert cover.lengths.size == 2
    assert cover.lengths.tolist() == [3, 3]


def test_decompose_doubled_path_yields_two_cycles():
    cover = build_loop_cover(3, [(0, 1), (1, 2)])
    assert sorted(loop_tuples(cover)) == [(0, 1), (1, 2)]


def test_decompose_uses_every_multiedge_once():
    n, edges = pegasus_ball(2, 16)
    mg = eulerian_augment(n, edges)
    cover = decompose_loops(mg)
    assert Counter(cover.edge_codes.tolist()) == Counter(mg.codes.tolist())


def test_decompose_rejects_odd_degrees():
    with pytest.raises(ContractError):
        decompose_loops(Multigraph(3, np.array([0 * 3 + 1, 1 * 3 + 2])))


def test_generator_params_validation():
    with pytest.raises(InvalidParameterError):
        GeneratorParams(bias_large=2, bias_small=2)
    with pytest.raises(InvalidParameterError):
        GeneratorParams(p_large=1.5)
    with pytest.raises(InvalidParameterError):
        GeneratorParams(beta=0.0)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(InvalidParameterError):
            GeneratorParams(bias_large=bad)
        with pytest.raises(InvalidParameterError):
            GeneratorParams(bias_large=bad, bias_small=bad)


def test_generate_rejects_a_planted_energy_that_overflows():
    # every coupler is finite, but their sum overflows to -inf
    n, edges = pegasus_ball(2, 18)
    cover = build_loop_cover(n, edges)
    with pytest.raises(InvalidParameterError, match="planted energy"):
        generate_instance(cover, GeneratorParams(bias_large=1e308, bias_small=1e307,
                                                 p_large=0.0))


def test_single_four_loop_instance():
    cover = build_loop_cover(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    params = GeneratorParams(bias_large=9, bias_small=2, p_large=0.0,
                             beta=1.0, seed=5)
    inst = generate_instance(cover, params, planted=spins(1, 1, 1, 1))
    values = sorted(inst.problem.j.values())
    assert values == [-2.0, -2.0, -2.0, 2.0]
    assert inst.planted_energy == -4.0
    assert solve_exact(inst.problem).min_energy == -4.0


def test_beta_selects_ceil_fraction():
    import math
    n, edges = pegasus_ball(2, 18)
    cover = build_loop_cover(n, edges)
    total = cover.lengths.size
    for beta in (0.3, 0.7, 1.0):
        inst = generate_instance(cover, GeneratorParams(beta=beta, seed=1))
        assert inst.clause_loops.size == math.ceil(beta * total)
    full = generate_instance(cover, GeneratorParams(beta=1.0, seed=1))
    assert full.clause_loops.tolist() == list(range(total))


def test_beta_one_covers_every_edge():
    n, edges = pegasus_ball(2, 18)
    cover = build_loop_cover(n, edges)
    inst = generate_instance(cover, GeneratorParams(beta=1.0, seed=2))
    loops = loop_tuples(cover)
    touched = {(min(a, b), max(a, b)) for i in inst.clause_loops.tolist()
               for a, b in zip(loops[i], loops[i][1:] + loops[i][:1])}
    assert touched == set(edges)


def test_two_cycles_are_never_flipped():
    cover = build_loop_cover(3, [(0, 1), (1, 2)])
    inst = generate_instance(cover, GeneratorParams(beta=1.0, seed=3))
    assert inst.flips.tolist() == [-1, -1]
    # both couplers ferromagnetic in the planted gauge: satisfied by planted
    for (a, b), v in inst.problem.j.items():
        assert v * inst.planted[a] * inst.planted[b] < 0
    assert verify_planted(inst).ok


def test_planted_energy_is_sum_of_clause_minima():
    n, edges = pegasus_ball(2, 18)
    cover = build_loop_cover(n, edges)
    inst = generate_instance(cover, GeneratorParams(beta=0.8, seed=9))
    expected = sum(clause_minimum(length, m, flip >= 0) for length, m, flip
                   in zip(cover.lengths[inst.clause_loops].tolist(),
                          inst.magnitudes.tolist(), inst.flips.tolist()))
    assert inst.planted_energy == expected


def test_determinism_bit_identical():
    n, edges = pegasus_ball(2, 18)
    cover = build_loop_cover(n, edges)
    params = GeneratorParams(beta=0.9, seed=1234)
    a = generate_instance(cover, params)
    b = generate_instance(cover, params)
    assert a.problem == b.problem
    assert np.array_equal(a.planted, b.planted)
    for name in ("clause_loops", "magnitudes", "flips"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_clause_draws_come_from_the_loop_stream():
    # each selected loop draws its magnitude, then its flip, from its own
    # (seed, STREAM_LOOP, loop) stream
    n, edges = pegasus_ball(2, 18)
    cover = build_loop_cover(n, edges)
    params = GeneratorParams(beta=0.7, p_large=0.5, seed=2**40 + 3)
    inst = generate_instance(cover, params)
    for loop, magnitude, flip in zip(inst.clause_loops.tolist(), inst.magnitudes.tolist(),
                                     inst.flips.tolist()):
        loop_rng = rng.stream(params.seed, rng.STREAM_LOOP, loop)
        large = loop_rng.random() < params.p_large
        assert magnitude == (params.bias_large if large else params.bias_small)
        length = int(cover.lengths[loop])
        assert flip == (int(loop_rng.integers(length)) if length >= 3 else -1)


def test_gauge_correctness():
    # applying the planted configuration as a gauge maps planted to all +1
    n, edges = pegasus_ball(2, 16)
    cover = build_loop_cover(n, edges)
    inst = generate_instance(cover, GeneratorParams(beta=1.0, seed=7))
    gauged = gauge_transform(inst.problem, inst.planted)
    all_up = np.ones(n, dtype=np.int8)
    assert energy(gauged, all_up) == inst.planted_energy


@settings(max_examples=40, deadline=None)
@given(connected_graph())
def test_cover_contract_on_random_graphs(case):
    n, edges = case
    cover = build_loop_cover(n, edges)
    mult = Counter(edge_tuples(cover.edge_codes, n))
    assert set(mult) == set(edges)
    assert all(1 <= mult[tuple(e)] <= 2 for e in edges)
    degree = [0] * n
    for (a, b), m in mult.items():
        degree[a] += m
        degree[b] += m
    assert all(d % 2 == 0 for d in degree)


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=3, max_value=12), st.sampled_from((2.0, 9.0)))
def test_frustrated_ring_minimum_matches_formula(length, magnitude):
    ring = [(i, (i + 1) % length) for i in range(length)]
    cover = build_loop_cover(length, ring)
    inst = generate_instance(
        cover, GeneratorParams(bias_large=magnitude + 1, bias_small=magnitude,
                               p_large=0.0, beta=1.0, seed=1))
    sol = solve_exact(inst.problem)
    assert sol.min_energy == clause_minimum(length, magnitude, True)
    assert sol.min_energy == inst.planted_energy


def test_magnitude_frequency_tracks_p_large():
    g = build_pegasus(4)
    part = partition_replicas(g, 2)
    cover = build_loop_cover(part.n_logical, sorted(part.logical_edges))
    magnitudes = []
    seed = 0
    while len(magnitudes) < 600:
        inst = generate_instance(cover, GeneratorParams(
            bias_large=9, bias_small=2, p_large=0.08, beta=1.0, seed=seed))
        magnitudes += inst.magnitudes.tolist()
        seed += 1
    freq = sum(1 for m in magnitudes if m == 9) / len(magnitudes)
    assert 0.04 <= freq <= 0.13


def test_verify_detects_corrupted_coupler():
    n, edges = pegasus_ball(2, 16)
    cover = build_loop_cover(n, edges)
    inst = generate_instance(cover, GeneratorParams(beta=1.0, seed=4))
    assert verify_planted(inst).ok
    e0 = next(iter(inst.problem.j))
    corrupted_j = dict(inst.problem.j)
    corrupted_j[e0] = corrupted_j[e0] + 1.0
    bad = dataclasses.replace(inst, problem=make_problem(n, {}, corrupted_j))
    report = verify_planted(bad)
    assert not report.ok
    assert not report.coupler_consistent or report.failures


def test_verify_detects_tampered_planted():
    n, edges = pegasus_ball(2, 16)
    cover = build_loop_cover(n, edges)
    inst = generate_instance(cover, GeneratorParams(beta=1.0, seed=6))
    tampered = inst.planted.copy()
    tampered[0] = -tampered[0]
    bad = dataclasses.replace(inst, planted=tampered)
    report = verify_planted(bad)
    assert not report.ok


def test_verify_brute_force_small_instance():
    n, edges = pegasus_ball(2, 16)
    cover = build_loop_cover(n, edges)
    inst = generate_instance(cover, GeneratorParams(beta=1.0, seed=11))
    report = verify_planted(inst)
    assert report.ok and report.brute_checked
    assert report.brute_min == inst.planted_energy


def test_empty_cover_rejected():
    cover = build_loop_cover(3, [])
    with pytest.raises(InvalidParameterError):
        generate_instance(cover, GeneratorParams(seed=1))


def test_instance_serialization_round_trip():
    # an instance file is read back as the CLI reads it: as a problem file
    n, edges = pegasus_ball(2, 14)
    cover = build_loop_cover(n, edges)
    inst = generate_instance(cover, GeneratorParams(beta=1.0, seed=8))
    data = json.loads(dumps(instance_to_dict(inst)))
    problem = problem_from_dict(data)
    assert problem == inst.problem
    assert energy(problem, data["planted"]) == data["planted_energy"] == inst.planted_energy
