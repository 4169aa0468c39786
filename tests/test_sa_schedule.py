"""The level-scheduled annealer against the one-spin-at-a-time sweep.

`sample_sa` must return exactly the reads and energies of the per-spin loop
in `sa_reference`, on every kind of problem the workbench anneals and on the
orders that stress the schedule most.
"""

import warnings

import numpy as np
import pytest

import anneal_rbm.samplers as samplers
from anneal_rbm.decode import build_qac_problem
from anneal_rbm.embedding import logical_graph, partition_replicas, tile_qac
from anneal_rbm.ising import make_problem, replicate
from anneal_rbm.planted import GeneratorParams, build_loop_cover, generate_instance
from anneal_rbm.samplers import (AnnealParams, NoiseModel, _spin_levels,
                                 _sweep_steps, region_biases, sample_sa)
from anneal_rbm.topology import build_pegasus
from conftest import pegasus_ball
from sa_reference import sample_sa_reference


def assert_matches_reference(p, params, noise=None, placement=None):
    got = sample_sa(p, params, noise, placement)
    want = sample_sa_reference(p, params, noise, placement)
    assert np.array_equal(got.reads, want.reads)
    assert np.array_equal(got.energies, want.energies)
    assert got.params.keys() == want.params.keys()
    assert {k: v for k, v in got.params.items() if k != "timing_s"} == \
        {k: v for k, v in want.params.items() if k != "timing_s"}


def planted_ball(size=18, seed=5):
    n, edges = pegasus_ball(2, size)
    return generate_instance(build_loop_cover(n, edges), GeneratorParams(seed=seed)).problem


def noisy_replicated():
    part = partition_replicas(build_pegasus(4), 2)
    cover = build_loop_cover(part.n_logical, sorted(part.logical_edges))
    inst = generate_instance(cover, GeneratorParams(seed=3))
    rp = replicate(inst.problem, part)
    noise = NoiseModel(sigma_h=0.05, sigma_j=0.02, chip_seed=11,
                       region_bias=region_biases(part.regions, [0.3, -0.2]))
    return rp.problem, noise, rp.placement


def noisy_qac():
    enc = tile_qac(build_pegasus(2))
    g = logical_graph(enc)
    cover = build_loop_cover(enc.n_logical, sorted(g.active_edges))
    inst = generate_instance(cover, GeneratorParams(seed=4))
    qp = build_qac_problem(inst.problem, enc, alpha=-1.0)
    return qp.problem, NoiseModel(sigma_h=0.05, sigma_j=0.02, chip_seed=12), qp.placement


def chain(n=64, seed=0):
    r = np.random.default_rng(seed)
    return make_problem(n, {i: float(v) for i, v in enumerate(r.normal(0, 0.3, n))},
                        {(i, i + 1): float(v) for i, v in enumerate(r.normal(0, 1, n - 1))})


def relabeled(p, seed=0):
    perm = np.random.default_rng(seed).permutation(p.n)
    return make_problem(p.n, {int(perm[i]): v for i, v in p.h.items()},
                        {(int(perm[a]), int(perm[b])): v for (a, b), v in p.j.items()})


def test_noiseless_planted_instance():
    assert_matches_reference(planted_ball(), AnnealParams(num_reads=30, sweeps=60, seed=2))


def test_single_read():
    # one read turns every local field into a dot product instead of a
    # matrix-vector product; the schedule must follow it there too
    assert_matches_reference(planted_ball(), AnnealParams(num_reads=1, sweeps=60, seed=4))


def test_noisy_replicated_problem_with_placement():
    p, noise, placement = noisy_replicated()
    assert_matches_reference(p, AnnealParams(num_reads=20, sweeps=30, seed=5),
                             noise, placement)


def test_noisy_qac_problem():
    p, noise, placement = noisy_qac()
    assert_matches_reference(p, AnnealParams(num_reads=20, sweeps=30, seed=6),
                             noise, placement)


def test_problem_without_couplers():
    p = make_problem(6, {0: 1.0, 3: -0.5, 5: 0.25}, {})
    assert_matches_reference(p, AnnealParams(num_reads=10, sweeps=20, seed=7))


def test_single_spin():
    assert_matches_reference(make_problem(1, {0: 0.7}, {}),
                             AnnealParams(num_reads=8, sweeps=15, seed=8))


def test_one_sweep():
    assert_matches_reference(planted_ball(), AnnealParams(num_reads=25, sweeps=1, seed=9))


def test_explicit_temperatures():
    p, noise, placement = noisy_replicated()
    assert_matches_reference(p, AnnealParams(num_reads=10, sweeps=25, seed=10,
                                             t_hot=4.0, t_cold=0.02), noise, placement)


def test_sweeps_cross_chunks(monkeypatch):
    # one sweep per chunk: the uniforms are redrawn into the buffer every sweep
    monkeypatch.setattr(samplers, "_SWEEP_CHUNK_BUDGET", 1)
    p, noise, placement = noisy_qac()
    assert_matches_reference(p, AnnealParams(num_reads=7, sweeps=12, seed=11),
                             noise, placement)


def test_chain_is_one_spin_per_level():
    p = chain()
    assert np.array_equal(_spin_levels(p.n, *edge_arrays(p)), np.arange(p.n))
    assert_matches_reference(p, AnnealParams(num_reads=12, sweeps=40, seed=12))


def test_pegasus_with_permuted_labels():
    p = relabeled(planted_ball(size=24, seed=7), seed=3)
    noise = NoiseModel(sigma_h=0.05, sigma_j=0.05, chip_seed=13)
    assert_matches_reference(p, AnnealParams(num_reads=15, sweeps=40, seed=13), noise)


def test_strong_fields_at_a_cold_temperature_raise_no_warning():
    # exp(-d_e / temp) overflows for downhill flips here; it must stay silent
    # and still accept exactly the flips the sequential sweep accepts
    r = np.random.default_rng(1)
    p = make_problem(20, {i: float(v) for i, v in enumerate(r.choice([-1e3, 1e3], 20))},
                     {(i, i + 1): 1.0 for i in range(19)})
    params = AnnealParams(num_reads=6, sweeps=10, seed=14, t_hot=1.0, t_cold=1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sample_sa(p, params)
    assert_matches_reference(p, params)


def edge_arrays(p):
    ends = np.array(sorted(p.j), dtype=np.intp).reshape(-1, 2)
    return ends[:, 0], ends[:, 1]


def schedule_is_sequential(n, lo, hi, level):
    """Levels are ints for spins 0..n-1 and every coupler lo < hi runs its
    lower spin in an earlier level."""
    return level.shape == (n,) and bool(np.all(level[lo] < level[hi]))


def test_schedule_check_rejects_a_two_colouring():
    # a parity colouring also leaves no coupler inside a class, but it
    # updates spin 2 of the chain before spin 1
    p = chain()
    lo, hi = edge_arrays(p)
    assert not schedule_is_sequential(p.n, lo, hi, np.arange(p.n) % 2)


@pytest.mark.parametrize("problem", [
    chain(), planted_ball(), relabeled(planted_ball(size=24, seed=7), seed=3),
    noisy_replicated()[0], noisy_qac()[0], make_problem(4, {0: 1.0}, {}),
], ids=["chain", "pegasus", "pegasus-permuted", "replicated", "qac", "no-couplers"])
def test_schedule_invariants(problem):
    lo, hi = edge_arrays(problem)
    level = _spin_levels(problem.n, lo, hi)
    assert schedule_is_sequential(problem.n, lo, hi, level)

    steps = _sweep_steps(problem)
    spins = np.concatenate([s for s, *_ in steps])
    assert np.array_equal(np.sort(spins), np.arange(problem.n))
    step_levels = [int(level[s[0]]) for s, *_ in steps]
    assert step_levels == sorted(step_levels)
    coupled = {(a, b) for a, b in problem.j} | {(b, a) for a, b in problem.j}
    for s, nb, nb_val, h in steps:
        assert np.all(level[s] == level[s[0]])
        assert not any((int(a), int(b)) in coupled for a in s for b in s)
        # each row: the spin's neighbours and couplers, in coupler order
        for row, spin in enumerate(s):
            want = [(b if a == spin else a, v) for (a, b), v in problem.j.items()
                    if spin in (a, b)]
            assert [(int(x), float(y)) for x, y in zip(nb[row], nb_val[row, :, 0])] == want
        assert np.array_equal(h, [problem.h.get(int(v), 0.0) for v in s])
