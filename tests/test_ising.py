import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anneal_rbm.decode import build_qac_problem
from anneal_rbm.embedding import logical_graph, partition_replicas, tile_qac
from anneal_rbm.errors import (DimensionMismatchError,
                               EmbeddingInfeasibleError, InvalidParameterError)
from anneal_rbm.ising import (IsingProblem, as_spins, energies, energy,
                              gauge_transform, make_problem, problem_from_dict,
                              problem_hash, problem_to_dict, replicate)
from anneal_rbm.planted import GeneratorParams, build_loop_cover, generate_instance
from anneal_rbm.samplers import NoiseModel, solve_exact
from anneal_rbm.topology import build_pegasus
from conftest import spins
from problem_helpers import extract_replica, from_triples, replica_of, to_triples


def test_energy_zero_problem():
    p = make_problem(3)
    assert energy(p, spins(1, -1, 1)) == 0.0


def test_energy_ferro_pair():
    p = make_problem(2, {}, {(0, 1): -1.0})
    assert energy(p, spins(1, 1)) == -1.0
    assert energy(p, spins(1, -1)) == 1.0


def test_energy_frustrated_four_cycle():
    # one positive coupling on a ring; brute force confirms -4 is the minimum
    p = make_problem(4, {}, {(0, 1): -2, (1, 2): -2, (2, 3): -2, (0, 3): 2})
    assert energy(p, spins(1, 1, 1, 1)) == -4.0
    assert solve_exact(p).min_energy == -4.0


def test_energy_length_mismatch():
    p = make_problem(2, {}, {(0, 1): 1.0})
    with pytest.raises(DimensionMismatchError):
        energy(p, spins(1, 1, 1))


def test_spins_must_be_plus_minus_one():
    with pytest.raises(InvalidParameterError):
        as_spins([1, 0, -1])


def test_make_problem_canonicalizes():
    p = make_problem(3, {0: 0.0, 1: 2.0}, {(2, 1): 1.5, (0, 2): 0.0})
    assert p.h == {1: 2.0}
    assert p.j == {(1, 2): 1.5}


def test_make_problem_rejects_duplicates_and_self_pairs():
    with pytest.raises(InvalidParameterError):
        make_problem(3, {}, {(0, 1): 1.0, (1, 0): 2.0})
    with pytest.raises(InvalidParameterError):
        IsingProblem(2, {}, {(1, 1): 1.0})


def test_stored_zero_rejected():
    with pytest.raises(InvalidParameterError):
        IsingProblem(2, {0: 0.0}, {})


@st.composite
def random_problem_and_spins(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    h = {i: draw(st.integers(-5, 5)) for i in range(n) if draw(st.booleans())}
    j = {}
    for a in range(n):
        for b in range(a + 1, n):
            if draw(st.booleans()):
                j[(a, b)] = draw(st.integers(-5, 5))
    s = [draw(st.sampled_from((-1, 1))) for _ in range(n)]
    t = [draw(st.sampled_from((-1, 1))) for _ in range(n)]
    return make_problem(n, h, j), np.array(s, dtype=np.int8), np.array(t, dtype=np.int8)


@settings(max_examples=60, deadline=None)
@given(random_problem_and_spins())
def test_gauge_invariance(case):
    p, s, t = case
    q = gauge_transform(p, t)
    assert energy(q, s * t) == energy(p, s)


@settings(max_examples=30, deadline=None)
@given(random_problem_and_spins())
def test_global_flip_invariance_without_fields(case):
    p, s, _ = case
    p0 = make_problem(p.n, {}, p.j)
    assert energy(p0, s) == energy(p0, -s)


def test_energies_matches_scalar():
    p = make_problem(3, {0: 1.0}, {(0, 1): -2.0, (1, 2): 1.0})
    states = np.array([[1, 1, 1], [-1, 1, -1], [1, -1, 1]], dtype=np.int8)
    batch = energies(p, states)
    for row, e in zip(states, batch):
        assert energy(p, row) == e


def _energies_float64(p, states):
    """The float64 gather-and-multiply energies computed before the int8 one."""
    sf = states.astype(np.float64)
    out = np.zeros(states.shape[0])
    if p.j:
        ii = np.fromiter((a for a, _ in p.j), dtype=np.intp, count=len(p.j))
        jj = np.fromiter((b for _, b in p.j), dtype=np.intp, count=len(p.j))
        jv = np.fromiter(p.j.values(), dtype=np.float64, count=len(p.j))
        out += (sf[:, ii] * sf[:, jj]) @ jv
    if p.h:
        hi = np.fromiter(p.h.keys(), dtype=np.intp, count=len(p.h))
        hv = np.fromiter(p.h.values(), dtype=np.float64, count=len(p.h))
        out += sf[:, hi] @ hv
    return out


def _assert_energies_match_float64(p, read_counts, seed=0):
    gen = np.random.default_rng(seed)
    for reads in read_counts:
        states = gen.choice(np.array([-1, 1], dtype=np.int8), size=(reads, p.n))
        assert np.array_equal(energies(p, states), _energies_float64(p, states))
        assert np.array_equal(energies(p, states.astype(np.float64)),
                              _energies_float64(p, states))


@pytest.fixture(scope="module")
def m16_replica(pegasus16):
    part = partition_replicas(pegasus16, 4)
    cover = build_loop_cover(part.n_logical, sorted(part.logical_edges))
    return replicate(generate_instance(cover, GeneratorParams(seed=5)).problem, part)


def test_energies_equal_float64_products_on_m16_replica_problems(m16_replica):
    noise = NoiseModel(sigma_h=0.05, sigma_j=0.02, chip_seed=1)
    for p in (m16_replica.problem, noise.perturb(m16_replica.problem, m16_replica.placement)):
        _assert_energies_match_float64(p, (1, 37, 100))


def test_energies_equal_float64_products_on_noisy_qac_problem():
    enc = tile_qac(build_pegasus(8))
    cover = build_loop_cover(enc.n_logical, sorted(logical_graph(enc).active_edges))
    qp = build_qac_problem(generate_instance(cover, GeneratorParams(seed=6)).problem, enc)
    noisy = NoiseModel(sigma_h=0.05, sigma_j=0.02, chip_seed=2).perturb(qp.problem,
                                                                        qp.placement)
    _assert_energies_match_float64(noisy, (1, 37, 100, 257))


def test_energies_equal_float64_products_on_random_coefficients():
    gen = np.random.default_rng(7)
    n = 300
    pairs = {tuple(sorted(map(int, gen.choice(n, 2, replace=False)))) for _ in range(2000)}
    p = make_problem(n, {i: float(gen.normal()) for i in range(0, n, 3)},
                     {e: float(gen.normal() * 10.0 ** gen.integers(-3, 4)) for e in pairs})
    _assert_energies_match_float64(p, (1, 2, 37, 100, 257), seed=8)


@pytest.fixture(scope="module")
def p2_partition():
    g = build_pegasus(2)
    return partition_replicas(g, 2)


def _small_problem(partition, n_vars=6, n_edges=4):
    edges = sorted(partition.logical_edges)[:n_edges]
    n = max([n_vars] + [max(e) + 1 for e in edges])
    return make_problem(n, {0: 1.0}, {e: -2.0 for e in edges})


def test_replicate_counts(p2_partition):
    p = _small_problem(p2_partition)
    rp = replicate(p, p2_partition)
    assert rp.problem.n == 2 * p.n
    assert len(rp.problem.j) == 2 * len(p.j)
    assert len(rp.problem.h) == 2 * len(p.h)


def test_replicate_energy_additivity(p2_partition):
    p = _small_problem(p2_partition)
    rp = replicate(p, p2_partition)
    rng = np.random.default_rng(3)
    s0 = (rng.integers(0, 2, p.n) * 2 - 1).astype(np.int8)
    s1 = (rng.integers(0, 2, p.n) * 2 - 1).astype(np.int8)
    joint = np.concatenate([s0, s1])
    assert energy(rp.problem, joint) == energy(p, s0) + energy(p, s1)


def test_replicate_no_cross_replica_couplers(p2_partition):
    p = _small_problem(p2_partition)
    rp = replicate(p, p2_partition)
    for a, b in rp.problem.j:
        assert replica_of(rp, a) == replica_of(rp, b)


def test_extract_replica_recovers_original(p2_partition):
    p = _small_problem(p2_partition)
    rp = replicate(p, p2_partition)
    for r in range(2):
        assert extract_replica(rp, r) == p


def test_replicate_k1_is_identity_up_to_relabeling():
    from anneal_rbm.embedding import _whole_graph_partition
    g = build_pegasus(2)
    part = _whole_graph_partition(g)
    edges = sorted(part.logical_edges)[:5]
    p = make_problem(part.n_logical, {1: -1.0}, {e: 2.0 for e in edges})
    rp = replicate(p, part)
    assert rp.problem == p
    assert extract_replica(rp, 0) == p


def test_replicate_rejects_missing_coupler(p2_partition):
    absent = next((a, b) for a in range(p2_partition.n_logical)
                  for b in range(a + 1, p2_partition.n_logical)
                  if (a, b) not in p2_partition.logical_edges)
    bogus = make_problem(p2_partition.n_logical, {}, {absent: 1.0})
    with pytest.raises(EmbeddingInfeasibleError):
        replicate(bogus, p2_partition)


def test_replicate_rejects_oversized_problem(p2_partition):
    big = make_problem(p2_partition.n_logical + 1)
    with pytest.raises(EmbeddingInfeasibleError):
        replicate(big, p2_partition)


def test_replicate_placement_lands_in_regions(p2_partition):
    p = _small_problem(p2_partition)
    rp = replicate(p, p2_partition)
    for var, qubit in rp.placement.items():
        assert qubit in p2_partition.regions[replica_of(rp, var)]


def test_problem_json_round_trip():
    p = make_problem(4, {0: -1.5}, {(0, 2): 2.25, (1, 3): -9})
    assert problem_from_dict(problem_to_dict(p)) == p
    assert problem_hash(p) == problem_hash(problem_from_dict(problem_to_dict(p)))


def test_triples_round_trip():
    p = make_problem(4, {1: 0.5}, {(0, 3): -2.0, (1, 2): 7.0})
    assert from_triples(to_triples(p), n=4) == p
