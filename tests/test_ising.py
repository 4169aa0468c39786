import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anneal_rbm import ising
from anneal_rbm.decode import build_qac_problem
from anneal_rbm.embedding import partition_replicas, tile_qac
from anneal_rbm.errors import (DimensionMismatchError,
                               EmbeddingInfeasibleError, InvalidParameterError)
from anneal_rbm.ising import (IsingProblem, as_spins, energies, energy,
                              gauge_transform, make_problem, problem_from_dict,
                              problem_hash, problem_to_dict, replicate)
from anneal_rbm.planted import GeneratorParams, build_loop_cover, generate_instance
from anneal_rbm.samplers import NoiseModel, solve_exact
from anneal_rbm.topology import build_pegasus
from conftest import active_edges, logical_edges, regions, spins
from energy_reference import energy_reference, solve_exact_reference
from problem_helpers import (extract_replica, from_triples, h_terms, j_terms, replica_of,
                             to_triples)


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
    assert h_terms(p) == {1: 2.0}
    assert j_terms(p) == {(1, 2): 1.5}


def test_make_problem_rejects_duplicates_and_self_pairs():
    with pytest.raises(InvalidParameterError):
        make_problem(3, {}, {(0, 1): 1.0, (1, 0): 2.0})
    with pytest.raises(InvalidParameterError):
        IsingProblem(2, [], [], [1], [1], [1.0])


def test_stored_zero_rejected():
    with pytest.raises(InvalidParameterError):
        IsingProblem(2, [0], [0.0], [], [], [])


@pytest.mark.parametrize("bad", [float("inf"), -float("inf"), float("nan")])
def test_non_finite_coefficients_rejected(bad):
    with pytest.raises(InvalidParameterError):
        make_problem(2, {0: bad})
    with pytest.raises(InvalidParameterError):
        make_problem(2, {}, {(0, 1): bad})
    with pytest.raises(InvalidParameterError):
        problem_from_dict({"n": 2, "h": {}, "J": {"0,1": bad}})


def test_coefficients_whose_magnitudes_overflow_when_summed_rejected():
    # each coefficient is finite; their sum, a site weight or an energy is not
    with pytest.raises(InvalidParameterError):
        make_problem(3, {}, {(0, 1): -1e308, (1, 2): -1e308})
    with pytest.raises(InvalidParameterError):
        problem_from_dict({"n": 2, "h": {"0": 1e308}, "J": {"0,1": 1e308}})
    assert make_problem(3, {}, {(0, 1): -1e308, (1, 2): 1e307}).n == 3


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
    p0 = make_problem(p.n, {}, j_terms(p))
    assert energy(p0, s) == energy(p0, -s)


def test_energies_matches_scalar():
    p = make_problem(3, {0: 1.0}, {(0, 1): -2.0, (1, 2): 1.0})
    states = np.array([[1, 1, 1], [-1, 1, -1], [1, -1, 1]], dtype=np.int8)
    batch = energies(p, states)
    for row, e in zip(states, batch):
        assert energy_reference(p, row) == e


def _energies_float64(p, states):
    """The float64 gather-and-multiply energies computed before the int8 one."""
    sf = states.astype(np.float64)
    out = np.zeros(states.shape[0])
    h, j = h_terms(p), j_terms(p)
    if j:
        ii = np.fromiter((a for a, _ in j), dtype=np.intp, count=len(j))
        jj = np.fromiter((b for _, b in j), dtype=np.intp, count=len(j))
        jv = np.fromiter(j.values(), dtype=np.float64, count=len(j))
        out += (sf[:, ii] * sf[:, jj]) @ jv
    if h:
        hi = np.fromiter(h.keys(), dtype=np.intp, count=len(h))
        hv = np.fromiter(h.values(), dtype=np.float64, count=len(h))
        out += sf[:, hi] @ hv
    return out


def _random_states(gen, reads, n):
    return gen.choice(np.array([-1, 1], dtype=np.int8), size=(reads, n))


def _assert_energies_match_reference(p, read_counts, seed=0):
    """Each read of each batch, int8 or float64, equals the reference loop on
    the file-order copy of the problem, bit for bit."""
    q = problem_from_dict(problem_to_dict(p))
    gen = np.random.default_rng(seed)
    for reads in read_counts:
        states = _random_states(gen, reads, p.n)
        want = np.array([energy_reference(q, s) for s in states])
        assert np.array_equal(energies(p, states), want)
        assert np.array_equal(energies(p, states.astype(np.float64)), want)


@pytest.fixture(scope="module")
def m16_replica(pegasus16):
    part = partition_replicas(pegasus16, 4)
    cover = build_loop_cover(part.n_logical, logical_edges(part))
    return replicate(generate_instance(cover, GeneratorParams(seed=5)).problem, part)


@pytest.fixture(scope="module")
def noisy_qac():
    enc = tile_qac(build_pegasus(8))
    cover = build_loop_cover(enc.n_logical, active_edges(enc.logical_graph()))
    qp = build_qac_problem(generate_instance(cover, GeneratorParams(seed=6)).problem, enc)
    return NoiseModel(sigma_h=0.05, sigma_j=0.02, chip_seed=2).perturb(qp.problem,
                                                                       qp.placement)


def _random_coefficients():
    gen = np.random.default_rng(7)
    n = 300
    pairs = {tuple(sorted(map(int, gen.choice(n, 2, replace=False)))) for _ in range(2000)}
    return make_problem(n, {i: float(gen.normal()) for i in range(0, n, 3)},
                        {e: float(gen.normal() * 10.0 ** gen.integers(-3, 4)) for e in pairs})


def test_energies_equal_float64_products_on_m16_replica_problems(m16_replica):
    clean = m16_replica.problem
    noise = NoiseModel(sigma_h=0.05, sigma_j=0.02, chip_seed=1)
    for p in (clean, noise.perturb(clean, m16_replica.placement)):
        _assert_energies_match_reference(p, (1, 37, 100))
    # integer coefficients: every partial sum is exact, so the old BLAS order
    # gives the same bits and payloads pinned before cannot move
    gen = np.random.default_rng(0)
    for reads in (1, 37, 100):
        states = _random_states(gen, reads, clean.n)
        assert np.array_equal(energies(clean, states), _energies_float64(clean, states))


def test_energies_equal_float64_products_on_noisy_qac_problem(noisy_qac):
    _assert_energies_match_reference(noisy_qac, (1, 37, 100, 257))


def test_energies_equal_float64_products_on_random_coefficients():
    _assert_energies_match_reference(_random_coefficients(), (1, 2, 37, 100, 257), seed=8)


@pytest.mark.parametrize("make", [lambda s: s, np.asfortranarray,
                                  lambda s: s.astype(np.float64)],
                         ids=["c-order", "f-order", "float64"])
def test_energies_do_not_depend_on_batch_or_layout(noisy_qac, make):
    states = _random_states(np.random.default_rng(3), 64, noisy_qac.n)
    batch = energies(noisy_qac, make(states))
    reversed_batch = energies(noisy_qac, make(states[::-1].copy()))
    assert np.array_equal(reversed_batch[::-1], batch)
    for row, e in zip(states, batch):
        assert energies(noisy_qac, make(row[None, :].copy()))[0] == e
        assert energy(noisy_qac, row) == e


@pytest.mark.parametrize("budget", [64, 4096, 50_000])
def test_energies_do_not_depend_on_blocking(monkeypatch, budget):
    # 64 entries hold 32 reads by one term (a lone read by 31 terms); 4096
    # and 50,000 split only the 2,049 terms, at 14 and 192 per block for 257 reads
    p = _random_coefficients()
    gen = np.random.default_rng(5)
    batches = [_random_states(gen, reads, p.n) for reads in (1, 37, 257)]
    monkeypatch.setattr(ising, "_ENERGY_BUDGET", 1 << 40)  # one block
    want = [energies(p, states) for states in batches]
    monkeypatch.setattr(ising, "_ENERGY_BUDGET", budget)
    for states, e in zip(batches, want):
        assert np.array_equal(energies(p, states), e)


def test_energies_do_not_depend_on_dict_order():
    # a planted instance's couplers are stored in loop order, and a file
    # round trip sorts them
    part = partition_replicas(build_pegasus(4), 2)
    cover = build_loop_cover(part.n_logical, logical_edges(part))
    p = generate_instance(cover, GeneratorParams(bias_large=9.7, bias_small=2.3,
                                                 seed=1)).problem
    q = problem_from_dict(problem_to_dict(p))
    assert q == p and list(j_terms(q)) != list(j_terms(p))
    for problem in (p, _random_coefficients()):
        shuffled = make_problem(problem.n, dict(reversed(h_terms(problem).items())),
                                dict(reversed(j_terms(problem).items())))
        states = _random_states(np.random.default_rng(4), 50, problem.n)
        want = energies(problem_from_dict(problem_to_dict(problem)), states)
        assert np.array_equal(energies(problem, states), want)
        assert np.array_equal(energies(shuffled, states), want)


def test_terms_follow_the_dict_order_of_a_loaded_file(tmp_path):
    # a file's J keys in text order, "10,11" before "2,3": the arrays keep
    # that order, and energies still add the terms sorted by index and pair
    path = tmp_path / "p.json"
    path.write_text('{"n": 12, "h": {"11": 0.5, "2": -1.25, "10": 3.0}, '
                    '"J": {"10,11": 1.5, "2,3": -0.75, "0,10": 2.0, "2,10": 0.1}}')
    p = problem_from_dict(json.loads(path.read_text()))
    assert list(j_terms(p)) == [(10, 11), (2, 3), (0, 10), (2, 10)]
    hi, hv, ja, jb, jv = p.h_index, p.h_value, p.j_first, p.j_second, p.j_value
    assert hi.tolist() == [11, 2, 10] and hv.tolist() == [0.5, -1.25, 3.0]
    assert ja.tolist() == [10, 2, 0, 2] and jb.tolist() == [11, 3, 10, 10]
    assert jv.tolist() == [1.5, -0.75, 2.0, 0.1]
    assert hi.dtype == ja.dtype == jb.dtype == np.intp
    assert hv.dtype == jv.dtype == np.float64

    in_order = make_problem(p.n, dict(sorted(h_terms(p).items())),
                            dict(sorted(j_terms(p).items())))
    states = _random_states(np.random.default_rng(6), 40, p.n)
    got = energies(p, states)
    assert np.array_equal(got, energies(in_order, states))
    assert got.tolist() == [energy_reference(in_order, s) for s in states]


def _tied_problem(n, biases, seed):
    """A sparse problem on spins 0..n-4 with signed coefficients drawn from
    ``biases``; the last three spins are free, so every minimum has 8 or more
    minimizers, and at n = 17 they lie in both chunks of 2^16 codes."""
    gen = np.random.default_rng(seed)
    m = n - 3
    pairs = sorted({tuple(sorted(map(int, gen.choice(m, 2, replace=False))))
                    for _ in range(2 * m)})
    h = {int(i): float(gen.choice(biases) * gen.choice((-1, 1)))
         for i in gen.choice(m, m // 3, replace=False)}
    j = {e: float(gen.choice(biases) * gen.choice((-1, 1))) for e in pairs}
    return make_problem(n, dict(reversed(h.items())), j)


@pytest.mark.parametrize("biases", [(10.0, 2.0), (9.7, 2.3), (0.3, 0.1)])
@pytest.mark.parametrize("n", [0, 1, 14, 17, 20])
def test_solve_exact_matches_reference_on_file_order_problems(n, biases):
    if n < 4:
        p = make_problem(n, {0: biases[1]} if n else {})
    else:
        p = problem_from_dict(problem_to_dict(_tied_problem(n, biases, seed=n)))
    for cap in (4096, 3):
        got = solve_exact(p, max_minimizers=cap)
        want = solve_exact_reference(p, max_minimizers=cap)
        assert got.min_energy == want.min_energy
        assert got.num_minimizers == want.num_minimizers
        assert np.array_equal(got.minimizers, want.minimizers)
        assert got.minimizers.dtype == want.minimizers.dtype
    assert want.num_minimizers >= (8 if n >= 4 else 1)


@pytest.fixture(scope="module")
def p2_partition():
    g = build_pegasus(2)
    return partition_replicas(g, 2)


def _small_problem(partition, n_vars=6, n_edges=4):
    edges = logical_edges(partition)[:n_edges]
    n = max([n_vars] + [max(e) + 1 for e in edges])
    return make_problem(n, {0: 1.0}, {e: -2.0 for e in edges})


def test_replicate_counts(p2_partition):
    p = _small_problem(p2_partition)
    rp = replicate(p, p2_partition)
    assert rp.problem.n == 2 * p.n
    assert len(j_terms(rp.problem)) == 2 * len(j_terms(p))
    assert len(h_terms(rp.problem)) == 2 * len(h_terms(p))


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
    for a, b in j_terms(rp.problem):
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
    edges = logical_edges(part)[:5]
    p = make_problem(part.n_logical, {1: -1.0}, {e: 2.0 for e in edges})
    rp = replicate(p, part)
    assert rp.problem == p
    assert extract_replica(rp, 0) == p


def test_replicate_rejects_missing_coupler(p2_partition):
    edges = set(logical_edges(p2_partition))
    absent = next((a, b) for a in range(p2_partition.n_logical)
                  for b in range(a + 1, p2_partition.n_logical) if (a, b) not in edges)
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
    for var, qubit in enumerate(rp.placement.tolist()):
        assert qubit in regions(p2_partition)[replica_of(rp, var)]


def test_problem_json_round_trip():
    p = make_problem(4, {0: -1.5}, {(0, 2): 2.25, (1, 3): -9})
    assert problem_from_dict(problem_to_dict(p)) == p
    assert problem_hash(p) == problem_hash(problem_from_dict(problem_to_dict(p)))


def test_triples_round_trip():
    p = make_problem(4, {1: 0.5}, {(0, 3): -2.0, (1, 2): 7.0})
    assert from_triples(to_triples(p), n=4) == p
