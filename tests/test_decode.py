import numpy as np
import pytest

from anneal_rbm.decode import (build_qac_problem, decode_majority, decode_rbm,
                               decode_sqa_repeat)
from anneal_rbm.embedding import (QacEncoding, QacUnit, ReplicaPartition,
                                  logical_graph, partition_replicas, tile_qac)
from anneal_rbm.errors import (ContractError, DimensionMismatchError,
                               InvalidParameterError)
from anneal_rbm.ising import energies, energy, make_problem, replicate
from anneal_rbm.planted import GeneratorParams, build_loop_cover, generate_instance
from anneal_rbm.samplers import SampleSet
from anneal_rbm.topology import build_chimera, build_pegasus
from conftest import spins
from problem_helpers import penalty_slot


def synthetic_partition(k: int, n_logical: int) -> ReplicaPartition:
    """Fictitious disjoint regions over consecutive integer qubits."""
    iso_maps = tuple({v: r * n_logical + v for v in range(n_logical)}
                     for r in range(k))
    edges = frozenset((a, a + 1) for a in range(n_logical - 1))
    return ReplicaPartition(k=k, n_logical=n_logical, logical_edges=edges,
                            iso_maps=iso_maps,
                            regions=tuple(frozenset(m.values()) for m in iso_maps))


def synthetic_samples(reads: np.ndarray, problem=None) -> SampleSet:
    e = energies(problem, reads) if problem is not None else np.zeros(len(reads))
    return SampleSet(reads=reads.astype(np.int8), energies=e, sampler="synthetic")


CHAIN = make_problem(3, {}, {(0, 1): -1.0, (1, 2): -1.0})


def test_decode_rbm_matches_enumeration_oracle():
    rng = np.random.default_rng(42)
    part = synthetic_partition(3, 3)
    rep = replicate(CHAIN, part)
    for _ in range(10):
        reads = (rng.integers(0, 2, size=(8, rep.problem.n)) * 2 - 1).astype(np.int8)
        ss = synthetic_samples(reads, rep.problem)
        sol = decode_rbm(ss, part, CHAIN)
        best = min(energy(CHAIN, reads[r, i * 3:(i + 1) * 3])
                   for r in range(8) for i in range(3))
        assert sol.energy == best
        r, i = sol.provenance["read"], sol.provenance["replica"]
        assert energy(CHAIN, reads[r, i * 3:(i + 1) * 3]) == best


def test_decode_rbm_k1_equals_best_read():
    part = synthetic_partition(1, 3)
    rng = np.random.default_rng(7)
    reads = (rng.integers(0, 2, size=(20, 3)) * 2 - 1).astype(np.int8)
    ss = synthetic_samples(reads, CHAIN)
    sol = decode_rbm(ss, part, CHAIN)
    assert sol.energy == float(np.min(energies(CHAIN, reads)))


def test_decode_rbm_prefers_planted_replica():
    part = synthetic_partition(2, 3)
    planted = spins(1, 1, 1)
    corrupt = spins(-1, 1, 1)
    read = np.concatenate([planted, corrupt])[None, :]
    ss = synthetic_samples(read)
    sol = decode_rbm(ss, part, CHAIN)
    assert np.array_equal(sol.assignment, planted)
    assert sol.provenance == {"read": 0, "replica": 0}


def test_decode_rbm_tie_break_deterministic():
    part = synthetic_partition(2, 3)
    s = spins(1, 1, 1)
    reads = np.stack([np.concatenate([s, s]), np.concatenate([s, s])])
    ss = synthetic_samples(reads)
    sol = decode_rbm(ss, part, CHAIN)
    assert sol.provenance == {"read": 0, "replica": 0}
    # permuting reads leaves the energy unchanged
    ss2 = synthetic_samples(reads[::-1].copy())
    assert decode_rbm(ss2, part, CHAIN).energy == sol.energy


def test_decode_rbm_never_above_any_subsample():
    rng = np.random.default_rng(3)
    part = synthetic_partition(4, 3)
    rep = replicate(CHAIN, part)
    reads = (rng.integers(0, 2, size=(12, rep.problem.n)) * 2 - 1).astype(np.int8)
    sol = decode_rbm(synthetic_samples(reads), part, CHAIN)
    for r in range(12):
        for i in range(4):
            assert sol.energy <= energy(CHAIN, reads[r, i * 3:(i + 1) * 3])


def test_decode_rbm_dimension_mismatch():
    part = synthetic_partition(2, 3)
    ss = synthetic_samples(np.ones((2, 5), dtype=np.int8))
    with pytest.raises(DimensionMismatchError):
        decode_rbm(ss, part, CHAIN)


UNIT0 = QacUnit(problem_qubits=(0, 1, 2), penalty_qubit=3)


def test_build_qac_single_unit_example():
    enc = QacEncoding(units=(UNIT0,), logical_edges={})
    qp = build_qac_problem(make_problem(1, {0: 1.0}, {}), enc, alpha=-1.0)
    assert energy(qp.problem, spins(-1, -1, -1, -1)) == -6.0


def test_build_qac_alpha_zero_decouples_penalty():
    enc = QacEncoding(units=(UNIT0,), logical_edges={})
    qp = build_qac_problem(make_problem(1, {0: 1.0}, {}), enc, alpha=0.0)
    touched = set(qp.problem.h)
    for a, b in qp.problem.j:
        touched.update((a, b))
    assert penalty_slot(0) not in touched


def test_build_qac_rejects_positive_alpha():
    enc = QacEncoding(units=(UNIT0,), logical_edges={})
    with pytest.raises(InvalidParameterError):
        build_qac_problem(make_problem(1, {0: 1.0}, {}), enc, alpha=0.5)


def test_build_qac_rejects_missing_logical_edge():
    enc = QacEncoding(units=(UNIT0, QacUnit((4, 5, 6), 7)), logical_edges={})
    with pytest.raises(ContractError):
        build_qac_problem(make_problem(2, {}, {(0, 1): 1.0}), enc)


def test_aligned_physical_energy_is_three_times_logical():
    cell = tile_qac(build_chimera(1, 1, 4))
    logical = make_problem(2, {0: 1.0, 1: -2.0}, {(0, 1): -1.5})
    qp = build_qac_problem(logical, cell, alpha=0.0)
    up = np.ones(8, dtype=np.int8)
    down = -up
    assert energy(qp.problem, up) == 3 * energy(logical, spins(1, 1))
    assert energy(qp.problem, down) == 3 * energy(logical, spins(-1, -1))
    # multiplicity 1: same invariant
    enc1 = QacEncoding(units=(UNIT0, QacUnit((4, 5, 6), 7)),
                       logical_edges={(0, 1): ((0, 4),)})
    qp1 = build_qac_problem(logical, enc1, alpha=0.0)
    assert energy(qp1.problem, up) == 3 * energy(logical, spins(1, 1))


def test_penalty_flip_costs_two_alpha():
    for alpha in (-0.5, -1.0, -2.0):
        enc = QacEncoding(units=(UNIT0,), logical_edges={})
        qp = build_qac_problem(make_problem(1), enc, alpha=alpha)
        agree = energy(qp.problem, spins(-1, -1, -1, -1))
        disagree = energy(qp.problem, spins(1, -1, -1, -1))
        assert disagree - agree == 2 * abs(alpha)


def _cell_reads(enc, unit_values):
    """Physical read from per-unit (p1, p2, p3, penalty) tuples."""
    vals = {}
    for unit, (a, b, c, pen) in zip(enc.units, unit_values):
        q1, q2, q3 = unit.problem_qubits
        vals.update({q1: a, q2: b, q3: c, unit.penalty_qubit: pen})
    qp = build_qac_problem(make_problem(len(enc.units)), enc, alpha=0.0)
    return np.array([[vals[qp.placement[v]] for v in range(4 * len(enc.units))]],
                    dtype=np.int8)


def test_majority_vote_ignores_penalty():
    cell = tile_qac(build_chimera(1, 1, 4))
    logical = make_problem(2, {}, {(0, 1): -1.0})
    for pen in (-1, 1):
        reads = _cell_reads(cell, [(1, 1, -1, pen), (1, 1, 1, pen)])
        votes, sol = decode_majority(synthetic_samples(reads, None), cell, logical)
        assert votes[0].tolist() == [1, 1]


def test_majority_vote_unanimous():
    cell = tile_qac(build_chimera(1, 1, 4))
    logical = make_problem(2, {}, {(0, 1): -1.0})
    reads = _cell_reads(cell, [(-1, -1, -1, 1), (-1, -1, -1, -1)])
    votes, sol = decode_majority(synthetic_samples(reads, None), cell, logical)
    assert votes[0].tolist() == [-1, -1]


def test_majority_vote_invariant_to_penalty_flips():
    cell = tile_qac(build_chimera(1, 1, 4))
    logical = make_problem(2, {}, {(0, 1): -1.0})
    rng = np.random.default_rng(5)
    reads = (rng.integers(0, 2, size=(30, 8)) * 2 - 1).astype(np.int8)
    qp = build_qac_problem(logical, cell, alpha=0.0)
    flipped = reads.copy()
    for u in range(2):
        col = penalty_slot(u)
        flipped[:, col] = -flipped[:, col]
    v1, _ = decode_majority(synthetic_samples(reads), cell, logical)
    v2, _ = decode_majority(synthetic_samples(flipped), cell, logical)
    assert np.array_equal(v1, v2)


def test_majority_decoded_energy_matches_recomputation():
    cell = tile_qac(build_chimera(1, 1, 4))
    logical = make_problem(2, {0: 0.5}, {(0, 1): -1.0})
    rng = np.random.default_rng(8)
    reads = (rng.integers(0, 2, size=(25, 8)) * 2 - 1).astype(np.int8)
    votes, sol = decode_majority(synthetic_samples(reads), cell, logical)
    assert sol.energy == energy(logical, sol.assignment)
    assert sol.energy == min(energy(logical, v) for v in votes)


def test_majority_include_penalty_tie_falls_back():
    cell = tile_qac(build_chimera(1, 1, 4))
    logical = make_problem(2, {}, {(0, 1): -1.0})
    # problem qubits 1,1,-1 with penalty -1: four-voter tie, fallback says +1
    reads = _cell_reads(cell, [(1, 1, -1, -1), (1, 1, 1, 1)])
    votes, _ = decode_majority(synthetic_samples(reads), cell, logical,
                               include_penalty=True)
    assert votes[0, 0] == 1
    # unanimous penalty agreement can overrule a 2-1 problem split only
    # when it votes: 1,1,-1 with penalty -1 stays +1 on fallback, but
    # -1,-1,1 with penalty -1 is a clean 3-1 majority for -1
    reads = _cell_reads(cell, [(-1, -1, 1, -1), (1, 1, 1, 1)])
    votes, _ = decode_majority(synthetic_samples(reads), cell, logical,
                               include_penalty=True)
    assert votes[0, 0] == -1


def test_decode_majority_dimension_mismatch():
    cell = tile_qac(build_chimera(1, 1, 4))
    with pytest.raises(DimensionMismatchError):
        decode_majority(synthetic_samples(np.ones((1, 4), dtype=np.int8)),
                        cell, make_problem(2, {}, {(0, 1): -1.0}))


def test_decode_sqa_single_set_is_best_read():
    rng = np.random.default_rng(11)
    reads = (rng.integers(0, 2, size=(15, 3)) * 2 - 1).astype(np.int8)
    ss = synthetic_samples(reads, CHAIN)
    sol = decode_sqa_repeat([ss], CHAIN)
    assert sol.energy == float(np.min(energies(CHAIN, reads)))
    assert sol.provenance["set"] == 0


def test_decode_sqa_min_over_sets_monotone():
    rng = np.random.default_rng(13)
    sets = [synthetic_samples((rng.integers(0, 2, size=(10, 3)) * 2 - 1).astype(np.int8), CHAIN)
            for _ in range(4)]
    sol = decode_sqa_repeat(sets, CHAIN)
    for ss in sets:
        assert sol.energy <= float(np.min(energies(CHAIN, ss.reads)))


def test_decode_sqa_cross_checks_against_rbm_on_concatenation():
    # placing the same k sample sets side by side in k fictitious regions and
    # decoding with the replication decoder must give the same minimum
    rng = np.random.default_rng(17)
    k, n_reads = 3, 8
    sets = [synthetic_samples((rng.integers(0, 2, size=(n_reads, 3)) * 2 - 1).astype(np.int8), CHAIN)
            for _ in range(k)]
    sqa = decode_sqa_repeat(sets, CHAIN)
    part = synthetic_partition(k, 3)
    concat = np.concatenate([ss.reads for ss in sets], axis=1)
    rbm = decode_rbm(synthetic_samples(concat), part, CHAIN)
    assert rbm.energy == sqa.energy


def test_decode_sqa_rejects_empty_and_mismatched():
    with pytest.raises(InvalidParameterError):
        decode_sqa_repeat([], CHAIN)
    ss = synthetic_samples(np.ones((2, 4), dtype=np.int8))
    with pytest.raises(DimensionMismatchError):
        decode_sqa_repeat([ss], CHAIN)


def test_rbm_decode_on_real_pipeline():
    g = build_pegasus(2)
    part = partition_replicas(g, 2)
    edges = sorted(part.logical_edges)[:3]
    p = make_problem(part.n_logical, {}, {e: -2.0 for e in edges})
    rp = replicate(p, part)
    from anneal_rbm.samplers import AnnealParams, sample_sa
    ss = sample_sa(rp.problem, AnnealParams(num_reads=20, sweeps=100, seed=2))
    sol = decode_rbm(ss, part, p)
    assert sol.energy == -2.0 * len(edges)


# Decoded energies at inexact biases: 9.7 and 2.3 are not dyadic, so a
# decoder finds the planted energy only if it sums the planted configuration
# exactly as the generator did, whatever the batch it scores it in.

def _inexact_instance(n, edges, seed=1):
    cover = build_loop_cover(n, sorted(edges))
    return generate_instance(cover, GeneratorParams(bias_large=9.7, bias_small=2.3,
                                                    seed=seed))


def _random_reads(seed, reads, n):
    return (np.random.default_rng(seed).integers(0, 2, size=(reads, n)) * 2 - 1
            ).astype(np.int8)


def test_decode_rbm_returns_the_planted_energy_at_inexact_biases():
    part = partition_replicas(build_pegasus(4), 2)
    inst = _inexact_instance(part.n_logical, part.logical_edges)
    rp = replicate(inst.problem, part)
    reads = _random_reads(1, 30, rp.problem.n)
    reads[17, part.n_logical:] = inst.planted
    sol = decode_rbm(synthetic_samples(reads, rp.problem), part, inst.problem)
    assert sol.energy == inst.planted_energy
    assert np.array_equal(sol.assignment, inst.planted)


def test_decode_majority_returns_the_planted_energy_at_inexact_biases():
    enc = tile_qac(build_pegasus(4))
    inst = _inexact_instance(enc.n_logical, logical_graph(enc).active_edges)
    qp = build_qac_problem(inst.problem, enc)
    reads = _random_reads(2, 30, qp.problem.n)
    reads[11] = np.repeat(inst.planted, 4)  # every qubit of unit u holds s_u
    _, sol = decode_majority(synthetic_samples(reads, qp.problem), enc, inst.problem)
    assert sol.energy == inst.planted_energy
    assert np.array_equal(sol.assignment, inst.planted)


def test_decode_sqa_returns_the_planted_energy_at_inexact_biases():
    part = partition_replicas(build_pegasus(4), 2)
    inst = _inexact_instance(part.n_logical, part.logical_edges)
    sets = [_random_reads(seed, 30, inst.problem.n) for seed in (3, 4, 5)]
    sets[1][23] = inst.planted
    sol = decode_sqa_repeat([synthetic_samples(r, inst.problem) for r in sets],
                            inst.problem)
    assert sol.energy == inst.planted_energy
    assert np.array_equal(sol.assignment, inst.planted)
