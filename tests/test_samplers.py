import json
import logging

import numpy as np
import pytest

from anneal_rbm.embedding import partition_replicas
from anneal_rbm.errors import (DimensionMismatchError, FormatError,
                               InvalidParameterError)
from anneal_rbm.ising import (energies, make_problem, problem_from_dict,
                              problem_to_dict, replicate)
from anneal_rbm.jsonio import dumps, read_json, write_json
from anneal_rbm.planted import GeneratorParams, build_loop_cover, generate_instance
from anneal_rbm.samplers import (AnnealParams, NoiseModel, SampleSet,
                                 import_samples,
                                 noise_from_dict, noise_to_dict,
                                 region_biases, sample_sa, sampleset_from_dict,
                                 sampleset_to_dict, solve_exact)
from anneal_rbm.topology import build_pegasus
from conftest import pegasus_ball
from noise_reference import perturb_reference


def test_params_validation():
    with pytest.raises(InvalidParameterError):
        AnnealParams(num_reads=0)
    with pytest.raises(InvalidParameterError):
        AnnealParams(t_hot=1.0, t_cold=2.0)


def test_single_spin_field_converges():
    p = make_problem(1, {0: 1.0}, {})
    ss = sample_sa(p, AnnealParams(num_reads=25, sweeps=60, seed=0))
    assert np.all(ss.reads == -1)
    assert np.all(ss.energies == -1.0)


def test_ferro_pair_reaches_minimum():
    p = make_problem(2, {}, {(0, 1): -1.0})
    ss = sample_sa(p, AnnealParams(num_reads=40, sweeps=120, seed=1))
    assert ss.best()[1] == -1.0


def test_empty_problem_rejected():
    with pytest.raises(InvalidParameterError):
        sample_sa(make_problem(0), AnnealParams(num_reads=1, sweeps=1))


def test_sampleset_bit_identical_reruns():
    n, edges = pegasus_ball(2, 16)
    cover = build_loop_cover(n, edges)
    inst = generate_instance(cover, GeneratorParams(seed=5))
    params = AnnealParams(num_reads=20, sweeps=80, seed=17)
    a = sample_sa(inst.problem, params)
    b = sample_sa(inst.problem, params)
    assert np.array_equal(a.reads, b.reads)
    assert np.array_equal(a.energies, b.energies)


def test_per_read_streams_are_independent_of_batch_size():
    # the read-r chain is a function of (seed, r) only: running reads
    # one at a time must reproduce each row of the batched call
    p = make_problem(3, {0: 0.5}, {(0, 1): -1.0, (1, 2): 1.0})
    batch = sample_sa(p, AnnealParams(num_reads=4, sweeps=30, seed=9))
    single = sample_sa(p, AnnealParams(num_reads=1, sweeps=30, seed=9))
    assert np.array_equal(single.reads[0], batch.reads[0])


def test_results_independent_of_sweep_chunking(monkeypatch):
    # pre-drawn uniforms are consumed linearly per read, so forcing
    # one-sweep chunks must not change anything
    import anneal_rbm.samplers as samplers
    p = make_problem(3, {0: 0.5}, {(0, 1): -1.0, (1, 2): 1.0})
    params = AnnealParams(num_reads=3, sweeps=25, seed=13)
    wide = sample_sa(p, params)
    monkeypatch.setattr(samplers, "_SWEEP_CHUNK_BUDGET", 1)
    narrow = sample_sa(p, params)
    assert np.array_equal(wide.reads, narrow.reads)


def test_energies_match_clean_problem_exactly():
    n, edges = pegasus_ball(2, 14)
    cover = build_loop_cover(n, edges)
    inst = generate_instance(cover, GeneratorParams(seed=2))
    ss = sample_sa(inst.problem, AnnealParams(num_reads=10, sweeps=40, seed=3))
    assert np.array_equal(ss.energies, energies(inst.problem, ss.reads))


def test_sa_smoke_finds_planted_minimum_small_instances():
    # pinned-seed statistical smoke: noiseless SA with generous sweeps finds
    # the exact minimum on n<=24 planted instances for every bias set
    n, edges = pegasus_ball(2, 18)
    cover = build_loop_cover(n, edges)
    for bias_large in (9, 10, 11):
        inst = generate_instance(cover, GeneratorParams(
            bias_large=bias_large, bias_small=2, p_large=0.08, beta=1.0,
            seed=100 + bias_large))
        exact = solve_exact(inst.problem)
        ss = sample_sa(inst.problem, AnnealParams(num_reads=100, sweeps=400,
                                                  seed=bias_large))
        assert ss.best()[1] == exact.min_energy == inst.planted_energy


def test_noise_perturbation_is_persistent():
    p = make_problem(4, {0: 1.0}, {(0, 1): -2.0, (2, 3): 1.0})
    nm = NoiseModel(sigma_h=0.2, sigma_j=0.1, chip_seed=77)
    a = nm.perturb(p, None)
    b = nm.perturb(p, None)
    assert a == b
    other = NoiseModel(sigma_h=0.2, sigma_j=0.1, chip_seed=78).perturb(p, None)
    assert other != a


def test_noise_region_bias_delta_exact():
    g = build_pegasus(4)
    part = partition_replicas(g, 2)
    deltas = [0.25, -0.5]
    nm = NoiseModel(chip_seed=1, region_bias=region_biases(part.regions, deltas))
    edges = sorted(part.logical_edges)[:4]
    p = make_problem(part.n_logical, {}, {e: -2.0 for e in edges})
    rp = replicate(p, part)
    pert = nm.perturb(rp.problem, rp.placement)
    n_l = p.n
    for v in range(n_l):
        assert pert.h.get(v, 0.0) == 0.25
        assert pert.h.get(n_l + v, 0.0) == -0.5
        # identical logical variable, different regions: offsets differ by the delta
        assert pert.h.get(v, 0.0) - pert.h.get(n_l + v, 0.0) == 0.75


def test_noise_drops_couplers_that_underflow_to_zero():
    # the smallest subnormal times a factor under 0.5 in magnitude rounds to 0
    p = make_problem(12, {}, {(i, i + 1): 5e-324 for i in range(11)})
    nm = NoiseModel(sigma_j=1.0, chip_seed=3)
    got = nm.perturb(p, None)
    assert list(got.j.items()) == list(perturb_reference(nm, p, None).j.items())
    assert 0 < len(got.j) < len(p.j)


def test_noise_requires_placement_for_region_bias():
    nm = NoiseModel(region_bias=((frozenset({0, 1}), 0.5),))
    with pytest.raises(InvalidParameterError):
        nm.perturb(make_problem(2, {}, {(0, 1): 1.0}), None)


def test_noise_never_touches_reported_energies():
    p = make_problem(2, {}, {(0, 1): -2.0})
    nm = NoiseModel(sigma_h=0.5, sigma_j=0.3, chip_seed=5)
    ss = sample_sa(p, AnnealParams(num_reads=10, sweeps=50, seed=1), nm)
    assert np.array_equal(ss.energies, energies(p, ss.reads))


def test_noise_round_trip():
    nm = NoiseModel(sigma_h=0.1, sigma_j=0.05, chip_seed=3,
                    region_bias=((frozenset({1, 2}), 0.5),))
    assert noise_from_dict(noise_to_dict(nm)) == nm


def test_solve_exact_antiferro_pair():
    sol = solve_exact(make_problem(2, {}, {(0, 1): 1.0}))
    assert sol.min_energy == -1.0
    assert sol.num_minimizers == 2
    found = {tuple(int(x) for x in row) for row in sol.minimizers}
    assert found == {(1, -1), (-1, 1)}


def test_solve_exact_zero_variables():
    sol = solve_exact(make_problem(0))
    assert sol.min_energy == 0.0
    assert sol.minimizers.shape == (1, 0)


def test_solve_exact_cap_message():
    with pytest.raises(InvalidParameterError, match="capped at n<=24"):
        solve_exact(make_problem(30))
    # explicit override allowed
    sol = solve_exact(make_problem(25), cap=25)
    assert sol.min_energy == 0.0


def test_solve_exact_matches_planted():
    n, edges = pegasus_ball(2, 16)
    cover = build_loop_cover(n, edges)
    inst = generate_instance(cover, GeneratorParams(seed=21))
    assert solve_exact(inst.problem).min_energy == inst.planted_energy


def test_sampleset_invariants():
    with pytest.raises(InvalidParameterError):
        SampleSet(reads=np.array([[1, 0]], dtype=np.int8),
                  energies=np.zeros(1), sampler="x")
    with pytest.raises(DimensionMismatchError):
        SampleSet(reads=np.ones((2, 2), dtype=np.int8),
                  energies=np.zeros(1), sampler="x")


def test_export_import_round_trip(tmp_path):
    p = make_problem(3, {1: 1.0}, {(0, 2): -2.0})
    ss = sample_sa(p, AnnealParams(num_reads=5, sweeps=20, seed=2))
    path = tmp_path / "samples.json"
    write_json(sampleset_to_dict(ss, p), str(path))
    again = import_samples(str(path), p)
    assert np.array_equal(again.reads, ss.reads)
    assert np.array_equal(again.energies, ss.energies)


@pytest.mark.parametrize("n", [1, 5376])
def test_packed_reads_round_trip(n):
    gen = np.random.default_rng(n)
    p = make_problem(n, {0: 0.7}, {(i, i + 1): float(gen.normal()) for i in range(n - 1)})
    reads = gen.choice(np.array([-1, 1], dtype=np.int8), size=(13, n))
    ss = SampleSet(reads=reads, energies=energies(p, reads), sampler="x")
    data = json.loads(dumps(sampleset_to_dict(ss, p)))
    assert [len(row) for row in data["reads"]] == [n] * 13
    assert data["reads"][0] == "".join("+" if s > 0 else "-" for s in reads[0])
    again = sampleset_from_dict(data, p)
    assert again.reads.dtype == np.int8
    assert np.array_equal(again.reads, reads)
    assert np.array_equal(again.energies, ss.energies)


def test_list_form_reads_import_like_packed_ones():
    # files written before reads were packed, and hand-written ones, hold rows
    p = make_problem(4, {1: 0.3}, {(0, 1): -1.1, (1, 3): 0.7, (2, 3): 2.9})
    ss = sample_sa(p, AnnealParams(num_reads=6, sweeps=10, seed=4))
    packed = json.loads(dumps(sampleset_to_dict(ss, p)))
    rows = {**packed, "reads": ss.reads.tolist()}
    a, b = sampleset_from_dict(packed, p), sampleset_from_dict(rows, p)
    assert np.array_equal(a.reads, b.reads) and np.array_equal(a.reads, ss.reads)
    assert np.array_equal(a.energies, b.energies)
    assert np.array_equal(a.energies, ss.energies)


@pytest.mark.parametrize("reads, error, message", [
    (["+-+", [1, -1, 1]], FormatError, "mixes"),
    ([[1, -1, 1], "+-+"], FormatError, "mixes"),
    (["+-+", "+-"], DimensionMismatchError, "read 1 has 2 spins"),
    (["+-+", "+-+-"], DimensionMismatchError, "read 1 has 4 spins"),
    (["+-+", "+0+"], InvalidParameterError, "read 1 spin 1 is '0'"),
    (["+-+", "+ +"], InvalidParameterError, "read 1 spin 1 is ' '"),
    (["+\u2212+"], InvalidParameterError, "read 0 spin 1 is '\u2212'"),  # not a hyphen
    (["+-é"], InvalidParameterError, "read 0 spin 2 is 'é'"),
], ids=["string-then-row", "row-then-string", "short", "long", "digit", "space",
        "minus-sign", "accent"])
def test_import_rejects_malformed_packed_reads(reads, error, message):
    p = make_problem(3, {}, {(0, 1): 1.0})
    with pytest.raises(error, match=message):
        sampleset_from_dict({"reads": reads}, p)


def test_import_rejects_non_spin_entries(tmp_path):
    p = make_problem(2, {}, {(0, 1): 1.0})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"reads": [[1, 0]], "sampler": "x", "params": {}}))
    with pytest.raises(InvalidParameterError):
        import_samples(str(path), p)


def test_import_rejects_wrong_dimension(tmp_path):
    p = make_problem(2, {}, {(0, 1): 1.0})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"reads": [[1, -1, 1]], "sampler": "x", "params": {}}))
    with pytest.raises(DimensionMismatchError):
        import_samples(str(path), p)


def test_import_rejects_foreign_problem_hash(tmp_path):
    p = make_problem(2, {}, {(0, 1): 1.0})
    q = make_problem(2, {}, {(0, 1): 2.0})
    ss = sample_sa(p, AnnealParams(num_reads=2, sweeps=10, seed=1))
    path = tmp_path / "samples.json"
    write_json(sampleset_to_dict(ss, p), str(path))
    with pytest.raises(FormatError):
        import_samples(str(path), q)


def test_import_corrects_wrong_energies_and_logs(tmp_path, caplog):
    p = make_problem(2, {}, {(0, 1): -1.0})
    ss = sample_sa(p, AnnealParams(num_reads=2, sweeps=10, seed=1))
    data = sampleset_to_dict(ss, p)
    data["energies"] = [999.0 for _ in data["energies"]]
    path = tmp_path / "samples.json"
    path.write_text(json.dumps(data))
    with caplog.at_level(logging.WARNING, logger="anneal_rbm.samplers"):
        again = import_samples(str(path), p)
    assert "recomput" in caplog.text
    assert np.array_equal(again.energies, energies(p, again.reads))


def test_export_problem_round_trips(tmp_path):
    p = make_problem(3, {2: -1.0}, {(0, 1): 2.5})
    path = tmp_path / "p.json"
    write_json(problem_to_dict(p), str(path))
    assert problem_from_dict(read_json(str(path))) == p


def test_timing_metadata_excluded_from_serialization():
    p = make_problem(2, {}, {(0, 1): -1.0})
    ss = sample_sa(p, AnnealParams(num_reads=2, sweeps=10, seed=1))
    assert "timing_s" in ss.params
    assert "timing_s" not in sampleset_to_dict(ss, p)["params"]
