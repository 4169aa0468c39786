import base64
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
from conftest import logical_edges, noisy_replicated, pegasus_ball
from noise_reference import perturb_reference
from problem_helpers import h_terms, j_terms


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
    # the read-r random numbers are a function of (seed, r) only: running
    # reads one at a time must reproduce each row of the batched call
    p = make_problem(3, {0: 0.5}, {(0, 1): -1.0, (1, 2): 1.0})
    batch = sample_sa(p, AnnealParams(num_reads=4, sweeps=30, seed=9))
    single = sample_sa(p, AnnealParams(num_reads=1, sweeps=30, seed=9))
    assert np.array_equal(single.reads[0], batch.reads[0])
    # on a noisy problem of degree up to 15 a local field is a gemv row whose
    # last bit can depend on the read count, the gemv's row count (measured
    # with OpenBLAS against 100 rows: 2 or 3 rows differ from degree 4 on, 1,
    # 7 or 37 rows from degree 6 on); a one-bit field seldom flips an accept
    # test, and at these counts none does
    p, noise, placement = noisy_replicated()
    batch = sample_sa(p, AnnealParams(num_reads=100, sweeps=30, seed=9), noise, placement)
    for reads in (1, 7, 37):
        fewer = sample_sa(p, AnnealParams(num_reads=reads, sweeps=30, seed=9),
                          noise, placement)
        assert np.array_equal(fewer.reads, batch.reads[:reads])


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
    nm = NoiseModel(chip_seed=1, region_bias=region_biases(part.images, deltas))
    edges = logical_edges(part)[:4]
    p = make_problem(part.n_logical, {}, {e: -2.0 for e in edges})
    rp = replicate(p, part)
    pert = nm.perturb(rp.problem, rp.placement)
    n_l, h = p.n, h_terms(pert)
    for v in range(n_l):
        assert h.get(v, 0.0) == 0.25
        assert h.get(n_l + v, 0.0) == -0.5
        # identical logical variable, different regions: offsets differ by the delta
        assert h.get(v, 0.0) - h.get(n_l + v, 0.0) == 0.75


def test_region_biases_from_partition_images_round_trip():
    # the rows of images are int64 arrays; a region of np.int64 ids made
    # dumps raise TypeError
    part = partition_replicas(build_pegasus(4), 2)
    nm = NoiseModel(sigma_h=0.05, chip_seed=1, region_bias=region_biases(part.images, [0.5, -1]))
    assert [sorted(q) for q, _ in nm.region_bias] == np.sort(part.images, axis=1).tolist()
    assert all(type(v) is int for q, _ in nm.region_bias for v in q)
    assert noise_from_dict(json.loads(dumps(noise_to_dict(nm)))) == nm


def test_noise_drops_couplers_that_underflow_to_zero():
    # the smallest subnormal times a factor under 0.5 in magnitude rounds to 0
    p = make_problem(12, {}, {(i, i + 1): 5e-324 for i in range(11)})
    nm = NoiseModel(sigma_j=1.0, chip_seed=3)
    got = nm.perturb(p, None)
    assert list(j_terms(got).items()) == list(j_terms(perturb_reference(nm, p, None)).items())
    assert 0 < len(j_terms(got)) < len(j_terms(p))


def test_noise_requires_placement_for_region_bias():
    nm = NoiseModel(region_bias=((frozenset({0, 1}), 0.5),))
    with pytest.raises(InvalidParameterError):
        nm.perturb(make_problem(2, {}, {(0, 1): 1.0}), None)


@pytest.mark.parametrize("placement", [np.arange(2), np.arange(4), np.arange(3)[None]],
                         ids=["short", "long", "2-d"])
def test_noise_refuses_a_placement_that_is_not_one_qubit_per_variable(placement):
    # a short placement dict used to raise a bare KeyError
    nm = NoiseModel(sigma_h=0.1, chip_seed=1)
    with pytest.raises(DimensionMismatchError, match="placement of shape"):
        nm.perturb(make_problem(3, {}, {(0, 1): 1.0}), placement)


def test_noise_never_touches_reported_energies():
    p = make_problem(2, {}, {(0, 1): -2.0})
    nm = NoiseModel(sigma_h=0.5, sigma_j=0.3, chip_seed=5)
    ss = sample_sa(p, AnnealParams(num_reads=10, sweeps=50, seed=1), nm)
    assert np.array_equal(ss.energies, energies(p, ss.reads))


def test_noise_round_trip():
    nm = NoiseModel(sigma_h=0.1, sigma_j=0.05, chip_seed=3,
                    region_bias=((frozenset({1, 2}), 0.5),))
    assert noise_from_dict(noise_to_dict(nm)) == nm


@pytest.mark.parametrize("chip_seed", [3.0, True, "3"], ids=["float", "bool", "string"])
def test_noise_chip_seed_must_be_a_json_integer(chip_seed):
    with pytest.raises(FormatError):
        noise_from_dict({"sigma_h": 0.1, "chip_seed": chip_seed})


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


def _bit_row(text: str, n: int) -> list[int]:
    """Bit i of a base64 read, i in 0..n-1, read one bit at a time: bit
    i % 8 of byte i // 8."""
    row = base64.b64decode(text, validate=True)
    assert len(row) == -(-n // 8)
    assert all(row[i // 8] >> (i % 8) & 1 == 0 for i in range(n, 8 * len(row)))  # pad bits
    return [row[i // 8] >> (i % 8) & 1 for i in range(n)]


@pytest.mark.parametrize("n", [1, 7, 8, 9, 24, 5376])
def test_packed_reads_round_trip(n):
    gen = np.random.default_rng(n)
    p = make_problem(n, {0: 0.7}, {(i, i + 1): float(gen.normal()) for i in range(n - 1)})
    for count in (1, 13):
        reads = gen.choice(np.array([-1, 1], dtype=np.int8), size=(count, n))
        ss = SampleSet(reads=reads, energies=energies(p, reads), sampler="x")
        data = json.loads(dumps(sampleset_to_dict(ss, p)))
        # 4 characters per 3 bytes of one bit per spin
        assert [len(row) for row in data["reads"]] == [4 * -(-n // 24)] * count
        for text, read in zip(data["reads"], reads):
            assert _bit_row(text, n) == [int(s < 0) for s in read]
        again = sampleset_from_dict(data, p)
        assert again.reads.dtype == np.int8
        assert np.array_equal(again.reads, reads)
        assert np.array_equal(again.energies, ss.energies)


def test_list_form_reads_import_like_packed_ones(tmp_path):
    # external samplers, and hand-written files, hold rows of +-1
    for n in (1, 4, 9, 48):
        p = make_problem(n, {0: 0.3}, {(i, i + 1): 1.1 - i % 3 for i in range(n - 1)})
        ss = sample_sa(p, AnnealParams(num_reads=6, sweeps=10, seed=4))
        packed, rows = tmp_path / f"packed{n}.json", tmp_path / f"rows{n}.json"
        write_json(sampleset_to_dict(ss, p), str(packed))
        write_json({**read_json(str(packed)), "reads": ss.reads.tolist()}, str(rows))
        a, b = import_samples(str(packed), p), import_samples(str(rows), p)
        assert np.array_equal(a.reads, b.reads) and np.array_equal(a.reads, ss.reads)
        assert np.array_equal(a.energies, b.energies)
        assert np.array_equal(a.energies, ss.energies)


# a read of 3 spins is one byte, 4 base64 characters; "Ag==" is +1, -1, +1
@pytest.mark.parametrize("reads, error, message", [
    (["Ag==", [1, -1, 1]], FormatError, "mixes"),
    ([[1, -1, 1], "Ag=="], FormatError, "mixes"),
    (["Ag==", "Ag="], DimensionMismatchError, "read 1 has 3 characters"),
    (["Ag==", "Ag==="], DimensionMismatchError, "read 1 has 5 characters"),
    (["Ag==", "Ag0="], InvalidParameterError, "read 1 decodes to 2 bytes"),
    (["Ag==", "A g="], InvalidParameterError, "read 1 is not base64"),
    (["A\u2212=="], InvalidParameterError, "read 0 is not base64"),  # not a hyphen
    (["Agé="], InvalidParameterError, "read 0 is not base64"),
    (["A-=="], InvalidParameterError, "read 0 is not base64"),  # the URL-safe alphabet's
    (["A=A="], InvalidParameterError, "read 0 is not base64"),
    (["Ag"], DimensionMismatchError, "read 0 has 2 characters"),  # no "=" padding
    (["AgAA"], InvalidParameterError, "read 0 decodes to 3 bytes"),  # padding as data
    (["Ag==", "CA=="], InvalidParameterError, "read 1 sets a bit past spin 2"),
    (["Ag==", "gA=="], InvalidParameterError, "read 1 sets a bit past spin 2"),
    # the low 4 bits of "h" and "/" lie past the byte, and decode as nothing:
    # "Ah==" is the byte of "Ag==", and "A/==" that of "Aw=="
    (["Ag==", "Ah=="], InvalidParameterError, "read 1 is not the canonical base64 of its "
                                              "bytes; a read of 3 spins is 4 base64"),
    (["A/=="], InvalidParameterError, "read 0 is not the canonical base64"),
    # one "+"/"-" character per spin, the form before reads were bit rows
    (["+-+"], DimensionMismatchError, "read 0 has 3 characters; a read of 3 spins "
                                      "is 4 base64 characters"),
], ids=["string-then-row", "row-then-string", "short", "long", "digit", "space",
        "minus-sign", "accent", "url-safe-minus", "padding-inside", "no-padding",
        "padding-as-data", "pad-bit-3", "pad-bit-7", "non-canonical-tail",
        "non-canonical-tail-all-set", "plus-minus"])
def test_import_rejects_malformed_packed_reads(reads, error, message):
    p = make_problem(3, {}, {(0, 1): 1.0})
    with pytest.raises(error, match=message):
        sampleset_from_dict({"reads": reads}, p)


@pytest.mark.parametrize("n, canonical, others", [
    (1, "AQ==", ["AR==", "AX==", "Af=="]),
    (9, "AQE=", ["AQF=", "AQH="]),
], ids=["one-byte", "two-bytes"])
def test_a_read_has_one_base64_text(n, canonical, others):
    # the decoder drops the unused low bits of the last data character, so
    # each of these texts decodes to the canonical one's bytes
    p = make_problem(n, {}, {})
    assert sampleset_from_dict({"reads": [canonical]}, p).reads[0, 0] == -1
    for text in others:
        assert base64.b64decode(text) == base64.b64decode(canonical)
        with pytest.raises(InvalidParameterError,
                           match=f"read 0 is not the canonical base64 .*{n} spins"):
            sampleset_from_dict({"reads": [text]}, p)


def test_plus_minus_read_of_base64_width_is_refused():
    # at 4 spins a "+"/"-" read is as long as a base64 one: "+" is a base64
    # character and "-" is not, and "++++" decodes to 3 bytes, not 1
    p = make_problem(4, {}, {(0, 1): 1.0})
    for text, message in (("+-+-", "read 0 is not base64"), ("++++", "decodes to 3 bytes")):
        with pytest.raises(InvalidParameterError, match=message):
            sampleset_from_dict({"reads": [text]}, p)


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


def test_sampler_params_are_rerun_identical_and_serialized_whole():
    # no wall-clock entry: the params of a rerun, and so the payload, are equal
    p = make_problem(2, {}, {(0, 1): -1.0})
    params = AnnealParams(num_reads=2, sweeps=10, seed=1)
    ss = sample_sa(p, params)
    assert sample_sa(p, params).params == ss.params
    assert sampleset_to_dict(ss, p)["params"] == ss.params
