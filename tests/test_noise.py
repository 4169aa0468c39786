"""The array-native noise perturbation against the per-key loop.

`NoiseModel.perturb` must return exactly the fields and couplers of the loop
in `noise_reference`, in the same key order, on every kind of problem the
workbench perturbs.
"""

import math

import numpy as np
import pytest

from anneal_rbm.decode import build_qac_problem
from anneal_rbm.embedding import partition_replicas, tile_qac
from anneal_rbm.errors import InvalidParameterError
from anneal_rbm.ising import make_problem, replicate
from anneal_rbm.planted import GeneratorParams, build_loop_cover, generate_instance
from anneal_rbm.samplers import NoiseModel, region_biases
from anneal_rbm.topology import build_pegasus
from conftest import active_edges, logical_edges
from noise_reference import perturb_reference
from problem_helpers import h_terms, j_terms


def assert_matches_reference(noise, p, placement):
    got = noise.perturb(p, placement)
    want = perturb_reference(noise, p, placement)
    assert list(h_terms(got).items()) == list(h_terms(want).items())
    assert list(j_terms(got).items()) == list(j_terms(want).items())


def replicated():
    part = partition_replicas(build_pegasus(4), 2)
    cover = build_loop_cover(part.n_logical, logical_edges(part))
    inst = generate_instance(cover, GeneratorParams(seed=3))
    rp = replicate(inst.problem, part)
    return rp.problem, rp.placement, part.images


def overlapping_bias(regions):
    """Both regions, plus one that takes half of each, so some qubits
    collect two deltas and the summation order shows."""
    first, second = (sorted(r) for r in regions)
    straddle = first[: len(first) // 2] + second[: len(second) // 2]
    return region_biases([first, second, straddle], [0.3, -0.2, 0.125])


def test_replicated_with_overlapping_region_bias():
    p, placement, regions = replicated()
    noise = NoiseModel(sigma_h=0.05, sigma_j=0.02, chip_seed=11,
                       region_bias=overlapping_bias(regions))
    assert_matches_reference(noise, p, placement)


def test_qac_problem():
    enc = tile_qac(build_pegasus(2))
    g = enc.logical_graph()
    cover = build_loop_cover(enc.n_logical, active_edges(g))
    inst = generate_instance(cover, GeneratorParams(seed=4))
    qp = build_qac_problem(inst.problem, enc, alpha=-1.0)
    assert_matches_reference(NoiseModel(sigma_h=0.05, sigma_j=0.02, chip_seed=12),
                             qp.problem, qp.placement)


def test_placement_that_reverses_every_coupler():
    # a coupler's stream is keyed by its qubits in ascending order, whatever
    # the order of its spins
    p, placement, _ = replicated()
    assert_matches_reference(NoiseModel(sigma_h=0.05, sigma_j=0.02, chip_seed=5), p,
                             placement.max() - placement)


def test_no_placement():
    p, _, _ = replicated()
    assert_matches_reference(NoiseModel(sigma_h=0.05, sigma_j=0.02, chip_seed=2**40 + 5),
                             p, None)


@pytest.mark.parametrize("sigma_h, sigma_j, biased", [
    (0.05, 0.0, False), (0.0, 0.02, False), (0.0, 0.0, True),
], ids=["sigma-h-only", "sigma-j-only", "region-bias-only"])
def test_one_noise_source(sigma_h, sigma_j, biased):
    p, placement, regions = replicated()
    noise = NoiseModel(sigma_h=sigma_h, sigma_j=sigma_j, chip_seed=7,
                       region_bias=overlapping_bias(regions) if biased else ())
    assert_matches_reference(noise, p, placement)


def test_no_couplers():
    p = make_problem(5, {0: 1.0, 3: -2.0}, {})
    assert_matches_reference(NoiseModel(sigma_h=0.1, sigma_j=0.1, chip_seed=1),
                             p, 10 * np.arange(5) + 1)


def test_single_spin():
    assert_matches_reference(NoiseModel(sigma_h=0.1, sigma_j=0.1, chip_seed=-1),
                             make_problem(1, {}, {}), np.array([3]))


def test_fields_cancelled_by_bias_are_dropped_like_the_loop():
    # h[0] + delta == 0 exactly: both versions drop the key
    p = make_problem(2, {0: -0.5, 1: 1.0}, {(0, 1): 1.0})
    noise = NoiseModel(region_bias=region_biases([[0]], [0.5]))
    assert_matches_reference(noise, p, np.arange(2))
    assert 0 not in h_terms(noise.perturb(p, np.arange(2)))


@pytest.mark.parametrize("kwargs", [
    {"sigma_h": math.inf}, {"sigma_j": math.inf}, {"sigma_h": math.nan},
    {"sigma_j": -math.inf}, {"region_bias": ((frozenset({0}), math.inf),)},
    {"region_bias": ((frozenset({0}), math.nan),)},
])
def test_rejects_non_finite_noise(kwargs):
    with pytest.raises(InvalidParameterError):
        NoiseModel(**kwargs)
