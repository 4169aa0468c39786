"""The level-scheduled annealer against the one-spin-at-a-time sweep.

`sample_sa` must return exactly the reads and energies of the per-spin loop
in `sa_reference`, on every kind of problem the workbench anneals and on the
orders that stress the schedule most.
"""

import warnings

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import anneal_rbm.samplers as samplers
from anneal_rbm import rng
from anneal_rbm.decode import build_qac_problem
from anneal_rbm.embedding import partition_replicas, tile_qac
from anneal_rbm.errors import InvalidParameterError
from anneal_rbm.ising import make_problem, replicate
from anneal_rbm.planted import GeneratorParams, build_loop_cover, generate_instance
from anneal_rbm.samplers import (AnnealParams, NoiseModel, _spin_levels,
                                 _sweep_plan, region_biases, sample_sa)
from anneal_rbm.topology import build_pegasus
from conftest import active_edges, logical_edges, noisy_replicated, pegasus_ball
from problem_helpers import h_terms, j_terms
from sa_reference import sample_sa_reference, temperature_ladder_reference


def assert_matches_reference(p, params, noise=None, placement=None):
    got = sample_sa(p, params, noise, placement)
    want = sample_sa_reference(p, params, noise, placement)
    assert np.array_equal(got.reads, want.reads)
    assert np.array_equal(got.energies, want.energies)
    assert got.params == want.params


def planted_ball(size=18, seed=5):
    n, edges = pegasus_ball(2, size)
    return generate_instance(build_loop_cover(n, edges), GeneratorParams(seed=seed)).problem


def noisy_qac():
    enc = tile_qac(build_pegasus(2))
    g = enc.logical_graph()
    cover = build_loop_cover(enc.n_logical, active_edges(g))
    inst = generate_instance(cover, GeneratorParams(seed=4))
    qp = build_qac_problem(inst.problem, enc, alpha=-1.0)
    return qp.problem, NoiseModel(sigma_h=0.05, sigma_j=0.02, chip_seed=12), qp.placement


def chain(n=64, seed=0):
    r = np.random.default_rng(seed)
    return make_problem(n, {i: float(v) for i, v in enumerate(r.normal(0, 0.3, n))},
                        {(i, i + 1): float(v) for i, v in enumerate(r.normal(0, 1, n - 1))})


def mixed(n=30, seed=2):
    """A problem whose odd spins have a weak field and no coupler, and whose
    even spins form a branched chain, some with a field.  The weak fields
    keep the uncoupled spins flipping through most of the anneal."""
    r = np.random.default_rng(seed)
    h = {i: float(v) for i, v in zip(range(1, n, 2), r.normal(0, 0.1, n // 2))}
    h.update({i: float(v) for i, v in zip(range(0, n, 6), r.normal(0, 1, n))})
    j = {(i, i + 2): float(v) for i, v in zip(range(0, n - 2, 2), r.normal(0, 1, n))}
    j.update({(i, i + 6): float(v) for i, v in zip(range(0, n - 6, 4), r.normal(0, 1, n))})
    return make_problem(n, h, j)


def relabeled(p, seed=0):
    perm = np.random.default_rng(seed).permutation(p.n)
    return make_problem(p.n, {int(perm[i]): v for i, v in h_terms(p).items()},
                        {(int(perm[a]), int(perm[b])): v for (a, b), v in j_terms(p).items()})


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


def test_replicated_sweeps_cross_chunks(monkeypatch):
    monkeypatch.setattr(samplers, "_SWEEP_CHUNK_BUDGET", 1)
    p, noise, placement = noisy_replicated()
    assert_matches_reference(p, AnnealParams(num_reads=7, sweeps=12, seed=11),
                             noise, placement)


@pytest.mark.parametrize("reads", [7, 13])
def test_odd_read_counts(reads):
    # every level-wide elementwise pass then ends in a partial SIMD vector
    p, noise, placement = noisy_qac()
    assert_matches_reference(p, AnnealParams(num_reads=reads, sweeps=20, seed=reads),
                             noise, placement)


def test_uncoupled_spins_with_fields_among_coupled_ones():
    # every sweep must see local = h on the uncoupled spins, whatever an
    # earlier level or sweep computed in their place; the anneal ends hot, so
    # their final values still depend on the field they saw in the last sweeps
    p = mixed()
    lo, hi = edge_arrays(p)
    assert _spin_levels(p.n, lo, hi).max() >= 3
    assert_matches_reference(p, AnnealParams(num_reads=11, sweeps=30, seed=15,
                                             t_hot=4.0, t_cold=0.5))


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


@st.composite
def ladder_problems(draw):
    """A problem whose terms come in drawn order, with magnitudes far apart
    so that a site weight depends on the order its terms are added in."""
    n = draw(st.integers(1, 6))
    values = st.sampled_from([1.0, -1.0, 1e16, -1e16, 0.1, 0.2, 3.0]) | st.floats(
        -1e3, 1e3, allow_nan=False).filter(bool)
    h = draw(st.dictionaries(st.integers(0, n - 1), values, max_size=n))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    j = draw(st.dictionaries(pairs, values, max_size=3 * n))
    return make_problem(n, h, {e: v for e, v in j.items() if e[::-1] not in j or e[0] < e[1]})


def assert_ladder_matches_reference(p, params):
    try:
        want = temperature_ladder_reference(p, params)
    except InvalidParameterError:
        with pytest.raises(InvalidParameterError):
            samplers._temperature_ladder(p, params)
        return
    assert np.array_equal(samplers._temperature_ladder(p, params), want)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(ladder_problems(), st.sampled_from([1, 2, 50]))
def test_temperature_ladder_equals_the_term_loop(p, sweeps):
    assert_ladder_matches_reference(p, AnnealParams(sweeps=sweeps))


def test_temperature_ladder_on_the_noisy_m16_replica_problem(pegasus16):
    part = partition_replicas(pegasus16, 4)
    cover = build_loop_cover(part.n_logical, logical_edges(part))
    rp = replicate(generate_instance(cover, GeneratorParams(seed=5)).problem, part)
    noise = NoiseModel(sigma_h=0.05, sigma_j=0.02, chip_seed=1,
                       region_bias=region_biases(part.images, [0.3, -0.2, 0.1, 0.0]))
    for p in (rp.problem, noise.perturb(rp.problem, rp.placement)):
        assert_ladder_matches_reference(p, AnnealParams(sweeps=100))


class ForcedUniforms:
    """A read's generator that starts every spin at +1 and draws its real
    stream's uniforms, except at the (sweep, spin) slots of ``forced``."""

    def __init__(self, gen, forced):
        self.gen, self.forced, self.sweep = gen, forced, 0

    def integers(self, low, high, size):
        return np.ones(size, dtype=np.int64)

    def random(self, size=None, out=None):
        u = self.gen.random(size, out=out)
        for (t, spin), value in self.forced.items():
            if self.sweep <= t < self.sweep + len(u):
                u[t - self.sweep, spin] = value
        self.sweep += len(u)
        return u


def force_uniforms(monkeypatch, forced):
    streams, stream = rng.streams, rng.stream
    monkeypatch.setattr(rng, "streams", lambda *key: (
        ForcedUniforms(g, forced) for g in streams(*key)))
    monkeypatch.setattr(rng, "stream", lambda *key: ForcedUniforms(stream(*key), forced))


# at temperature 0.005 and spin +1, spin 0's exponent 2 * h / T is -748,
# below -745.13 where exp underflows to 0, spin 1's is -720, spin 2's -8 and
# spin 3's +1600, where exp overflows; spins 4..9 are a coupled chain
FORCED = make_problem(10, {0: -1.87, 1: -1.8, 2: -0.02, 3: 4.0, 5: 0.3, 8: -0.2},
                      {(i, i + 1): (-1.0) ** i * 0.7 for i in range(4, 9)})
TIE = float(np.exp(np.array([-0.02 * 2 / 0.005]))[0])


@pytest.mark.parametrize("zeros", [True, False])
@pytest.mark.parametrize("budget", [samplers._SWEEP_CHUNK_BUDGET, 1])
def test_forced_uniforms_at_the_exponent_floor(monkeypatch, zeros, budget):
    # a uniform of exactly 0.0 accepts a flip whose exp(y) is a subnormal
    # above 0 and refuses one whose exp(y) underflows to 0, so the exponent
    # floor must not apply in its chunk; a uniform equal to exp(y) refuses,
    # and an exp that overflows to inf accepts.  The forced slots are in the
    # first and the last sweep, at 0.01 and 0.005 in the 6-sweep anneal.
    monkeypatch.setattr(samplers, "_SWEEP_CHUNK_BUDGET", budget)
    forced = {(t, 2): TIE for t in (0, 5)}
    if zeros:
        forced.update({(t, spin): 0.0 for t in (0, 5) for spin in (0, 1)})
    force_uniforms(monkeypatch, forced)
    flipped = [1, -1 if zeros else 1]
    for sweeps in (6, 1):  # one sweep runs at t_cold, from all spins +1
        params = AnnealParams(num_reads=8, sweeps=sweeps, seed=19 + sweeps,
                              t_hot=0.01, t_cold=0.005)
        reads = sample_sa(FORCED, params).reads
        assert_matches_reference(FORCED, params)
        assert (reads[:, :2] == flipped).all()
        if sweeps == 1:
            assert (reads[:, 2:4] == [1, -1]).all()


def edge_arrays(p):
    ends = np.array(sorted(j_terms(p)), dtype=np.intp).reshape(-1, 2)
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


def first_row(view, base):
    """The row of `base` at which `view`, a block of its rows, starts."""
    assert np.shares_memory(view, base)
    offset = view.__array_interface__["data"][0] - base.__array_interface__["data"][0]
    assert offset % base.strides[0] == 0
    return offset // base.strides[0]


# a budget of 100 gathered states cuts every step into one- or two-row gemvs
BUDGETS = [samplers._GATHER_BUDGET, 100]


@pytest.mark.parametrize("problem", [
    chain(), planted_ball(), relabeled(planted_ball(size=24, seed=7), seed=3),
    noisy_replicated()[0], noisy_qac()[0], make_problem(4, {0: 1.0}, {}), mixed(),
], ids=["chain", "pegasus", "pegasus-permuted", "replicated", "qac", "no-couplers",
        "mixed"])
def test_schedule_invariants(problem, monkeypatch):
    lo, hi = edge_arrays(problem)
    level = _spin_levels(problem.n, lo, hi)
    assert schedule_is_sequential(problem.n, lo, hi, level)
    for budget in BUDGETS:
        monkeypatch.setattr(samplers, "_GATHER_BUDGET", budget)
        check_plan(problem, level, budget)


def check_plan(problem, level, budget):
    reads = 9
    order, states, labelled, levels = _sweep_plan(problem, reads)
    assert np.array_equal(np.sort(order), np.arange(problem.n))
    assert states.shape == (problem.n, reads) and states.flags.c_contiguous
    assert labelled.shape == (reads, problem.n) and labelled.flags.c_contiguous
    label = np.argsort(order)
    # level blocks, in level order, tile the labels 0..n-1
    bounds = [first_row(s, states) for s, *_ in levels] + [problem.n]
    h_of, j_of = h_terms(problem), j_terms(problem)
    coupled = {(a, b) for a, b in j_of} | {(b, a) for a, b in j_of}
    gathered, field_buffers = set(), set()
    for lv, (s, x, u, h, steps) in enumerate(levels):
        start, stop = bounds[lv], bounds[lv + 1]
        spins = order[start:stop]
        assert start < stop and s.shape == (stop - start, reads)
        assert np.all(level[spins] == lv)
        assert not any((int(a), int(b)) in coupled for a in spins for b in spins)
        assert np.array_equal(h, [[h_of.get(int(v), 0.0)] for v in spins])
        # its uniforms are columns start..stop of `labelled`, one row per spin
        assert first_row(u.T, labelled.T) == start and u.shape == (stop - start, reads)
        # its fields are rows 0..width of the one field buffer, and its steps'
        # outputs tile them
        assert x.shape == (stop - start, reads) and first_row(x, x.base[:, :, 0]) == 0
        field_buffers.add(id(x.base))
        assert [first_row(out[:, :, 0], x) for *_, out in steps] == \
            [0] + np.cumsum([len(out) for *_, out in steps[:-1]]).tolist()
        assert sum(len(out) for *_, out in steps) == stop - start
        i = start
        for nb, g, g_t, nb_val, out in steps:
            j = i + len(out)
            assert nb.shape == nb_val.shape[:2] and len(nb) == len(out)
            # one degree per step, gathered into the one buffer within budget
            assert g.shape == (*nb.shape, reads) and g.flags.c_contiguous
            assert g_t.base is g.base and g_t.shape == (len(nb), reads, nb.shape[1])
            assert g.size <= budget or len(nb) == 1
            gathered.add(id(g.base))
            # each row: the spin's neighbours, relabelled, and its couplers,
            # in coupler order
            for spin, row, row_val in zip(order[i:j], nb, nb_val[:, :, 0]):
                want = [(int(label[b if a == spin else a]), v)
                        for (a, b), v in j_of.items() if spin in (a, b)]
                assert [(int(q), float(v)) for q, v in zip(row, row_val)] == want
            i = j
    assert len(gathered) == len(field_buffers) == 1


@pytest.mark.parametrize("problem", [noisy_qac, noisy_replicated])
def test_step_fields_are_the_per_spin_products(problem, monkeypatch):
    # a field one bit off rarely flips an accept test, so the reads oracle
    # seldom sees it: compare the fields themselves, as `_level_fields` makes
    # them for `_anneal` into its level buffer, against the per-spin product
    # `sa_reference` makes (padding a step's rows changes a few percent)
    p, noise, placement = problem()
    p = noise.perturb(p, placement)
    nbrs = [[] for _ in range(p.n)]
    for (a, b), v in j_terms(p).items():
        nbrs[a].append((b, v))
        nbrs[b].append((a, v))
    reads = 37
    states = np.random.default_rng(17).choice([-1.0, 1.0], size=(reads, p.n))

    # the gather must hand np.matmul the strides of the reference's
    # `states[:, idx]`, so that it makes the same BLAS call: a numpy that
    # laid out fancy-index results otherwise must fail here, not drift
    matmul = np.matmul
    operands = []
    monkeypatch.setattr(np, "matmul", lambda a, b, **kw: operands.append(a) or matmul(a, b, **kw))
    for budget in BUDGETS:
        monkeypatch.setattr(samplers, "_GATHER_BUDGET", budget)
        order, spin_major, _, levels = _sweep_plan(p, reads)
        spin_major[:] = states[:, order].T
        start = 0
        for _, x, _, _, steps in levels:
            operands.clear()
            x.fill(np.nan)
            samplers._level_fields(spin_major, steps)
            assert operands
            for a in operands:
                assert a.shape[1] == reads
                if a.shape[2]:
                    assert a.strides[1:] == states[:, np.arange(a.shape[2])].strides
            for row, spin in enumerate(order[start:start + len(x)]):
                idx = np.array([q for q, _ in nbrs[spin]], dtype=np.intp)
                want = states[:, idx] @ np.array([v for _, v in nbrs[spin]]) \
                    if idx.size else 0.0
                assert np.array_equal(x[row], np.broadcast_to(want, (reads,)))
            start += len(x)
        assert start == p.n


def test_gemv_steps_cut_to_single_rows(monkeypatch):
    # with a budget of one gathered state every gemv step is cut to one row;
    # each spin still gets its own gemv call, so the reads do not move
    monkeypatch.setattr(samplers, "_GATHER_BUDGET", 1)
    p, noise, placement = noisy_qac()
    assert_matches_reference(p, AnnealParams(num_reads=9, sweeps=15, seed=18),
                             noise, placement)


def test_gemv_steps_cut_to_one_or_two_rows(monkeypatch):
    # 100 gathered states hold one or two rows of the noisy QAC problem at
    # 9 reads, so most steps are cut and some rows share a gemv step
    monkeypatch.setattr(samplers, "_GATHER_BUDGET", 100)
    p, noise, placement = noisy_qac()
    assert_matches_reference(p, AnnealParams(num_reads=9, sweeps=15, seed=18),
                             noise, placement)


def test_exp_does_not_depend_on_where_its_operand_sits():
    # the accept test takes np.exp of a level-wide block; each value must be
    # the one np.exp gives the operand alone, wherever it sits in the block
    r = np.random.default_rng(16)
    values = np.concatenate([r.uniform(-40, 3, 60), r.normal(0, 1e-3, 20),
                             [0.0, -0.0, 1.0, -1.0, 709.0, 710.0, -745.0, -746.0]])
    with np.errstate(over="ignore"):
        alone = np.array([np.exp(np.array([v]))[0] for v in values])
        for offset in range(9):
            for length in range(1, 18):
                for first in range(0, values.size - length + 1, length):
                    block = np.full(offset + length + 3, 0.5)
                    block[offset:offset + length] = values[first:first + length]
                    got = np.exp(block[offset:offset + length])
                    assert np.array_equal(got, alone[first:first + length])
