"""The array-native problem layer against the per-term dict loops.

`make_problem`, the validation of `IsingProblem`, `replicate`,
`gauge_transform`, `problem_to_dict` and `problem_hash` must give exactly the
term arrays of the loops in `problem_reference`, in the same order, the same
dict views in the same key order, the same payload bytes and the same digest,
and must refuse exactly what those loops refuse.  `build_qac_problem` must
give the term arrays, in order, and the placement of its loop.
"""

import copy
import dataclasses
import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anneal_rbm.decode import build_qac_problem
from anneal_rbm.embedding import combine_qac_rbm, partition_replicas
from anneal_rbm.errors import ContractError, InvalidParameterError
from anneal_rbm.ising import (IsingProblem, gauge_transform, make_problem,
                              problem_hash, problem_to_dict, replicate)
from anneal_rbm.jsonio import dumps
from anneal_rbm.planted import GeneratorParams, build_loop_cover, generate_instance
from anneal_rbm.samplers import NoiseModel
from anneal_rbm.topology import build_pegasus, edge_rows
from conftest import logical_edges
from problem_reference import (ProblemReference, build_qac_problem_reference,
                               gauge_transform_reference, make_problem_reference,
                               problem_hash_reference, problem_to_dict_reference,
                               replicate_reference, terms_reference)
from structure_reference import encoding_reference

TERM_FIELDS = ("h_index", "h_value", "j_first", "j_second", "j_value")
BIG = sys.float_info.max
QUARTER_ULP = 2.0 ** 969  # a quarter of the spacing of floats at BIG


def assert_same(got: IsingProblem, want: ProblemReference):
    assert got.n == want.n
    for name, w in zip(TERM_FIELDS, terms_reference(want)):
        g = getattr(got, name)
        assert g.dtype == w.dtype and g.tolist() == w.tolist(), name
    assert list(got.h.items()) == list(want.h.items())
    assert list(got.j.items()) == list(want.j.items())
    payload, want_payload = problem_to_dict(got), problem_to_dict_reference(want)
    assert [list(payload[k]) for k in ("h", "J")] == [list(want_payload[k]) for k in ("h", "J")]
    assert dumps(payload) == dumps(want_payload)
    assert problem_hash(got) == problem_hash_reference(want)


# coefficients: exact zeros, both infinities and NaN, and magnitudes whose
# sums overflow; integers as well as floats, as callers pass both
_values = (st.integers(-5, 5) | st.floats(-10.0, 10.0)
           | st.sampled_from([0.0, -0.0, 1e308, -1e308, 9e307, math.inf, -math.inf, math.nan]))


@st.composite
def raw_terms(draw):
    """(n, h, j) dicts in drawn key order, with indices one outside 0..n-1
    on either side and pairs in either order or on one spin."""
    n = draw(st.integers(0, 7))
    index = st.integers(-1, n)
    h = draw(st.dictionaries(index, _values, max_size=n + 1))
    j = draw(st.dictionaries(st.tuples(index, index), _values, max_size=10))
    return n, h, j


def _arrays(h, j):
    return (list(h), list(h.values()), [a for a, _ in j], [b for _, b in j], list(j.values()))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(raw_terms())
def test_make_problem_matches_reference(case):
    n, h, j = case
    try:
        want = make_problem_reference(n, h, j)
    except InvalidParameterError:
        with pytest.raises(InvalidParameterError):
            make_problem(n, h, j)
        return
    assert_same(make_problem(n, h, j), want)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(raw_terms())
def test_validation_refuses_what_reference_refuses(case):
    # the dicts stored as they are, as floats: zeros, self pairs, pairs in
    # the wrong order and indices out of range reach the validation
    n, h, j = case
    h, j = ({key: float(v) for key, v in terms.items()} for terms in (h, j))
    try:
        want = ProblemReference(n, h, j)
    except InvalidParameterError:
        with pytest.raises(InvalidParameterError):
            IsingProblem(n, *_arrays(h, j))
        return
    assert_same(IsingProblem(n, *_arrays(h, j)), want)


@pytest.mark.parametrize("h, j", [
    # |h| sums to BIG and |J| to 2 * QUARTER_ULP; their sum rounds up to inf,
    # though h and J added left to right in one pass stay at BIG
    ([BIG], [QUARTER_ULP, QUARTER_ULP]),
    # left to right the quarter ulps make half an ulp before BIG comes, and
    # the sum rounds up to inf; np.sum's pairwise blocks add the first
    # quarter ulp to BIG alone, which absorbs it, and so the second
    ([], [QUARTER_ULP, QUARTER_ULP] + [5e-324] * 6 + [BIG] + [5e-324] * 7),
    ([BIG, -BIG], []), ([1e308], [1e308]), ([], [1e308, -1e308]),
], ids=["sums-of-h-and-j", "left-to-right", "h-pair", "h-and-j", "j-pair"])
def test_infinite_sum_of_magnitudes_refused_as_reference(h, j):
    hh = dict(enumerate(h))
    jj = {(0, b): v for b, v in enumerate(j, start=1)}
    n = max(len(h), len(j) + 1)
    with pytest.raises(InvalidParameterError, match="must be finite"):
        ProblemReference(n, hh, jj)
    with pytest.raises(InvalidParameterError, match="must be finite"):
        IsingProblem(n, *_arrays(hh, jj))


@pytest.mark.parametrize("terms", [
    ([0, 0], [1.0, 2.0], [], [], []),
    ([], [], [0, 0], [1, 1], [1.0, 2.0]),
    ([], [], [0, 1, 0], [1, 2, 1], [1.0, 1.0, -1.0]),
    ([0.0], [1.0], [], [], []),
    ([], [], [0], [1.5], [1.0]),
    ([0], [1.0, 2.0], [], [], []),
    ([], [], [0, 1], [1], [1.0]),
    ([[0]], [[1.0]], [], [], []),
    ([0], ["1.0"], [], [], []),
], ids=["h-index-twice", "pair-twice", "pair-twice-apart", "float-index",
        "float-end", "h-lengths", "j-lengths", "2-d", "string-value"])
def test_arrays_the_dicts_cannot_hold_are_refused(terms):
    with pytest.raises(InvalidParameterError):
        IsingProblem(3, *terms)


def test_stored_arrays_are_read_only_copies():
    hv, jv = np.array([1.0, -2.0]), np.array([0.5])
    p = IsingProblem(3, np.array([2, 0]), hv, np.array([0]), np.array([1]), jv)
    hv[0], jv[0] = 9.0, 9.0
    assert p.h == {2: 1.0, 0: -2.0} and p.j == {(0, 1): 0.5}
    for name in TERM_FIELDS:
        with pytest.raises(ValueError, match="read-only"):
            getattr(p, name)[0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, name, np.zeros(1))
    with pytest.raises(TypeError):
        p.h[1] = 1.0
    with pytest.raises(TypeError):
        p.j[(1, 2)] = 1.0


def test_problem_pickles_and_copies_with_read_only_arrays():
    p = make_problem(3, {2: 1.0}, {(1, 2): -2.0, (0, 1): 0.5})
    assert p.h and p.j  # the views are cached now
    for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        assert q == p and list(q.j) == list(p.j)
        assert not any(getattr(q, name).flags.writeable for name in TERM_FIELDS)


def test_equality_ignores_term_order():
    p = make_problem(3, {0: 1.0, 2: -1.0}, {(0, 1): 2.0, (1, 2): -3.0})
    q = make_problem(3, {2: -1.0, 0: 1.0}, {(2, 1): -3.0, (0, 1): 2.0})
    assert p == q and p.j_first.tolist() != q.j_first.tolist()
    assert p != make_problem(3, {0: 1.0, 2: -1.0}, {(0, 1): 2.0})
    assert p != make_problem(4, {0: 1.0, 2: -1.0}, {(0, 1): 2.0, (1, 2): -3.0})


_finite = st.integers(-5, 5).filter(bool) | st.floats(-10.0, 10.0).filter(bool)


@st.composite
def logical_problems(draw, partition):
    """A problem on the partition's logical graph with terms, pairs and
    pair orientations in drawn order."""
    edges = draw(st.permutations(logical_edges(partition)))
    edges = edges[:draw(st.integers(0, len(edges)))]
    n = draw(st.integers(max([0] + [b + 1 for _, b in edges]), partition.n_logical))
    h = draw(st.dictionaries(st.integers(0, n - 1), _finite, max_size=n)) if n else {}
    j = {(b, a) if draw(st.booleans()) else (a, b): draw(_finite) for a, b in edges}
    return n, h, j


P2 = partition_replicas(build_pegasus(2), 2)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(case=logical_problems(P2), t=st.data())
def test_replicate_and_gauge_match_reference(case, t):
    n, h, j = case
    p, want = make_problem(n, h, j), make_problem_reference(n, h, j)
    rep, rep_want = replicate(p, P2), replicate_reference(want, P2)
    assert_same(rep.problem, rep_want.problem)
    assert (rep.k, rep.n_logical) == (rep_want.k, rep_want.n_logical)
    assert dict(enumerate(rep.placement.tolist())) == rep_want.placement
    gauge = np.array(t.draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)),
                     dtype=np.int8)
    assert_same(gauge_transform(p, gauge), gauge_transform_reference(want, gauge))


def test_m16_replica_problem_matches_reference(pegasus16):
    part = partition_replicas(pegasus16, 4)
    cover = build_loop_cover(part.n_logical, logical_edges(part))
    logical = generate_instance(cover, GeneratorParams(seed=5)).problem
    want_logical = make_problem_reference(logical.n, logical.h, logical.j)
    assert_same(logical, want_logical)
    rep, rep_want = replicate(logical, part), replicate_reference(want_logical, part)
    assert rep.problem.n == 5376 and len(rep.problem.j_value) == 35384
    assert_same(rep.problem, rep_want.problem)
    assert dict(enumerate(rep.placement.tolist())) == rep_want.placement
    gauge = np.random.default_rng(2).choice(np.array([-1, 1], dtype=np.int8), rep.problem.n)
    assert_same(gauge_transform(rep.problem, gauge),
                gauge_transform_reference(rep_want.problem, gauge))


@pytest.fixture(scope="module", params=[8, 16], ids=["m8", "m16"])
def combined(request, pegasus16):
    return combine_qac_rbm(pegasus16 if request.param == 16 else build_pegasus(8), 4)


@pytest.mark.parametrize("alpha", [-1.0, 0.0, -0.3])
def test_build_qac_problem_equals_reference(combined, alpha):
    part = combined.rbm_partition
    cover = build_loop_cover(part.n_logical, edge_rows(part.edge_codes, part.n_logical))
    planted = generate_instance(cover, GeneratorParams(seed=9)).problem
    # noise puts h terms on every variable and inexact values on the couplers
    logical = NoiseModel(sigma_h=0.1, sigma_j=0.05, chip_seed=4).perturb(planted, None)
    assert logical.h_index.size == logical.n
    half = logical.n // 2  # a problem on the first units only
    head = make_problem(half, {i: v for i, v in logical.h.items() if i < half},
                        {e: v for e, v in logical.j.items() if e[1] < half})
    for enc in combined.encodings:
        enc_reference = encoding_reference(enc)
        for p in (logical, head):
            got = build_qac_problem(p, enc, alpha)
            want = build_qac_problem_reference(p, enc_reference, alpha)
            assert got.problem.n == want.problem.n == 4 * p.n
            for name in TERM_FIELDS:
                g, w = getattr(got.problem, name), getattr(want.problem, name)
                assert g.dtype == w.dtype and g.tolist() == w.tolist(), name
            assert got.placement.dtype == np.int64 and not got.placement.flags.writeable
            assert dict(enumerate(got.placement.tolist())) == want.placement


def test_build_qac_problem_refuses_what_the_reference_refuses(combined):
    enc = combined.encodings[0]
    n = enc.n_logical
    absent = next((a, b) for a in range(n) for b in range(a + 1, n)
                  if a * n + b not in set(enc.edge_codes.tolist()))
    for p, alpha in ((make_problem(n, {}, {absent: 1.0}), -1.0),
                     (make_problem(n + 1), -1.0), (make_problem(n), 0.5)):
        with pytest.raises(ContractError) as got:
            build_qac_problem(p, enc, alpha)
        with pytest.raises(ContractError) as want:
            build_qac_problem_reference(p, encoding_reference(enc), alpha)
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)
