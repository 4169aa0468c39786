"""Decoders from physical sample sets to logical solutions.

Three routes, matching the three methods under comparison:

* replication: split every read into per-replica subconfigurations and keep
  the minimum-energy one;
* penalty encoding: majority-vote each unit's three problem qubits (the
  penalty hub never votes by default) and keep the best read;
* repeated baseline: minimum over k independent sample sets of one region.

Decoded energies are always recomputed on the logical problem, never taken
from the physical sample set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import QacEncoding, ReplicaPartition
from .errors import (ContractError, DimensionMismatchError,
                     InvalidParameterError)
from .ising import IsingProblem, energies
from .samplers import SampleSet
from .topology import frozen


@dataclass(frozen=True)
class DecodedSolution:
    """A logical assignment, its exact logical energy, and where it came from."""

    assignment: np.ndarray
    energy: float
    provenance: dict


def decode_rbm(samples: SampleSet, partition: ReplicaPartition,
               p: IsingProblem) -> DecodedSolution:
    """Best subsample over all reads and replicas.

    Reads must cover the replica-major variable layout of ``replicate(p,
    partition)``.  Ties break toward the smallest (read index, replica index).
    """
    k, n_l = partition.k, p.n
    if samples.reads.shape[1] != k * n_l:
        raise DimensionMismatchError(
            f"reads have {samples.reads.shape[1]} variables, expected {k}*{n_l}")
    subs = samples.reads.reshape(samples.num_reads * k, n_l)
    sub_energies = energies(p, subs)
    flat = int(np.argmin(sub_energies))
    read_idx, replica_idx = divmod(flat, k)
    return DecodedSolution(assignment=subs[flat].copy(),
                           energy=float(sub_energies[flat]),
                           provenance={"read": read_idx, "replica": replica_idx})


@dataclass(frozen=True)
class QacProblem:
    """Physical problem realizing a logical one on a K_{1,3} encoding.

    Dense variable layout is unit-major: variables 4u..4u+2 are unit u's
    problem qubits, 4u+3 its penalty hub.  ``placement`` is a read-only (n,)
    int64 array whose entry v is the hardware qubit hosting dense variable v.
    """

    problem: IsingProblem
    placement: np.ndarray


def build_qac_problem(logical: IsingProblem, enc: QacEncoding,
                      alpha: float = -1.0) -> QacProblem:
    """Spread a logical problem over an encoding's units.

    Each logical bias h_i goes on all three problem qubits of unit i; each
    logical coupling J_ij is split as 3*J_ij / multiplicity over the physical
    couplers of that logical edge.  A fully aligned physical state then has
    exactly 3x the logical energy, whatever the coupler multiplicities, which
    keeps the penalty scale comparable across encodings.  Penalty couplers
    carry ``alpha`` (= 0 disables the penalty and decouples the hubs).

    Terms are stored in this order: the h terms in the logical order, each
    on copies 0..2; each logical J term's couplers, in the logical order and
    then the encoding's; then the penalty couplers by (unit, copy).
    """
    if alpha > 0:
        raise InvalidParameterError(f"penalty weight must be <= 0, got {alpha}")
    n, u = logical.n, enc.n_logical
    if n > u:
        raise ContractError(f"logical problem has {n} variables, encoding only {u} units")
    codes = logical.j_first * u + logical.j_second
    missing = np.sort(codes[~np.isin(codes, enc.edge_codes)])
    if missing.size:
        a, b = np.divmod(missing[:5], u)
        raise ContractError(f"encoding lacks logical edges {list(zip(a.tolist(), b.tolist()))}")

    problem_vars = 4 * np.arange(n)[:, None] + np.arange(3)  # (unit, copy)
    hi, hv = problem_vars[logical.h_index].ravel(), np.repeat(logical.h_value, 3)
    # the couplers of J term t are rows start[t]:start[t] + count[t]
    at = np.searchsorted(enc.edge_codes, codes)
    start, count = enc.offsets[at], np.diff(enc.offsets)[at]
    rows = np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count, count)
    slot = enc.slots(enc.couplers[rows])  # problem qubit s is variable s + s // 3
    first, second = np.sort(slot + slot // 3, axis=1).T
    jv = np.repeat(3.0 * logical.j_value / count, count)
    if alpha != 0:
        first = np.concatenate([first, problem_vars.ravel()])
        second = np.concatenate([second, np.repeat(4 * np.arange(n) + 3, 3)])
        jv = np.concatenate([jv, np.full(3 * n, float(alpha))])
    jk = jv != 0  # a share can underflow to zero, which a problem does not store
    return QacProblem(IsingProblem(4 * n, hi, hv, first[jk], second[jk], jv[jk]),
                      frozen(np.c_[enc.problem, enc.penalty][:n].ravel()))


def decode_majority(samples: SampleSet, enc: QacEncoding,
                    logical: IsingProblem,
                    include_penalty: bool = False) -> tuple[np.ndarray, DecodedSolution]:
    """Majority-vote physical reads down to logical configurations.

    The vote runs over exactly the three problem qubits of each unit, so no
    ties are possible; the penalty hub's value is ignored.  With
    ``include_penalty`` the hub votes too and a 2-2 tie falls back to the
    problem-qubit majority.  Returns the per-read logical configurations and
    the best (minimum logical energy) read; ties break to the lowest index.
    """
    n_l = logical.n
    if samples.reads.shape[1] != 4 * n_l:
        raise DimensionMismatchError(
            f"reads have {samples.reads.shape[1]} variables, expected 4*{n_l}")
    units = samples.reads.reshape(samples.num_reads, n_l, 4)
    problem_sum = units[:, :, :3].sum(axis=2)
    votes = np.sign(problem_sum).astype(np.int8)
    if include_penalty:
        full = units.sum(axis=2)
        tied = full == 0
        decided = np.sign(full).astype(np.int8)
        votes = np.where(tied, votes, decided)

    logical_energies = energies(logical, votes)
    best = int(np.argmin(logical_energies))
    solution = DecodedSolution(assignment=votes[best].copy(),
                               energy=float(logical_energies[best]),
                               provenance={"read": best})
    return votes, solution


def decode_sqa_repeat(sample_sets: list[SampleSet],
                      p: IsingProblem) -> DecodedSolution:
    """Minimum-energy read across k independent sample sets of one region."""
    if not sample_sets:
        raise InvalidParameterError("need at least one sample set")
    best: DecodedSolution | None = None
    for set_idx, ss in enumerate(sample_sets):
        if ss.reads.shape[1] != p.n:
            raise DimensionMismatchError(
                f"set {set_idx} has {ss.reads.shape[1]} variables, expected {p.n}")
        set_energies = energies(p, ss.reads)
        read_idx = int(np.argmin(set_energies))
        e = float(set_energies[read_idx])
        if best is None or e < best.energy:
            best = DecodedSolution(assignment=ss.reads[read_idx].copy(), energy=e,
                                   provenance={"set": set_idx, "read": read_idx})
    assert best is not None
    return best


def solution_to_dict(sol: DecodedSolution) -> dict:
    return {
        "assignment": [int(s) for s in sol.assignment],
        "energy": sol.energy,
        "provenance": dict(sol.provenance),
    }
