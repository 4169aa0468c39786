"""Reference problem layer for the oracle tests: the per-term dict loops.

`ProblemReference` is the dict-backed `ising.IsingProblem` and its
validation, and the functions below are `make_problem`, `terms`,
`gauge_transform`, `replicate`, `problem_to_dict` and `problem_hash` as they
ran over its ``h`` and ``j`` dicts one term at a time, before a problem
stored its term arrays.  They are kept word for word apart from their names
and the package names they import.  `build_qac_problem_reference` is
`decode.build_qac_problem` as it ran over an encoding's dict form (see
`structure_reference.encoding_reference`) before it became array passes,
kept the same way; its result is `QacProblemReference`, the old
`QacProblem` with its placement dict.  `replicate_reference` reads a
partition's logical edges and iso maps through the `conftest` helpers.  The
tests check that the array-native problem gives equal term arrays in equal
order, equal dict views, equal payloads and digests, and refuses exactly
what this validation refuses.  The package never imports this module.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping

import numpy as np

from anneal_rbm.embedding import ReplicaPartition
from anneal_rbm.errors import (ContractError, EmbeddingInfeasibleError,
                               InvalidParameterError)
from anneal_rbm.ising import IsingProblem, Pair, ReplicatedProblem, as_spins, make_problem
from anneal_rbm.topology import canonical_edge
from conftest import iso_maps, logical_edges
from structure_reference import QacEncodingReference


@dataclass(frozen=True)
class ProblemReference:
    """Sparse Ising problem; coefficients are finite and never zero, and the
    sum of their magnitudes is finite."""

    n: int
    h: dict[int, float] = field(default_factory=dict)
    j: dict[Pair, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 0:
            raise InvalidParameterError(f"variable count must be >= 0, got {self.n}")
        for i, v in self.h.items():
            if not 0 <= i < self.n:
                raise InvalidParameterError(f"h index {i} out of range for n={self.n}")
            if v == 0 or not math.isfinite(v):
                raise InvalidParameterError(
                    f"stored bias h[{i}] = {v}, must be finite and nonzero")
        for (a, b), v in self.j.items():
            if a == b:
                raise InvalidParameterError(f"self-pair ({a},{b}) in J")
            if a > b:
                raise InvalidParameterError(f"non-canonical pair ({a},{b}) in J")
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise InvalidParameterError(f"J pair ({a},{b}) out of range for n={self.n}")
            if v == 0 or not math.isfinite(v):
                raise InvalidParameterError(
                    f"stored coupling J[{a},{b}] = {v}, must be finite and nonzero")
        # bounds every site weight and every partial sum of an energy
        scale = sum(map(abs, self.h.values())) + sum(map(abs, self.j.values()))
        if not math.isfinite(scale):
            raise InvalidParameterError(
                f"sum of |h| and |J| is {scale}; it must be finite")


def make_problem_reference(n: int, h: Mapping[int, float] | None = None,
                           j: Mapping[Pair, float] | None = None) -> ProblemReference:
    """Canonicalize coefficients (order pairs, drop exact zeros) and validate."""
    hh = {int(i): float(v) for i, v in (h or {}).items() if v != 0}
    jj: dict[Pair, float] = {}
    for (a, b), v in (j or {}).items():
        if v == 0:
            continue
        e = canonical_edge(int(a), int(b))
        if e in jj:
            raise InvalidParameterError(f"duplicate coupling for pair {e}")
        jj[e] = float(v)
    return ProblemReference(n=int(n), h=hh, j=jj)


def terms_reference(p: ProblemReference) -> tuple[np.ndarray, ...]:
    """The coefficients as arrays, in the order of ``p.h`` and ``p.j``: h
    indices, h values, J first ends, J second ends and J values.  This is
    the one place a problem's dicts become arrays."""
    ends = np.fromiter(chain.from_iterable(p.j), dtype=np.intp, count=2 * len(p.j))
    return (np.fromiter(p.h.keys(), dtype=np.intp, count=len(p.h)),
            np.fromiter(p.h.values(), dtype=np.float64, count=len(p.h)),
            ends[0::2], ends[1::2],
            np.fromiter(p.j.values(), dtype=np.float64, count=len(p.j)))


def gauge_transform_reference(p: ProblemReference, t: np.ndarray) -> ProblemReference:
    """Apply the gauge J_ij -> J_ij t_i t_j, h_i -> h_i t_i.

    Energies satisfy E'(s * t) = E(s) for every configuration, so spectra are
    preserved exactly.
    """
    t = as_spins(t, p.n)
    h = {i: v * float(t[i]) for i, v in p.h.items()}
    j = {e: v * float(t[e[0]]) * float(t[e[1]]) for e, v in p.j.items()}
    return make_problem_reference(p.n, h, j)


def replicate_reference(p: ProblemReference, partition: "ReplicaPartition") -> ReplicatedProblem:
    """Compose k identical copies of ``p`` over the partition's regions.

    Energies are additive: for any joint configuration the total equals the
    sum of the per-replica energies of ``p``, and no couplers cross replica
    boundaries.
    """
    n_l = p.n
    if n_l > partition.n_logical:
        raise EmbeddingInfeasibleError(
            f"problem has {n_l} variables but regions admit {partition.n_logical}")
    edges = set(logical_edges(partition))
    missing = [e for e in p.j if e not in edges]
    if missing:
        raise EmbeddingInfeasibleError(
            f"region structure lacks couplers for logical edges {sorted(missing)[:5]}")

    h: dict[int, float] = {}
    j: dict[Pair, float] = {}
    placement: dict[int, int] = {}
    for r in range(partition.k):
        iso = iso_maps(partition)[r]
        base = r * n_l
        for v in range(n_l):
            placement[base + v] = iso[v]
        for i, val in p.h.items():
            h[base + i] = val
        for (a, b), val in p.j.items():
            j[(base + a, base + b)] = val
    rep = ProblemReference(n=partition.k * n_l, h=h, j=j)
    return ReplicatedProblem(problem=rep, k=partition.k, n_logical=n_l,
                             placement=placement)


def problem_to_dict_reference(p: ProblemReference) -> dict:
    return {
        "n": p.n,
        "h": {str(i): v for i, v in sorted(p.h.items())},
        "J": {f"{a},{b}": v for (a, b), v in sorted(p.j.items())},
    }


def problem_hash_reference(p: ProblemReference) -> str:
    """sha256 of ``json.dumps(problem_to_dict(p), sort_keys=True)``; the
    dicts are built unsorted, since sort_keys puts every key in order."""
    payload = {"n": p.n, "h": {str(i): v for i, v in p.h.items()},
               "J": {f"{a},{b}": v for (a, b), v in p.j.items()}}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@dataclass(frozen=True)
class QacProblemReference:
    """Physical problem realizing a logical one on a K_{1,3} encoding.

    Dense variable layout is unit-major: variables 4u..4u+2 are unit u's
    problem qubits, 4u+3 its penalty hub.  ``placement`` maps dense variables
    to hardware qubits.
    """

    problem: IsingProblem
    n_logical: int
    alpha: float
    placement: dict[int, int]


def build_qac_problem_reference(logical: IsingProblem, enc: QacEncodingReference,
                                alpha: float = -1.0) -> QacProblemReference:
    """Spread a logical problem over an encoding's units.

    Each logical bias h_i goes on all three problem qubits of unit i; each
    logical coupling J_ij is split as 3*J_ij / multiplicity over the physical
    couplers of that logical edge.  A fully aligned physical state then has
    exactly 3x the logical energy, whatever the coupler multiplicities, which
    keeps the penalty scale comparable across encodings.  Penalty couplers
    carry ``alpha`` (= 0 disables the penalty and decouples the hubs).
    """
    if alpha > 0:
        raise InvalidParameterError(f"penalty weight must be <= 0, got {alpha}")
    if logical.n > enc.n_logical:
        raise ContractError(
            f"logical problem has {logical.n} variables, encoding only {enc.n_logical} units")
    missing = [e for e in logical.j if e not in enc.logical_edges]
    if missing:
        raise ContractError(
            f"encoding lacks logical edges {sorted(missing)[:5]}")

    n_phys = 4 * logical.n
    h: dict[int, float] = {}
    j: dict[tuple[int, int], float] = {}
    placement: dict[int, int] = {}
    qubit_to_var: dict[int, int] = {}
    for u in range(logical.n):
        unit = enc.units[u]
        for copy, q in enumerate(unit.problem_qubits):
            placement[4 * u + copy] = q
            qubit_to_var[q] = 4 * u + copy
        placement[4 * u + 3] = unit.penalty_qubit
        qubit_to_var[unit.penalty_qubit] = 4 * u + 3

    for i, v in logical.h.items():
        for copy in range(3):
            h[4 * i + copy] = v

    for (a, b), v in logical.j.items():
        couplers = enc.logical_edges[(a, b)]
        share = 3.0 * v / len(couplers)
        for qa, qb in couplers:
            va, vb = qubit_to_var[qa], qubit_to_var[qb]
            key = (va, vb) if va < vb else (vb, va)
            j[key] = j.get(key, 0.0) + share

    if alpha != 0:
        for u in range(logical.n):
            for copy in range(3):
                j[(4 * u + copy, 4 * u + 3)] = alpha

    return QacProblemReference(problem=make_problem(n_phys, h, j),
                               n_logical=logical.n, alpha=alpha, placement=placement)
