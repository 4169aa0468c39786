"""Ising problems, energy evaluation and k-replica composition.

A problem is a sparse quadratic form over spins s_i in {-1,+1}:

    E(s) = sum_{i<j} J_ij s_i s_j + sum_i h_i s_i

Variables are dense ids 0..n-1.  Replicated problems keep dense ids too and
carry a placement map back to physical qubits, which is what the decoder and
the noise model need.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from .errors import (DimensionMismatchError, EmbeddingInfeasibleError,
                     InvalidParameterError)
from .jsonio import loader
from .topology import canonical_edge

if TYPE_CHECKING:  # pragma: no cover
    from .embedding import ReplicaPartition

Pair = tuple[int, int]


@dataclass(frozen=True)
class IsingProblem:
    """Sparse Ising problem; zero coefficients are never stored."""

    n: int
    h: dict[int, float] = field(default_factory=dict)
    j: dict[Pair, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 0:
            raise InvalidParameterError(f"variable count must be >= 0, got {self.n}")
        for i, v in self.h.items():
            if not 0 <= i < self.n:
                raise InvalidParameterError(f"h index {i} out of range for n={self.n}")
            if v == 0:
                raise InvalidParameterError(f"stored zero bias at h[{i}]")
        for (a, b), v in self.j.items():
            if a == b:
                raise InvalidParameterError(f"self-pair ({a},{b}) in J")
            if a > b:
                raise InvalidParameterError(f"non-canonical pair ({a},{b}) in J")
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise InvalidParameterError(f"J pair ({a},{b}) out of range for n={self.n}")
            if v == 0:
                raise InvalidParameterError(f"stored zero coupling at J[{a},{b}]")


def make_problem(n: int, h: Mapping[int, float] | None = None,
                 j: Mapping[Pair, float] | None = None) -> IsingProblem:
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
    return IsingProblem(n=int(n), h=hh, j=jj)


def as_spins(values: Iterable[int], n: int | None = None) -> np.ndarray:
    """Validate a spin configuration: every entry exactly -1 or +1."""
    # checked before the int8 cast, which raises OverflowError on 300 and truncates 1.5 to 1
    s = np.asarray(list(values) if not isinstance(values, np.ndarray) else values)
    if s.ndim != 1:
        raise DimensionMismatchError(f"spin configuration must be 1-d, got shape {s.shape}")
    if n is not None and s.shape[0] != n:
        raise DimensionMismatchError(f"expected {n} spins, got {s.shape[0]}")
    if s.size and not np.all(np.abs(s) == 1):
        bad = int(np.flatnonzero(np.abs(s) != 1)[0])
        raise InvalidParameterError(f"spin {bad} is {s[bad]}, must be -1 or +1")
    return s.astype(np.int8, copy=False)


def energy(p: IsingProblem, s: np.ndarray) -> float:
    """E(s) for a single configuration, evaluated exactly as written."""
    s = as_spins(s, p.n)
    total = 0.0
    sf = s.astype(np.float64)
    for i, v in p.h.items():
        total += v * sf[i]
    for (a, b), v in p.j.items():
        total += v * sf[a] * sf[b]
    return float(total)


def energies(p: IsingProblem, states: np.ndarray) -> np.ndarray:
    """Vectorized energies for a (reads, n) array of +-1 spin configurations.

    Spins are gathered and multiplied as int8, where a product of +-1 values
    is exact, and cast to float64 once, so the gemv sees the same matrix as a
    float64 product would give while only one (reads x couplers) float64
    array is held.
    """
    states = np.asarray(states)
    if states.ndim != 2 or states.shape[1] != p.n:
        raise DimensionMismatchError(
            f"states must have shape (reads, {p.n}), got {states.shape}")
    s8 = states.astype(np.int8, copy=False)
    out = np.zeros(states.shape[0])
    if p.j:
        ii = np.fromiter((a for a, _ in p.j), dtype=np.intp, count=len(p.j))
        jj = np.fromiter((b for _, b in p.j), dtype=np.intp, count=len(p.j))
        jv = np.fromiter(p.j.values(), dtype=np.float64, count=len(p.j))
        out += (s8[:, ii] * s8[:, jj]).astype(np.float64) @ jv
    if p.h:
        hi = np.fromiter(p.h.keys(), dtype=np.intp, count=len(p.h))
        hv = np.fromiter(p.h.values(), dtype=np.float64, count=len(p.h))
        out += s8[:, hi].astype(np.float64) @ hv
    return out


def gauge_transform(p: IsingProblem, t: np.ndarray) -> IsingProblem:
    """Apply the gauge J_ij -> J_ij t_i t_j, h_i -> h_i t_i.

    Energies satisfy E'(s * t) = E(s) for every configuration, so spectra are
    preserved exactly.
    """
    t = as_spins(t, p.n)
    h = {i: v * float(t[i]) for i, v in p.h.items()}
    j = {e: v * float(t[e[0]]) * float(t[e[1]]) for e, v in p.j.items()}
    return make_problem(p.n, h, j)


@dataclass(frozen=True)
class ReplicatedProblem:
    """k disjoint copies of a problem, one per replica region.

    Dense variable layout is replica-major: variable ``r * n_logical + v`` is
    logical variable ``v`` of replica ``r``.  ``placement`` maps each dense
    variable to the physical qubit that hosts it.
    """

    problem: IsingProblem
    k: int
    n_logical: int
    placement: dict[int, int]


def replicate(p: IsingProblem, partition: "ReplicaPartition") -> ReplicatedProblem:
    """Compose k identical copies of ``p`` over the partition's regions.

    Energies are additive: for any joint configuration the total equals the
    sum of the per-replica energies of ``p``, and no couplers cross replica
    boundaries.
    """
    n_l = p.n
    if n_l > partition.n_logical:
        raise EmbeddingInfeasibleError(
            f"problem has {n_l} variables but regions admit {partition.n_logical}")
    missing = [e for e in p.j if e not in partition.logical_edges]
    if missing:
        raise EmbeddingInfeasibleError(
            f"region structure lacks couplers for logical edges {sorted(missing)[:5]}")

    h: dict[int, float] = {}
    j: dict[Pair, float] = {}
    placement: dict[int, int] = {}
    for r in range(partition.k):
        iso = partition.iso_maps[r]
        base = r * n_l
        for v in range(n_l):
            placement[base + v] = iso[v]
        for i, val in p.h.items():
            h[base + i] = val
        for (a, b), val in p.j.items():
            j[(base + a, base + b)] = val
    rep = IsingProblem(n=partition.k * n_l, h=h, j=j)
    return ReplicatedProblem(problem=rep, k=partition.k, n_logical=n_l,
                             placement=placement)


# ---------------------------------------------------------------------------
# Serialization

def problem_to_dict(p: IsingProblem) -> dict:
    return {
        "n": p.n,
        "h": {str(i): v for i, v in sorted(p.h.items())},
        "J": {f"{a},{b}": v for (a, b), v in sorted(p.j.items())},
    }


@loader("problem")
def problem_from_dict(data: dict) -> IsingProblem:
    h = {int(i): float(v) for i, v in data.get("h", {}).items()}
    j = {}
    for key, v in data.get("J", {}).items():
        a, b = key.split(",")
        j[(int(a), int(b))] = float(v)
    return make_problem(int(data["n"]), h, j)


def problem_hash(p: IsingProblem) -> str:
    blob = json.dumps(problem_to_dict(p), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()
