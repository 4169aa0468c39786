"""Ising problems, energy evaluation and k-replica composition.

A problem is a sparse quadratic form over spins s_i in {-1,+1}:

    E(s) = sum_{i<j} J_ij s_i s_j + sum_i h_i s_i

Coefficients are finite, and so is the sum of their magnitudes, which bounds
every energy and every partial sum of one.  Every energy the package computes
comes from `energies`, so equal configurations of equal problems have equal
energies.

Variables are dense ids 0..n-1.  Replicated problems keep dense ids too and
carry a placement map back to physical qubits, which is what the decoder and
the noise model need.
"""

from __future__ import annotations

import hashlib
import json
import math
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

_ENERGY_BUDGET = 1 << 20  # float64 entries `energies` holds at once


@dataclass(frozen=True)
class IsingProblem:
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
    """E(s) for a single configuration: the one-read call of `energies`."""
    return float(energies(p, as_spins(s, p.n)[None, :])[0])


def energies(p: IsingProblem, states: np.ndarray) -> np.ndarray:
    """Energies of a (reads, n) array of +-1 spin configurations.

    A read's energy is its h terms by index, then its J terms by pair (the
    order `problem_to_dict` writes), added left to right from the first
    term.  It depends only on the problem's contents and that read, not on
    the batch, the layout or the order the problem's dicts were filled in.
    Terms are scored a block at a time in a C-ordered float64 matrix of at
    most `_ENERGY_BUDGET` entries: its first row holds the sums so far, the
    others a block of exact terms, one column per read, and numpy reduces it
    over axis 0 row after row.  So each read's sum runs left to right across
    blocks as in one (terms, reads) matrix; it starts at 0.0, and 0.0 plus
    the first term is that term.  An always-zero last column keeps a lone
    read off the pairwise sum numpy gives one column.
    """
    states = np.asarray(states)
    if states.ndim != 2 or states.shape[1] != p.n:
        raise DimensionMismatchError(
            f"states must have shape (reads, {p.n}), got {states.shape}")
    reads = states.shape[0]
    # spin rows, and a row of +1 at index n: h term i is h_i s_i s_n
    st = np.ones((p.n + 1, reads), dtype=np.int8)
    st[:p.n] = states.T  # +-1 products are exact
    hi = np.fromiter(p.h.keys(), dtype=np.intp, count=len(p.h))
    hv = np.fromiter(p.h.values(), dtype=np.float64, count=len(p.h))
    ii = np.fromiter((a for a, _ in p.j), dtype=np.intp, count=len(p.j))
    jj = np.fromiter((b for _, b in p.j), dtype=np.intp, count=len(p.j))
    jv = np.fromiter(p.j.values(), dtype=np.float64, count=len(p.j))
    ho, jo = np.argsort(hi), np.lexsort((jj, ii))
    first = np.concatenate([hi[ho], ii[jo]])
    second = np.concatenate([np.full(len(hi), p.n), jj[jo]])
    value = np.concatenate([hv[ho], jv[jo]])[:, None]

    # blocks of `width` reads (and the zero column) by `rows` terms (and the sums row)
    width = max(1, min(reads, _ENERGY_BUDGET // 2))
    rows = max(1, min(len(value), _ENERGY_BUDGET // (width + 1) - 1))
    matrix = np.empty((rows + 1, width + 1))
    out = np.empty(reads)
    for start in range(0, reads, width):
        s = st[:, start:start + width]
        w = s.shape[1]
        total = np.zeros(w + 1)
        for t in range(0, len(value), rows):
            block = matrix[:min(rows, len(value) - t) + 1, :w + 1]
            block[0] = total
            block[1:, w] = 0.0
            np.multiply(s[first[t:t + rows]] * s[second[t:t + rows]],
                        value[t:t + rows], out=block[1:, :w])
            np.add.reduce(block, axis=0, out=total)
        out[start:start + w] = total[:w]
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
