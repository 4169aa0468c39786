"""Ising problems, energy evaluation and k-replica composition.

A problem is a sparse quadratic form over spins s_i in {-1,+1}:

    E(s) = sum_{i<j} J_ij s_i s_j + sum_i h_i s_i

Coefficients are finite, and so is the sum of their magnitudes, which bounds
every energy and every partial sum of one.  Every energy the package computes
comes from `energies`, so equal configurations of equal problems have equal
energies.

A problem is its term arrays, kept in the order they are given; ``==``
compares ``n`` and the terms in canonical order, h by index and J by pair,
which is also the order `energies` sums and `problem_to_dict` writes them in.

Variables are dense ids 0..n-1.  Replicated problems keep dense ids too and
carry a placement array, the physical qubit of each variable, which is what
the decoder and the noise model need.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from .errors import (DimensionMismatchError, EmbeddingInfeasibleError,
                     InvalidParameterError)
from .jsonio import index_keys, integer, loader, numbers
from .topology import frozen

if TYPE_CHECKING:  # pragma: no cover
    from .embedding import ReplicaPartition

Pair = tuple[int, int]

_ENERGY_BUDGET = 1 << 20  # float64 entries `energies` holds at once


@dataclass(frozen=True, eq=False)
class IsingProblem:
    """Sparse Ising problem stored as its term arrays: h indices and values,
    and J first ends, second ends and values with first < second.

    Coefficients are finite and never zero, no index or pair repeats, and the
    sum of their magnitudes is finite.  The terms keep the order they are
    given in, which is the order the annealer sums each local field in.  The
    arrays are read-only copies, and ``==`` compares the terms in canonical
    order, so it ignores the stored one.
    """

    n: int
    h_index: np.ndarray
    h_value: np.ndarray
    j_first: np.ndarray
    j_second: np.ndarray
    j_value: np.ndarray

    def __post_init__(self):
        n = self.n
        if n < 0:
            raise InvalidParameterError(f"variable count must be >= 0, got {n}")
        for name, dtype in _TERM_FIELDS.items():
            # a float index or a string value would be cast silently
            a = np.asarray(getattr(self, name))
            if a.ndim != 1 or (a.size and not np.can_cast(a.dtype, dtype, "same_kind")):
                raise InvalidParameterError(f"{name} must be 1-d {dtype.__name__}, "
                                            f"got {a.dtype} of shape {a.shape}")
            a = a.astype(dtype)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        hi, hv, a, b, jv = (self.h_index, self.h_value, self.j_first, self.j_second,
                            self.j_value)
        if hi.shape != hv.shape or not a.shape == b.shape == jv.shape:
            raise InvalidParameterError(
                f"term arrays of lengths {[len(x) for x in (hi, hv, a, b, jv)]}; "
                f"h needs two and J three of one length each")
        _refuse((hi < 0) | (hi >= n), lambda t: f"h index {hi[t]} out of range for n={n}")
        _refuse(np.bincount(hi)[hi] > 1, lambda t: f"h index {hi[t]} given twice")
        _refuse((hv == 0) | ~np.isfinite(hv),
                lambda t: f"stored bias h[{hi[t]}] = {hv[t]}, must be finite and nonzero")
        _refuse(a == b, lambda t: f"self-pair ({a[t]},{b[t]}) in J")
        _refuse(a > b, lambda t: f"non-canonical pair ({a[t]},{b[t]}) in J")
        _refuse((a < 0) | (b >= n), lambda t: f"J pair ({a[t]},{b[t]}) out of range for n={n}")
        base = int(b.max(initial=0)) + 1  # sorted codes a*base + b put equal pairs side by side
        codes = np.sort(a * base + b)
        _refuse(codes[1:] == codes[:-1],
                lambda t: f"duplicate coupling for pair {divmod(int(codes[t]), base)}")
        _refuse((jv == 0) | ~np.isfinite(jv), lambda t: f"stored coupling "
                f"J[{a[t]},{b[t]}] = {jv[t]}, must be finite and nonzero")
        # bounds every site weight and every partial sum of an energy; cumsum
        # adds left to right in stored order, as Python's sum does
        with np.errstate(over="ignore"):
            hs, js = (float(np.cumsum(np.abs(v))[-1]) if v.size else 0.0 for v in (hv, jv))
        if not math.isfinite(hs + js):
            raise InvalidParameterError(
                f"sum of |h| and |J| is {hs + js}; it must be finite")

    def __eq__(self, other):
        if not isinstance(other, IsingProblem):
            return NotImplemented
        return self.n == other.n and all(
            map(np.array_equal, _sorted_terms(self), _sorted_terms(other)))

    def __reduce__(self):
        # through the constructor: an unpickled array would be writable
        return IsingProblem, (self.n, self.h_index, self.h_value, self.j_first,
                              self.j_second, self.j_value)


_TERM_FIELDS = {"h_index": np.intp, "h_value": np.float64, "j_first": np.intp,
                "j_second": np.intp, "j_value": np.float64}


def _sorted_terms(p: IsingProblem) -> tuple[np.ndarray, ...]:
    """The five term arrays with h sorted by index and J by pair."""
    ho, jo = np.argsort(p.h_index), np.lexsort((p.j_second, p.j_first))
    return (p.h_index[ho], p.h_value[ho], p.j_first[jo], p.j_second[jo], p.j_value[jo])


def _refuse(bad: np.ndarray, message) -> None:
    """InvalidParameterError naming the first term flagged in ``bad``."""
    if bad.any():
        raise InvalidParameterError(message(int(bad.argmax())))


def make_problem(n: int, h: Mapping[int, float] | None = None,
                 j: Mapping[Pair, float] | None = None) -> IsingProblem:
    """Canonicalize coefficients (order pairs, drop exact zeros) and validate."""
    h, j = h or {}, j or {}
    ends = np.fromiter(chain.from_iterable(j), dtype=np.intp, count=2 * len(j))
    return _canonical(int(n), np.fromiter(h, dtype=np.intp, count=len(h)),
                      np.fromiter(h.values(), dtype=np.float64, count=len(h)),
                      ends[0::2], ends[1::2],
                      np.fromiter(j.values(), dtype=np.float64, count=len(j)))


def _canonical(n: int, hi, hv, a, b, jv) -> IsingProblem:
    """The problem of these term arrays with exact zeros dropped and each
    pair's lower end first, so a pair given in both orders is a duplicate."""
    hk, jk = hv != 0, jv != 0
    a, b = a[jk], b[jk]
    return IsingProblem(n, hi[hk], hv[hk], np.minimum(a, b), np.maximum(a, b), jv[jk])


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
    the batch, the layout or the order the problem's terms are stored in.
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
    hi, hv, ii, jj, jv = _sorted_terms(p)
    first = np.concatenate([hi, ii])
    second = np.concatenate([np.full(len(hi), p.n), jj])
    value = np.concatenate([hv, jv])[:, None]

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
    t = as_spins(t, p.n).astype(np.float64)
    return IsingProblem(p.n, p.h_index, p.h_value * t[p.h_index], p.j_first, p.j_second,
                        p.j_value * t[p.j_first] * t[p.j_second])


@dataclass(frozen=True)
class ReplicatedProblem:
    """k disjoint copies of a problem, one per replica region.

    Dense variable layout is replica-major: variable ``r * n_logical + v`` is
    logical variable ``v`` of replica ``r``, and the read-only int64 array
    ``placement`` holds the physical qubit hosting each dense variable.
    """

    problem: IsingProblem
    k: int
    n_logical: int
    placement: np.ndarray


def replicate(p: IsingProblem, partition: "ReplicaPartition") -> ReplicatedProblem:
    """Compose k identical copies of ``p`` over the partition's regions.

    Energies are additive: for any joint configuration the total equals the
    sum of the per-replica energies of ``p``, and no couplers cross replica
    boundaries.
    """
    n_l, k = p.n, partition.k
    if n_l > partition.n_logical:
        raise EmbeddingInfeasibleError(
            f"problem has {n_l} variables but regions admit {partition.n_logical}")
    codes = p.j_first * partition.n_logical + p.j_second
    missing = np.sort(codes[~np.isin(codes, partition.edge_codes)])
    if missing.size:
        a, b = np.divmod(missing[:5], partition.n_logical)
        raise EmbeddingInfeasibleError(f"region structure lacks couplers for logical "
                                       f"edges {list(zip(a.tolist(), b.tolist()))}")

    base = np.arange(k)[:, None] * n_l  # replica-major: replica r's terms, then r + 1's
    rep = IsingProblem(k * n_l, (base + p.h_index).ravel(), np.tile(p.h_value, k),
                       (base + p.j_first).ravel(), (base + p.j_second).ravel(),
                       np.tile(p.j_value, k))
    return ReplicatedProblem(problem=rep, k=k, n_logical=n_l,
                             placement=frozen(partition.images[:, :n_l].ravel()))


# ---------------------------------------------------------------------------
# Serialization

def problem_to_dict(p: IsingProblem) -> dict:
    """The problem's payload: h keyed by ``"i"``, J by ``"a,b"``, each
    sorted by index."""
    hi, hv, a, b, jv = _sorted_terms(p)
    return {
        "n": p.n,
        "h": dict(zip(map(str, hi.tolist()), hv.tolist())),
        "J": dict(zip(map("{},{}".format, a.tolist(), b.tolist()), jv.tolist())),
    }


@loader("problem")
def problem_from_dict(data: dict) -> IsingProblem:
    """The problem of a payload whose keys, ``"i"`` for h and ``"a,b"`` for
    J, are canonical decimals (`jsonio.index_keys`) and whose coefficients
    are JSON numbers."""
    h, j = data.get("h", {}), data.get("J", {})
    ends = np.array(index_keys(j, 2), dtype=np.intp).reshape(-1, 2)
    return _canonical(integer(data["n"]), np.array(index_keys(h), dtype=np.intp),
                      np.array(numbers(h.values()), dtype=np.float64), ends[:, 0], ends[:, 1],
                      np.array(numbers(j.values()), dtype=np.float64))


def problem_hash(p: IsingProblem) -> str:
    """sha256 of ``json.dumps(problem_to_dict(p), sort_keys=True)``."""
    return hashlib.sha256(json.dumps(problem_to_dict(p), sort_keys=True).encode()).hexdigest()
