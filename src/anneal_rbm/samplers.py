"""Sample producers: a noise-injecting simulated annealer, an exact oracle,
and a file bridge for out-of-process samplers.

The annealer runs independent single-spin-flip Metropolis chains, one per
read, over a geometric temperature ladder.  A sweep updates spins 0..n-1 in
index order, scheduled by levels: spin j's level is one more than the
highest level among its neighbours i < j (0 if it has none).  The states are
stored spin by spin, one row of all reads per spin, in update order, so a
level is a contiguous block of rows.  A level makes one gemv per degree for
its local fields, then one accept test and flip of all its rows, in place:
the new spin is the sign of (u - exp(-d_e / T)) * s, taken by `np.copysign`,
and the exponent is floored at -700 unless a uniform is exactly 0.0, the
only one that floor could change a test for.  Spins of a level share no
coupler, and when a level runs, every lower neighbour of its spins has been
updated and no higher neighbour has, so each spin sees the same state, and
draws the same uniform, as in the one-spin-at-a-time sweep: it is still
that sequential sweep, with identical reads.  Each read consumes its own
PCG64 substream keyed by (seed, read index), so its initial state and its
uniforms do not depend on the batch size or the chunking.  Its local fields
do, in the last bit: a field is a row of a gemv over all reads, and with
OpenBLAS a row's last bit can depend on the row count once a spin has 4 or
more neighbours.  So a read is reproduced exactly by a call with the same
num_reads; a call with another count gives the same read unless a one-bit
field difference flips one of its accept tests.  Noise perturbs the problem
the chains see; reported energies are always evaluated on the clean problem.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import (DimensionMismatchError, FormatError,
                     InvalidParameterError)
from .ising import IsingProblem, as_spins, energies, problem_hash
from .jsonio import integer, integers, loader, numbers, read_json

log = logging.getLogger(__name__)

# uniforms held in memory at once: 2 MiB, the largest buffer of an anneal,
# so whether the allocator can reuse freed memory for it moves peak RSS little
_SWEEP_CHUNK_BUDGET = 262_144
_GATHER_BUDGET = 65_536  # neighbour states one gemv step gathers at once


@dataclass(frozen=True)
class AnnealParams:
    """Annealer call parameters; sweeps is the classical stand-in for
    annealing time (the hardware default of 100 us maps to 1000 sweeps)."""

    num_reads: int = 100
    sweeps: int = 1000
    seed: int = 0
    t_hot: float | None = None
    t_cold: float | None = None

    def __post_init__(self):
        if self.num_reads < 1:
            raise InvalidParameterError(f"num_reads must be >= 1, got {self.num_reads}")
        if self.sweeps < 1:
            raise InvalidParameterError(f"sweeps must be >= 1, got {self.sweeps}")
        if self.t_hot is not None and self.t_cold is not None:
            if not self.t_hot > self.t_cold > 0:
                raise InvalidParameterError(
                    f"need t_hot > t_cold > 0, got ({self.t_hot}, {self.t_cold})")


@dataclass(frozen=True)
class NoiseModel:
    """Persistent hardware imperfections, fixed by chip_seed.

    Per-qubit linear offsets (sigma_h), multiplicative coupler errors
    (sigma_j) and constant per-region linear offsets.  The perturbation is a
    pure function of the chip seed and the hardware placement, so it persists
    across calls, and the same logical problem placed in two regions sees
    offsets differing exactly by the region-bias delta.

    Qubit q's offset is one normal draw from the stream (chip_seed,
    STREAM_NOISE_H, q), and the factor of a coupler on qubits qa < qb one
    from (chip_seed, STREAM_NOISE_J, qa, qb).  `perturb` seeds all of a
    call's streams in one batch (`rng.streams`); its values equal those of
    building each keyed stream alone with `rng.stream`.
    """

    sigma_h: float = 0.0
    sigma_j: float = 0.0
    chip_seed: int = 0
    region_bias: tuple[tuple[frozenset[int], float], ...] = ()

    def __post_init__(self):
        if not (np.isfinite(self.sigma_h) and np.isfinite(self.sigma_j)):
            raise InvalidParameterError(
                f"noise std-devs must be finite, got ({self.sigma_h}, {self.sigma_j})")
        if self.sigma_h < 0 or self.sigma_j < 0:
            raise InvalidParameterError("noise std-devs must be >= 0")
        for _, delta in self.region_bias:
            if not np.isfinite(delta):
                raise InvalidParameterError(f"region bias delta must be finite, got {delta}")

    def perturb(self, p: IsingProblem, placement: np.ndarray | None) -> IsingProblem:
        """The problem as the hardware sees it, variable v sitting on qubit
        ``placement[v]`` (on qubit v without a placement)."""
        if placement is None and self.region_bias:
            raise InvalidParameterError("placement required when region_bias is nonempty")
        qubit = np.arange(p.n) if placement is None else np.asarray(placement, dtype=np.int64)
        if qubit.shape != (p.n,):
            raise DimensionMismatchError(f"placement of shape {qubit.shape} for {p.n} variables")

        with np.errstate(over="ignore"):  # IsingProblem refuses a term that overflows
            off = np.zeros(p.n)
            if self.sigma_h:
                off += _normals(rng.streams(self.chip_seed, rng.STREAM_NOISE_H, qubit),
                                self.sigma_h, p.n)
            for qubits, delta in self.region_bias:
                off[np.isin(qubit, np.fromiter(qubits, dtype=np.int64))] += delta
            # each h term moves by its offset in place, and a moved spin
            # without one gains a term after them, in index order
            added = np.setdiff1d(np.flatnonzero(off), p.h_index, assume_unique=True)
            hi = np.concatenate([p.h_index, added])
            hv = np.concatenate([p.h_value + off[p.h_index], off[added]])

            jv = p.j_value
            if self.sigma_j and jv.size:
                # each coupler's qubits in increasing order
                couplers = np.sort(qubit[np.stack([p.j_first, p.j_second], axis=1)], axis=1)
                jv = jv * (1.0 + _normals(rng.streams(self.chip_seed, rng.STREAM_NOISE_J,
                                                      couplers), self.sigma_j, jv.size))
        # p is canonical, so dropping exact zeros is all make_problem would do
        hk, jk = hv != 0, jv != 0
        return IsingProblem(p.n, hi[hk], hv[hk], p.j_first[jk], p.j_second[jk], jv[jk])


def _normals(gens, sigma: float, count: int) -> np.ndarray:
    """One N(0, sigma) draw from each generator, in order."""
    return np.fromiter((g.normal(0.0, sigma) for g in gens),
                       dtype=np.float64, count=count)


def region_biases(regions, deltas) -> tuple[tuple[frozenset[int], float], ...]:
    """Pair replica regions with constant linear offsets."""
    regions = list(regions)
    deltas = list(deltas)
    if len(regions) != len(deltas):
        raise InvalidParameterError(
            f"{len(regions)} regions but {len(deltas)} bias deltas")
    return tuple((frozenset(r), float(d)) for r, d in zip(regions, deltas))


def noise_to_dict(nm: NoiseModel) -> dict:
    return {
        "sigma_h": nm.sigma_h,
        "sigma_j": nm.sigma_j,
        "chip_seed": nm.chip_seed,
        "region_bias": [{"qubits": sorted(q), "delta": d} for q, d in nm.region_bias],
    }


@loader("noise", keys=tuple(noise_to_dict(NoiseModel())))
def noise_from_dict(data: dict) -> NoiseModel:
    sigma_h, sigma_j = numbers([data.get("sigma_h", 0.0), data.get("sigma_j", 0.0)])
    return NoiseModel(
        sigma_h=float(sigma_h), sigma_j=float(sigma_j),
        chip_seed=integer(data.get("chip_seed", 0)),
        region_bias=tuple((frozenset(integers(rb["qubits"])), float(numbers([rb["delta"]])[0]))
                          for rb in data.get("region_bias", ())))


@dataclass(frozen=True)
class SampleSet:
    """Reads plus their clean-problem energies and sampler metadata."""

    reads: np.ndarray
    energies: np.ndarray
    sampler: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.reads.ndim != 2:
            raise DimensionMismatchError(f"reads must be 2-d, got {self.reads.shape}")
        if self.reads.size and not np.all(np.abs(self.reads) == 1):
            raise InvalidParameterError("reads contain entries other than -1/+1")
        if self.energies.shape != (self.reads.shape[0],):
            raise DimensionMismatchError("one energy per read required")

    @property
    def num_reads(self) -> int:
        return self.reads.shape[0]

    def best(self) -> tuple[int, float]:
        """(read index, energy) of the lowest-energy read; first index wins ties."""
        idx = int(np.argmin(self.energies))
        return idx, float(self.energies[idx])


def _temperature_ladder(p: IsingProblem, params: AnnealParams) -> np.ndarray:
    """The geometric ladder from t_hot down to t_cold.  By default t_hot is
    the largest site weight, at least 1, and t_cold 5% of the smallest |h|
    or |J|, at least 1e-6 (1e-2 without terms).  A site's weight is its |h|
    plus the |J| of each of its couplers, added in stored term order."""
    hv, jv = np.abs(p.h_value), np.abs(p.j_value)
    ends = np.concatenate([p.h_index, np.stack([p.j_first, p.j_second], axis=1).ravel()])
    site = np.bincount(ends, weights=np.concatenate([hv, np.repeat(jv, 2)]))
    scale = np.concatenate([hv, jv])
    t_hot = params.t_hot if params.t_hot is not None else max(float(site.max(initial=0)), 1.0)
    t_cold = params.t_cold if params.t_cold is not None else \
        max(0.05 * float(scale.min()), 1e-6) if scale.size else 1e-2
    if not t_hot > t_cold > 0:
        raise InvalidParameterError(f"derived schedule invalid: ({t_hot}, {t_cold})")
    if params.sweeps == 1:
        return np.array([t_cold])
    ratio = (t_cold / t_hot) ** (1.0 / (params.sweeps - 1))
    return t_hot * ratio ** np.arange(params.sweeps)


def _spin_levels(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """level[j] = 1 + max(level[i]) over the neighbours i < j of spin j, or
    0 when it has none; coupler c joins spins lo[c] < hi[c].

    Longest-path relaxation over the couplers oriented low to high, which
    settles after depth + 1 rounds.
    """
    level = np.zeros(n, dtype=np.intp)
    if not lo.size:
        return level
    order = np.argsort(hi, kind="stable")
    lo, hi = lo[order], hi[order]
    heads, starts = np.unique(hi, return_index=True)
    while True:
        new = np.zeros(n, dtype=np.intp)
        new[heads] = np.maximum.reduceat(level[lo] + 1, starts)
        if np.array_equal(new, level):
            return level
        level = new


def _sweep_plan(p: IsingProblem, reads: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """The sweep of `reads` chains as (order, states, labelled, levels).

    The spin updated k-th, order[k], takes the label k: row k of the (n,
    reads) `states` and column k of the (reads, n) uniforms buffer
    `labelled`, so each level and each step is a contiguous label block.  A
    level is (s, x, u, h, steps): its rows of `states`, of the one
    local-field buffer and of `labelled`.T, its fields h as a column, and
    its gemv steps.  A step is (neighbour labels, gather buffer, its
    transpose, coupler values, out): spins of one degree, at most
    _GATHER_BUDGET gathered states or one row, gathered into a view of one
    array, out their rows of the field buffer.  Each row keeps its own gemv
    call and lists the spin's neighbours in the stored order of the J
    terms, so `np.matmul` makes the BLAS call a one-spin-at-a-time sweep
    makes for each spin, with the same summation order; padding rows to one
    width would change that order and, in the last bit, the local fields.
    """
    hi, hv, a, b, val = p.h_index, p.h_value, p.j_first, p.j_second, p.j_value
    h = np.zeros(p.n)
    h[hi] = hv
    level = _spin_levels(p.n, np.minimum(a, b), np.maximum(a, b))
    ends = np.concatenate([a, b])
    coupler = np.tile(np.arange(len(val)), 2)
    by_end = np.lexsort((coupler, ends))
    others = np.concatenate([b, a])[by_end]
    values = np.concatenate([val, val])[by_end]
    degree = np.bincount(ends, minlength=p.n)
    first = np.cumsum(degree) - degree

    order = np.lexsort((degree, level))
    label = np.argsort(order)
    bounds = np.searchsorted(level[order], np.arange(level.max() + 2)).tolist()
    states = np.empty((p.n, reads))
    labelled = np.empty((reads, p.n))
    fields = np.empty((max(np.diff(bounds)), reads, 1))
    gathered = np.empty(max(_GATHER_BUDGET, degree.max(initial=0) * reads))
    levels = []
    for start, stop in zip(bounds[:-1], bounds[1:]):
        deg = degree[order[start:stop]]
        cuts = (start + np.flatnonzero(np.diff(deg, prepend=-1, append=-1))).tolist()
        steps = []
        for i, j in zip(cuts[:-1], cuts[1:]):
            width = deg[i - start]
            size = max(1, _GATHER_BUDGET // max(1, width * reads))
            for c in range(i, j, size):
                rows = first[order[c:min(c + size, j)], None] + np.arange(width)
                g = gathered[:rows.size * reads].reshape(*rows.shape, reads)
                steps.append((label[others[rows]], g, g.transpose(0, 2, 1),
                              values[rows, None], fields[c - start:c - start + len(rows)]))
        levels.append((states[start:stop], fields[:stop - start, :, 0],
                       labelled[:, start:stop].T, h[order[start:stop], None], steps))
    return order, states, labelled, levels


def _level_fields(states: np.ndarray, steps: list) -> None:
    """Write the coupler part of a level's local fields, one gemv per step.

    `states` is spin-major, (n, reads) with row k the spin labelled k, so a
    step's gather `states.take(nb, axis=0)` is C-ordered (rows, degree,
    reads), and its transpose hands `np.matmul` a column-major (reads,
    degree) matrix per spin with lda = reads: the strides of the
    one-spin-at-a-time sweep's `states[:, idx]`, so each spin gets the same
    dgemv call and the same bits.  (mode="clip" lets `take` write straight
    into the gather buffer; the labels are all in range.)
    """
    for nb, g, g_t, nb_val, out in steps:
        states.take(nb, axis=0, out=g, mode="clip")
        np.matmul(g_t, nb_val, out=out)


def _anneal(p: IsingProblem, temps: np.ndarray, params: AnnealParams) -> np.ndarray:
    """Final (reads, n) int8 states of the Metropolis chains on `p`.

    The states are spin-major, (n, reads) with row k spin order[k], so each
    level is a contiguous block of rows.  A sweep runs a level's gemvs
    (`_level_fields`), then one accept test and flip of all its spins, in
    place on its rows.  Spins of a level share no coupler, and a spin's
    neighbours i < j sit in lower levels, so every spin sees the new values
    of its lower neighbours and the old values of its higher ones, as in a
    sweep over spins 0..n-1.  It draws the same uniform, uniforms[r, t, j],
    and tests it against the same number: 2 * s * local is -d_e exactly for
    s = +-1, and `np.exp` gets a contiguous float64 operand.  The exponent is
    floored at -700 unless the sweep chunk's uniforms hold an exact 0.0,
    which no other uniform can tell from the unfloored one, and a spin flips
    by `np.copysign(1, (u - exp) * s)`, negative exactly where u < exp.  So
    the reads are that sweep's.
    """
    n, reads = p.n, params.num_reads
    order, states, labelled, levels = _sweep_plan(p, reads)
    gens = list(rng.streams(params.seed, rng.STREAM_READ, np.arange(reads)))
    for r, g in enumerate(gens):
        states[:, r] = g.integers(0, 2, n)[order]
    states *= 2.0
    states -= 1

    chunk = max(1, _SWEEP_CHUNK_BUDGET // (reads * n))
    uniforms = np.empty((reads, min(chunk, params.sweeps), n))
    sweep = 0
    # exp(-d_e / temp) >= 1 > u wherever d_e <= 0 (inf where it overflows),
    # so `u < exp` alone is the usual "d_e <= 0 or u < exp(-d_e / temp)" test
    with np.errstate(over="ignore"):
        while sweep < params.sweeps:
            width = min(chunk, params.sweeps - sweep)
            for r, g in enumerate(gens):
                g.random(out=uniforms[r, :width])
            # exp(y) < 2**-53, the smallest nonzero uniform, for y <= -700, so
            # the floor changes no test unless a uniform is exactly 0; it
            # keeps np.exp off its slow path for results near underflow
            floor = -700.0 if uniforms[:, :width].all() else -np.inf
            for t in range(width):
                temp = temps[sweep + t]
                # `labelled` is read-major, so `take` fills it in place
                # (mode="clip" skips its copy of the output: order is a
                # permutation, so nothing is clipped)
                uniforms[:, t].take(order, axis=1, out=labelled, mode="clip")
                for s, x, u, h, steps in levels:
                    # a degree-0 step's matmul writes zeros, so local = h there
                    _level_fields(states, steps)
                    # s * (x + h) * 2 / temp, one operation at a time, in place
                    x += h
                    x *= s
                    x *= 2
                    x /= temp
                    np.maximum(x, floor, out=x)
                    np.exp(x, out=x)
                    # u - exp < 0 exactly where the spin flips; times s, its
                    # sign is the new spin (u == exp gives +-0, which keeps s)
                    np.subtract(u, x, out=x)
                    x *= s
                    np.copysign(1.0, x, out=s)
            sweep += width
    return states.astype(np.int8)[np.argsort(order)].T


def sample_sa(p: IsingProblem, params: AnnealParams,
              noise: NoiseModel | None = None,
              placement: np.ndarray | None = None) -> SampleSet:
    """Run num_reads independent Metropolis anneals of `sweeps` full sweeps.

    The chains anneal the noise-perturbed problem when a noise model is
    given; returned energies are evaluated on the clean problem.  Each
    sweep updates spins 0..n-1 in order, scheduled by levels (see
    `_anneal`), and each read consumes only its own (seed, read) stream:
    results are identical to a one-spin-at-a-time sweep of the same
    num_reads reads.  A read's local fields can differ in the last bit at
    another num_reads (see the module docstring), so its chain is
    guaranteed only at the same count.
    """
    if p.n < 1:
        raise InvalidParameterError("cannot sample an empty problem")
    annealed = noise.perturb(p, placement) if noise is not None else p
    temps = _temperature_ladder(annealed, params)
    final = _anneal(annealed, temps, params)
    clean_energies = energies(p, final)
    meta = {
        "num_reads": params.num_reads, "sweeps": params.sweeps,
        "seed": params.seed, "t_hot": float(temps[0]), "t_cold": float(temps[-1]),
        "noise_applied": noise is not None,
    }
    return SampleSet(reads=final, energies=clean_energies,
                     sampler="sa-metropolis", params=meta)


@dataclass(frozen=True)
class ExactSolution:
    min_energy: float
    minimizers: np.ndarray  # (count, n) int8, possibly truncated
    num_minimizers: int


_EXACT_HARD_CAP = 30  # 2^30 energy evaluations is already minutes of work


def solve_exact(p: IsingProblem, cap: int = 24,
                max_minimizers: int = 4096) -> ExactSolution:
    """Exhaustive minimum over all 2^n configurations (n <= cap).

    Scores chunks of 2^16 codes with `energies`.  Returns every minimizer up
    to ``max_minimizers``; ``num_minimizers`` is always the exact count.
    """
    if p.n > min(cap, _EXACT_HARD_CAP):
        raise InvalidParameterError(
            f"solve_exact refuses n={p.n}: exhaustive enumeration is capped at "
            f"n<={cap} (2^n configurations); raise `cap` explicitly to override"
            + (f", hard ceiling {_EXACT_HARD_CAP}" if cap > _EXACT_HARD_CAP else ""))
    total = 1 << p.n
    codes = np.arange(min(total, 1 << 16), dtype=np.uint64)
    low = _code_spins(codes, p.n).T.copy()  # (n, chunk): the layout energies uses
    best = np.inf
    keep: list[np.ndarray] = []
    count = 0
    for base in range(0, total, codes.shape[0]):
        # base and the chunk's offsets share no set bit, so their spins multiply
        high = _code_spins(np.array([base], dtype=np.uint64), p.n).T
        e = energies(p, (low * high).T)
        lo = float(e.min())
        if lo < best:
            best = lo
            keep = []
            count = 0
        if lo <= best:
            hits = codes[e == best] + np.uint64(base)
            count += hits.shape[0]
            room = max_minimizers - sum(h.shape[0] for h in keep)
            if room > 0:
                keep.append(hits[:room])

    codes = np.concatenate(keep) if keep else np.zeros(0, dtype=np.uint64)
    return ExactSolution(float(best), _code_spins(codes, p.n), count)


def _code_spins(codes: np.ndarray, n: int) -> np.ndarray:
    """(len(codes), n) int8 spins; spin i is -1 where bit i of the code is set."""
    bits = (codes[:, None] >> np.arange(n, dtype=np.uint64)[None, :]) & np.uint64(1)
    return (1 - 2 * bits.astype(np.int8)).astype(np.int8)


# ---------------------------------------------------------------------------
# File bridge: sample import with local re-evaluation, so external samplers
# never have to be trusted about energies.  A read is written as one string
# whose character i is spin i, "+" for +1 and "-" for -1; a list of +-1
# rows, the older form, still imports.

_UP, _DOWN = ord("+"), ord("-")


def sampleset_to_dict(ss: SampleSet, p: IsingProblem) -> dict:
    count, n = ss.reads.shape
    text = np.where(ss.reads > 0, _UP, _DOWN).astype(np.uint8).tobytes().decode("ascii")
    return {
        "problem_hash": problem_hash(p),
        "reads": [text[r * n:(r + 1) * n] for r in range(count)],
        "energies": [float(e) for e in ss.energies],
        "sampler": ss.sampler,
        "params": ss.params,
    }


def _unpack_reads(raw: list, n: int) -> np.ndarray:
    """(len(raw), n) int8 spins of reads written as "+"/"-" strings."""
    for r, text in enumerate(raw):
        if len(text) != n:
            raise DimensionMismatchError(f"read {r} has {len(text)} spins, expected {n}")
    # one byte per character, "?" for a non-ASCII one, so offsets stay spin indices
    codes = np.frombuffer("".join(raw).encode("ascii", "replace"),
                          dtype=np.uint8).reshape(len(raw), n)
    up = codes == _UP
    bad = np.flatnonzero(~up & (codes != _DOWN))
    if bad.size:
        r, i = divmod(int(bad[0]), n)
        raise InvalidParameterError(
            f"read {r} spin {i} is {raw[r][i]!r}, must be '+' or '-'")
    return np.where(up, 1, -1).astype(np.int8)


@loader("sample")
def sampleset_from_dict(data: dict, p: IsingProblem) -> SampleSet:
    raw = data["reads"]
    file_hash = data.get("problem_hash")
    file_energies = data.get("energies")
    if file_hash is not None and file_hash != problem_hash(p):
        raise FormatError("sample file was produced for a different problem "
                          f"(hash {file_hash[:12]}... != {problem_hash(p)[:12]}...)")
    if not isinstance(raw, list) or not raw:
        raise FormatError("sample file contains no reads")
    packed = [isinstance(row, str) for row in raw]
    if all(packed):
        reads = _unpack_reads(raw, p.n)
    elif any(packed):
        raise FormatError("sample file mixes string reads and list reads")
    else:
        reads = np.array([as_spins(row, p.n) for row in raw], dtype=np.int8)
    local = energies(p, reads)
    if file_energies is not None:
        stated = np.asarray(file_energies, dtype=np.float64)
        if stated.shape != local.shape or not np.array_equal(stated, local):
            log.warning("imported energies disagree with local recomputation; "
                        "using recomputed values")
    return SampleSet(reads=reads, energies=local,
                     sampler=str(data.get("sampler", "external")),
                     params=dict(data.get("params", {})))


def import_samples(path: str, p: IsingProblem) -> SampleSet:
    return sampleset_from_dict(read_json(path), p)
