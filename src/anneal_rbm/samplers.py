"""Sample producers: a noise-injecting simulated annealer, an exact oracle,
and a file bridge for out-of-process samplers.

The annealer runs independent single-spin-flip Metropolis chains, one per
read, over a geometric temperature ladder.  A sweep updates spins 0..n-1 in
index order, scheduled by levels: spin j's level is one more than the
highest level among its neighbours i < j (0 if it has none).  A level makes
one gemv per degree for its local fields, then one accept test and flip of
all its spins for every read.  Spins of a level share no coupler, and when a
level runs, every lower neighbour of its spins has been updated and no
higher neighbour has, so each spin sees the same state, and draws the same
uniform, as in the one-spin-at-a-time sweep: it is still that sequential
sweep, with identical reads.  Each read consumes its own PCG64 substream
keyed by (seed, read index), so a sample set is reproducible read by read
whatever the batch size or chunking.  Noise perturbs the problem the chains
see; reported energies are always evaluated on the clean problem.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import (DimensionMismatchError, FormatError,
                     InvalidParameterError)
from .ising import IsingProblem, as_spins, energies, problem_hash
from .jsonio import loader, read_json

log = logging.getLogger(__name__)

_SWEEP_CHUNK_BUDGET = 1_000_000  # uniforms held in memory at once


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

    def perturb(self, p: IsingProblem,
                placement: dict[int, int] | None) -> IsingProblem:
        """The problem as the hardware sees it."""
        if placement is None:
            if self.region_bias:
                raise InvalidParameterError(
                    "placement map required when region_bias is nonempty")
            placement = {v: v for v in range(p.n)}
        qubit = np.fromiter((placement[v] for v in range(p.n)),
                            dtype=np.int64, count=p.n)

        off = np.zeros(p.n)
        if self.sigma_h:
            off += _normals(rng.streams(self.chip_seed, rng.STREAM_NOISE_H, qubit),
                            self.sigma_h, p.n)
        for qubits, delta in self.region_bias:
            off[np.isin(qubit, np.fromiter(qubits, dtype=np.int64))] += delta
        moved = np.flatnonzero(off)
        h = dict(p.h)
        h.update((v, p.h.get(v, 0.0) + d)
                 for v, d in zip(moved.tolist(), off[moved].tolist()))
        # p is canonical, so dropping exact zeros is all make_problem would do
        h = {v: x for v, x in h.items() if x != 0}

        if self.sigma_j and p.j:
            couplers = np.fromiter(
                (q for a, b in p.j for q in sorted((placement[a], placement[b]))),
                dtype=np.int64, count=2 * len(p.j)).reshape(-1, 2)
            factor = 1.0 + _normals(rng.streams(self.chip_seed, rng.STREAM_NOISE_J,
                                                couplers), self.sigma_j, len(p.j))
            j = {e: x for (e, val), f in zip(p.j.items(), factor.tolist())
                 if (x := val * f) != 0}
        else:
            j = dict(p.j)
        return IsingProblem(n=p.n, h=h, j=j)


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


@loader("noise")
def noise_from_dict(data: dict) -> NoiseModel:
    return NoiseModel(
        sigma_h=float(data.get("sigma_h", 0.0)),
        sigma_j=float(data.get("sigma_j", 0.0)),
        chip_seed=int(data.get("chip_seed", 0)),
        region_bias=tuple((frozenset(int(q) for q in rb["qubits"]),
                           float(rb["delta"]))
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
    scale = [abs(v) for v in p.h.values()] + [abs(v) for v in p.j.values()]
    site = {}
    for i, v in p.h.items():
        site[i] = site.get(i, 0.0) + abs(v)
    for (a, b), v in p.j.items():
        site[a] = site.get(a, 0.0) + abs(v)
        site[b] = site.get(b, 0.0) + abs(v)
    t_hot = params.t_hot if params.t_hot is not None else max(list(site.values()) + [1.0])
    t_cold = params.t_cold if params.t_cold is not None else \
        max(0.05 * min(scale), 1e-6) if scale else 1e-2
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


def _sweep_plan(p: IsingProblem) -> tuple[np.ndarray, list]:
    """The sweep as (order, levels): the spin updated k-th, order[k], takes
    the label k, so each level and each step is a contiguous label block.

    A level is (start, stop, h, steps), h its fields as a column; a step is
    (start, stop, neighbour labels, coupler values), one per degree in the
    level.  A row lists the spin's neighbours in the order of `p.j`, so
    `np.matmul` over a step makes the BLAS call a one-spin-at-a-time sweep
    makes for each spin, with the same summation order.  Padding rows to one
    width would change that order and, in the last bit, the local fields.
    """
    n_j = len(p.j)
    a = np.fromiter((a for a, _ in p.j), dtype=np.intp, count=n_j)
    b = np.fromiter((b for _, b in p.j), dtype=np.intp, count=n_j)
    val = np.fromiter(p.j.values(), dtype=np.float64, count=n_j)
    h = np.zeros(p.n)
    h[list(p.h)] = list(p.h.values())

    level = _spin_levels(p.n, np.minimum(a, b), np.maximum(a, b))
    ends = np.concatenate([a, b])
    coupler = np.tile(np.arange(n_j), 2)
    by_end = np.lexsort((coupler, ends))
    others = np.concatenate([b, a])[by_end]
    values = np.concatenate([val, val])[by_end]
    degree = np.bincount(ends, minlength=p.n)
    first = np.cumsum(degree) - degree

    order = np.lexsort((degree, level))
    label = np.argsort(order)
    bounds = np.searchsorted(level[order], np.arange(level.max() + 2)).tolist()
    levels = []
    for start, stop in zip(bounds[:-1], bounds[1:]):
        deg = degree[order[start:stop]]
        cuts = (start + np.flatnonzero(np.diff(deg, prepend=-1, append=-1))).tolist()
        steps = []
        for i, j in zip(cuts[:-1], cuts[1:]):
            rows = first[order[i:j], None] + np.arange(deg[i - start])
            steps.append((i, j, label[others[rows]], values[rows, None]))
        levels.append((start, stop, h[order[start:stop], None], steps))
    return order, levels


def _anneal(p: IsingProblem, temps: np.ndarray, params: AnnealParams) -> np.ndarray:
    """Final (reads, n) int8 states of the Metropolis chains on `p`.

    A sweep runs each level's gemvs, then one accept test for all its spins.
    Spins of a level share no coupler, and a spin's neighbours i < j sit in
    lower levels, so every spin sees the new values of its lower neighbours
    and the old values of its higher ones, as in a sweep over spins 0..n-1.
    It draws the same uniform, uniforms[r, t, j], and tests it against the
    same number: 2 * s * local is -d_e exactly for s = +-1, and `np.exp`
    gets a contiguous float64 operand.  So the reads are that sweep's.
    """
    order, levels = _sweep_plan(p)
    reads = params.num_reads
    gens = list(rng.streams(params.seed, rng.STREAM_READ, np.arange(reads)))
    states = np.stack([g.integers(0, 2, p.n) * 2.0 - 1 for g in gens])[:, order]
    fields = np.empty((max(stop - start for start, stop, *_ in levels), reads))

    chunk = max(1, _SWEEP_CHUNK_BUDGET // (reads * p.n))
    uniforms = np.empty((reads, min(chunk, params.sweeps), p.n))
    sweep = 0
    # exp(-d_e / temp) >= 1 > u wherever d_e <= 0 (inf where it overflows),
    # so `u < exp` alone is the usual "d_e <= 0 or u < exp(-d_e / temp)" test
    with np.errstate(over="ignore"):
        while sweep < params.sweeps:
            width = min(chunk, params.sweeps - sweep)
            for r, g in enumerate(gens):
                g.random(out=uniforms[r, :width])
            for t in range(width):
                temp = temps[sweep + t]
                u = uniforms[:, t]
                for start, stop, h, steps in levels:
                    # a degree-0 step's matmul writes zeros, so local = h there
                    for i, j, nb, nb_val in steps:
                        np.matmul(states[:, nb].transpose(1, 0, 2), nb_val,
                                  out=fields[i - start:j - start, :, None])
                    s = states[:, start:stop]
                    x = np.exp(s * (fields[:stop - start] + h).T * 2 / temp)
                    np.negative(s, out=s, where=u[:, order[start:stop]] < x)
            sweep += width
    return states.astype(np.int8)[:, np.argsort(order)]


def sample_sa(p: IsingProblem, params: AnnealParams,
              noise: NoiseModel | None = None,
              placement: dict[int, int] | None = None) -> SampleSet:
    """Run num_reads independent Metropolis anneals of `sweeps` full sweeps.

    The chains anneal the noise-perturbed problem when a noise model is
    given; returned energies are evaluated on the clean problem.  Each
    sweep updates spins 0..n-1 in order, scheduled by levels (see
    `_anneal`), and each read consumes only its own (seed, read) stream:
    results are identical to a one-spin-at-a-time sweep of each read alone.
    """
    if p.n < 1:
        raise InvalidParameterError("cannot sample an empty problem")
    t_start = time.perf_counter()
    annealed = noise.perturb(p, placement) if noise is not None else p
    temps = _temperature_ladder(annealed, params)
    final = _anneal(annealed, temps, params)
    clean_energies = energies(p, final)
    meta = {
        "num_reads": params.num_reads, "sweeps": params.sweeps,
        "seed": params.seed, "t_hot": float(temps[0]), "t_cold": float(temps[-1]),
        "noise_applied": noise is not None,
        "timing_s": time.perf_counter() - t_start,
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
    params = {k: v for k, v in ss.params.items() if k != "timing_s"}
    count, n = ss.reads.shape
    text = np.where(ss.reads > 0, _UP, _DOWN).astype(np.uint8).tobytes().decode("ascii")
    return {
        "problem_hash": problem_hash(p),
        "reads": [text[r * n:(r + 1) * n] for r in range(count)],
        "energies": [float(e) for e in ss.energies],
        "sampler": ss.sampler,
        "params": params,
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
