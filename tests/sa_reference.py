"""Reference annealer for the golden tests: the per-spin Metropolis sweep.

`sample_sa_reference` is the one-spin-at-a-time loop `samplers.sample_sa`
used before its sweeps were scheduled by levels, kept word for word (only
the name and the indentation of its signature changed, and the wall-clock
``timing_s`` entry of its metadata went when the package's did).  Each sweep visits
spins 0..n-1, one numpy step per spin, so it is the sequential definition
the level schedule must reproduce read for read.  `temperature_ladder_reference`
is the per-term loop `samplers._temperature_ladder` was before it became
one array pass, kept word for word apart from its name; the reference
annealer uses it.  The package never imports this module.
"""

from __future__ import annotations

import numpy as np

from anneal_rbm import rng
from anneal_rbm.errors import InvalidParameterError
from anneal_rbm.ising import IsingProblem, energies
from anneal_rbm.samplers import AnnealParams, NoiseModel, SampleSet
from problem_helpers import h_terms, j_terms

_SWEEP_CHUNK_BUDGET = 4_000_000  # uniforms held in memory at once


def temperature_ladder_reference(p: IsingProblem, params: AnnealParams) -> np.ndarray:
    scale = [abs(v) for v in h_terms(p).values()] + [abs(v) for v in j_terms(p).values()]
    site = {}
    for i, v in h_terms(p).items():
        site[i] = site.get(i, 0.0) + abs(v)
    for (a, b), v in j_terms(p).items():
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


def sample_sa_reference(p: IsingProblem, params: AnnealParams,
                        noise: NoiseModel | None = None,
                        placement: dict[int, int] | None = None) -> SampleSet:
    """Run num_reads independent Metropolis anneals of `sweeps` full sweeps.

    The chains anneal the noise-perturbed problem when a noise model is
    given; returned energies are evaluated on the clean problem.  Reads are
    vectorized internally but each consumes only its own (seed, read) stream:
    results are identical to running the reads sequentially.
    """
    if p.n < 1:
        raise InvalidParameterError("cannot sample an empty problem")
    annealed = noise.perturb(p, placement) if noise is not None else p
    temps = temperature_ladder_reference(annealed, params)

    # CSR neighbor structure of the annealed problem.
    nbrs: list[list[tuple[int, float]]] = [[] for _ in range(p.n)]
    for (a, b), v in j_terms(annealed).items():
        nbrs[a].append((b, v))
        nbrs[b].append((a, v))
    nb_idx = [np.array([i for i, _ in lst], dtype=np.intp) for lst in nbrs]
    nb_val = [np.array([v for _, v in lst]) for lst in nbrs]
    h_vec = np.zeros(p.n)
    for i, v in h_terms(annealed).items():
        h_vec[i] = v

    reads = params.num_reads
    gens = [rng.stream(params.seed, rng.STREAM_READ, r) for r in range(reads)]
    states = np.stack([g.integers(0, 2, p.n).astype(np.float64) * 2 - 1 for g in gens])

    chunk = max(1, _SWEEP_CHUNK_BUDGET // (reads * p.n))
    sweep = 0
    while sweep < params.sweeps:
        width = min(chunk, params.sweeps - sweep)
        uniforms = np.stack([g.random((width, p.n)) for g in gens])
        for t in range(width):
            temp = temps[sweep + t]
            for jspin in range(p.n):
                local = h_vec[jspin]
                if nb_idx[jspin].size:
                    local = local + states[:, nb_idx[jspin]] @ nb_val[jspin]
                d_e = -2.0 * states[:, jspin] * local
                accept = d_e <= 0
                hot = ~accept
                if np.any(hot):
                    accept[hot] = uniforms[hot, t, jspin] < np.exp(-d_e[hot] / temp)
                states[accept, jspin] = -states[accept, jspin]
        sweep += width

    final = states.astype(np.int8)
    clean_energies = energies(p, final)
    meta = {
        "num_reads": params.num_reads, "sweeps": params.sweeps,
        "seed": params.seed, "t_hot": float(temps[0]), "t_cold": float(temps[-1]),
        "noise_applied": noise is not None,
    }
    return SampleSet(reads=final, energies=clean_energies,
                     sampler="sa-metropolis", params=meta)
