"""Reference energies for the golden tests: the per-term loops.

`energy_reference` is the loop `ising.energy` ran, and `solve_exact_reference`
the routine `samplers.solve_exact` ran, before every energy was computed by
`ising.energies`; both are kept word for word (only the names changed).  Each
adds the h terms and then the J terms left to right, in the order the
problem's dicts hold them, starting from 0.0.  On a problem in file order --
`problem_from_dict(problem_to_dict(p))`, whose dicts are sorted -- that is
the sum `energies` defines, so these loops are the definition it must
reproduce bit for bit.  The package never imports this module.
"""

from __future__ import annotations

import numpy as np

from anneal_rbm.errors import InvalidParameterError
from anneal_rbm.ising import IsingProblem, as_spins
from anneal_rbm.samplers import _EXACT_HARD_CAP, ExactSolution
from problem_helpers import h_terms, j_terms


def energy_reference(p: IsingProblem, s: np.ndarray) -> float:
    """E(s) for a single configuration, evaluated exactly as written."""
    s = as_spins(s, p.n)
    total = 0.0
    sf = s.astype(np.float64)
    for i, v in h_terms(p).items():
        total += v * sf[i]
    for (a, b), v in j_terms(p).items():
        total += v * sf[a] * sf[b]
    return float(total)


def solve_exact_reference(p: IsingProblem, cap: int = 24,
                          max_minimizers: int = 4096) -> ExactSolution:
    """Exhaustive minimum over all 2^n configurations (n <= cap).

    Returns every minimizer up to ``max_minimizers``; ``num_minimizers`` is
    always the exact count.
    """
    if p.n > min(cap, _EXACT_HARD_CAP):
        raise InvalidParameterError(
            f"solve_exact refuses n={p.n}: exhaustive enumeration is capped at "
            f"n<={cap} (2^n configurations); raise `cap` explicitly to override"
            + (f", hard ceiling {_EXACT_HARD_CAP}" if cap > _EXACT_HARD_CAP else ""))
    if p.n == 0:
        return ExactSolution(0.0, np.zeros((1, 0), dtype=np.int8), 1)

    total = 1 << p.n
    chunk = min(total, 1 << 20)
    best = np.inf
    keep: list[np.ndarray] = []
    count = 0
    h_items = list(h_terms(p).items())
    j_items = list(j_terms(p).items())
    for base in range(0, total, chunk):
        codes = np.arange(base, min(base + chunk, total), dtype=np.uint64)
        e = np.zeros(codes.shape[0])
        spin = {}

        def spin_of(i):
            if i not in spin:
                spin[i] = 1.0 - 2.0 * ((codes >> np.uint64(i)) & np.uint64(1)).astype(np.float64)
            return spin[i]

        for i, v in h_items:
            e += v * spin_of(i)
        for (a, b), v in j_items:
            e += v * spin_of(a) * spin_of(b)

        lo = float(e.min())
        if lo < best:
            best = lo
            keep = []
            count = 0
        if lo <= best:
            hits = codes[e == best]
            count += hits.shape[0]
            room = max_minimizers - sum(h.shape[0] for h in keep)
            if room > 0:
                keep.append(hits[:room])

    codes = np.concatenate(keep) if keep else np.zeros(0, dtype=np.uint64)
    bits = ((codes[:, None] >> np.arange(p.n, dtype=np.uint64)[None, :]) & np.uint64(1))
    minimizers = (1 - 2 * bits.astype(np.int8)).astype(np.int8)
    return ExactSolution(float(best), minimizers, count)
