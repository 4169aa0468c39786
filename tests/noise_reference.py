"""Reference noise perturbation for the golden tests: the per-key loop.

`perturb_reference` is the loop `samplers.NoiseModel.perturb` ran before its
streams were seeded in one batch, kept word for word (only the name, the
annotation of `self` and the indentation changed).  It builds one generator per
qubit and per coupler through `rng.stream`, so it is the definition the
array-native `perturb` must reproduce value for value and key for key.  The
package never imports this module.
"""

from __future__ import annotations

from anneal_rbm import rng
from anneal_rbm.errors import InvalidParameterError
from anneal_rbm.ising import IsingProblem, make_problem
from anneal_rbm.samplers import NoiseModel


def perturb_reference(self: NoiseModel, p: IsingProblem,
                      placement: dict[int, int] | None) -> IsingProblem:
    """The problem as the hardware sees it."""
    if placement is None:
        if self.region_bias:
            raise InvalidParameterError(
                "placement map required when region_bias is nonempty")
        placement = {v: v for v in range(p.n)}

    h: dict[int, float] = dict(p.h)
    for v in range(p.n):
        q = placement[v]
        off = 0.0
        if self.sigma_h:
            off += float(rng.stream(self.chip_seed, rng.STREAM_NOISE_H, q)
                         .normal(0.0, self.sigma_h))
        for qubits, delta in self.region_bias:
            if q in qubits:
                off += delta
        if off:
            h[v] = h.get(v, 0.0) + off

    j: dict[tuple[int, int], float] = {}
    for (a, b), val in p.j.items():
        if self.sigma_j:
            qa, qb = sorted((placement[a], placement[b]))
            factor = 1.0 + float(rng.stream(self.chip_seed, rng.STREAM_NOISE_J,
                                            qa, qb).normal(0.0, self.sigma_j))
            val = val * factor
        j[(a, b)] = val
    return make_problem(p.n, h, j)
