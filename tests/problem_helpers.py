"""Problem helpers only the tests use: a plain-text triple format, one
replica of a replicated problem, and the variable layouts of replicated and
penalty-encoded problems.  The package never imports this module."""

from __future__ import annotations

from anneal_rbm.errors import FormatError
from anneal_rbm.ising import IsingProblem, ReplicatedProblem, make_problem
from anneal_rbm.topology import canonical_edge


def to_triples(p: IsingProblem) -> str:
    """One ``i j value`` line per term, ``i i`` for h."""
    lines = [f"{i} {i} {v!r}" for i, v in sorted(p.h.items())]
    lines += [f"{a} {b} {v!r}" for (a, b), v in sorted(p.j.items())]
    return "\n".join(lines) + ("\n" if lines else "")


def from_triples(text: str, n: int | None = None) -> IsingProblem:
    h: dict[int, float] = {}
    j: dict[tuple[int, int], float] = {}
    top = -1
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise FormatError(f"line {ln}: expected 'i j value', got {raw!r}")
        try:
            a, b, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise FormatError(f"line {ln}: {exc}") from exc
        top = max(top, a, b)
        if a == b:
            h[a] = h.get(a, 0.0) + v
        else:
            e = canonical_edge(a, b)
            j[e] = j.get(e, 0.0) + v
    return make_problem(n if n is not None else top + 1, h, j)


def extract_replica(rp: ReplicatedProblem, replica: int) -> IsingProblem:
    """Restrict a replicated problem to one replica and relabel to 0..n-1."""
    base = replica * rp.n_logical
    h = {i - base: v for i, v in rp.problem.h.items() if base <= i < base + rp.n_logical}
    j = {(a - base, b - base): v for (a, b), v in rp.problem.j.items()
         if base <= a and b < base + rp.n_logical}
    return make_problem(rp.n_logical, h, j)


def replica_of(rp: ReplicatedProblem, var: int) -> int:
    """The replica holding dense variable `var` (replica-major layout)."""
    return var // rp.n_logical


def penalty_slot(unit: int) -> int:
    """The dense variable of a QAC unit's penalty hub (unit-major layout)."""
    return 4 * unit + 3
