"""Planted-solution instance generation via frustrated loops on an edge cover.

The generator departs from random-walk loop construction: the instance graph
is first made Eulerian by adding a minimum (heuristic) number of parallel
edges, then decomposed into simple cycles so that every edge, original or
added, is used exactly once.  Each original edge therefore lies in one or two
loops.  Selected loops become frustrated ferromagnetic clauses (one coupling
sign-flipped), gauge-transformed so an arbitrary planted configuration is a
ground state of the summed problem.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import rng
from .errors import ContractError, InvalidParameterError
from .ising import IsingProblem, as_spins, energy, make_problem
from .topology import Edge, canonical_edge


@dataclass(frozen=True)
class Multigraph:
    """Simple base graph plus parallel duplicates of some of its edges."""

    n: int
    edges: tuple[Edge, ...]
    added: tuple[Edge, ...]

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return deg


def _adjacency(n: int, edges: Iterable[Edge]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    for ns in adj:
        ns.sort()
    return adj


def eulerian_augment(n: int, edges: Iterable[Edge]) -> Multigraph:
    """Make every vertex degree even by duplicating existing edges only.

    Odd-degree vertices are paired greedily by shortest-path distance; the
    symmetric difference of the pairing paths is duplicated.  The symmetric
    difference keeps each edge's multiplicity at most 2 and never adds a
    parallel pair that would cancel out.
    """
    base = sorted({canonical_edge(a, b) for a, b in edges})
    for a, b in base:
        if not (0 <= a < n and 0 <= b < n):
            raise InvalidParameterError(f"edge ({a},{b}) out of range for n={n}")
    adj = _adjacency(n, base)
    odd = [v for v in range(n) if len(adj[v]) % 2 == 1]

    tjoin: set[Edge] = set()
    remaining = set(odd)
    for src in odd:
        if src not in remaining:
            continue
        remaining.discard(src)
        # BFS from the smallest remaining odd vertex, one level at a time;
        # pair it with the smallest remaining odd vertex of the first level
        # that holds one, along the BFS tree path.  Sorted neighbor order makes
        # the tree deterministic, and every vertex up to that level is found
        # in the order, and with the parent, a full BFS would give it.
        parent = {src: src}
        level = [src]
        mate = None
        while level and mate is None:
            found = []
            for v in level:
                for w in adj[v]:
                    if w not in parent:
                        parent[w] = v
                        found.append(w)
            mate = min(remaining.intersection(found), default=None)
            level = found
        if mate is None:
            raise ContractError(
                f"odd-degree vertex {src} cannot be paired inside its component")
        remaining.discard(mate)
        v = mate
        while v != src:
            tjoin ^= {canonical_edge(v, parent[v])}
            v = parent[v]

    added = tuple(sorted(tjoin))
    mg = Multigraph(n=n, edges=tuple(base) + added, added=added)
    if any(d % 2 for d in mg.degrees()):
        raise ContractError("augmentation failed to even all degrees")
    return mg


@dataclass(frozen=True)
class LoopCover:
    """Cycles covering a multigraph so each multiedge is used exactly once.

    A loop is a cyclic vertex sequence (v0, ..., v_{L-1}); its edges are the
    consecutive pairs including the wrap-around.  Original graph edges appear
    in one loop, duplicated edges in two.
    """

    n: int
    loops: tuple[tuple[int, ...], ...]
    base_edges: frozenset[Edge]

    def loop_edges(self, index: int) -> list[Edge]:
        loop = self.loops[index]
        return [canonical_edge(loop[i], loop[(i + 1) % len(loop)]) for i in range(len(loop))]

    def multiplicity(self) -> dict[Edge, int]:
        counts: Counter[Edge] = Counter()
        for i in range(len(self.loops)):
            counts.update(self.loop_edges(i))
        return dict(counts)


def _normalize_loop(loop: Sequence[int]) -> tuple[int, ...]:
    """Canonical rotation/direction so equal cycles serialize identically:
    the smallest of the loop's rotations in either direction.  A simple
    cycle's vertices are distinct, so that rotation starts at its minimum."""
    m = loop.index(min(loop))
    forward = tuple(loop[m:]) + tuple(loop[:m])
    return min(forward, forward[:1] + forward[:0:-1])


def decompose_loops(mg: Multigraph) -> LoopCover:
    """Split each component's Euler circuit into simple cycles.

    Runs Hierholzer's algorithm, then cuts the circuit at repeated vertices.
    Every multigraph edge lands in exactly one loop; parallel pairs surface as
    2-cycles when both copies meet in the walk.
    """
    if any(d % 2 for d in mg.degrees()):
        raise ContractError("loop decomposition requires all degrees even")

    incidence: list[list[tuple[int, int]]] = [[] for _ in range(mg.n)]
    for eid, (a, b) in enumerate(mg.edges):
        incidence[a].append((eid, b))
        incidence[b].append((eid, a))
    for lst in incidence:
        lst.sort(key=lambda t: (t[1], t[0]))

    used = [False] * len(mg.edges)
    cursor = [0] * mg.n
    loops: list[tuple[int, ...]] = []

    for start in range(mg.n):
        if cursor[start] >= len(incidence[start]):
            continue
        if all(used[eid] for eid, _ in incidence[start]):
            continue
        # Hierholzer: walk until stuck, backtrack emitting the circuit.
        stack = [start]
        circuit: list[int] = []
        while stack:
            v = stack[-1]
            advanced = False
            while cursor[v] < len(incidence[v]):
                eid, w = incidence[v][cursor[v]]
                if used[eid]:
                    cursor[v] += 1
                    continue
                used[eid] = True
                stack.append(w)
                advanced = True
                break
            if not advanced:
                circuit.append(stack.pop())
        circuit.reverse()

        # Cut the circuit into simple cycles at vertex repeats.
        pos: dict[int, int] = {circuit[0]: 0}
        path = [circuit[0]]
        for v in circuit[1:]:
            if v in pos:
                cycle = path[pos[v]:]
                if len(cycle) >= 2:
                    loops.append(_normalize_loop(cycle))
                for u in path[pos[v] + 1:]:
                    del pos[u]
                del path[pos[v] + 1:]
            else:
                pos[v] = len(path)
                path.append(v)
        if len(path) != 1:
            raise ContractError("euler circuit did not close")

    cover = LoopCover(n=mg.n, loops=tuple(loops),
                      base_edges=frozenset(canonical_edge(a, b)
                                           for a, b in set(mg.edges)))
    if Counter(e for i in range(len(loops)) for e in cover.loop_edges(i)) != Counter(mg.edges):
        raise ContractError("loops do not cover the multigraph edges exactly once")
    return cover


def build_loop_cover(n: int, edges: Iterable[Edge]) -> LoopCover:
    """Eulerian augmentation followed by loop decomposition."""
    return decompose_loops(eulerian_augment(n, edges))


@dataclass(frozen=True)
class GeneratorParams:
    """Frustrated-loop generator knobs.

    ``bias_large``/``bias_small`` are the coupler magnitudes drawn per loop
    (the larger with probability ``p_large``); ``beta`` is the clause density,
    the fraction of cover loops turned into clauses.
    """

    bias_large: float = 10.0
    bias_small: float = 2.0
    p_large: float = 0.08
    beta: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not math.inf > self.bias_large > self.bias_small > 0:
            raise InvalidParameterError(f"need finite bias_large > bias_small > 0, "
                                        f"got ({self.bias_large}, {self.bias_small})")
        if not 0 <= self.p_large <= 1:
            raise InvalidParameterError(f"p_large must be in [0,1], got {self.p_large}")
        if not 0 < self.beta <= 1:
            raise InvalidParameterError(f"beta must be in (0,1], got {self.beta}")


@dataclass(frozen=True)
class Clause:
    """One selected loop: shared magnitude and the frustrated edge position."""

    loop_index: int
    magnitude: float
    flip_pos: int | None  # None for 2-cycles, kept purely ferromagnetic


@dataclass(frozen=True)
class PlantedInstance:
    problem: IsingProblem
    planted: np.ndarray
    params: GeneratorParams
    clauses: tuple[Clause, ...]
    planted_energy: float
    cover: LoopCover | None = field(default=None, repr=False)


def _clause_contributions(cover: LoopCover, clause: Clause,
                          planted: np.ndarray) -> dict[Edge, float]:
    """Per-coupler contribution of one clause, in the planted gauge."""
    edges = cover.loop_edges(clause.loop_index)
    out: dict[Edge, float] = {}
    for pos, (a, b) in enumerate(edges):
        ferro = -clause.magnitude * float(planted[a]) * float(planted[b])
        value = -ferro if pos == clause.flip_pos else ferro
        out[(a, b)] = out.get((a, b), 0.0) + value
    return out


def generate_instance(cover: LoopCover, params: GeneratorParams,
                      planted: np.ndarray | None = None) -> PlantedInstance:
    """Draw a frustrated-loop instance whose planted configuration is optimal.

    ceil(beta * |loops|) loops are selected without replacement.  Each gets
    one magnitude draw shared by all its couplers; every loop edge receives
    the ferromagnetic contribution -magnitude * s_a * s_b, and one uniformly
    chosen edge of each loop of length >= 3 has its contribution sign-flipped.
    2-cycles stay ferromagnetic (a flip would cancel the coupler entirely).
    Randomness is split per (seed, stream, loop), so instances are bit-stable.
    """
    n_loops = len(cover.loops)
    if n_loops == 0:
        raise InvalidParameterError("loop cover has no loops to select from")
    n_select = math.ceil(params.beta * n_loops)
    if n_select == 0:
        raise InvalidParameterError(
            f"beta={params.beta} selects no loops out of {n_loops}")

    if planted is None:
        planted = np.asarray(
            rng.stream(params.seed, rng.STREAM_PLANTED).integers(0, 2, cover.n),
            dtype=np.int8) * 2 - 1
    planted = as_spins(planted, cover.n)

    pick = rng.stream(params.seed, rng.STREAM_SELECT)
    selected = sorted(int(i) for i in pick.choice(n_loops, size=n_select, replace=False))

    clauses: list[Clause] = []
    coupler: dict[Edge, float] = {}
    for idx, loop_rng in zip(selected, rng.streams(params.seed, rng.STREAM_LOOP,
                                                   selected)):
        magnitude = params.bias_large if loop_rng.random() < params.p_large \
            else params.bias_small
        length = len(cover.loops[idx])
        flip = int(loop_rng.integers(length)) if length >= 3 else None
        clause = Clause(loop_index=idx, magnitude=magnitude, flip_pos=flip)
        clauses.append(clause)
        for e, v in _clause_contributions(cover, clause, planted).items():
            coupler[e] = coupler.get(e, 0.0) + v

    # the planted state breaks only the flipped couplings, so its energy is
    # about -sum |J|, which a problem must keep finite
    scale = sum(map(abs, coupler.values()))
    if not math.isfinite(scale):
        raise InvalidParameterError(f"planted energy is not finite: sum of |J| is {scale}")
    problem = make_problem(cover.n, {}, coupler)
    planted_energy = energy(problem, planted)
    return PlantedInstance(problem=problem, planted=planted, params=params,
                           clauses=tuple(clauses),
                           planted_energy=planted_energy, cover=cover)


def clause_minimum(length: int, magnitude: float, flipped: bool) -> float:
    """Analytic minimum of one loop clause.

    A frustrated cycle must violate at least one coupling, each violation
    costing 2 * magnitude, so the best achievable is -(L-2) * magnitude; an
    unfrustrated (ferromagnetic) clause reaches -L * magnitude.
    """
    return -(length - 2) * magnitude if flipped else -length * magnitude


@dataclass
class PlantedReport:
    ok: bool
    clause_failures: list[tuple[int, str]]
    coupler_consistent: bool
    brute_checked: bool
    brute_min: float | None
    planted_energy: float
    failures: list[str]


def verify_planted(inst: PlantedInstance, brute_cap: int = 24) -> PlantedReport:
    """Check per-clause optimality analytically; brute-force small problems.

    Per clause, the planted configuration must satisfy every coupling except
    the flipped one, attaining the clause minimum.  The instance's couplers
    must equal the clause contributions summed per edge.  For n <= brute_cap
    the full problem is enumerated and the global minimum compared with the
    planted energy.
    """
    failures: list[str] = []
    clause_failures: list[tuple[int, str]] = []

    if inst.cover is None:
        failures.append("instance carries no loop cover; clause checks skipped")
        rebuilt = None
    else:
        rebuilt = {}
        for clause in inst.clauses:
            edges = inst.cover.loop_edges(clause.loop_index)
            violated = []
            for pos, (a, b) in enumerate(edges):
                ferro = -clause.magnitude * float(inst.planted[a]) * float(inst.planted[b])
                value = -ferro if pos == clause.flip_pos else ferro
                rebuilt[(a, b)] = rebuilt.get((a, b), 0.0) + value
                if value * inst.planted[a] * inst.planted[b] > 0:
                    violated.append(pos)
            # the planted configuration attains the clause minimum exactly
            # when it violates nothing but the flipped coupling
            expect = [] if clause.flip_pos is None else [clause.flip_pos]
            if violated != expect:
                clause_failures.append(
                    (clause.loop_index,
                     f"planted violates couplings at {violated}, expected {expect}"))

    coupler_consistent = True
    if rebuilt is not None:
        rebuilt = {e: v for e, v in rebuilt.items() if v != 0}
        if rebuilt != inst.problem.j:
            coupler_consistent = False
            bad = sorted(set(rebuilt) ^ set(inst.problem.j))[:3]
            bad += sorted(e for e in set(rebuilt) & set(inst.problem.j)
                          if rebuilt[e] != inst.problem.j[e])[:3]
            for e in bad[:3]:
                owners = [c.loop_index for c in inst.clauses
                          if inst.cover is not None
                          and e in inst.cover.loop_edges(c.loop_index)]
                failures.append(f"coupler {e} disagrees with clauses; loops {owners}")

    brute_checked = False
    brute_min: float | None = None
    if inst.problem.n <= brute_cap:
        from .samplers import solve_exact
        sol = solve_exact(inst.problem, cap=brute_cap)
        brute_checked = True
        brute_min = sol.min_energy
        if brute_min != inst.planted_energy:
            failures.append(
                f"brute-force minimum {brute_min} != planted energy {inst.planted_energy}")

    ok = (not failures and not clause_failures and coupler_consistent)
    return PlantedReport(ok=ok, clause_failures=clause_failures,
                         coupler_consistent=coupler_consistent,
                         brute_checked=brute_checked, brute_min=brute_min,
                         planted_energy=inst.planted_energy, failures=failures)


# ---------------------------------------------------------------------------
# Serialization (the loop cover itself is derivable from the source graph and
# is not embedded in instance files)

def instance_to_dict(inst: PlantedInstance) -> dict:
    from .ising import problem_to_dict
    return {
        **problem_to_dict(inst.problem),
        "planted": [int(s) for s in inst.planted],
        "params": {
            "bias_large": inst.params.bias_large,
            "bias_small": inst.params.bias_small,
            "p_large": inst.params.p_large,
            "beta": inst.params.beta,
            "seed": inst.params.seed,
        },
        "loop_count": len(inst.cover.loops) if inst.cover is not None else len(inst.clauses),
        "clauses": [{"loop": c.loop_index, "magnitude": c.magnitude,
                     "flip": c.flip_pos} for c in inst.clauses],
        "planted_energy": inst.planted_energy,
    }

