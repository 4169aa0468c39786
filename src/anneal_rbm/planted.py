"""Planted-solution instance generation via frustrated loops on an edge cover.

The generator departs from random-walk loop construction: the instance graph
is first made Eulerian by adding a minimum (heuristic) number of parallel
edges, then decomposed into simple cycles so that every edge, original or
added, is used exactly once.  Each original edge therefore lies in one or two
loops.  Selected loops become frustrated ferromagnetic clauses (one coupling
sign-flipped), gauge-transformed so an arbitrary planted configuration is a
ground state of the summed problem.

Edges are int64 codes a*n + b (a < b), a loop cover is one vertex array cut
by offsets, and an instance's clauses are arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import rng
from .errors import ContractError, InvalidParameterError
from .ising import IsingProblem, _canonical, as_spins, energy
from .topology import canonical_edges, frozen, unique_codes


@dataclass(frozen=True, eq=False)
class Multigraph:
    """Simple base graph plus parallel duplicates of some of its edges:
    ``codes`` holds the sorted base edge codes, then the sorted codes of the
    ``n_added`` duplicated edges, as a read-only int64 array."""

    n: int
    codes: np.ndarray
    n_added: int = 0

    added = property(lambda mg: mg.codes[mg.codes.size - mg.n_added:])

    def degrees(self) -> np.ndarray:
        return np.bincount(np.concatenate(np.divmod(self.codes, self.n)), minlength=self.n)


def _incidence(n: int, codes: np.ndarray) -> tuple[list, list, list]:
    """CSR incidence of the edges ``codes`` as lists: vertex v meets edge
    ``edge[j]`` towards ``other[j]`` for j in ``offsets[v]:offsets[v + 1]``,
    ordered by neighbour, then by edge id."""
    a, b = np.divmod(codes, n)
    ends, other, edge = np.r_[a, b], np.r_[b, a], np.tile(np.arange(a.size), 2)
    order = np.lexsort((edge, other, ends))
    offsets = np.r_[0, np.cumsum(np.bincount(ends, minlength=n))]
    return offsets.tolist(), other[order].tolist(), edge[order].tolist()


def eulerian_augment(n: int, pairs: np.ndarray) -> Multigraph:
    """Make every vertex degree even by duplicating existing edges only.

    ``pairs`` is an (E, 2) array of edges in 0..n-1, either end first.
    Odd-degree vertices are paired greedily by shortest-path distance; the
    symmetric difference of the pairing paths is duplicated.  The symmetric
    difference keeps each edge's multiplicity at most 2 and never adds a
    parallel pair that would cancel out.
    """
    pairs = canonical_edges(np.asarray(pairs, dtype=np.int64).reshape(-1, 2))
    bad = pairs[(pairs[:, 0] < 0) | (pairs[:, 1] >= n)].tolist()
    if bad:
        a, b = min(bad)
        raise InvalidParameterError(f"edge ({a},{b}) out of range for n={n}")
    base = unique_codes(pairs[:, 0] * n + pairs[:, 1])
    offsets, nbrs, _ = _incidence(n, base)
    odd = [v for v in range(n) if (offsets[v + 1] - offsets[v]) % 2]

    tjoin: set[int] = set()
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
                for w in nbrs[offsets[v]:offsets[v + 1]]:
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
            u = parent[v]
            tjoin ^= {min(u, v) * n + max(u, v)}
            v = u

    mg = Multigraph(n, frozen(np.r_[base, sorted(tjoin)]), len(tjoin))
    if (mg.degrees() % 2).any():
        raise ContractError("augmentation failed to even all degrees")
    return mg


@dataclass(frozen=True, eq=False)
class LoopCover:
    """Cycles covering a multigraph so each multiedge is used exactly once.

    Loop i is the cyclic vertex sequence ``nodes[offsets[i]:offsets[i + 1]]``;
    its edges are the consecutive pairs including the wrap-around, and
    ``edge_codes[j]`` is the code of the edge leaving position j, all as
    read-only int64 arrays.  Original graph edges appear in one loop,
    duplicated edges in two.
    """

    n: int
    nodes: np.ndarray
    offsets: np.ndarray

    lengths = cached_property(lambda c: np.diff(c.offsets))

    @cached_property
    def edge_codes(self) -> np.ndarray:
        following = np.arange(1, self.nodes.size + 1)
        following[self.offsets[1:] - 1] = self.offsets[:-1]
        a, b = self.nodes, self.nodes[following]
        return frozen(np.minimum(a, b) * self.n + np.maximum(a, b))


def _normalize_loops(nodes: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each loop as the smallest of its rotations in either direction, so
    equal cycles serialize identically.  A simple cycle's vertices are
    distinct: that rotation starts at its minimum, then its smaller neighbour."""
    lengths, starts = np.diff(offsets), offsets[:-1]
    loop = np.repeat(np.arange(lengths.size), lengths)
    low = np.lexsort((nodes, loop))[starts] - starts
    step = np.where(nodes[starts + (low - 1) % lengths]
                    < nodes[starts + (low + 1) % lengths], -1, 1)
    j = np.arange(nodes.size) - starts[loop]
    return nodes[starts[loop] + (low[loop] + step[loop] * j) % lengths[loop]]


def decompose_loops(mg: Multigraph) -> LoopCover:
    """Split each component's Euler circuit into simple cycles.

    Runs Hierholzer's algorithm, then cuts the circuit at repeated vertices.
    Every multigraph edge lands in exactly one loop; parallel pairs surface as
    2-cycles when both copies meet in the walk.
    """
    if (mg.degrees() % 2).any():
        raise ContractError("loop decomposition requires all degrees even")

    offsets, other, edge = _incidence(mg.n, mg.codes)
    used = [False] * mg.codes.size
    cursor = offsets[:-1]
    nodes: list[int] = []
    cuts = [0]

    for start in range(mg.n):
        if cursor[start] == offsets[start + 1]:
            continue
        # Hierholzer: walk until stuck, backtrack emitting the circuit.
        stack = [start]
        circuit: list[int] = []
        while stack:
            v = stack[-1]
            c, end = cursor[v], offsets[v + 1]
            while c < end and used[edge[c]]:
                c += 1
            cursor[v] = c
            if c < end:
                used[edge[c]] = True
                stack.append(other[c])
            else:
                circuit.append(stack.pop())
        circuit.reverse()

        # Cut the circuit into simple cycles at vertex repeats.
        pos: dict[int, int] = {circuit[0]: 0}
        path = [circuit[0]]
        for v in circuit[1:]:
            if v in pos:
                if len(path) - pos[v] >= 2:
                    nodes += path[pos[v]:]
                    cuts.append(len(nodes))
                for u in path[pos[v] + 1:]:
                    del pos[u]
                del path[pos[v] + 1:]
            else:
                pos[v] = len(path)
                path.append(v)
        if len(path) != 1:
            raise ContractError("euler circuit did not close")

    cuts = frozen(cuts)
    cover = LoopCover(mg.n, frozen(_normalize_loops(frozen(nodes), cuts)), cuts)
    if not np.array_equal(np.sort(cover.edge_codes), np.sort(mg.codes)):
        raise ContractError("loops do not cover the multigraph edges exactly once")
    return cover


def build_loop_cover(n: int, pairs: np.ndarray) -> LoopCover:
    """Eulerian augmentation of the (E, 2) edges ``pairs``, then loop decomposition."""
    return decompose_loops(eulerian_augment(n, pairs))


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
class PlantedInstance:
    """Clause i is loop ``clause_loops[i]`` of ``cover`` with magnitude
    ``magnitudes[i]``, its coupling at loop position ``flips[i]`` flipped (-1
    for a 2-cycle, kept purely ferromagnetic); the three arrays are read-only."""

    problem: IsingProblem
    planted: np.ndarray
    params: GeneratorParams
    clause_loops: np.ndarray
    magnitudes: np.ndarray
    flips: np.ndarray
    planted_energy: float
    cover: LoopCover | None = field(default=None, repr=False)


def _clause_positions(cover: LoopCover, loops: np.ndarray):
    """(clause, pos, a, b) per position of each of ``loops`` in turn: its
    clause, its position in the loop and the ends of the edge leaving it."""
    lengths = cover.lengths[loops]
    clause = np.repeat(np.arange(loops.size), lengths)
    pos = np.arange(clause.size) - (np.cumsum(lengths) - lengths)[clause]
    return (clause, pos, *np.divmod(cover.edge_codes[cover.offsets[loops][clause] + pos],
                                    cover.n))


def clause_couplers(cover: LoopCover, planted: np.ndarray, loops: np.ndarray,
                    magnitudes: np.ndarray, flips: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(codes, values): the couplers of the clauses, in the planted gauge.

    Each loop position contributes the ferromagnetic -magnitude * s_a * s_b,
    negated at the flip position.  Contributions are summed per edge code,
    left to right, codes in the order of their first contribution (a sum can
    be an exact zero)."""
    clause, pos, a, b = _clause_positions(cover, loops)
    ferro = -magnitudes[clause] * planted[a] * planted[b]
    value = np.where(pos == flips[clause], -ferro, ferro)
    codes, first, group = np.unique(a * cover.n + b, return_index=True, return_inverse=True)
    order = np.argsort(first)  # codes in the order of their first position
    return codes[order], np.bincount(group, weights=value)[order]


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
    n_loops = cover.lengths.size
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
    selected = frozen(np.sort(pick.choice(n_loops, size=n_select, replace=False)))
    # each loop's stream draws random() and then, for a loop of length >= 3,
    # integers(length); a shorter loop's pick is drawn last and dropped
    lengths = cover.lengths[selected]
    uniforms, picks = rng.random_then_integers(params.seed, rng.STREAM_LOOP,
                                               selected, lengths)
    magnitudes = frozen(np.where(uniforms < params.p_large, params.bias_large,
                                 params.bias_small), np.float64)
    flips = frozen(np.where(lengths >= 3, picks, -1))

    codes, values = clause_couplers(cover, planted, selected, magnitudes, flips)
    # the planted state breaks only the flipped couplings, so its energy is
    # about -sum |J|, which a problem must keep finite
    scale = sum(map(abs, values.tolist()))
    if not math.isfinite(scale):
        raise InvalidParameterError(f"planted energy is not finite: sum of |J| is {scale}")
    none = np.zeros(0, dtype=np.int64)
    problem = _canonical(cover.n, none, none.astype(float), *np.divmod(codes, cover.n), values)
    return PlantedInstance(problem=problem, planted=planted, params=params,
                           clause_loops=selected, magnitudes=magnitudes, flips=flips,
                           planted_energy=energy(problem, planted), cover=cover)


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
    coupler_consistent = True
    cover, loops, s, p = inst.cover, inst.clause_loops, inst.planted, inst.problem

    if cover is None:
        failures.append("instance carries no loop cover; clause checks skipped")
    else:
        clause, pos, a, b = _clause_positions(cover, loops)
        flipped = pos == inst.flips[clause]
        ferro = -inst.magnitudes[clause] * s[a] * s[b]
        # the planted configuration attains the clause minimum exactly when
        # it violates nothing but the flipped coupling
        violated = np.where(flipped, -ferro, ferro) * s[a] * s[b] > 0
        outside = (inst.flips < -1) | (inst.flips >= cover.lengths[loops])  # flips nothing
        for i in np.union1d(clause[violated != flipped], np.flatnonzero(outside)).tolist():
            expect = [] if inst.flips[i] == -1 else [int(inst.flips[i])]
            clause_failures.append((int(loops[i]), f"planted violates couplings at "
                                    f"{pos[(clause == i) & violated].tolist()}, expected {expect}"))

        # rebuilt and stored couplers, keyed by codes of one base
        base = max(cover.n, p.n)
        codes, values = clause_couplers(cover, s, loops, inst.magnitudes, inst.flips)
        ra, rb = np.divmod(codes[values != 0], cover.n)
        rebuilt = dict(zip((ra * base + rb).tolist(), values[values != 0].tolist()))
        stored = dict(zip((p.j_first * base + p.j_second).tolist(), p.j_value.tolist()))
        bad = sorted(rebuilt.keys() ^ stored.keys())[:3]
        bad += sorted(e for e in rebuilt.keys() & stored.keys() if rebuilt[e] != stored[e])[:3]
        coupler_consistent = not bad
        for e in bad[:3]:
            owners = loops[unique_codes(clause[a * base + b == e])].tolist()
            failures.append(f"coupler {divmod(e, base)} disagrees with clauses; loops {owners}")

    brute_min: float | None = None
    if p.n <= brute_cap:
        from .samplers import solve_exact
        brute_min = solve_exact(p, cap=brute_cap).min_energy
        if brute_min != inst.planted_energy:
            failures.append(
                f"brute-force minimum {brute_min} != planted energy {inst.planted_energy}")

    return PlantedReport(ok=not failures and not clause_failures and coupler_consistent,
                         clause_failures=clause_failures,
                         coupler_consistent=coupler_consistent,
                         brute_checked=brute_min is not None, brute_min=brute_min,
                         planted_energy=inst.planted_energy, failures=failures)


# ---------------------------------------------------------------------------
# Serialization (an instance file holds neither the loop cover nor the clauses:
# no stage reads them, and the cover file and the params regenerate them)

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
        "loop_count": (inst.clause_loops if inst.cover is None else inst.cover.lengths).size,
        "planted_energy": inst.planted_energy,
    }
