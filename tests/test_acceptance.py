"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; seeds are fixed.
"""

import json

import numpy as np
import pytest

from anneal_rbm import rng as rbm_rng
from anneal_rbm.cli import main as cli_main
from anneal_rbm.decode import (build_qac_problem, decode_majority, decode_rbm,
                               decode_sqa_repeat)
from anneal_rbm.embedding import (combine_qac_rbm, partition_replicas, tile_qac,
                                  verify_partition)
from anneal_rbm.experiments import gsp
from anneal_rbm.ising import energies, energy, make_problem, replicate
from anneal_rbm.planted import (GeneratorParams, build_loop_cover,
                                generate_instance, verify_planted)
from anneal_rbm.samplers import (AnnealParams, NoiseModel, SampleSet,
                                 region_biases, sample_sa)
from anneal_rbm.topology import (apply_defects, build_chimera, build_pegasus,
                                 graph_stats)
from conftest import iso_maps, logical_edges, pegasus_ball, regions, spins
from structure_reference import QacUnit, qac_encoding


def announce(criterion: str, ok: bool):
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_c01_topology_exactness():
    ok = all(build_pegasus(m).node_ids.size == 24 * m * (m - 1) for m in (2, 3, 4, 16))
    cell = graph_stats(build_chimera(1, 1, 4))
    ok = ok and (cell.num_nodes, cell.num_edges) == (8, 16)
    announce("C1 topology exactness", ok)


def test_c02_partition_validity_with_defects():
    g = build_pegasus(4)
    ok = True
    for k in (2, 4, 8):
        part = partition_replicas(g, k)
        report = verify_partition(part, g)
        ok = ok and report.ok and report.induced_symmetric
        # inject single-qubit defects inside two different regions
        isos, regs = iso_maps(part), regions(part)
        victims = [sorted(regs[0])[3], sorted(regs[-1])[7]]
        defective = apply_defects(g, victims)
        dpart = partition_replicas(defective, k)
        dreport = verify_partition(dpart, defective)
        ok = ok and dreport.ok and dreport.induced_symmetric
        # every victim's orbit is excised from every region
        for victim in victims:
            for r in range(k):
                inv = {q: v for v, q in isos[r].items()}
                if victim in inv:
                    orbit = {isos[s][inv[victim]] for s in range(k)}
                    assert not orbit & set().union(*regions(dpart))
        ok = ok and dpart.n_logical < part.n_logical
    announce("C2 partition validity and symmetric defect excision", ok)


def test_c03_structural_reference_m16():
    g = build_pegasus(16)
    part = partition_replicas(g, 4)
    report = verify_partition(part, g)
    region_nodes = min(report.region_node_counts)
    region_edges = min(report.region_edge_counts)
    comb = combine_qac_rbm(g, 4)
    inst = comb.rbm_partition.logical_graph()
    stats = graph_stats(inst)
    ok = (report.ok and region_nodes >= 1219 and region_edges >= 8259
          and stats.num_nodes >= 95 and stats.num_edges >= 125)
    print(f"  regions: {region_nodes} nodes / {region_edges} edges "
          f"(floors 1219/8259); instance graph: {stats.num_nodes} nodes / "
          f"{stats.num_edges} edges (floors 95/125)")
    announce("C3 structural reference at m=16", ok)


def test_c04_planted_optimality_200_instances():
    structures = [pegasus_ball(2, size) for size in (14, 16, 18, 20)]
    covers = [build_loop_cover(n, edges) for n, edges in structures]
    bias_sets = ((9, 2), (10, 2), (11, 2))
    betas = (0.7, 1.0)
    checked = 0
    failures = 0
    seed = 0
    while checked < 200:
        cover = covers[checked % len(covers)]
        large, small = bias_sets[checked % 3]
        beta = betas[checked % 2]
        inst = generate_instance(cover, GeneratorParams(
            bias_large=large, bias_small=small, p_large=0.08, beta=beta,
            seed=seed))
        report = verify_planted(inst, brute_cap=24)
        assert report.brute_checked
        if not (report.ok and report.brute_min == inst.planted_energy):
            failures += 1
        checked += 1
        seed += 1
    print(f"  brute-force minimum == planted energy in {checked - failures}/{checked}")
    announce("C4 planted optimality 200/200", failures == 0 and checked == 200)


def test_c05_loop_cover_contract():
    g = build_pegasus(4)
    for k in (2, 4):
        part = partition_replicas(g, k)
        cover = build_loop_cover(part.n_logical, logical_edges(part))
        codes, mult = np.unique(cover.edge_codes, return_counts=True)
        assert np.array_equal(codes, part.edge_codes)
        assert ((1 <= mult) & (mult <= 2)).all()
        # augmented degrees all even
        degree = np.bincount(np.concatenate(np.divmod(cover.edge_codes, part.n_logical)))
        assert (degree % 2 == 0).all()
    announce("C5 loop cover contract (each edge in 1..2 loops, even degrees)", True)


def test_c06_magnitude_statistics():
    g = build_pegasus(4)
    part = partition_replicas(g, 2)
    cover = build_loop_cover(part.n_logical, logical_edges(part))
    magnitudes = []
    seed = 1000
    while len(magnitudes) < 2000:
        inst = generate_instance(cover, GeneratorParams(
            bias_large=9, bias_small=2, p_large=0.08, beta=1.0, seed=seed))
        magnitudes += inst.magnitudes.tolist()
        seed += 1
    freq = sum(1 for m in magnitudes if m == 9) / len(magnitudes)
    print(f"  large-magnitude frequency {freq:.4f} over {len(magnitudes)} loops "
          f"(band [0.06, 0.10])")
    announce("C6 magnitude statistics", 0.06 <= freq <= 0.10)


def test_c07_decode_oracles():
    logical = make_problem(4, {0: 1.0}, {(0, 1): -2.0, (1, 2): 1.0, (2, 3): -1.0})
    from test_decode import synthetic_partition, synthetic_samples
    draw = np.random.default_rng(123)
    ok = True
    for trial in range(50):
        k = int(draw.integers(1, 5))
        reads = int(draw.integers(1, 12))
        part = synthetic_partition(k, logical.n)
        arr = (draw.integers(0, 2, size=(reads, k * logical.n)) * 2 - 1).astype(np.int8)
        sol = decode_rbm(synthetic_samples(arr), part, logical)
        oracle = min(energy(logical, arr[r, i * logical.n:(i + 1) * logical.n])
                     for r in range(reads) for i in range(k))
        ok = ok and sol.energy == oracle

    # majority-vote reference behavior: problem qubits 1,1,-1 vote +1 no
    # matter what the penalty qubit reads
    cell = tile_qac(build_chimera(1, 1, 4))
    pair = make_problem(2, {}, {(0, 1): -1.0})
    qp = build_qac_problem(pair, cell, alpha=0.0)
    cases = 0
    for perm in ((1, 1, -1), (1, -1, 1), (-1, 1, 1)):
        for pen in (-1, 1):
            vals = {}
            (problem0, problem1), (hub0, hub1) = cell.problem.tolist(), cell.penalty.tolist()
            for q, v in zip(problem0, perm):
                vals[q] = v
            vals[hub0] = pen
            for q in (*problem1, hub1):
                vals[q] = 1
            read = np.array([[vals[q] for q in qp.placement.tolist()]], dtype=np.int8)
            ss = SampleSet(reads=read, energies=energies(qp.problem, read),
                           sampler="synthetic")
            votes, _ = decode_majority(ss, cell, pair)
            ok = ok and votes[0, 0] == 1
            cases += 1
    print(f"  50 enumeration cross-checks, {cases} majority-vote cases")
    announce("C7 decode oracles", ok)


def test_c08_penalty_bookkeeping():
    ok = True
    for alpha in (-0.25, -1.0, -3.0):
        enc = qac_encoding((QacUnit((0, 1, 2), 3),), {})
        qp = build_qac_problem(make_problem(1), enc, alpha=alpha)
        for flip_slot in range(3):
            agree = spins(-1, -1, -1, -1)
            disagree = agree.copy()
            disagree[flip_slot] = 1
            delta = energy(qp.problem, disagree) - energy(qp.problem, agree)
            ok = ok and delta == 2 * abs(alpha)
    announce("C8 penalty bookkeeping (flip costs exactly 2|alpha|)", ok)


def test_c09_bias_mitigation_property():
    reps, instances = 20, 5
    reads, sweeps = 50, 60
    g = build_pegasus(4)
    part = partition_replicas(g, 4)
    cover = build_loop_cover(part.n_logical, logical_edges(part))
    placement0 = part.images[0]
    energy_wins = gsp_wins = 0
    for rep in range(reps):
        draw = rbm_rng.stream(777, 50, rep)
        deltas = [float(d) for d in draw.uniform(-6.0, 6.0, 4)]
        noise = NoiseModel(sigma_h=0.1, sigma_j=0.02, chip_seed=77700 + rep,
                           region_bias=region_biases(part.images, deltas))
        rbm_results, sqa_results = [], []
        for _ in range(instances):
            inst = generate_instance(cover, GeneratorParams(
                bias_large=10, bias_small=2, p_large=0.08, beta=1.0,
                seed=int(draw.integers(1 << 62))))
            rp = replicate(inst.problem, part)
            ss = sample_sa(rp.problem,
                           AnnealParams(reads, sweeps, seed=int(draw.integers(1 << 62))),
                           noise, rp.placement)
            rbm = decode_rbm(ss, part, inst.problem)
            repeats = [sample_sa(inst.problem,
                                 AnnealParams(reads, sweeps,
                                              seed=int(draw.integers(1 << 62))),
                                 noise, placement0)
                       for _ in range(part.k)]
            sqa = decode_sqa_repeat(repeats, inst.problem)
            rbm_results.append((rbm.energy, inst.planted_energy))
            sqa_results.append((sqa.energy, inst.planted_energy))
        rbm_mean = sum(b for b, _ in rbm_results) / instances
        sqa_mean = sum(b for b, _ in sqa_results) / instances
        energy_wins += rbm_mean <= sqa_mean
        gsp_wins += gsp(rbm_results) >= gsp(sqa_results)
    print(f"  paired wins over {reps} repetitions: energy {energy_wins}/{reps}, "
          f"gsp {gsp_wins}/{reps} (threshold 70%)")
    announce("C9 bias mitigation property",
             energy_wins >= 0.7 * reps and gsp_wins >= 0.7 * reps)


def test_c10_determinism_byte_identical(tmp_path):
    def pipeline(root):
        root.mkdir()
        graph = root / "graph.json"
        part = root / "part.json"
        insts = root / "insts"
        samples = root / "samples.json"
        solution = root / "solution.json"
        assert cli_main(["topology", "build", "--family", "pegasus", "--m", "2",
                         "--out", str(graph)]) == 0
        assert cli_main(["embed", "partition", "--graph", str(graph), "--k", "2",
                         "--out", str(part)]) == 0
        assert cli_main(["generate", "--cover-from", str(part), "--beta", "1.0",
                         "--bias", "10,2", "--p", "0.08", "--seed", "9",
                         "--count", "2", "--out", str(insts)]) == 0
        assert cli_main(["sample", "--problem", str(insts / "instance_000.json"),
                         "--replicate", str(part), "--reads", "20", "--sweeps",
                         "50", "--seed", "4", "--out", str(samples)]) == 0
        assert cli_main(["decode", "rbm", "--samples", str(samples),
                         "--structure", str(part),
                         "--problem", str(insts / "instance_000.json"),
                         "--out", str(solution)]) == 0
        return [graph, part, insts / "instance_000.json",
                insts / "instance_001.json", samples, solution]

    first = pipeline(tmp_path / "run1")
    second = pipeline(tmp_path / "run2")
    ok = all(a.read_bytes() == b.read_bytes() for a, b in zip(first, second))
    announce("C10 determinism (byte-identical stage payloads)", ok)
