"""The benchmark's workloads, their correctness checks and output fingerprints.

A workload turns a seed into input files and a list of ``cli.main`` argument
lists (the stages of one pass).  After a pass, `Plan.check` reads what the
stages wrote, checks it independently of the package where it can, and
returns the pass's fingerprint, failures and exact counts.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

READS = 100

# Flags whose value names a file the stage reads.
INPUT_FLAGS = ("--config", "--graph", "--cover-from", "--problem", "--replicate",
               "--qac", "--noise", "--samples", "--structure")

# Logical sizes of the fixed (unseeded) structures the workloads use:
# Pegasus m=4 split into k replicas, the m=8 and m=16 combined structures at
# k=4, and the m=16 partition at k=4.  The checks compare them with what the
# program reports, so a drift shows as a failure, not as a silent change of
# the spin-update count.
SCALING_LOGICAL = {2: 120, 4: 48, 8: 12}
QAC_M8_LOGICAL = 64
PART_M16_LOGICAL = 1344
COMB_M16_LOGICAL = 314


def ising_energy(problem: dict, spins: list[int]) -> float:
    """E(s) = sum_i h_i s_i + sum_(a,b) J_ab s_a s_b from a problem payload.

    Pure Python, independent of the package; the generated coefficients are
    integers, so the sum is exact whatever the order of terms.
    """
    e = 0.0
    for i, v in problem.get("h", {}).items():
        e += v * spins[int(i)]
    for key, v in problem.get("J", {}).items():
        a, b = key.split(",")
        e += v * spins[int(a)] * spins[int(b)]
    return e


def _read_json(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def _sha256_file(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, name))
               for d, _, names in os.walk(path) for name in names)


def bytes_read(stages: list[list[str]]) -> int:
    """Bytes of the input files named on the stages' command lines."""
    total = 0
    for argv in stages:
        for flag, value in zip(argv, argv[1:]):
            if flag in INPUT_FLAGS and os.path.isfile(value):
                total += os.path.getsize(value)
    return total


@dataclass
class CheckResult:
    fingerprint: str
    failures: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)


@dataclass
class Plan:
    """One workload at one seed: stages to run and what they must produce."""

    stages: list[list[str]]
    out_dir: str
    sa_calls: int        # sample_sa calls the stages must make
    spin_updates: int    # sum of reads x sweeps x n over those calls
    check: Callable[["Plan"], CheckResult]


# ---------------------------------------------------------------------------
# study_desk: both study runners and the report emitter, annealer-bound.

DESK_SWEEPS = 100
DESK_BETAS = (1.0,)
DESK_NOISE = {"sigma_h": 0.05, "sigma_j": 0.02}


def prepare_study_desk(seed: int, in_dir: str, out_dir: str) -> Plan:
    r = random.Random(seed)
    noise = dict(DESK_NOISE, chip_seed=r.randrange(1 << 31))
    scaling = {
        "study": "scaling", "graph_m": 4, "k_values": sorted(SCALING_LOGICAL),
        "scaling_bias": [10, 2], "p_large": 0.08, "beta_grid": list(DESK_BETAS),
        "instances_per_cell": 1, "num_reads": READS, "sweeps": DESK_SWEEPS,
        "seed": r.randrange(1 << 31), "noise": noise,
    }
    qac = {
        "study": "qac_comparison", "graph_m": 8, "k": 4, "bias_sets": [[10, 2]],
        "p_large": 0.08, "beta": 1.0, "instances_per_cell": 1,
        "num_reads": READS, "sweeps": DESK_SWEEPS, "alpha": -1.0,
        "seed": r.randrange(1 << 31), "noise": noise,
    }
    stages = []
    for study, cfg in (("scaling", scaling), ("qac", qac)):
        path = os.path.join(in_dir, f"{study}.json")
        with open(path, "w") as f:
            json.dump(cfg, f, indent=1, sort_keys=True)
        stages.append(["experiment", study, "--config", path,
                       "--out", os.path.join(out_dir, study)])

    per_scaling_instance = sum(1 + k for k in SCALING_LOGICAL)
    # replication anneals k*n spins once; the baseline anneals n spins k times
    scaling_spins = sum(2 * k * n for k, n in SCALING_LOGICAL.items())
    cells = len(DESK_BETAS)
    return Plan(
        stages=stages, out_dir=out_dir,
        sa_calls=cells * per_scaling_instance + 3,
        spin_updates=READS * DESK_SWEEPS * (cells * scaling_spins
                                            + 3 * 4 * QAC_M8_LOGICAL),
        check=_check_study_desk)


def _check_report(report: dict, csv_text: str, methods: tuple[str, ...],
                  cells: int, sizes: dict[str, int]) -> list[str]:
    """Recompute every aggregate of a report from its own records."""
    bad = []
    if len(report["cells"]) != cells * len(methods):
        bad.append(f"{report['study']}: {len(report['cells'])} method cells, "
                   f"expected {cells * len(methods)}")
    for c in report["cells"]:
        recs = c["records"]
        where = f"{report['study']} {c['cell']} {c['method']}"
        if c["method"] not in methods or len(recs) != 1:
            bad.append(f"{where}: unexpected method or record count")
            continue
        for rec in recs:
            if rec["best"] < rec["planted"]:
                bad.append(f"{where}: best {rec['best']} below planted "
                           f"minimum {rec['planted']}")
        best = sum(r["best"] for r in recs) / len(recs)
        planted = sum(r["planted"] for r in recs) / len(recs)
        hits = sum(1 for r in recs if r["best"] == r["planted"]) / len(recs)
        if (c["mean_best"], c["mean_planted"], c["gsp"]) != (best, planted, hits):
            bad.append(f"{where}: aggregates disagree with records")
    for key, n in sizes.items():
        got = report["instance_sizes"].get(key, {}).get("n_linear")
        if got != n:
            bad.append(f"{report['study']}: {key} has {got} logical variables, "
                       f"expected {n}")
    rows = csv_text.strip().split("\n")[1:]
    if len(rows) != len(report["cells"]):
        bad.append(f"{report['study']}: report.csv has {len(rows)} rows for "
                   f"{len(report['cells'])} cells")
    return bad


def _check_study_desk(plan: Plan) -> CheckResult:
    digest = hashlib.sha256()
    failures, tasks, files = [], 0, {}
    expect = {
        "scaling": (("rbm", "sqa"), len(DESK_BETAS) * len(SCALING_LOGICAL),
                    {f"k{k}": n for k, n in SCALING_LOGICAL.items()}),
        "qac": (("rbm", "qac", "sqa"), 1, {"qac_k4": QAC_M8_LOGICAL}),
    }
    for study, (methods, cells, sizes) in expect.items():
        out = os.path.join(plan.out_dir, study)
        try:
            report = _read_json(os.path.join(out, "report.json"))
            with open(os.path.join(out, "report.csv")) as f:
                csv_text = f.read()
            failures += _check_report(report, csv_text, methods, cells, sizes)
            tasks += sum(len(c["records"]) for c in report["cells"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            failures.append(f"{study}: unreadable report ({type(exc).__name__}: {exc})")
            continue
        for name in ("report.json", "report.csv"):
            files[f"{study}/{name}"] = _sha256_file(os.path.join(out, name))
    for key in sorted(files):
        digest.update(f"{key}:{files[key]}\n".encode())
    return CheckResult(
        fingerprint=digest.hexdigest(), failures=failures,
        counts={"tasks": tasks, "output_bytes": _tree_bytes(plan.out_dir),
                "sample_bytes": 0, "bytes_read": bytes_read(plan.stages),
                "files": files})


# ---------------------------------------------------------------------------
# pipeline_m16: every CLI stage on hardware-scale files, one short anneal.

PIPE_SWEEPS = 10
PIPE_K = 4
PIPE_NOISE = {"sigma_h": 0.05, "sigma_j": 0.02}


def prepare_pipeline_m16(seed: int, in_dir: str, out_dir: str) -> Plan:
    r = random.Random(seed)
    noise = os.path.join(in_dir, "noise.json")
    with open(noise, "w") as f:
        json.dump(dict(PIPE_NOISE, chip_seed=r.randrange(1 << 31)), f,
                  indent=1, sort_keys=True)
    o = {name: os.path.join(out_dir, name) for name in (
        "graph.json", "part.json", "comb.json", "inst_rbm", "inst_qac",
        "samples_rbm.json", "solution_rbm.json", "samples_qac.json",
        "solution_qac.json")}
    inst_rbm = os.path.join(o["inst_rbm"], "instance_000.json")
    inst_qac = os.path.join(o["inst_qac"], "instance_000.json")
    anneal = ["--reads", str(READS), "--sweeps", str(PIPE_SWEEPS), "--noise", noise]
    stages = [
        ["topology", "build", "--family", "pegasus", "--m", "16",
         "--out", o["graph.json"]],
        ["embed", "partition", "--graph", o["graph.json"], "--k", str(PIPE_K),
         "--out", o["part.json"]],
        ["embed", "combined", "--graph", o["graph.json"], "--k", str(PIPE_K),
         "--out", o["comb.json"]],
        ["generate", "--cover-from", o["part.json"], "--seed", str(r.randrange(1 << 31)),
         "--count", "1", "--out", o["inst_rbm"]],
        ["generate", "--cover-from", o["comb.json"], "--seed", str(r.randrange(1 << 31)),
         "--count", "1", "--out", o["inst_qac"]],
        ["sample", "--problem", inst_rbm, "--replicate", o["part.json"], *anneal,
         "--seed", str(r.randrange(1 << 31)), "--out", o["samples_rbm.json"]],
        ["decode", "rbm", "--samples", o["samples_rbm.json"], "--structure",
         o["part.json"], "--problem", inst_rbm, "--out", o["solution_rbm.json"]],
        ["sample", "--problem", inst_qac, "--qac", o["comb.json"], *anneal,
         "--seed", str(r.randrange(1 << 31)), "--out", o["samples_qac.json"]],
        ["decode", "qac", "--samples", o["samples_qac.json"], "--structure",
         o["comb.json"], "--problem", inst_qac, "--out", o["solution_qac.json"]],
    ]
    return Plan(
        stages=stages, out_dir=out_dir, sa_calls=2,
        spin_updates=READS * PIPE_SWEEPS * (PIPE_K * PART_M16_LOGICAL
                                            + 4 * COMB_M16_LOGICAL),
        check=_check_pipeline_m16)


def _check_pipeline_m16(plan: Plan) -> CheckResult:
    # Reads are fingerprinted as the package imports them, so the package is
    # needed here; run.py puts src/ on the path before any check runs.
    from anneal_rbm import decode, ising, samplers
    from anneal_rbm.embedding import encoding_from_dict, partition_from_dict

    out = plan.out_dir
    digest = hashlib.sha256()
    failures: list[str] = []
    routes = (
        ("rbm", "inst_rbm", PIPE_K, PART_M16_LOGICAL),
        ("qac", "inst_qac", 4, COMB_M16_LOGICAL),
    )
    for method, inst_dir, width, n_logical in routes:
        try:
            inst = _read_json(os.path.join(out, inst_dir, "instance_000.json"))
            solution = _read_json(os.path.join(out, f"solution_{method}.json"))
            problem = ising.problem_from_dict(inst)
            if method == "rbm":
                part = partition_from_dict(_read_json(os.path.join(out, "part.json")))
                physical = ising.replicate(problem, part).problem
            else:
                enc = encoding_from_dict(
                    _read_json(os.path.join(out, "comb.json"))["encodings"][0])
                physical = decode.build_qac_problem(problem, enc, -1.0).problem
            reads = samplers.import_samples(
                os.path.join(out, f"samples_{method}.json"), physical).reads
        except Exception as exc:  # any failure to load is a failed check
            failures.append(f"{method}: outputs unreadable ({type(exc).__name__}: {exc})")
            continue

        if inst["n"] != n_logical:
            failures.append(f"{method}: instance has {inst['n']} variables, "
                            f"expected {n_logical}")
        if reads.shape != (READS, width * inst["n"]):
            failures.append(f"{method}: reads have shape {reads.shape}, expected "
                            f"({READS}, {width * inst['n']})")
        if reads.size and not (abs(reads.astype(int)) == 1).all():
            failures.append(f"{method}: reads hold values other than -1/+1")
        digest.update(f"{method}:reads:{reads.shape}:".encode())
        digest.update(reads.astype("int8").tobytes())

        spins = solution.get("assignment", [])
        planted = ising_energy(inst, inst["planted"])
        if planted != inst["planted_energy"]:
            failures.append(f"{method}: planted energy {inst['planted_energy']} "
                            f"recomputes to {planted}")
        if len(spins) != inst["n"] or any(s not in (-1, 1) for s in spins):
            failures.append(f"{method}: solution is not {inst['n']} spins of +-1")
        else:
            energy = ising_energy(inst, spins)
            if energy != solution["energy"]:
                failures.append(f"{method}: solution states energy "
                                f"{solution['energy']}, recomputes to {energy}")
            if energy < planted:
                failures.append(f"{method}: solution energy {energy} below the "
                                f"planted minimum {planted}")
        payload = {k: v for k, v in solution.items() if k != "meta"}
        digest.update(f"{method}:solution:".encode())
        digest.update(json.dumps(payload, sort_keys=True).encode())

    sample_bytes = sum(os.path.getsize(os.path.join(out, f"samples_{m}.json"))
                       for m in ("rbm", "qac")
                       if os.path.isfile(os.path.join(out, f"samples_{m}.json")))
    return CheckResult(
        fingerprint=digest.hexdigest(), failures=failures,
        counts={"tasks": 0, "output_bytes": _tree_bytes(out),
                "sample_bytes": sample_bytes, "bytes_read": bytes_read(plan.stages)})


WORKLOADS = {
    "study_desk": prepare_study_desk,
    "pipeline_m16": prepare_pipeline_m16,
}
