"""Command-line interface: one executable exposing every pipeline stage.

JSON is the canonical interchange format.  Every JSON output embeds a
``meta`` object with the tool version, the seed in effect and a hash of the
invocation, and re-running a command with identical inputs and seed yields
byte-identical payloads.  Exit codes: 0 success, 2 usage, 3 IO failure,
4 module contract violation.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from dataclasses import replace

from . import __version__
from .decode import (build_qac_problem, decode_majority, decode_rbm,
                     decode_sqa_repeat, solution_to_dict)
from .embedding import (combine_qac_rbm, combined_to_dict, encoding_to_dict,
                        partition_to_dict, partition_replicas,
                        structure_from_dict, tile_qac, verify_partition)
from .errors import ContractError, FormatError, InvalidParameterError
from .experiments import (config_from_dict, emit_report, report_from_dict,
                          run_experiment)
from .ising import problem_from_dict, replicate
from .jsonio import SEED_MAX, dumps, read_json, write_json
from .planted import (GeneratorParams, build_loop_cover, generate_instance,
                      instance_to_dict)
from .samplers import (AnnealParams, import_samples, noise_from_dict,
                       sampleset_to_dict, sample_sa, solve_exact)
from .topology import (BUILDERS, apply_defects, defects_from_dict, graph_from_dict,
                       graph_stats, graph_to_dict)

TOOL = "anneal-rbm"


def _fingerprint(value):
    """Input files enter the config hash by content, not by path, so the
    hash survives relocation but changes whenever an input changes."""
    if isinstance(value, str) and os.path.isfile(value):
        with open(value, "rb") as f:
            return "sha256:" + hashlib.sha256(f.read()).hexdigest()[:16]
    if isinstance(value, list):
        return [_fingerprint(v) for v in value]
    return value


def _count(text: str, low: int = 1, high: int | None = None) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    if high is not None and value > high:
        raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
    return value


def _seed(text: str) -> int:
    return _count(text, 0, SEED_MAX)


def _config_hash(ns: argparse.Namespace) -> str:
    # destinations are not configuration: identical invocations aimed at
    # different output paths must produce byte-identical payloads
    # the key below names a removed option; hashing it as null keeps the hash
    # of every invocation, and so every pinned payload, what it was before
    payload = {"threads": None}
    payload.update((k, _fingerprint(v)) for k, v in vars(ns).items()
                   if k not in ("func", "out"))
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _meta(ns: argparse.Namespace) -> dict:
    return {
        "tool": TOOL,
        "version": __version__,
        "seed": getattr(ns, "seed", None),
        "config_hash": _config_hash(ns),
    }


def _write_payload(payload: dict, path: str, ns: argparse.Namespace) -> None:
    write_json({**payload, "meta": _meta(ns)}, path)
    print(f"wrote {path}")


def _load_graph(path: str):
    return graph_from_dict(read_json(path))


def _load_structure(path: str, role: str):
    return structure_from_dict(read_json(path), role)


def _physical(problem, method: str | None, structure: str | None, alpha: float):
    """(physical problem, placement, structure) for annealing ``problem`` by
    ``method``: its k copies on a partition ("rbm"), its penalty encoding
    ("qac"), or the problem itself (None)."""
    if method == "rbm":
        part = _load_structure(structure, "partition")
        rp = replicate(problem, part)
        return rp.problem, rp.placement, part
    if method == "qac":
        enc = _load_structure(structure, "encoding")
        qp = build_qac_problem(problem, enc, alpha)
        return qp.problem, qp.placement, enc
    return problem, None, None


# ---------------------------------------------------------------------------
# Subcommand handlers

def _cmd_topology_build(ns) -> int:
    build, names = BUILDERS[ns.family]
    missing = [name for name in names if getattr(ns, name) is None]
    if missing:
        raise ContractError(f"{ns.family} graphs need --{' --'.join(missing)}")
    g = build(*(getattr(ns, name) for name in names))
    if ns.defects:
        g = apply_defects(g, *defects_from_dict(read_json(ns.defects)))
    _write_payload(graph_to_dict(g), ns.out, ns)
    return 0


def _cmd_topology_stats(ns) -> int:
    g = _load_graph(ns.graph)
    s = graph_stats(g)
    print(dumps({
        "family": g.family, "params": g.params,
        "num_nodes": s.num_nodes, "num_edges": s.num_edges,
        "average_degree": s.average_degree, "max_degree": s.max_degree,
        "degree_histogram": {str(d): c for d, c in s.degree_histogram.items()},
    }), end="")
    return 0


def _cmd_embed(ns) -> int:
    g = _load_graph(ns.graph)
    if ns.structure == "partition":
        report = verify_partition(partition_replicas(g, ns.k), g)
        if not report.ok:
            raise ContractError("partition failed verification: "
                                + "; ".join(report.failures[:3]))
        _write_payload(partition_to_dict(g, ns.k), ns.out, ns)
    elif ns.structure == "qac":
        enc = tile_qac(g)
        _write_payload(encoding_to_dict(enc), ns.out, ns)
    else:
        comb = combine_qac_rbm(g, ns.k)
        _write_payload(combined_to_dict(comb), ns.out, ns)
    return 0


def _cmd_generate(ns) -> int:
    graph = _load_structure(ns.cover_from, "graph")
    # active qubits relabelled 0..n-1 in id order
    cover = build_loop_cover(graph.active_ids.size, graph.edge_ranks.T)
    try:
        large, small = (float(x) for x in ns.bias.split(","))
    except ValueError as exc:
        raise FormatError(f"--bias expects 'LARGE,SMALL', got {ns.bias!r}") from exc
    for i in range(ns.count):
        params = GeneratorParams(bias_large=large, bias_small=small,
                                 p_large=ns.p, beta=ns.beta,
                                 seed=ns.seed + i)
        inst = generate_instance(cover, params)
        os.makedirs(ns.out, exist_ok=True)
        path = os.path.join(ns.out, f"instance_{i:03d}.json")
        _write_payload(instance_to_dict(inst), path, ns)
    return 0


def _cmd_sample(ns) -> int:
    problem = problem_from_dict(read_json(ns.problem))
    method = "rbm" if ns.replicate else "qac" if ns.qac else None
    problem, placement, _ = _physical(problem, method, ns.replicate or ns.qac, ns.alpha)
    noise = noise_from_dict(read_json(ns.noise)) if ns.noise else None
    params = AnnealParams(num_reads=ns.reads, sweeps=ns.sweeps, seed=ns.seed)
    ss = sample_sa(problem, params, noise, placement)
    _write_payload(sampleset_to_dict(ss, problem), ns.out, ns)
    return 0


def _cmd_solve_exact(ns) -> int:
    problem = problem_from_dict(read_json(ns.problem))
    sol = solve_exact(problem, cap=ns.cap)
    print(dumps({
        "min_energy": sol.min_energy,
        "num_minimizers": sol.num_minimizers,
        "minimizers": [[int(s) for s in row] for row in sol.minimizers[:ns.max_minimizers]],
    }), end="")
    return 0


def _cmd_decode(ns) -> int:
    problem = problem_from_dict(read_json(ns.problem))
    if ns.method == "sqa":
        sets = [import_samples(path, problem) for path in ns.samples]
        sol = decode_sqa_repeat(sets, problem)
    else:
        if ns.structure is None:
            raise ContractError(f"decode {ns.method} needs a structure file (--structure)")
        physical, _, structure = _physical(problem, ns.method, ns.structure, ns.alpha)
        samples = import_samples(ns.samples[0], physical)
        if ns.method == "rbm":
            sol = decode_rbm(samples, structure, problem)
        else:
            _, sol = decode_majority(samples, structure, problem,
                                     include_penalty=ns.include_penalty)
    _write_payload(solution_to_dict(sol), ns.out, ns)
    return 0


def _cmd_experiment(ns) -> int:
    data = read_json(ns.config)
    cfg = config_from_dict(data)
    study = "qac_comparison" if ns.study == "qac" else "scaling"
    if data.get("study", study) != study:
        raise InvalidParameterError(
            f"{ns.config} configures a {data['study']!r} study, not {study!r}")
    cfg = replace(cfg, study=study, seed=cfg.seed if ns.seed is None else ns.seed)
    for path in emit_report(run_experiment(cfg), ns.out, meta=_meta(ns)):
        print(f"wrote {path}")
    return 0


def _cmd_report_render(ns) -> int:
    report = report_from_dict(read_json(ns.report))
    for path in emit_report(report, ns.out, tuple(ns.formats.split(",")), meta=_meta(ns)):
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# Parser

@functools.cache  # parse_args keeps no state on the parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL,
        description="replication-based mitigation workbench for Ising annealing")
    parser.add_argument("--version", action="version", version=f"{TOOL} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    topo = sub.add_parser("topology", help="build and inspect hardware graphs")
    topo_sub = topo.add_subparsers(dest="action", required=True)
    tb = topo_sub.add_parser("build", help="construct a hardware graph")
    tb.add_argument("--family", choices=tuple(BUILDERS), required=True)
    tb.add_argument("--m", type=int, help="pegasus size")
    tb.add_argument("--rows", type=int)
    tb.add_argument("--cols", type=int)
    tb.add_argument("--shore", type=int)
    tb.add_argument("--defects", help="JSON defect mask {nodes:[], edges:[[a,b]]}")
    tb.add_argument("--out", required=True)
    tb.add_argument("--seed", type=_seed, default=None)
    tb.set_defaults(func=_cmd_topology_build)
    ts = topo_sub.add_parser("stats", help="print node/edge/degree statistics")
    ts.add_argument("graph")
    ts.set_defaults(func=_cmd_topology_stats)

    emb = sub.add_parser("embed", help="build partitions, K_(1,3) tilings and combined structures")
    emb.add_argument("structure", choices=("partition", "qac", "combined"))
    emb.add_argument("--graph", required=True)
    emb.add_argument("--k", type=int, default=4)
    emb.add_argument("--out", required=True)
    emb.add_argument("--seed", type=_seed, default=None)
    emb.set_defaults(func=_cmd_embed)

    gen = sub.add_parser("generate", help="generate planted frustrated-loop instances")
    gen.add_argument("--cover-from", dest="cover_from", required=True,
                     help="graph, partition or combined file supplying the "
                          "instance structure")
    gen.add_argument("--beta", type=float, default=1.0)
    gen.add_argument("--bias", default="10,2", help="LARGE,SMALL magnitudes")
    gen.add_argument("--p", type=float, default=0.08,
                     help="probability of the large magnitude per loop")
    gen.add_argument("--seed", type=_seed, default=0)
    gen.add_argument("--count", type=_count, default=10)
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(func=_cmd_generate)

    smp = sub.add_parser("sample", help="run the simulated annealer")
    smp.add_argument("--problem", required=True)
    physical = smp.add_mutually_exclusive_group()
    physical.add_argument("--replicate",
                          help="partition or combined file: sample the k-copy problem")
    physical.add_argument("--qac", help="encoding or combined file: sample the "
                                        "penalty-encoded problem")
    smp.add_argument("--alpha", type=float, default=-1.0)
    smp.add_argument("--reads", type=_count, default=100)
    smp.add_argument("--sweeps", type=_count, default=1000)
    smp.add_argument("--noise", help="noise model file")
    smp.add_argument("--seed", type=_seed, default=0)
    smp.add_argument("--out", required=True)
    smp.set_defaults(func=_cmd_sample)

    sx = sub.add_parser("solve-exact", help="exhaustive minimum for small problems")
    sx.add_argument("--problem", required=True)
    sx.add_argument("--cap", type=lambda text: _count(text, 0), default=24)
    sx.add_argument("--max-minimizers", dest="max_minimizers", default=64,
                    type=lambda text: _count(text, 0))
    sx.set_defaults(func=_cmd_solve_exact)

    dec = sub.add_parser("decode", help="decode physical samples to logical solutions")
    dec.add_argument("method", choices=("rbm", "qac", "sqa"))
    dec.add_argument("--samples", action="append", required=True,
                     help="sample file; repeat for the sqa method")
    dec.add_argument("--structure", help="partition (rbm), encoding (qac) or "
                                         "combined file")
    dec.add_argument("--problem", required=True, help="logical problem or instance file")
    dec.add_argument("--alpha", type=float, default=-1.0,
                     help="penalty weight the qac samples were taken with")
    dec.add_argument("--include-penalty", action="store_true",
                     help="let the penalty hub vote (ties fall back to problem qubits)")
    dec.add_argument("--out", required=True)
    dec.add_argument("--seed", type=_seed, default=None)
    dec.set_defaults(func=_cmd_decode)

    exp = sub.add_parser("experiment", help="run a full study from a config file")
    exp.add_argument("study", choices=("qac", "scaling"))
    exp.add_argument("--config", required=True)
    exp.add_argument("--out", required=True, help="output directory")
    exp.add_argument("--seed", type=_seed, default=None, help="override the config seed")
    exp.set_defaults(func=_cmd_experiment)

    rep = sub.add_parser("report", help="re-render an experiment report")
    rep_sub = rep.add_subparsers(dest="action", required=True)
    rr = rep_sub.add_parser("render")
    rr.add_argument("--report", required=True, help="report.json from an experiment run")
    rr.add_argument("--out", required=True)
    rr.add_argument("--formats", default="json,csv,svg")
    rr.set_defaults(func=_cmd_report_render)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.command == "generate" and ns.seed + ns.count - 1 > SEED_MAX:
            parser.error(f"generate --seed {ns.seed} --count {ns.count}: instance i "
                         f"is drawn with seed --seed + i, which must stay <= {SEED_MAX}")
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return ns.func(ns)
    except ContractError as exc:
        print(f"contract: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"io: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
