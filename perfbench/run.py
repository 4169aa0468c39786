"""Benchmark of the anneal-rbm workbench: end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload study_desk --seed 0 --seconds 40 --trace 0

The package is imported from ``src/`` and driven in this one process through
its public entry points (``cli.main``).  A run repeats passes of the workload
until ``--seconds`` have gone by and reports medians over the passes.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and prints the per-layer metrics.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_PROBES = 2  # per pass, spread over the run like the passes

sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def fail_setup(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_package():
    """Import anneal_rbm from this checkout's src/, or exit with code 2."""
    if not (SRC / "anneal_rbm" / "__init__.py").is_file():
        fail_setup(f"no package at {SRC / 'anneal_rbm'}; "
                   "run from the root of a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import anneal_rbm
    from anneal_rbm import cli
    if Path(anneal_rbm.__file__).resolve().parent != (SRC / "anneal_rbm").resolve():
        fail_setup(f"imported anneal_rbm from {anneal_rbm.__file__}, not from {SRC}")
    return cli


def environment() -> dict:
    """What the run ran on; taken before the package is imported."""
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        **{var: os.environ.get(var) for var in (
            "ANNEAL_RBM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
            "MKL_NUM_THREADS")},
    }


def thread_count() -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def blas_name() -> str:
    import numpy
    try:
        return numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def measure_setup(workload: str, seed: int, count: int) -> list[float]:
    """Wall seconds of `count` fresh interpreters that each import the
    package and generate the workload's inputs, then exit."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return times


def run_pass(cli, plan, tracer=None) -> dict:
    """One pass: every stage through cli.main, timed; then the checks."""
    shutil.rmtree(plan.out_dir, ignore_errors=True)
    os.makedirs(plan.out_dir)
    failures = []
    sink = io.StringIO()  # the CLI reports each file it writes on stdout
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        with contextlib.redirect_stdout(sink):
            cpu0, wall0 = time.process_time(), time.perf_counter()
            for argv in plan.stages:
                try:
                    rc = cli.main(argv)
                except Exception as exc:  # a crash is a failed operation
                    failures.append(f"{' '.join(argv[:2])}: {type(exc).__name__}: {exc}")
                    continue
                if rc != 0:
                    failures.append(f"{' '.join(argv[:2])}: exit code {rc}")
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    finally:
        if tracer is not None:
            tracer.restore()
    checked = plan.check(plan)
    failures += checked.failures
    return {"wall_s": wall, "cpu_s": cpu, "fingerprint": checked.fingerprint,
            "failures": failures, "counts": checked.counts,
            "ops": checked.counts["tasks"] + len(plan.stages)}


def layer_metrics(tracer, counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans and the counts
    its checks took."""
    summary = tracer.summary()

    def total(*names):
        return tracer.group_time(names)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def layer_self(layer):
        return sum(row["self_s"] for name, row in summary.items()
                   if name.split(".", 1)[0] == layer)

    sa_self = summary.get("samplers.sample_sa", {}).get("self_s", 0.0)
    spin_updates = tracer.counts["spin_updates"]
    return {
        "samplers.sample_sa_self_s": sa_self,
        "samplers.spin_updates_per_s": spin_updates / sa_self if sa_self else 0.0,
        "samplers.calls": calls("samplers.sample_sa"),
        "samplers.spin_updates": spin_updates,
        "samplers.perturb_s": total("samplers.NoiseModel.perturb"),
        "rng.streams": calls("rng.stream"),
        "samplers.export_s": total("samplers.sampleset_to_dict", "samplers.export_samples"),
        "samplers.import_s": total("samplers.import_samples", "samplers.sampleset_from_dict"),
        "samplers.sample_bytes": counts["sample_bytes"],
        "cli.self_s": layer_self("cli"),
        "cli.bytes_read": counts["bytes_read"],
        "planted.loop_cover_s": total("planted.build_loop_cover"),
        "planted.generate_s": total("planted.generate_instance"),
        "planted.instances": calls("planted.generate_instance"),
        "topology.build_s": total("topology.build_pegasus", "topology.build_chimera"),
        "topology.io_s": total("topology.graph_to_dict", "topology.graph_from_dict",
                               "topology.write_graph", "topology.read_graph"),
        "embedding.partition_s": total("embedding.partition_replicas"),
        "embedding.verify_s": total("embedding.verify_partition"),
        "embedding.combine_s": total("embedding.combine_qac_rbm"),
        "embedding.io_s": total(*(f"embedding.{kind}_{way}"
                                  for kind in ("partition", "encoding", "combined")
                                  for way in ("to_dict", "from_dict")),
                                "embedding.write_json"),
        "ising.replicate_s": total("ising.replicate"),
        "ising.energies_s": total("ising.energies"),
        "ising.energies_rows": tracer.counts["energies_rows"],
        "decode.rbm_s": total("decode.decode_rbm"),
        "decode.build_qac_s": total("decode.build_qac_problem"),
        "decode.majority_s": total("decode.decode_majority"),
        "decode.sqa_repeat_s": total("decode.decode_sqa_repeat"),
        "experiments.self_s": layer_self("experiments"),
        "experiments.render_s": total("experiments.render_report",
                                      "experiments.report_to_dict",
                                      "experiments.report_to_csv",
                                      "experiments.emit_report"),
        "experiments.tasks": counts["tasks"],
    }


def trace_failures(layer: dict, plan) -> list[str]:
    """The trace must see exactly the annealer work the workload defines."""
    bad = []
    if layer["samplers.calls"] != plan.sa_calls:
        bad.append(f"trace saw {layer['samplers.calls']} sample_sa calls, "
                   f"workload defines {plan.sa_calls}")
    if layer["samplers.spin_updates"] != plan.spin_updates:
        bad.append(f"trace counted {layer['samplers.spin_updates']} spin updates, "
                   f"workload requests {plan.spin_updates}")
    return bad


def _sample_sa_counts(args, kwargs):
    p = args[0] if args else kwargs["p"]
    params = args[1] if len(args) > 1 else kwargs["params"]
    return {"spin_updates": p.n * params.num_reads * params.sweeps}


def _energies_counts(args, kwargs):
    states = args[1] if len(args) > 1 else kwargs["states"]
    return {"energies_rows": len(states)}


COUNTERS = {"samplers.sample_sa": _sample_sa_counts,
            "ising.energies": _energies_counts}

# Per-layer metrics that are exact counts: identical on every traced pass.
EXACT = ("samplers.calls", "samplers.spin_updates", "rng.streams",
         "samplers.sample_bytes", "cli.bytes_read", "planted.instances",
         "ising.energies_rows", "experiments.tasks")

def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def pinned_fingerprint(workload: str, seed: int) -> str | None:
    with open(HERE / "fingerprints.json") as f:
        return json.load(f).get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    env = environment()
    # The load runs single-process and sequential, as the package defaults to.
    os.environ.pop("ANNEAL_RBM_THREADS", None)
    cli = import_package()
    prepare = workloads.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)

    if args.setup_probe:
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            prepare(args.seed, tmp, os.path.join(tmp, "out"))
        return 0

    import numpy
    env.update(numpy=numpy.__version__, blas=blas_name())

    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        plan = prepare(args.seed, str(work), str(work / "out"))
        passes, traced, setup_times = [], [], []
        tracer = tracing.Tracer(counters=COUNTERS) if args.trace else None
        layers = []
        # Start a pass only if it can end within --seconds (the first always
        # runs), judging by the median length of the iterations so far.
        deadline = time.perf_counter() + args.seconds
        lengths = []
        while not lengths or time.perf_counter() + statistics.median(lengths) <= deadline:
            began = time.perf_counter()
            if tracer is None:
                setup_times += measure_setup(args.workload, args.seed, SETUP_PROBES)
            passes.append(run_pass(cli, plan))
            if tracer is not None:
                traced.append(run_pass(cli, plan, tracer))
                layers.append(layer_metrics(tracer, traced[-1]["counts"]))
                traced[-1]["failures"] += trace_failures(layers[-1], plan)
            lengths.append(time.perf_counter() - began)
        env.update(threads_end=thread_count(), loadavg_end=list(os.getloadavg()))
        if tracer is not None:
            tracer.write(str(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs = passes + traced
    failures = [f for r in runs for f in r["failures"]]
    fingerprints = sorted({r["fingerprint"] for r in runs})
    if len(fingerprints) != 1:
        failures.append(f"passes disagree on the fingerprint: {fingerprints}")
    pinned = pinned_fingerprint(args.workload, args.seed)
    if pinned is not None and fingerprints != [pinned]:
        failures.append(f"fingerprint {fingerprints} differs from pinned {pinned}")
    if env["threads_end"] > env["nproc"]:
        failures.append(f"{env['threads_end']} threads on {env['nproc']} cores")
    for name in EXACT:
        if len({layer[name] for layer in layers}) > 1:
            failures.append(f"{name} differs between traced passes")

    med = statistics.median
    if args.trace:
        metrics = {name: med(layer[name] for layer in layers) for name in layers[0]}
        metrics["trace.overhead_s"] = (med(r["wall_s"] for r in traced)
                                       - med(r["wall_s"] for r in passes))
    else:
        wall = med(r["wall_s"] for r in passes)
        metrics = {
            "wall_s": wall,
            "cpu_s": med(r["cpu_s"] for r in passes),
            "spin_updates_per_s": plan.spin_updates / wall,
            "setup_s": med(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "output_bytes": passes[0]["counts"]["output_bytes"],
            "ops": passes[0]["ops"],
        }

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": env, "fingerprint": fingerprints[0],
        "fingerprint_pinned": pinned, "failures": failures,
        "pass_wall_s": [r["wall_s"] for r in passes],
        "traced_wall_s": [r["wall_s"] for r in traced],
        "setup_probe_s": setup_times,
        "files": passes[0]["counts"].get("files", {}),
        "last_traced_pass": tracer.summary() if tracer is not None else {},
    }
    with open(WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as f:
        json.dump({**detail, "metrics": metrics}, f, indent=1, sort_keys=True)

    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are "
                           "measured or declared in BENCHMARK.json, not both")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} traced={len(traced)}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"fingerprint {fingerprints[0]} pinned={pinned}")
    for failure in failures:
        print(f"FAILED {failure}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {units[name]}")
    attempted = sum(r["ops"] for r in runs)
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
