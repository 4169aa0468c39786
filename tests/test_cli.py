import hashlib
import json
import math

import pytest

from anneal_rbm.cli import main
from anneal_rbm.embedding import combine_qac_rbm, combined_to_dict
from anneal_rbm.experiments import config_from_dict
from anneal_rbm.jsonio import dumps, read_json
from anneal_rbm.samplers import noise_from_dict
from anneal_rbm.topology import build_pegasus, graph_from_dict


def run(*argv):
    return main(list(argv))


def test_topology_build_pegasus(tmp_path):
    out = tmp_path / "g.json"
    assert run("topology", "build", "--family", "pegasus", "--m", "2",
               "--out", str(out)) == 0
    g = graph_from_dict(read_json(str(out)))
    assert g.node_ids.size == 48
    payload = json.loads(out.read_text())
    assert payload["meta"]["tool"] == "anneal-rbm"
    assert "config_hash" in payload["meta"]


def test_topology_build_chimera_and_stats(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert run("topology", "build", "--family", "chimera", "--rows", "1",
               "--cols", "1", "--shore", "4", "--out", str(out)) == 0
    capsys.readouterr()
    assert run("topology", "stats", str(out)) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["num_nodes"] == 8 and stats["num_edges"] == 16


def test_topology_build_with_defects(tmp_path):
    mask = tmp_path / "defects.json"
    mask.write_text(json.dumps({"nodes": [0, 1], "edges": []}))
    out = tmp_path / "g.json"
    assert run("topology", "build", "--family", "pegasus", "--m", "2",
               "--defects", str(mask), "--out", str(out)) == 0
    g = graph_from_dict(read_json(str(out)))
    assert g.active_ids.size == 46


def test_unknown_subcommand_exits_2(capsys):
    assert run("frobnicate") == 2


@pytest.mark.parametrize("count", ["0", "-2", "two"])
def test_generate_count_below_one_exits_2(tmp_path, capsys, count):
    graph, out = tmp_path / "g.json", tmp_path / "inst"
    assert run("topology", "build", "--family", "pegasus", "--m", "2",
               "--out", str(graph)) == 0
    assert run("generate", "--cover-from", str(graph), "--count", count,
               "--out", str(out)) == 2
    assert "--count" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--reads", "--sweeps"])
@pytest.mark.parametrize("count", ["0", "-2", "two"])
def test_sample_count_below_one_exits_2(tmp_path, capsys, flag, count):
    problem, out = tmp_path / "p.json", tmp_path / "s.json"
    problem.write_text(json.dumps({"n": 2, "h": {}, "J": {"0,1": 1.0}}))
    assert run("sample", "--problem", str(problem), flag, count, "--out", str(out)) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64), "seven"])
@pytest.mark.parametrize("argv", [
    ["topology", "build", "--family", "pegasus", "--m", "2"],
    ["embed", "partition", "--graph", "g.json"],
    ["generate", "--cover-from", "g.json"],
    ["sample", "--problem", "p.json"],
    ["decode", "sqa", "--samples", "s.json", "--problem", "p.json"],
    ["experiment", "scaling", "--config", "c.json"],
], ids=lambda argv: argv[0])
def test_seed_outside_64_bits_exits_2(tmp_path, capsys, argv, seed):
    # streams take seeds modulo 2**64: -1 would alias 2**64 - 1
    out = tmp_path / "out"
    assert run(*argv, "--seed", seed, "--out", str(out)) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_generate_seeds_must_stay_within_64_bits(tmp_path, capsys):
    # instance i is drawn with seed --seed + i
    graph, out = tmp_path / "g.json", tmp_path / "inst"
    assert run("topology", "build", "--family", "pegasus", "--m", "2",
               "--out", str(graph)) == 0
    capsys.readouterr()
    assert run("generate", "--cover-from", str(graph), "--seed", str(2**64 - 1),
               "--count", "2", "--out", str(out)) == 2
    assert "--count" in capsys.readouterr().err
    assert not out.exists()
    assert run("generate", "--cover-from", str(graph), "--seed", str(2**64 - 2),
               "--count", "2", "--out", str(out)) == 0
    seeds = [read_json(str(out / f"instance_{i:03d}.json"))["params"]["seed"] for i in (0, 1)]
    assert seeds == [2**64 - 2, 2**64 - 1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bias", ["inf,2", "1e308,1e307"])
def test_generate_non_finite_coefficients_exit_4(tmp_path, capsys, bias):
    # inf is rejected as a bias; 1e308 makes couplers or the planted energy overflow
    graph, out = tmp_path / "g.json", tmp_path / "inst"
    assert run("topology", "build", "--family", "pegasus", "--m", "2",
               "--out", str(graph)) == 0
    assert run("generate", "--cover-from", str(graph), "--bias", bias,
               "--count", "1", "--out", str(out)) == 4
    assert capsys.readouterr().err.startswith("contract:")
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sample_problem_with_infinite_coupler_exits_4(tmp_path, capsys):
    problem, out = tmp_path / "p.json", tmp_path / "s.json"
    problem.write_text('{"n": 3, "h": {}, "J": {"0,1": Infinity, "1,2": -2}}')
    assert run("sample", "--problem", str(problem), "--reads", "4", "--sweeps", "5",
               "--out", str(out)) == 4
    assert capsys.readouterr().err.startswith("contract:")
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sample_problem_whose_coefficients_overflow_when_summed_exits_4(tmp_path, capsys):
    # each coupler is finite, but a site weight and the energies are not
    problem, out = tmp_path / "p.json", tmp_path / "s.json"
    problem.write_text('{"n": 3, "J": {"0,1": -1e308, "1,2": -1e308}}')
    assert run("sample", "--problem", str(problem), "--reads", "3", "--sweeps", "3",
               "--out", str(out)) == 4
    assert capsys.readouterr().err.startswith("contract:")
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("noise", ["sigma_j", "sigma_h"])
def test_sample_noise_that_overflows_exits_4(tmp_path, capsys, noise):
    # a coupler factor overflows in a multiply, an h offset in an add
    graph, part, inst = tmp_path / "g.json", tmp_path / "part.json", tmp_path / "inst"
    assert run("topology", "build", "--family", "pegasus", "--m", "2", "--out", str(graph)) == 0
    assert run("embed", "partition", "--graph", str(graph), "--k", "2", "--out", str(part)) == 0
    assert run("generate", "--cover-from", str(part), "--seed", "7", "--count", "1",
               "--out", str(inst)) == 0
    region = json.loads(part.read_text())["regions"][0]
    model = {"sigma_j": 1e308} if noise == "sigma_j" else {
        "sigma_h": 1e308, "region_bias": [{"qubits": region, "delta": 1.7e308}]}
    (tmp_path / "noise.json").write_text(json.dumps(model))
    out = tmp_path / "s.json"
    assert run("sample", "--problem", str(inst / "instance_000.json"), "--replicate", str(part),
               "--noise", str(tmp_path / "noise.json"), "--reads", "2", "--sweeps", "2",
               "--out", str(out)) == 4
    assert capsys.readouterr().err.startswith("contract:")
    assert not out.exists()


def test_decode_sqa_of_the_planted_read_gives_the_planted_energy(tmp_path):
    # 9.7 and 2.3 are not dyadic, so the planted energy the instance file
    # states is met only by the same sum in the same order
    graph, instances = tmp_path / "g.json", tmp_path / "inst"
    samples, solution = tmp_path / "s.json", tmp_path / "sol.json"
    assert run("topology", "build", "--family", "pegasus", "--m", "2",
               "--out", str(graph)) == 0
    assert run("generate", "--cover-from", str(graph), "--bias", "9.7,2.3",
               "--seed", "1", "--count", "1", "--out", str(instances)) == 0
    instance = instances / "instance_000.json"
    inst = read_json(str(instance))
    other = [1] * len(inst["planted"])
    samples.write_text(json.dumps({"reads": [other, inst["planted"], other]}))
    assert run("decode", "sqa", "--samples", str(samples), "--problem", str(instance),
               "--out", str(solution)) == 0
    decoded = read_json(str(solution))
    assert decoded["assignment"] == inst["planted"]
    assert decoded["energy"] == inst["planted_energy"]


def test_sample_replicate_and_qac_together_exit_2(tmp_path, capsys):
    # no input is read: the usage error comes first
    out = tmp_path / "s.json"
    assert run("sample", "--problem", str(tmp_path / "p.json"),
               "--replicate", str(tmp_path / "part.json"),
               "--qac", str(tmp_path / "enc.json"), "--out", str(out)) == 2
    assert "not allowed with" in capsys.readouterr().err
    assert not out.exists()


def test_missing_input_exits_3(tmp_path, capsys):
    assert run("topology", "stats", str(tmp_path / "absent.json")) == 3
    assert capsys.readouterr().err.startswith("io:")


def test_contract_violation_exits_4(tmp_path, capsys):
    assert run("topology", "build", "--family", "pegasus", "--m", "1",
               "--out", str(tmp_path / "g.json")) == 4
    assert capsys.readouterr().err.startswith("contract:")


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run("topology", "build", "--family", "pegasus", "--m", "2",
                   "--out", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.fixture()
def pipeline(tmp_path):
    """build -> partition -> generate -> sample -> decode on the m=2 graph."""
    graph = tmp_path / "graph.json"
    part = tmp_path / "partition.json"
    instances = tmp_path / "instances"
    samples = tmp_path / "samples.json"
    solution = tmp_path / "solution.json"
    assert run("topology", "build", "--family", "pegasus", "--m", "2",
               "--out", str(graph)) == 0
    assert run("embed", "partition", "--graph", str(graph), "--k", "2",
               "--out", str(part)) == 0
    assert run("generate", "--cover-from", str(part), "--beta", "1.0",
               "--bias", "9,2", "--p", "0.08", "--seed", "7", "--count", "1",
               "--out", str(instances)) == 0
    instance = instances / "instance_000.json"
    assert run("sample", "--problem", str(instance), "--replicate", str(part),
               "--reads", "50", "--sweeps", "200", "--seed", "3",
               "--out", str(samples)) == 0
    assert run("decode", "rbm", "--samples", str(samples), "--structure",
               str(part), "--problem", str(instance), "--out", str(solution)) == 0
    return instance, samples, solution


def test_full_pipeline_reaches_planted_energy(pipeline):
    instance, _, solution = pipeline
    planted_energy = json.loads(instance.read_text())["planted_energy"]
    decoded = json.loads(solution.read_text())
    assert decoded["energy"] == planted_energy  # GSP = 1 for this instance
    assert set(decoded) >= {"assignment", "energy", "provenance"}


def test_pipeline_stage_reruns_are_byte_identical(pipeline, tmp_path):
    instance, samples, _ = pipeline
    part = tmp_path / "partition.json"
    samples2 = tmp_path / "samples2.json"
    assert run("sample", "--problem", str(instance), "--replicate", str(part),
               "--reads", "50", "--sweeps", "200", "--seed", "3",
               "--out", str(samples2)) == 0
    a = json.loads(samples.read_text())
    b = json.loads(samples2.read_text())
    assert a["reads"] == b["reads"]
    assert a["problem_hash"] == b["problem_hash"]


#: sha256 of the instance and of a noisy sample file the m=2 pipeline
#: writes, whose reads are "+"/"-" strings.  Seeded payloads are part of the
#: reproducibility contract: a change to how streams are seeded, noise is
#: drawn or reads are serialized must leave these bytes alone.
PINNED_SHA256 = {
    "instance": "b8bc3582424087b6b6a9595e3b7fea5497f44e642edb0d32751891594665f613",
    "samples": "dcf5ce68abe109b1f84b3579134820101ed9e7ef4a49ca5ced7bc005819870ce",
}


def test_written_files_are_pinned(pipeline, tmp_path):
    instance, _, _ = pipeline
    noise = tmp_path / "noise.json"
    noise.write_text(json.dumps({"sigma_h": 0.05, "sigma_j": 0.02, "chip_seed": 11,
                                 "region_bias": [{"qubits": list(range(0, 48, 3)),
                                                  "delta": 0.25}]}))
    samples = tmp_path / "noisy.json"
    assert run("sample", "--problem", str(instance), "--replicate",
               str(tmp_path / "partition.json"), "--noise", str(noise),
               "--reads", "20", "--sweeps", "50", "--seed", "5",
               "--out", str(samples)) == 0
    got = {name: hashlib.sha256(path.read_bytes()).hexdigest()
           for name, path in (("instance", instance), ("samples", samples))}
    assert got == PINNED_SHA256


def test_solve_exact_cli(tmp_path, capsys):
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({"n": 2, "h": {}, "J": {"0,1": 1.0}}))
    assert run("solve-exact", "--problem", str(problem)) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["min_energy"] == -1.0
    assert out["num_minimizers"] == 2
    assert run("solve-exact", "--problem", str(problem), "--max-minimizers", "0") == 0
    assert json.loads(capsys.readouterr().out)["minimizers"] == []


def test_solve_exact_negative_max_minimizers_exits_2(tmp_path, capsys):
    # a negative bound used to slice the minimizer list from its end
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({"n": 2, "h": {}, "J": {"0,1": 1.0}}))
    assert run("solve-exact", "--problem", str(problem), "--max-minimizers", "-1") == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--max-minimizers" in captured.err


@pytest.mark.parametrize("cap", ["-1", "ten"])
def test_solve_exact_bad_cap_exits_2(tmp_path, capsys, cap):
    # a negative cap used to exit 4 with "capped at n<=-1"
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({"n": 2, "h": {}, "J": {"0,1": 1.0}}))
    assert run("solve-exact", "--problem", str(problem), "--cap", cap) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--cap" in captured.err


def test_embed_qac_and_sample_qac_decode(tmp_path):
    graph = tmp_path / "cell.json"
    enc = tmp_path / "enc.json"
    samples = tmp_path / "s.json"
    solution = tmp_path / "sol.json"
    problem = tmp_path / "p.json"
    assert run("topology", "build", "--family", "chimera", "--rows", "1",
               "--cols", "1", "--shore", "4", "--out", str(graph)) == 0
    assert run("embed", "qac", "--graph", str(graph), "--out", str(enc)) == 0
    problem.write_text(json.dumps({"n": 2, "h": {}, "J": {"0,1": -2.0}}))
    assert run("sample", "--problem", str(problem), "--qac", str(enc),
               "--alpha", "-1.0", "--reads", "30", "--sweeps", "100",
               "--seed", "5", "--out", str(samples)) == 0
    assert run("decode", "qac", "--samples", str(samples), "--structure",
               str(enc), "--problem", str(problem), "--alpha", "-1.0",
               "--out", str(solution)) == 0
    decoded = json.loads(solution.read_text())
    assert decoded["energy"] == -2.0


def test_combined_structure_drives_all_three_methods(tmp_path):
    """One combined embedding feeds replication, penalty-encoded and
    baseline sampling of the same instance, all through files."""
    graph = tmp_path / "g.json"
    comb = tmp_path / "comb.json"
    insts = tmp_path / "insts"
    assert run("topology", "build", "--family", "pegasus", "--m", "4",
               "--out", str(graph)) == 0
    assert run("embed", "combined", "--graph", str(graph), "--k", "4",
               "--out", str(comb)) == 0
    assert run("generate", "--cover-from", str(comb), "--beta", "1.0",
               "--bias", "9,2", "--seed", "2", "--count", "1",
               "--out", str(insts)) == 0
    instance = insts / "instance_000.json"
    planted = json.loads(instance.read_text())["planted_energy"]

    results = {}
    for method, extra in (
            ("rbm", ["--replicate", str(comb)]),
            ("qac", ["--qac", str(comb), "--alpha", "-1.0"]),
            ("sqa", ["--qac", str(comb), "--alpha", "0.0"])):
        samples = tmp_path / f"{method}.json"
        solution = tmp_path / f"{method}_sol.json"
        assert run("sample", "--problem", str(instance), *extra,
                   "--reads", "40", "--sweeps", "150", "--seed", "6",
                   "--out", str(samples)) == 0
        decode_method = "rbm" if method == "rbm" else "qac"
        alpha = {"rbm": "-1.0", "qac": "-1.0", "sqa": "0.0"}[method]
        assert run("decode", decode_method, "--samples", str(samples),
                   "--structure", str(comb), "--problem", str(instance),
                   "--alpha", alpha, "--out", str(solution)) == 0
        results[method] = json.loads(solution.read_text())["energy"]
    for method, e in results.items():
        assert e == planted, (method, e, planted)


def test_decode_without_structure_exits_4(tmp_path, capsys):
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({"n": 2, "h": {}, "J": {"0,1": -1.0}}))
    samples = tmp_path / "s.json"
    samples.write_text(json.dumps({"reads": [[1, 1]], "sampler": "x", "params": {}}))
    assert run("decode", "rbm", "--samples", str(samples),
               "--problem", str(problem), "--out", str(tmp_path / "o.json")) == 4
    assert capsys.readouterr().err.startswith("contract:")


def test_experiment_qac_study_cli(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "study": "qac_comparison", "graph_m": 4, "bias_sets": [[9, 2]],
        "instances_per_cell": 2, "num_reads": 20, "sweeps": 80, "seed": 1,
    }))
    out = tmp_path / "results"
    assert run("experiment", "qac", "--config", str(config),
               "--out", str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["study"] == "qac_comparison"
    assert {c["method"] for c in report["cells"]} == {"rbm", "qac", "sqa"}


def test_experiment_and_report_render(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "study": "scaling", "graph_m": 4, "k_values": [2], "beta_grid": [1.0],
        "instances_per_cell": 2, "num_reads": 20, "sweeps": 80, "seed": 2,
    }))
    out = tmp_path / "results"
    assert run("experiment", "scaling", "--config", str(config),
               "--out", str(out)) == 0
    report = out / "report.json"
    assert report.exists() and (out / "report.csv").exists()
    rendered = tmp_path / "rendered"
    assert run("report", "render", "--report", str(report),
               "--out", str(rendered), "--formats", "csv,svg") == 0
    assert (rendered / "report.csv").exists()
    assert (rendered / "energies.svg").exists()


def test_malformed_json_input_exits_4(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("topology", "stats", str(bad)) == 4


_CELL = {"cell": {"k": 2, "bias": [10.0, 2.0], "beta": 1.0},
         "mean_best": -8.0, "mean_planted": -8.0, "mean_normalized": 1.0, "gsp": 1.0}
_TINY = {"beta_grid": [1.0], "instances_per_cell": 1, "num_reads": 1, "sweeps": 1}
_BUILD = ["topology", "build", "--family", "pegasus", "--m", "2"]
_GRAPH = {"family": "pegasus", "params": {"m": 2}, "nodes": [0, 1], "edges": [[0, 1]]}
_PARTITION = {"k": 2, "n_logical": 2, "logical_edges": [[0, 1]],
              "iso_maps": [{"0": 0, "1": 1}, {"0": 2, "1": 3}], "regions": [[0, 1], [2, 3]]}
#: what `embed combined --graph <pegasus m=4> --k 4` writes, without its meta
_COMBINED = json.loads(dumps(combined_to_dict(combine_qac_rbm(build_pegasus(4), 4))))


#: encoding 0 of _COMBINED: 9 units; unit 0 (problem qubits 9, 168, 171, hub 6)
#: and unit 2 (21, 180, 183) are coupled by [21, 168] and [21, 171], unit 1
#: is (15, 174, 177, hub 12), and [39, 171] couples units 0 and 5
_ENCODING = _COMBINED["encodings"][0]


def _encoding_with(units=(), pairs=()):
    """_ENCODING with the units ``{index: unit}`` and the logical edges
    ``{"a,b": couplers}`` replaced or added."""
    data = json.loads(json.dumps(_ENCODING))
    data["units"] = [dict(units).get(i, unit) for i, unit in enumerate(data["units"])]
    data["logical_edges"].update(pairs)
    return data


def _encodings_with(index, **changes):
    encodings = list(_COMBINED["encodings"])
    encodings[index] = {**encodings[index], **changes}
    return encodings


@pytest.mark.parametrize("argv, payload", [
    (["experiment", "qac", "--config", "{bad}"], []),
    (["experiment", "scaling", "--config", "{bad}"], {**_TINY, "k_values": "24"}),
    (["experiment", "scaling", "--config", "{bad}"], {**_TINY, "scaling_bias": "92"}),
    (["sample", "--problem", "{problem}", "--noise", "{bad}"], []),
    (["sample", "--problem", "{problem}", "--qac", "{bad}"], {"encodings": []}),
    (["report", "render", "--report", "{bad}"], []),
    (["report", "render", "--report", "{bad}"], {}),
    (["report", "render", "--report", "{bad}"], {"cells": 3}),
    (["report", "render", "--report", "{bad}"], {"study": "scaling", "cells": [_CELL]}),
    (_BUILD + ["--defects", "{bad}"], []),
    (_BUILD + ["--defects", "{bad}"], {"nodes": 5}),
    (["embed", "partition", "--graph", "{bad}"], {**_GRAPH, "defects": []}),
    (["embed", "partition", "--graph", "{bad}"], b'{"family": "\xff"}'),
    (["embed", "partition", "--graph", "{bad}"], {**_GRAPH, "params": {}}),
    (["embed", "qac", "--graph", "{bad}"], {**_GRAPH, "family": "chimera"}),
    (["sample", "--problem", "{bad}"], {"n": 2, "h": [], "J": {}}),
    (["generate", "--cover-from", "{bad}"], 5),
    (["sample", "--problem", "{problem}", "--qac", "{bad}"], 5),
    (["sample", "--problem", "{problem}", "--replicate", "{bad}"],
     {**_PARTITION, "iso_maps": [[0, 1], [2, 3]]}),
    (["decode", "sqa", "--samples", "{bad}", "--problem", "{problem}"],
     {"problem_hash": 5, "reads": [[1, 1]]}),
    (["sample", "--problem", "{problem}", "--replicate", "{bad}"],
     {**_PARTITION, "iso_maps": [{"0": 0, "1": 1}, {"1": 3}]}),
    (["sample", "--problem", "{problem}", "--noise", "{bad}"],
     {"sigma_h": float("inf"), "chip_seed": 1}),
    (["sample", "--problem", "{problem}", "--noise", "{bad}"],
     {"sigma_j": float("nan"), "chip_seed": 1}),
    (["sample", "--problem", "{problem}", "--noise", "{bad}"],
     {"region_bias": [{"qubits": [0], "delta": float("-inf")}]}),
    (["decode", "sqa", "--samples", "{bad}", "--problem", "{problem}"],
     {"reads": ["+-", [1, -1]]}),
    (["decode", "sqa", "--samples", "{bad}", "--problem", "{problem}"],
     {"reads": ["+-", "+"]}),
    (["decode", "sqa", "--samples", "{bad}", "--problem", "{problem}"],
     {"reads": ["+-", "+1"]}),
    (["decode", "sqa", "--samples", "{bad}", "--problem", "{problem}"],
     {"reads": ["+\u2212"]}),
    # each part of a combined file is checked, not only the part a flag uses;
    # {uncoupled} is a problem every structure carries, so only the
    # combined file can be at fault
    (["sample", "--problem", "{uncoupled}", "--qac", "{bad}"],
     {**_COMBINED, "encodings": _encodings_with(1, units=5)}),
    # a key no stage reads is refused by name, here a copy of the block
    # partition with a malformed region list
    (["sample", "--problem", "{uncoupled}", "--replicate", "{bad}"],
     {**_COMBINED, "base_partition": {**_COMBINED["rbm_partition"], "regions": 3}}),
    (["decode", "qac", "--samples", "{reads8}", "--structure", "{bad}",
      "--problem", "{uncoupled}"],
     {**_COMBINED, "encodings": _COMBINED["encodings"][:1]}),
    (["sample", "--problem", "{uncoupled}", "--qac", "{bad}"],
     {**_COMBINED, "rbm_partition": 4}),
    (["generate", "--cover-from", "{bad}"],
     {**_COMBINED, "encodings": dict(enumerate(_COMBINED["encodings"]))}),
    # 1e400 parses as inf, which int() cannot convert
    (["experiment", "scaling", "--config", "{bad}"],
     b'{"beta_grid": [1.0], "instances_per_cell": 1, "num_reads": 1e400, "sweeps": 1}'),
    (["sample", "--problem", "{problem}", "--noise", "{bad}"], b'{"chip_seed": 1e400}'),
    (["embed", "partition", "--graph", "{bad}"],
     b'{"family": "pegasus", "params": {"m": 2}, "nodes": [1e400], "edges": []}'),
    # a combined file whose encoding keeps 2 of its units loaded, and
    # generate wrote instances that only sample --qac refused
    (["generate", "--cover-from", "{bad}"],
     {**_COMBINED, "encodings": _encodings_with(0, units=_COMBINED["encodings"][0]["units"][:2])}),
    (["generate", "--cover-from", "{bad}"],
     {**_COMBINED, "encodings": _encodings_with(2, logical_edges={})}),
    # structure files take JSON integers only; int() truncated each of these
    # to a value that loaded and ran
    (["sample", "--problem", "{uncoupled}", "--replicate", "{bad}"],
     {**_COMBINED, "rbm_partition": {**_COMBINED["rbm_partition"], "k": 4.7}}),
    (["embed", "qac", "--graph", "{bad}"],
     {"family": "custom", "nodes": [0, 1], "edges": [[0, 1.5]]}),
    (["embed", "qac", "--graph", "{bad}"],
     {"family": "custom", "nodes": [0, True], "edges": [[0, 1]]}),
    (["sample", "--problem", "{problem}", "--replicate", "{bad}"],
     {**_PARTITION, "iso_maps": [{"0": 0, "1": 1}, {"0": 2.0, "1": 3}]}),
    (_BUILD + ["--defects", "{bad}"], {"nodes": [1.0]}),
    (["sample", "--problem", "{uncoupled}", "--qac", "{bad}"],
     {"units": [{"problem": [0, 1, 2], "penalty": 3},
                {"problem": [4, 5, 6.0], "penalty": 7}], "logical_edges": {}}),
    (["sample", "--problem", "{uncoupled}", "--qac", "{bad}"], {**_COMBINED, "k": 4.0}),
    # edge codes need listed, non-negative node ids; an edge to an unlisted
    # node used to load and exit 1 with KeyError when the graph was tiled
    (["embed", "qac", "--graph", "{bad}"],
     {"family": "custom", "nodes": [0, 1], "edges": [[0, 5]]}),
    (["embed", "qac", "--graph", "{bad}"],
     {"family": "custom", "nodes": [-1, 0], "edges": [[-1, 0]]}),
    # a code a*N + b of ids this large wraps around in int64
    (["embed", "qac", "--graph", "{bad}"],
     {"family": "custom", "nodes": [0, 1, 2**40], "edges": [[1, 2**40]]}),
    # the stdlib parses NaN and Infinity, which no payload holds; a sample
    # file's energies and a report's cells took them and ran
    (["decode", "sqa", "--samples", "{bad}", "--problem", "{problem}"],
     b'{"reads": ["+-"], "energies": [NaN]}'),
    (["report", "render", "--report", "{bad}"],
     json.dumps({"study": "scaling", "cells": [{**_CELL, "method": "rbm",
                                                "mean_normalized": math.inf}]}).encode()),
    # int() truncated a problem's n, and a region's qubit ids, to values that ran
    (["sample", "--problem", "{bad}"], {"n": 3.9, "h": {}, "J": {"0,1": 1.0}}),
    (["sample", "--problem", "{problem}", "--replicate", "{partition}", "--noise", "{bad}"],
     {"region_bias": [{"qubits": [1.7, True], "delta": 0.5}]}),
    # keys that alias one term, where the last value won, or name another
    # index ("1_0" loaded as 10); a key must read as str(int(k)) does
    (["sample", "--problem", "{bad}"], {"n": 2, "h": {}, "J": {"0,1": 1.0, "00,1": 2.0}}),
    (["sample", "--problem", "{bad}"], {"n": 2, "h": {}, "J": {" 0,1": 1.0}}),
    (["sample", "--problem", "{bad}"], {"n": 2, "h": {"1": 1.0, "01": 2.0}, "J": {}}),
    (["sample", "--problem", "{bad}"], {"n": 11, "h": {"1_0": 1.0}, "J": {}}),
    # coefficients that float() took: a bool as 1.0, a string as its number
    (["sample", "--problem", "{bad}"], {"n": 2, "h": {"0": True}, "J": {}}),
    (["sample", "--problem", "{bad}"], {"n": 2, "h": {}, "J": {"0,1": "2.5"}}),
    # structure files name ids by keys too, parsed by the same rule
    (["sample", "--problem", "{problem}", "--replicate", "{bad}"],
     {**_PARTITION, "iso_maps": [{"0": 0, "1": 1}, {"0": 2, "01": 3}]}),
    (["sample", "--problem", "{uncoupled}", "--qac", "{bad}"],
     {**_COMBINED, "encodings": _encodings_with(0, logical_edges={
         "0" + key: cs for key, cs in _COMBINED["encodings"][0]["logical_edges"].items()})}),
    # number fields that float() took: a string as its number, a bool as 0 or 1
    (["sample", "--problem", "{problem}", "--noise", "{bad}"], {"sigma_h": "0.5"}),
    (["sample", "--problem", "{problem}", "--noise", "{bad}"], {"sigma_j": True}),
    (["sample", "--problem", "{problem}", "--replicate", "{partition}", "--noise", "{bad}"],
     {"region_bias": [{"qubits": [0], "delta": "2"}]}),
    (["experiment", "scaling", "--config", "{bad}"], {**_TINY, "beta": "1.0"}),
    # an encoding's penalty weight is the run's alpha, so the key is refused
    # by name, as any key the loader does not read
    (["sample", "--problem", "{uncoupled}", "--qac", "{bad}"],
     {"units": [{"problem": [0, 1, 2], "penalty": 3}, {"problem": [4, 5, 6], "penalty": 7}],
      "logical_edges": {}, "penalty_weight": True}),
    # encodings that break a claim QacEncoding checks; {pair02} couples
    # units 0 and 2, so the builder reads their couplers.  The first two
    # raised KeyError and ZeroDivisionError, and the others annealed a
    # problem other than the encoding's
    (["sample", "--problem", "{pair02}", "--qac", "{bad}"],
     _encoding_with(pairs={"0,2": [[21, 168], [21, 999]]})),
    (["sample", "--problem", "{pair02}", "--qac", "{bad}"], _encoding_with(pairs={"0,2": []})),
    (["sample", "--problem", "{pair02}", "--qac", "{bad}"],
     _encoding_with({1: {"problem": [15, 174, 9], "penalty": 12}})),
    (["sample", "--problem", "{pair02}", "--qac", "{bad}"],
     _encoding_with({0: {"problem": [9, 168, 171], "penalty": 9}})),
    (["sample", "--problem", "{pair02}", "--qac", "{bad}"],
     _encoding_with(pairs={"0,2": [[21, 168], [6, 168]]})),
    (["sample", "--problem", "{pair02}", "--qac", "{bad}"],
     _encoding_with(pairs={"0,2": [[21, 168], [39, 171]]})),
    (["sample", "--problem", "{pair02}", "--qac", "{bad}"],
     _encoding_with(pairs={"0,2": [[21, 168], [21, 168]]})),
    (["sample", "--problem", "{pair02}", "--qac", "{bad}"],
     _encoding_with({8: {**_ENCODING["units"][8], "penalty": -1}})),
    (["sample", "--problem", "{pair02}", "--qac", "{bad}"],
     _encoding_with(pairs={"0,500": [[21, 168]]})),
    # a stream takes its seed modulo 2**64, so -1 drew what 2**64 - 1 draws
    (["sample", "--problem", "{problem}", "--noise", "{bad}"], {"sigma_h": 0.5, "chip_seed": -1}),
    (["sample", "--problem", "{problem}", "--noise", "{bad}"],
     {"sigma_h": 0.5, "chip_seed": 2**64}),
    (["experiment", "scaling", "--config", "{bad}"], {**_TINY, "seed": -1}),
    (["experiment", "qac", "--config", "{bad}"], {**_TINY, "seed": 2**64}),
], ids=["config-list", "config-string-list", "config-string-pair", "noise-list",
        "no-encodings", "report-list", "report-empty", "report-cells-int",
        "report-cell-no-method", "defects-list", "defects-nodes-int",
        "graph-defects-list", "graph-not-utf8", "pegasus-no-m", "chimera-no-shape",
        "problem-h-list", "cover-int",
        "qac-int", "iso-maps-lists", "samples-hash-int", "iso-map-missing-key",
        "noise-sigma-h-inf", "noise-sigma-j-nan", "noise-delta-inf",
        "samples-mixed-reads", "samples-short-read", "samples-bad-spin",
        "samples-non-ascii-spin", "combined-encoding-1-malformed",
        "combined-base-partition-malformed", "combined-k4-one-encoding",
        "combined-rbm-partition-int", "combined-encodings-dict",
        "config-num-reads-1e400", "noise-chip-seed-1e400", "graph-node-1e400",
        "combined-encoding-0-two-units", "combined-encoding-2-no-edges",
        "combined-partition-k-float", "graph-edge-float", "graph-node-bool",
        "partition-iso-value-float", "defects-node-float", "encoding-qubit-float",
        "combined-k-float", "graph-edge-unknown-node", "graph-node-negative", "graph-node-huge",
        "samples-energy-nan", "report-cell-infinity", "problem-n-float",
        "noise-region-qubits-float-bool", "problem-j-keys-alias", "problem-j-key-space",
        "problem-h-keys-alias", "problem-h-key-underscore", "problem-h-bool",
        "problem-j-string", "partition-iso-key-alias", "combined-encoding-key-alias",
        "noise-sigma-h-string", "noise-sigma-j-bool", "noise-delta-string",
        "config-beta-string", "encoding-penalty-weight-bool",
        "encoding-coupler-unknown-qubit", "encoding-no-couplers", "encoding-qubit-in-two-units",
        "encoding-hub-is-own-problem-qubit", "encoding-intra-unit-coupler",
        "encoding-other-pair-coupler", "encoding-repeated-coupler", "encoding-negative-qubit",
        "encoding-key-beyond-units", "noise-chip-seed-negative", "noise-chip-seed-2**64",
        "config-seed-negative", "config-seed-2**64"])
def test_malformed_loader_input_exits_4(tmp_path, capsys, argv, payload):
    bad, problem = tmp_path / "bad.json", tmp_path / "p.json"
    uncoupled, reads8 = tmp_path / "u.json", tmp_path / "r.json"
    partition, pair02 = tmp_path / "part.json", tmp_path / "p02.json"
    bad.write_bytes(payload if isinstance(payload, bytes) else json.dumps(payload).encode())
    problem.write_text(json.dumps({"n": 2, "h": {}, "J": {"0,1": 1.0}}))
    uncoupled.write_text(json.dumps({"n": 2, "h": {"0": 1.0}, "J": {}}))
    # one read of the 8 qubits that 2 spins take in k=4 copies or in 4-qubit units
    reads8.write_text(json.dumps({"reads": ["+" * 8]}))
    partition.write_text(json.dumps(_PARTITION))
    pair02.write_text(json.dumps({"n": 3, "h": {}, "J": {"0,2": 1.0}}))
    argv = [arg.format(bad=bad, problem=problem, uncoupled=uncoupled, reads8=reads8,
                       partition=partition, pair02=pair02)
            for arg in argv]
    assert run(*argv, "--out", str(tmp_path / "out")) == 4
    assert capsys.readouterr().err.startswith("contract:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [0, 2**64 - 1])
def test_seeds_at_the_ends_of_64_bits_load(value):
    assert noise_from_dict({"chip_seed": value}).chip_seed == value
    assert config_from_dict({"seed": value}).seed == value


@pytest.mark.parametrize("family, params", [
    ("pegasus", {"m": True}), ("chimera", {"rows": 1, "cols": 1, "shore": True})],
    ids=["pegasus-m-bool", "chimera-shore-bool"])
def test_graph_family_param_not_an_integer_exits_4(tmp_path, capsys, family, params):
    # a bool passed as an integer: {"m": true} loaded as m=1 and printed its stats
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**_GRAPH, "family": family, "params": params}))
    assert run("topology", "stats", str(bad)) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("contract:")


@pytest.mark.parametrize("argv, payload", [
    (["experiment", "scaling", "--config", "{bad}"], _GRAPH),
    (["experiment", "scaling", "--config", "{bad}"], {**_TINY, "sweep": 5}),
    (["experiment", "scaling", "--config", "{bad}"],
     {**_TINY, "noise": {"sigma_h": 0.05, "sigmaj": 0.02}}),
    (["experiment", "scaling", "--config", "{bad}"], {**_TINY, "study": "qac_comparison"}),
    (["experiment", "qac", "--config", "{bad}"], {**_TINY, "study": "scaling"}),
    (["sample", "--problem", "{problem}", "--noise", "{bad}"],
     {"sigma_h": 0.05, "seed": 3}),
    (["experiment", "scaling", "--config", "{bad}"], {**_TINY, "sweeps": 2.5}),
    (["experiment", "scaling", "--config", "{bad}"], {**_TINY, "instances_per_cell": True}),
], ids=["config-is-a-graph", "config-unknown-key", "config-noise-unknown-key",
        "config-qac-run-as-scaling", "config-scaling-run-as-qac", "noise-unknown-key",
        "config-sweeps-float", "config-instances-bool"])
def test_config_contract_exits_4_and_writes_nothing(tmp_path, capsys, argv, payload):
    # an unknown key used to be ignored (a graph file ran a full default
    # study), a disagreeing study was silently replaced by the subcommand's,
    # and a float or bool count was truncated to an int
    bad, problem = tmp_path / "bad.json", tmp_path / "p.json"
    bad.write_text(json.dumps(payload))
    problem.write_text(json.dumps({"n": 2, "h": {}, "J": {"0,1": 1.0}}))
    argv = [arg.format(bad=bad, problem=problem) for arg in argv]
    assert run(*argv, "--out", str(tmp_path / "out")) == 4
    assert capsys.readouterr().err.startswith("contract:")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["bad.json", "p.json"]
