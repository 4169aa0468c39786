import base64
import hashlib
import json
import math

import pytest

from anneal_rbm.cli import build_parser, main
from anneal_rbm.embedding import combine_qac_rbm, combined_to_dict, partition_from_dict
from anneal_rbm.experiments import config_from_dict
from anneal_rbm.jsonio import dumps, read_json
from anneal_rbm.samplers import noise_from_dict
from anneal_rbm.topology import build_pegasus, edge_rows, graph_from_dict
from conftest import listed_partition


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


def test_parser_built_once_keeps_no_state_between_calls(tmp_path, capsys):
    # one parser serves every call in a process, so a refused call must leave
    # nothing behind for the next: it samples with the default read count
    problem, out = tmp_path / "p.json", tmp_path / "s.json"
    problem.write_text(json.dumps({"n": 2, "h": {}, "J": {"0,1": 1.0}}))
    argv = ["sample", "--problem", str(problem), "--sweeps", "2", "--out", str(out)]
    assert run(*argv, "--reads", "0") == 2
    assert not out.exists()
    assert run(*argv) == 0
    assert len(read_json(str(out))["reads"]) == 100
    assert build_parser() is build_parser()


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
    region = partition_from_dict(json.loads(part.read_text())).images[0].tolist()
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


def test_plus_minus_sample_file_exits_4_naming_the_base64_width(pipeline, tmp_path, capsys):
    # a sample file written before reads were bit rows held one "+"/"-"
    # character per spin; it is refused, not read a second way
    instance, samples, _ = pipeline
    n = 2 * json.loads(instance.read_text())["n"]  # k=2 replicas
    data = json.loads(samples.read_text())
    bits = [base64.b64decode(text) for text in data["reads"]]
    old = tmp_path / "old.json"
    old.write_text(json.dumps({**data, "reads": [
        "".join("-" if row[i // 8] >> (i % 8) & 1 else "+" for i in range(n)) for row in bits]}))
    capsys.readouterr()
    assert run("decode", "rbm", "--samples", str(old), "--structure",
               str(tmp_path / "partition.json"), "--problem", str(instance),
               "--out", str(tmp_path / "old_solution.json")) == 4
    err = capsys.readouterr().err
    assert err.startswith("contract:")
    assert f"read 0 has {n} characters; a read of {n} spins is {4 * -(-n // 24)} base64" in err
    assert not (tmp_path / "old_solution.json").exists()


#: sha256 of the instance and of a noisy sample file the m=2 pipeline
#: writes, whose reads are base64 bit rows.  Seeded payloads are part of the
#: reproducibility contract: a change to how streams are seeded, noise is
#: drawn or reads are serialized must leave these bytes alone.
PINNED_SHA256 = {
    "instance": "40517000d1b16554d74d4defafb798797dbabb5b4ab9844ac8329144ef2d29b4",
    "samples": "eab69db5266c218771c7816bd6358759ec7f65ee1e22080dd9645c186f89a8a7",
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
_GRAPH = {"family": "pegasus", "params": {"m": 2}, "defects": {"nodes": [], "edges": []}}
#: the Pegasus m=2 graph as graph files held it before they held the recipe:
#: its 48 node ids and its 168 edges listed
_LISTED_GRAPH = {**_GRAPH, "nodes": list(range(48)),
                 "edges": edge_rows(build_pegasus(2).ideal_codes, 48)}
#: the partition of the Pegasus m=2 graph into k=2 regions of 12 logical
#: qubits, whose logical edges include (0, 1)
_PARTITION = {"graph": _GRAPH, "k": 2}
#: a partition as partition files held it before they held the recipe
_LISTED_PARTITION = {"k": 2, "n_logical": 2, "logical_edges": [[0, 1]],
                     "iso_maps": [{"0": 0, "1": 1}, {"0": 2, "1": 3}],
                     "regions": [[0, 1], [2, 3]]}
_COMBINED_M4 = combine_qac_rbm(build_pegasus(4), 4)
#: what `embed combined --graph <pegasus m=4> --k 4` writes, without its meta
_COMBINED = json.loads(dumps(combined_to_dict(_COMBINED_M4)))
#: _COMBINED as combined files held it before they held the slots: its
#: replica partition listed
_LISTED_COMBINED = {**{key: value for key, value in _COMBINED.items() if key != "rbm_slots"},
                    "rbm_partition": listed_partition(_COMBINED_M4.rbm_partition)}


#: encoding 0 of _COMBINED: 9 units; unit 0 (problem qubits 9, 168, 171, hub 6)
#: and unit 2 (21, 180, 183) are coupled by [21, 168] and [21, 171], unit 1
#: is (15, 174, 177, hub 12), and [39, 171] couples units 0 and 5
_ENCODING = _COMBINED["encodings"][0]


def _keyed(enc):
    """``enc`` as encoding files held it before they held their arrays: a
    dict per unit, and each unit pair's couplers under an "a,b" key."""
    cuts, u = enc.offsets.tolist(), enc.n_logical
    return {"units": [{"problem": qs, "penalty": q}
                      for qs, q in zip(enc.problem.tolist(), enc.penalty.tolist())],
            "logical_edges": {"{},{}".format(*divmod(code, u)): enc.couplers[i:j].tolist()
                              for code, i, j in zip(enc.edge_codes.tolist(), cuts, cuts[1:])}}


_KEYED_ENCODING = _keyed(_COMBINED_M4.encodings[0])


def _encoding_with(units=(), couplers=()):
    """_ENCODING with the units ``{index: (problem qubits, hub)}`` replaced
    and ``couplers`` added."""
    data = json.loads(json.dumps(_ENCODING))
    for i, (problem, penalty) in dict(units).items():
        data["problem"][i], data["penalty"][i] = problem, penalty
    data["couplers"] += couplers
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
    # a partition file that lists its iso maps, as partition files did
    # before they held the recipe
    (["sample", "--problem", "{problem}", "--replicate", "{bad}"], _LISTED_PARTITION),
    (["decode", "sqa", "--samples", "{bad}", "--problem", "{problem}"],
     {"problem_hash": 5, "reads": [[1, 1]]}),
    # a partition without its graph
    (["sample", "--problem", "{problem}", "--replicate", "{bad}"], {"k": 2}),
    (["sample", "--problem", "{problem}", "--noise", "{bad}"],
     {"sigma_h": float("inf"), "chip_seed": 1}),
    (["sample", "--problem", "{problem}", "--noise", "{bad}"],
     {"sigma_j": float("nan"), "chip_seed": 1}),
    (["sample", "--problem", "{problem}", "--noise", "{bad}"],
     {"region_bias": [{"qubits": [0], "delta": float("-inf")}]}),
    (["decode", "sqa", "--samples", "{bad}", "--problem", "{problem}"],
     {"reads": ["Ag==", [1, -1]]}),
    (["decode", "sqa", "--samples", "{bad}", "--problem", "{problem}"],
     {"reads": ["Ag==", "Ag="]}),
    (["decode", "sqa", "--samples", "{bad}", "--problem", "{problem}"],
     {"reads": ["Ag==", "A-=="]}),
    (["decode", "sqa", "--samples", "{bad}", "--problem", "{problem}"],
     {"reads": ["A\u2212=="]}),
    # a 2-spin read is one byte, whose bits past spin 1 are 0
    (["decode", "sqa", "--samples", "{bad}", "--problem", "{problem}"], {"reads": ["BA=="]}),
    # reads written one "+"/"-" character per spin, before reads were bit rows
    (["decode", "sqa", "--samples", "{bad}", "--problem", "{problem}"], {"reads": ["+-"]}),
    # "Ah==" decodes to the byte of "Ag==": a read has one text
    (["decode", "sqa", "--samples", "{bad}", "--problem", "{problem}"], {"reads": ["Ah=="]}),
    # each part of a combined file is checked, not only the part a flag uses;
    # {uncoupled} is a problem every structure carries, so only the
    # combined file can be at fault
    (["sample", "--problem", "{uncoupled}", "--qac", "{bad}"],
     {**_COMBINED, "encodings": _encodings_with(1, problem=5)}),
    # a key no stage reads is refused by name, here a copy of the block
    # partition whose k no partition takes
    (["sample", "--problem", "{uncoupled}", "--replicate", "{bad}"],
     {**_COMBINED, "base_partition": {**_PARTITION, "k": 3}}),
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
     b'{"family": "custom", "nodes": [1e400], "edges": []}'),
    # a combined file whose encoding keeps 2 of its units loaded, and
    # generate wrote instances that only sample --qac refused
    (["generate", "--cover-from", "{bad}"],
     {**_COMBINED, "encodings": _encodings_with(0, problem=_ENCODING["problem"][:2],
                                                 penalty=_ENCODING["penalty"][:2], couplers=[])}),
    (["generate", "--cover-from", "{bad}"],
     {**_COMBINED, "encodings": _encodings_with(2, couplers=[])}),
    # structure files take JSON integers only; int() truncated each of these
    # to a value that loaded and ran
    (["sample", "--problem", "{uncoupled}", "--replicate", "{bad}"],
     {**_COMBINED, "rbm_slots": [1.0, *_COMBINED["rbm_slots"][1:]]}),
    (["embed", "qac", "--graph", "{bad}"],
     {"family": "custom", "nodes": [0, 1], "edges": [[0, 1.5]]}),
    (["embed", "qac", "--graph", "{bad}"],
     {"family": "custom", "nodes": [0, True], "edges": [[0, 1]]}),
    (["sample", "--problem", "{problem}", "--replicate", "{bad}"], {**_PARTITION, "k": 4.0}),
    (_BUILD + ["--defects", "{bad}"], {"nodes": [1.0]}),
    (["sample", "--problem", "{uncoupled}", "--qac", "{bad}"],
     {"problem": [[0, 1, 2], [4, 5, 6.0]], "penalty": [3, 7], "couplers": []}),
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
     b'{"reads": ["Ag=="], "energies": [NaN]}'),
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
    # a partition's graph names its parameters exactly
    (["sample", "--problem", "{problem}", "--replicate", "{bad}"],
     {**_PARTITION, "graph": {**_GRAPH, "params": {"m": 2, "M": 2}}}),
    # number fields that float() took: a string as its number, a bool as 0 or 1
    (["sample", "--problem", "{problem}", "--noise", "{bad}"], {"sigma_h": "0.5"}),
    (["sample", "--problem", "{problem}", "--noise", "{bad}"], {"sigma_j": True}),
    (["sample", "--problem", "{problem}", "--replicate", "{partition}", "--noise", "{bad}"],
     {"region_bias": [{"qubits": [0], "delta": "2"}]}),
    (["experiment", "scaling", "--config", "{bad}"], {**_TINY, "beta": "1.0"}),
    # an encoding's penalty weight is the run's alpha, so the key is refused
    # by name, as any key the loader does not read
    (["sample", "--problem", "{uncoupled}", "--qac", "{bad}"],
     {"problem": [[0, 1, 2], [4, 5, 6]], "penalty": [3, 7], "couplers": [],
      "penalty_weight": True}),
    # encodings that break a claim QacEncoding or its loader checks; {pair02}
    # couples units 0 and 2, so the builder reads their couplers.  An
    # unknown qubit and a missing pair raised KeyError and ZeroDivisionError
    # when encodings were keyed by pair, and the others annealed a problem
    # other than the encoding's
    (["sample", "--problem", "{pair02}", "--qac", "{bad}"], _encoding_with(couplers=[[21, 999]])),
    # an encoding without its couplers
    (["sample", "--problem", "{pair02}", "--qac", "{bad}"],
     {key: value for key, value in _ENCODING.items() if key != "couplers"}),
    (["sample", "--problem", "{pair02}", "--qac", "{bad}"],
     _encoding_with({1: ([9, 174, 177], 12)})),
    (["sample", "--problem", "{pair02}", "--qac", "{bad}"],
     _encoding_with({0: ([9, 168, 171], 9)})),
    (["sample", "--problem", "{pair02}", "--qac", "{bad}"], _encoding_with(couplers=[[9, 168]])),
    (["sample", "--problem", "{pair02}", "--qac", "{bad}"], _encoding_with(couplers=[[6, 168]])),
    # the same coupler twice, the second time ends first
    (["sample", "--problem", "{pair02}", "--qac", "{bad}"], _encoding_with(couplers=[[168, 21]])),
    (["sample", "--problem", "{pair02}", "--qac", "{bad}"],
     _encoding_with({8: (_ENCODING["problem"][8], -1)})),
    (["sample", "--problem", "{pair02}", "--qac", "{bad}"],
     _encoding_with(couplers=[[21, 168, 171]])),
    (["sample", "--problem", "{pair02}", "--qac", "{bad}"], _encoding_with(couplers=[[21, 1.5]])),
    (["sample", "--problem", "{pair02}", "--qac", "{bad}"],
     _encoding_with({8: (_ENCODING["problem"][8], True)})),
    (["sample", "--problem", "{pair02}", "--qac", "{bad}"],
     _encoding_with({8: ([63, 198], 60)})),
    (["sample", "--problem", "{pair02}", "--qac", "{bad}"],
     {**_ENCODING, "penalty": _ENCODING["penalty"][:-1]}),
    # encodings as they were before they held their arrays, alone and as
    # one of a combined file's encodings
    (["sample", "--problem", "{pair02}", "--qac", "{bad}"], _KEYED_ENCODING),
    (["sample", "--problem", "{uncoupled}", "--qac", "{bad}"],
     {**_COMBINED, "encodings": [*_COMBINED["encodings"][:3], _KEYED_ENCODING]}),
    # a stream takes its seed modulo 2**64, so -1 drew what 2**64 - 1 draws
    (["sample", "--problem", "{problem}", "--noise", "{bad}"], {"sigma_h": 0.5, "chip_seed": -1}),
    (["sample", "--problem", "{problem}", "--noise", "{bad}"],
     {"sigma_h": 0.5, "chip_seed": 2**64}),
    (["experiment", "scaling", "--config", "{bad}"], {**_TINY, "seed": -1}),
    (["experiment", "qac", "--config", "{bad}"], {**_TINY, "seed": 2**64}),
    # every loader refuses a key it does not read: a misspelt mask loaded
    # as no mask, and a graph file passed as a mask marked its listed edges dead
    (["embed", "partition", "--graph", "{bad}"], {**_GRAPH, "defectz": {"nodes": [0]}}),
    (_BUILD + ["--defects", "{bad}"], {"nodes": [0], "edgez": []}),
    (["sample", "--problem", "{problem}", "--replicate", "{bad}"],
     {**_PARTITION, "regions": _LISTED_PARTITION["regions"]}),
    (_BUILD + ["--defects", "{bad}"], _LISTED_GRAPH),
    # a builder family's graph is its recipe: no unknown parameter, and no
    # shape past the builders' cap, which is refused before any array is made
    (["embed", "partition", "--graph", "{bad}"], {**_GRAPH, "params": {"m": 16, "x": 1}}),
    (["embed", "partition", "--graph", "{bad}"], {**_GRAPH, "params": {"m": 210}}),
    (["embed", "qac", "--graph", "{bad}"],
     {"family": "chimera", "params": {"rows": 1, "cols": 1, "shore": 2897}}),
    (["topology", "build", "--family", "pegasus", "--m", "210"], {}),
    # a custom graph's family is a JSON string: null loaded as a graph of
    # family None, and a list was refused only for being unhashable
    (["embed", "qac", "--graph", "{bad}"], {"family": None, "nodes": [0, 1], "edges": [[0, 1]]}),
    (["embed", "qac", "--graph", "{bad}"], {"family": 7, "nodes": [0, 1], "edges": [[0, 1]]}),
    (["embed", "qac", "--graph", "{bad}"],
     {"family": ["pegasus"], "nodes": [0, 1], "edges": [[0, 1]]}),
    # a partition file is a Pegasus graph's recipe and a k that
    # partition_replicas takes; as a graph flag's input it is a partition too
    (["sample", "--problem", "{problem}", "--replicate", "{bad}"], {**_PARTITION, "k": 3}),
    (["generate", "--cover-from", "{bad}"], {**_PARTITION, "k": True}),
    (["sample", "--problem", "{problem}", "--replicate", "{bad}"],
     {**_PARTITION, "graph": {"family": "chimera", "params": {"rows": 2, "cols": 2, "shore": 4},
                              "defects": {"nodes": [], "edges": []}}}),
    (["generate", "--cover-from", "{bad}"],
     {**_PARTITION, "graph": {"family": "custom", "nodes": [0, 1], "edges": [[0, 1]]}}),
    (["sample", "--problem", "{problem}", "--replicate", "{bad}"],
     {**_PARTITION, "graph": _LISTED_GRAPH}),
    # rbm_slots name one of each unit's three problem qubits
    (["sample", "--problem", "{uncoupled}", "--replicate", "{bad}"],
     {**_COMBINED, "rbm_slots": [3, *_COMBINED["rbm_slots"][1:]]}),
    (["sample", "--problem", "{uncoupled}", "--replicate", "{bad}"],
     {**_COMBINED, "rbm_slots": [-1, *_COMBINED["rbm_slots"][1:]]}),
    (["generate", "--cover-from", "{bad}"], {**_COMBINED, "rbm_slots": _COMBINED["rbm_slots"][1:]}),
    # equal encodings place every region's replica on the same qubits
    (["sample", "--problem", "{uncoupled}", "--replicate", "{bad}"],
     {**_COMBINED, "encodings": [_COMBINED["encodings"][0]] * 4}),
    # regions share no qubit: encoding 1's unit 0 takes encoding 0's hub 6,
    # and each encoding is sound alone
    (["sample", "--problem", "{uncoupled}", "--qac", "{bad}"],
     {**_COMBINED, "encodings": _encodings_with(
         1, penalty=[6, *_COMBINED["encodings"][1]["penalty"][1:]])}),
], ids=["config-list", "config-string-list", "config-string-pair", "noise-list",
        "no-encodings", "report-list", "report-empty", "report-cells-int",
        "report-cell-no-method", "defects-list", "defects-nodes-int",
        "graph-defects-list", "graph-not-utf8", "pegasus-no-m", "chimera-no-shape",
        "problem-h-list", "cover-int",
        "qac-int", "iso-maps-lists", "samples-hash-int", "iso-map-missing-key",
        "noise-sigma-h-inf", "noise-sigma-j-nan", "noise-delta-inf",
        "samples-mixed-reads", "samples-short-read", "samples-bad-spin",
        "samples-non-ascii-spin", "samples-pad-bit-set", "samples-plus-minus-read",
        "samples-non-canonical-tail",
        "combined-encoding-1-malformed",
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
        "problem-j-string", "partition-iso-key-alias",
        "noise-sigma-h-string", "noise-sigma-j-bool", "noise-delta-string",
        "config-beta-string", "encoding-penalty-weight-bool",
        "encoding-coupler-unknown-qubit", "encoding-no-couplers", "encoding-qubit-in-two-units",
        "encoding-hub-is-own-problem-qubit", "encoding-intra-unit-coupler",
        "encoding-hub-coupler", "encoding-repeated-coupler", "encoding-negative-qubit",
        "encoding-coupler-three-ids", "encoding-coupler-float", "encoding-penalty-bool",
        "encoding-problem-row-of-2", "encoding-penalty-short", "encoding-keyed",
        "combined-keyed-encoding", "noise-chip-seed-negative", "noise-chip-seed-2**64",
        "config-seed-negative", "config-seed-2**64", "graph-defects-key-misspelt",
        "defects-edges-key-misspelt", "partition-extra-key", "graph-file-as-defects",
        "pegasus-unknown-param", "pegasus-m-past-cap",
        "chimera-couplers-past-cap", "build-pegasus-m-past-cap", "graph-family-null",
        "graph-family-number", "graph-family-list", "partition-k-3", "partition-k-bool",
        "partition-chimera-graph", "partition-custom-graph", "partition-listed-graph",
        "combined-slot-3", "combined-slot-negative", "combined-slots-short",
        "combined-equal-encodings", "combined-regions-share-a-hub"])
def test_malformed_loader_input_exits_4(tmp_path, capsys, argv, payload):
    bad, problem = tmp_path / "bad.json", tmp_path / "p.json"
    uncoupled, reads8 = tmp_path / "u.json", tmp_path / "r.json"
    partition, pair02 = tmp_path / "part.json", tmp_path / "p02.json"
    bad.write_bytes(payload if isinstance(payload, bytes) else json.dumps(payload).encode())
    problem.write_text(json.dumps({"n": 2, "h": {}, "J": {"0,1": 1.0}}))
    uncoupled.write_text(json.dumps({"n": 2, "h": {"0": 1.0}, "J": {}}))
    # one read of the 8 qubits that 2 spins take in k=4 copies or in 4-qubit
    # units, all +1: one zero byte
    reads8.write_text(json.dumps({"reads": ["AA=="]}))
    partition.write_text(json.dumps(_PARTITION))
    pair02.write_text(json.dumps({"n": 3, "h": {}, "J": {"0,2": 1.0}}))
    argv = [arg.format(bad=bad, problem=problem, uncoupled=uncoupled, reads8=reads8,
                       partition=partition, pair02=pair02)
            for arg in argv]
    assert run(*argv, "--out", str(tmp_path / "out")) == 4
    assert capsys.readouterr().err.startswith("contract:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, payload, named", [
    (["sample", "--problem", "{problem}", "--replicate", "{old}"], _LISTED_PARTITION,
     "unknown partition keys ['iso_maps', 'logical_edges', 'n_logical', 'regions']"),
    (["generate", "--cover-from", "{old}"], _LISTED_PARTITION,
     "unknown partition keys ['iso_maps', 'logical_edges', 'n_logical', 'regions']"),
    (["decode", "rbm", "--samples", "{reads}", "--structure", "{old}", "--problem", "{problem}"],
     _LISTED_COMBINED, "unknown combined-embedding keys ['rbm_partition']"),
    (["sample", "--problem", "{problem}", "--qac", "{old}"], _KEYED_ENCODING,
     "unknown encoding keys ['logical_edges', 'units']"),
    (["sample", "--problem", "{problem}", "--replicate", "{old}"],
     {**_COMBINED, "encodings": [_KEYED_ENCODING, *_COMBINED["encodings"][1:]]},
     "unknown encoding keys ['logical_edges', 'units']"),
], ids=["partition-replicate", "partition-cover-from", "combined-decode", "encoding-qac",
        "encoding-in-combined-replicate"])
def test_listed_structure_files_exit_4_naming_their_lists(tmp_path, capsys, argv, payload,
                                                          named):
    # partition, combined and encoding files written before they held the
    # recipe, the slots and the arrays are refused by the keys they list,
    # not read a second way
    old, problem, reads = tmp_path / "old.json", tmp_path / "p.json", tmp_path / "r.json"
    old.write_text(json.dumps(payload))
    problem.write_text(json.dumps({"n": 2, "h": {}, "J": {"0,1": 1.0}}))
    reads.write_text(json.dumps({"reads": ["AA=="]}))
    argv = [arg.format(old=old, problem=problem, reads=reads) for arg in argv]
    assert run(*argv, "--out", str(tmp_path / "out")) == 4
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_listed_pegasus_graph_file_exits_4_naming_its_lists(tmp_path, capsys):
    # a graph file written before graph files held the recipe is refused, not
    # read a second way
    old = tmp_path / "old.json"
    old.write_text(json.dumps(_LISTED_GRAPH))
    assert run("embed", "partition", "--graph", str(old), "--k", "2",
               "--out", str(tmp_path / "part.json")) == 4
    assert "unknown graph keys ['edges', 'nodes']" in capsys.readouterr().err
    assert not (tmp_path / "part.json").exists()


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
