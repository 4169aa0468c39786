"""Pinned bytes of the structure files the CLI writes.

`topology build`, `embed partition`, `embed combined` and `embed qac` must
write the same bytes whatever their implementation: the graph, partition,
combined and encoding files are inputs of every later stage and of the
benchmark's fingerprints.  Three cases are pinned, the ideal Pegasus m=16
graph at k=4 (the benchmark's `pipeline_m16` structures), an m=6 graph with
a seeded mask of dead qubits and dead couplers at k = 2, 4 and 8, and the
`embed qac` tilings of the m=16 graph and of a Chimera graph with such a
mask.  A Pegasus or Chimera graph file is its recipe, the builder's family
and parameters and the defect mask, and loads as that builder's graph with
the mask applied.
"""

import hashlib
import json
import random

import pytest

from anneal_rbm.cli import main
from anneal_rbm.embedding import combine_qac_rbm, partition_replicas, structure_from_dict
from anneal_rbm.jsonio import read_json
from anneal_rbm.topology import apply_defects, build_chimera, build_pegasus, graph_from_dict
from conftest import edge_tuples
from structure_reference import graph_from_dict_reference


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def defect_mask(g, seed: int, qubits: int, couplers: int) -> dict:
    """A reproducible mask of ``qubits`` dead qubits and ``couplers`` dead
    couplers of the ideal graph ``g``."""
    r = random.Random(seed)
    return {"nodes": sorted(r.sample(g.node_ids.tolist(), qubits)),
            "edges": [list(e) for e in
                      sorted(r.sample(edge_tuples(g.ideal_codes, g.code_base), couplers))]}


def graph_file(tmp_path, build, mask: dict | None = None):
    """The graph file `topology build` writes for the arguments ``build``,
    with ``mask`` applied."""
    graph = tmp_path / "graph.json"
    build = ["topology", "build", *build]
    if mask is not None:
        (tmp_path / "defects.json").write_text(json.dumps(mask))
        build += ["--defects", str(tmp_path / "defects.json")]
    assert main(build + ["--out", str(graph)]) == 0
    return graph


def structure_files(tmp_path, m: int, k_values, mask: dict | None = None) -> dict:
    """sha256 of each structure file the CLI writes for the Pegasus graph of
    size ``m`` (with ``mask`` applied) and each replica count in ``k_values``."""
    graph = graph_file(tmp_path, ["--family", "pegasus", "--m", str(m)], mask)
    files = {"graph": _sha256(graph)}
    for k in k_values:
        for kind in ("partition", "combined"):
            out = tmp_path / f"{kind}_k{k}.json"
            assert main(["embed", kind, "--graph", str(graph), "--k", str(k),
                         "--out", str(out)]) == 0
            files[f"{kind}_k{k}"] = _sha256(out)
    return files


def qac_file(tmp_path, graph) -> str:
    """sha256 of the encoding file `embed qac` writes for the graph file."""
    out = tmp_path / "qac.json"
    assert main(["embed", "qac", "--graph", str(graph), "--out", str(out)]) == 0
    return _sha256(out)


PINNED_M16 = {
    "graph": "c86927aeb77441369adca0112c02938b57d01c2eec4405887ff3f168beef5ed7",
    "partition_k4": "158e083ead9f621597f43d0f3a57d555e9c3e3410f5571f761926b0b02e36564",
    "combined_k4": "480eab13c454f432a55a4e340194ed732e01ae265653d4fd559ceecff9a31bc8",
}

PINNED_M6_DEFECTS = {
    "graph": "a84c552d97b15bfdd2e22b9c2cb06f6e344263bf5291fd5ac86470a417bbbf82",
    "partition_k2": "32f380dc036a6cb0cc2fa1151d6b02e55a74c6676d5156c8c4b25cc22d718ef9",
    "combined_k2": "7689a94906621199502a78c4623481773d826b1546ce50076c667a7841595590",
    "partition_k4": "afe6f6ad12109926b1ab7197614b6f36dff2e5c8f53fccc08250262126b4073d",
    "combined_k4": "b428c432c50ca3c8eb2febc7e967a93367b425ff57bf9166c25505418686027d",
    "partition_k8": "d1302721ee0406be6faf3b6240e354aa3e79fa23bcb76cf08442244067330bb0",
    "combined_k8": "b97c65747ea3c2f39b82db5c1eb324bf63643dab7f9f27e2ee1560164b927595",
}

PINNED_QAC = {
    "pegasus_m16": "77a74ead9986235cb028c7112cd76219cd517ee9d769024de3563347e46aaf0a",
    "chimera_4x4_defects": "9d991dea46da1fa63c035abfe173ce0fa137cac739c499a6d4f0717cd8786683",
}


def test_m16_structure_files_are_pinned(tmp_path):
    assert structure_files(tmp_path, 16, (4,)) == PINNED_M16


def test_m6_defective_structure_files_are_pinned(tmp_path):
    mask = defect_mask(build_pegasus(6), seed=2024, qubits=12, couplers=20)
    assert structure_files(tmp_path, 6, (2, 4, 8), mask) == PINNED_M6_DEFECTS


@pytest.mark.parametrize("build, ideal, mask", [
    (["--family", "pegasus", "--m", "2"], build_pegasus(2), None),
    (["--family", "pegasus", "--m", "6"], build_pegasus(6),
     defect_mask(build_pegasus(6), seed=2024, qubits=12, couplers=20)),
    (["--family", "pegasus", "--m", "16"], build_pegasus(16), None),
    (["--family", "chimera", "--rows", "4", "--cols", "4", "--shore", "4"], build_chimera(4, 4, 4),
     defect_mask(build_chimera(4, 4, 4), seed=7, qubits=6, couplers=10)),
], ids=["pegasus-m2", "pegasus-m6-pinned-mask", "pegasus-m16", "chimera-4x4-masked"])
def test_graph_files_are_recipes_that_load_as_builder_plus_mask(tmp_path, build, ideal, mask):
    graph = graph_file(tmp_path, build, mask)
    data = read_json(str(graph))
    assert sorted(data) == ["defects", "family", "meta", "params"]
    assert data["defects"] == (mask or {"nodes": [], "edges": []})
    want = apply_defects(ideal, mask["nodes"], mask["edges"]) if mask else ideal
    assert graph_from_dict(data) == want == graph_from_dict_reference(data)


@pytest.mark.parametrize("k", [2, 4, 8])
def test_structure_files_load_as_what_they_were_written_from(tmp_path, k):
    # a structure's payload holds no meta of its own, so the CLI's meta in
    # the file leaves what loads equal to what was written
    mask = defect_mask(build_pegasus(6), seed=2024, qubits=12, couplers=20)
    graph = graph_file(tmp_path, ["--family", "pegasus", "--m", "6"], mask)
    g = graph_from_dict(read_json(str(graph)))
    comb = combine_qac_rbm(g, k)
    written = {"partition": partition_replicas(g, k), "combined": comb.rbm_partition}
    for kind, want in written.items():
        out = tmp_path / f"{kind}.json"
        assert main(["embed", kind, "--graph", str(graph), "--k", str(k),
                     "--out", str(out)]) == 0
        assert structure_from_dict(read_json(str(out)), "partition") == want
    assert structure_from_dict(read_json(str(out)), "encoding") == comb.encodings[0]


def test_qac_encoding_files_are_pinned(tmp_path):
    # the benchmark's m=16 graph, and a 4x4 Chimera graph whose mask breaks
    # some template cells, so that the greedy scan tiles their leftovers
    pegasus = graph_file(tmp_path, ["--family", "pegasus", "--m", "16"])
    files = {"pegasus_m16": qac_file(tmp_path, pegasus)}
    mask = defect_mask(build_chimera(4, 4, 4), seed=7, qubits=6, couplers=10)
    chimera = graph_file(tmp_path, ["--family", "chimera", "--rows", "4", "--cols", "4",
                                    "--shore", "4"], mask)
    files["chimera_4x4_defects"] = qac_file(tmp_path, chimera)
    assert files == PINNED_QAC
