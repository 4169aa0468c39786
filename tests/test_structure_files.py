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
the mask applied.  A partition file is a recipe too, the graph's recipe and
k, and a combined file holds its encodings and the slot of each unit's
problem qubit that hosts the unit's replica.  An encoding is its three
stored arrays as rows: each unit's problem qubits, each unit's hub and the
couplers.  A combined file's later encodings are encoding 0's couplers on
their own units, so they hold only their problem qubits and hubs.
"""

import hashlib
import json

import pytest

from anneal_rbm.cli import main
from anneal_rbm.embedding import combine_qac_rbm, partition_replicas, structure_from_dict
from anneal_rbm.jsonio import read_json
from anneal_rbm.topology import apply_defects, build_chimera, build_pegasus, graph_from_dict
from conftest import defect_mask
from structure_reference import graph_from_dict_reference


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
    "partition_k4": "2079662ffa885082b4868cdced9b15df8a7e22e43dc650f236ccec058f8979e4",
    "combined_k4": "6a04e2f55e7572451082391304239ba6cf9911967926ce7eb92787d17bd1627d",
}

PINNED_M6_DEFECTS = {
    "graph": "a84c552d97b15bfdd2e22b9c2cb06f6e344263bf5291fd5ac86470a417bbbf82",
    "partition_k2": "be8baeedf8636912070bac4acfe28960f896037df75684a164ea7a12164718e3",
    "combined_k2": "d989a128d59ecd969889ad6891cd7fcf4aee6b7bf1216b90bb2630c769a7a18d",
    "partition_k4": "8f0726ca9bac05a2a4dafbedfe5d4ded719070af66e24ad55a2096f2b4bbbc4e",
    "combined_k4": "6a1df8b8c610ba6f7777e353fd8f38d3a41910bf684509715c61e91895e62ff1",
    "partition_k8": "74c0c003b1310b36158f372ccb0b31f77439f5fe967b6fa0648bed5a55e45fd7",
    "combined_k8": "96fa67d9c41e0fdfa51b8a39554ac7ca23bb953834247ad4066eed5aaa2651ad",
}

PINNED_QAC = {
    "pegasus_m16": "55d8734d298d91f44c35411539727c9f0cec50105188ac586aeec5808f4cf83e",
    "chimera_4x4_defects": "d49503f5aab3cf370b3f53fad18fb81730657a98c9c0fc6947ced0f7d434b017",
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


#: the keys of each structure file: a recipe, and the encodings with slots
KEYS = {"partition": ["graph", "k", "meta"], "combined": ["encodings", "k", "meta", "rbm_slots"]}
#: the keys of an encoding: its arrays
ENCODING_KEYS = ["couplers", "penalty", "problem"]
#: the keys of a combined file's later encodings: their units, which carry
#: encoding 0's couplers
TRANSLATE_KEYS = ["penalty", "problem"]


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
        assert sorted(read_json(str(out))) == KEYS[kind]
        assert structure_from_dict(read_json(str(out)), "partition") == want
    assert [sorted(e) for e in read_json(str(out))["encodings"]] == (
        [ENCODING_KEYS] + [TRANSLATE_KEYS] * (k - 1))
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
