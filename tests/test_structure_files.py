"""Pinned bytes of the structure files the CLI writes.

`topology build`, `embed partition`, `embed combined` and `embed qac` must
write the same bytes whatever their implementation: the graph, partition,
combined and encoding files are inputs of every later stage and of the
benchmark's fingerprints.  Three cases are pinned, the ideal Pegasus m=16
graph at k=4 (the benchmark's `pipeline_m16` structures), an m=6 graph with
a seeded mask of dead qubits and dead couplers at k = 2, 4 and 8, and the
`embed qac` tilings of the m=16 graph and of a Chimera graph with such a
mask.
"""

import hashlib
import json
import random

import pytest

from anneal_rbm.cli import main
from anneal_rbm.embedding import combine_qac_rbm, partition_replicas, structure_from_dict
from anneal_rbm.jsonio import read_json
from anneal_rbm.topology import build_chimera, build_pegasus, graph_from_dict
from conftest import edge_tuples


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
    "graph": "8c39ad9cd107d53f90a217ec908e11c87486ed9c80daa4d8408f10990bb8a57a",
    "partition_k4": "30566fd3cffc1c2bbf4e7b233df3797ed867755a4505c79c70d6a42bcccb6fa4",
    "combined_k4": "404f57c6415c98328c173ead1db3db6d0e3e3b7d03ff6785c955a9ead4451efd",
}

PINNED_M6_DEFECTS = {
    "graph": "cd0b2586567d71db6285ccfebbf9116b75284f30cf52e7539bd2a6fec54fe343",
    "partition_k2": "021e60f37499e264fe7bae13aac24adf65e66b308c96796a92fe4243cc2e7442",
    "combined_k2": "58761b75cb3630e5b016f624e171f1e70efe9455dec5319626e3f939f74db52f",
    "partition_k4": "fec23841e764ceba4f71d4639d6b347774d28874cd8847fd8712afcf4526e54b",
    "combined_k4": "c6a739382f7fc3a6d225a665f2848837b5ee40600f693470afdaba8f433c5336",
    "partition_k8": "2dada7a567028a404c5445b49fd1a5ff571fe396415109632c615876641554b3",
    "combined_k8": "7c5b5022662c096b844ba4dce0fcc42c1235f1c3c4e03d548b0e708e0c127cb4",
}

PINNED_QAC = {
    "pegasus_m16": "47c7f95f24daee2196770eff5c7e23383ab9deba806ddf2b901eebc79b9b4c75",
    "chimera_4x4_defects": "2deb414b7e44a3fedc91873433126765d53ae7421bc8f1f0df190db55f6efbc6",
}


def test_m16_structure_files_are_pinned(tmp_path):
    assert structure_files(tmp_path, 16, (4,)) == PINNED_M16


def test_m6_defective_structure_files_are_pinned(tmp_path):
    mask = defect_mask(build_pegasus(6), seed=2024, qubits=12, couplers=20)
    assert structure_files(tmp_path, 6, (2, 4, 8), mask) == PINNED_M6_DEFECTS


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
