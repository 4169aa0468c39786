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

from anneal_rbm.cli import main
from anneal_rbm.topology import build_chimera, build_pegasus
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
    "combined_k4": "64128c61ca3bdb2d83aab7752bbb742c69b9d336964bae9bf4fcc8122a9a3c03",
}

PINNED_M6_DEFECTS = {
    "graph": "cd0b2586567d71db6285ccfebbf9116b75284f30cf52e7539bd2a6fec54fe343",
    "partition_k2": "021e60f37499e264fe7bae13aac24adf65e66b308c96796a92fe4243cc2e7442",
    "combined_k2": "68d63f9702707072f24d0d9fb8d14e6ec4593e9fab1b6c8f34948f9b947ae6ad",
    "partition_k4": "fec23841e764ceba4f71d4639d6b347774d28874cd8847fd8712afcf4526e54b",
    "combined_k4": "64a443cd1cf4a82239edbf095b5aa5b360b96301f918912e1f676c2dcb4f9e93",
    "partition_k8": "2dada7a567028a404c5445b49fd1a5ff571fe396415109632c615876641554b3",
    "combined_k8": "357e594267c45040cec05d40d144a47a363a8ad69fe3f125ad2164555faf0175",
}

PINNED_QAC = {
    "pegasus_m16": "348afdab3802975e824f508c9358ad672f4b8558a1bf369cfdd8039b5069ee9b",
    "chimera_4x4_defects": "e807aa742ae0f2bf78dc21e1a6e7febe79192edb224f70a804cb43304148deca",
}


def test_m16_structure_files_are_pinned(tmp_path):
    assert structure_files(tmp_path, 16, (4,)) == PINNED_M16


def test_m6_defective_structure_files_are_pinned(tmp_path):
    mask = defect_mask(build_pegasus(6), seed=2024, qubits=12, couplers=20)
    assert structure_files(tmp_path, 6, (2, 4, 8), mask) == PINNED_M6_DEFECTS


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
