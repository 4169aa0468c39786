"""Pinned bytes of the structure files the CLI writes.

`topology build`, `embed partition` and `embed combined` must write the same
bytes whatever their implementation: the graph, partition and combined files
are inputs of every later stage and of the benchmark's fingerprints.  Two
cases are pinned, the ideal Pegasus m=16 graph at k=4 (the benchmark's
`pipeline_m16` structures) and an m=6 graph with a seeded mask of dead
qubits and dead couplers at k = 2, 4 and 8.
"""

import hashlib
import json
import random

from anneal_rbm.cli import main
from anneal_rbm.topology import build_pegasus


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def defect_mask(m: int, seed: int, qubits: int, couplers: int) -> dict:
    """A reproducible mask of ``qubits`` dead qubits and ``couplers`` dead
    couplers of the ideal Pegasus graph of size ``m``."""
    g = build_pegasus(m)
    r = random.Random(seed)
    return {"nodes": sorted(r.sample(sorted(g.nodes), qubits)),
            "edges": [list(e) for e in sorted(r.sample(sorted(g.edges), couplers))]}


def structure_files(tmp_path, m: int, k_values, mask: dict | None = None) -> dict:
    """sha256 of each structure file the CLI writes for the Pegasus graph of
    size ``m`` (with ``mask`` applied) and each replica count in ``k_values``."""
    graph = tmp_path / "graph.json"
    build = ["topology", "build", "--family", "pegasus", "--m", str(m)]
    if mask is not None:
        (tmp_path / "defects.json").write_text(json.dumps(mask))
        build += ["--defects", str(tmp_path / "defects.json")]
    assert main(build + ["--out", str(graph)]) == 0
    files = {"graph": _sha256(graph)}
    for k in k_values:
        for kind in ("partition", "combined"):
            out = tmp_path / f"{kind}_k{k}.json"
            assert main(["embed", kind, "--graph", str(graph), "--k", str(k),
                         "--out", str(out)]) == 0
            files[f"{kind}_k{k}"] = _sha256(out)
    return files


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


def test_m16_structure_files_are_pinned(tmp_path):
    assert structure_files(tmp_path, 16, (4,)) == PINNED_M16


def test_m6_defective_structure_files_are_pinned(tmp_path):
    mask = defect_mask(6, seed=2024, qubits=12, couplers=20)
    assert structure_files(tmp_path, 6, (2, 4, 8), mask) == PINNED_M6_DEFECTS
