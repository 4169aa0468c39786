import dataclasses
import json

import numpy as np
import pytest

from anneal_rbm.embedding import (QacEncoding, combine_qac_rbm, combined_from_dict,
                                  combined_to_dict, encoding_from_dict,
                                  encoding_to_dict, partition_from_dict, partition_replicas,
                                  partition_to_dict, structure_from_dict,
                                  tile_qac, verify_partition)
from anneal_rbm.errors import (EmbeddingInfeasibleError, FormatError,
                               InvalidParameterError)
from anneal_rbm.jsonio import dumps
from anneal_rbm.topology import (apply_defects, build_chimera, build_custom,
                                 build_pegasus, graph_stats, graph_to_dict)
from conftest import (active_edges, id_set, iso_maps, listed_partition, logical_edges, regions,
                      two_stars_graph)
from problem_helpers import canonical_edge


@pytest.fixture(scope="module")
def g4():
    return build_pegasus(4)


def test_partition_rejects_bad_k(g4):
    with pytest.raises(InvalidParameterError):
        partition_replicas(g4, 3)


def test_partition_rejects_non_pegasus():
    with pytest.raises(InvalidParameterError):
        partition_replicas(build_chimera(2, 2, 4), 2)


def test_partition_p2_k2_isomorphism_by_explicit_edge_check():
    g = build_pegasus(2)
    part = partition_replicas(g, 2)
    assert part.k == 2
    first, second = regions(part)
    assert first.isdisjoint(second)
    # pull back each region's induced active edges; the sets must coincide
    pulled = []
    for iso in iso_maps(part):
        inv = {q: v for v, q in iso.items()}
        pulled.append({canonical_edge(inv[a], inv[b])
                       for a, b in active_edges(g) if a in inv and b in inv})
    assert pulled[0] == pulled[1] == set(logical_edges(part))


@pytest.mark.parametrize("k", [2, 4, 8])
def test_partition_p4_verifies(g4, k):
    part = partition_replicas(g4, k)
    report = verify_partition(part, g4)
    assert report.ok, report.failures
    assert report.induced_symmetric
    regs = regions(part)
    assert len(set().union(*regs)) == sum(len(r) for r in regs)


def test_partition_union_within_active_nodes(g4):
    part = partition_replicas(g4, 2)
    for region in regions(part):
        assert region <= id_set(g4.active_ids)


def test_partition_defect_excised_from_all_regions(g4):
    clean = partition_replicas(g4, 4)
    victim = sorted(regions(clean)[2])[5]
    defective = apply_defects(g4, [victim])
    part = partition_replicas(defective, 4)
    report = verify_partition(part, defective)
    assert report.ok, report.failures
    assert report.induced_symmetric
    assert part.n_logical == clean.n_logical - 1
    # the victim's image is gone from every region, not just region 2
    isos = iso_maps(clean)
    inv = {q: v for v, q in isos[2].items()}
    logical_victim = inv[victim]
    for r in range(4):
        assert isos[r][logical_victim] not in set().union(*regions(part))


def test_partition_infeasible_when_too_small():
    with pytest.raises(EmbeddingInfeasibleError):
        partition_replicas(build_pegasus(2), 8)


def test_verifier_detects_shared_qubit(g4):
    part = partition_replicas(g4, 2)
    shared = int(part.images[0, 0])
    images = part.images.copy()
    images[1, 5] = shared
    mutated = dataclasses.replace(part, images=images)
    report = verify_partition(mutated, g4)
    assert not report.ok and not report.disjoint
    assert any(str(shared) in f for f in report.failures)


def test_verifier_detects_missing_edge(g4):
    part = partition_replicas(g4, 2)
    a, b = min(logical_edges(part))
    iso = iso_maps(part)[1]
    dead = canonical_edge(iso[a], iso[b])
    broken = apply_defects(g4, [], [dead])
    report = verify_partition(part, broken)
    assert not report.ok and not report.edges_embedded
    assert any(f"({a},{b})" in f for f in report.failures)


def test_verifier_reports_a_collapsed_logical_edge(g4):
    # both ends of a logical edge on one qubit: a failed report, not an error
    part = partition_replicas(g4, 2)
    a, b = min(logical_edges(part))
    images = part.images.copy()
    images[1, b] = images[1, a]
    report = verify_partition(dataclasses.replace(part, images=images), g4)
    assert not report.ok and not report.bijective and not report.edges_embedded
    assert f"region 1: logical edge ({a},{b}) has no active coupler" in report.failures


def test_tile_qac_chimera_cell_matches_template():
    enc = tile_qac(build_chimera(1, 1, 4))
    assert enc.n_logical == 2
    # one unit's problem triple per shore, penalty hubs on wire 3 of the other
    assert enc.problem.tolist() == [[0, 1, 2], [4, 5, 6]] and enc.penalty.tolist() == [7, 3]
    assert enc.edge_codes.tolist() == [1]  # the pair (0, 1), coded 0*2 + 1
    assert enc.offsets.tolist() == [0, 9] and enc.couplers.shape == (9, 2)


def test_tile_qac_star_alone():
    enc = tile_qac(build_custom(range(4), [(0, 1), (0, 2), (0, 3)]))
    assert enc.n_logical == 1
    assert enc.edge_codes.size == enc.couplers.size == 0 and enc.offsets.tolist() == [0]


def test_tile_qac_two_joined_stars():
    enc = tile_qac(two_stars_graph())
    assert enc.n_logical == 2
    assert enc.edge_codes.tolist() == [1] and enc.offsets.tolist() == [0, 1]


def test_tile_qac_units_disjoint_and_hubs_adjacent(g4):
    enc = tile_qac(g4)
    seen = set()
    for problem, hub in zip(enc.problem.tolist(), enc.penalty.tolist()):
        qubits = set(problem) | {hub}
        assert len(qubits) == 4
        assert not (qubits & seen)
        seen |= qubits
        for q in problem:
            assert g4.has_edges(hub, q)


def test_logical_graph_empty_and_cell():
    empty = QacEncoding(np.zeros((0, 3)), [], [], np.zeros((0, 2)), [0])
    lg = empty.logical_graph()
    assert lg.node_ids.size == 0 and lg.ideal_codes.size == 0
    cell = tile_qac(build_chimera(1, 1, 4)).logical_graph()
    assert cell.node_ids.size == 2 and cell.ideal_codes.size == 1


def test_combined_k1_reduces_to_whole_graph_tiling(g4):
    comb = combine_qac_rbm(g4, 1)
    whole = tile_qac(g4)
    assert comb.k == 1
    assert comb.encodings[0].n_logical == whole.n_logical


def test_combined_k4_structure(g4):
    comb = combine_qac_rbm(g4, 4)
    assert comb.k == 4 and len(comb.encodings) == 4
    report = verify_partition(comb.rbm_partition, g4)
    assert report.ok, report.failures
    # every instance edge is realizable in every encoding
    for enc in comb.encodings:
        assert np.array_equal(enc.edge_codes, comb.rbm_partition.edge_codes)
        assert (np.diff(enc.offsets) > 0).all()
    # representatives are problem qubits of their unit
    for enc, image in zip(comb.encodings, comb.rbm_partition.images):
        assert (enc.problem == image[:, None]).any(axis=1).all()


def test_combined_logical_graphs_isomorphic_across_regions(g4):
    comb = combine_qac_rbm(g4, 4)
    shapes = set()
    for enc in comb.encodings:
        lg = enc.logical_graph()
        s = graph_stats(lg)
        shapes.add((s.num_nodes, s.num_edges))
    assert len(shapes) == 1


def test_partition_serialization_round_trip(g4):
    # the payload is the recipe, the graph's recipe and k, rebuilt when loaded
    damaged = apply_defects(g4, [5, 77], [(0, 1)])
    for g in (g4, damaged):
        data = partition_to_dict(g, 2)
        assert data == {"graph": graph_to_dict(g), "k": 2}
        assert partition_from_dict(data) == partition_replicas(g, 2)


def test_encoding_serialization_round_trip():
    enc = tile_qac(build_chimera(1, 2, 4))
    again = encoding_from_dict(encoding_to_dict(enc))
    assert again == enc


def test_encoding_arrays_are_read_only_int64():
    enc = tile_qac(build_chimera(1, 2, 4))
    for name in ("problem", "penalty", "edge_codes", "couplers", "offsets"):
        a = getattr(enc, name)
        assert a.dtype == np.int64 and not a.flags.writeable, name


def test_encoding_loader_takes_pair_keys_in_any_order(g4):
    # a coupler's pair is the units it joins: the pairs may come in any order
    # and either end first, and each pair's couplers keep their order
    enc = combine_qac_rbm(g4, 4).encodings[0]
    data = encoding_to_dict(enc)
    assert sorted(data) == ["couplers", "penalty", "problem"]
    assert enc.edge_codes.size > 1 and (np.diff(enc.offsets) > 1).any()
    cuts = enc.offsets.tolist()
    runs = [data["couplers"][i:j] for i, j in zip(cuts, cuts[1:])]
    shuffled = [[b, a] for run in reversed(runs) for a, b in run]
    assert encoding_from_dict({**data, "couplers": shuffled}) == enc
    # another order within a pair is another encoding
    swapped = [run[::-1] for run in runs]
    again = encoding_from_dict({**data, "couplers": [c for run in swapped for c in run]})
    assert again != enc and np.array_equal(again.edge_codes, enc.edge_codes)


def test_encoding_loader_refuses_keys_beyond_its_units(g4):
    # a coupler joins problem qubits of two units: not a hub (unit 0's is
    # qubit 6), a qubit in no unit, or two qubits of one unit
    data = encoding_to_dict(combine_qac_rbm(g4, 4).encodings[0])
    assert data["problem"][0] == [9, 168, 171] and data["penalty"][0] == 6
    for coupler in ([6, 168], [168, 6], [999, 168], [168, 999], [9, 171]):
        with pytest.raises(FormatError, match=r"coupler \[\d+, \d+\] does not join"):
            encoding_from_dict({**data, "couplers": [*data["couplers"], coupler]})


def _two_units(**changes):
    """Units (0, 1, 2; hub 3) and (4, 5, 6; hub 7) coupled by (0, 4) and
    (1, 5), with ``changes`` made to the arrays."""
    arrays = {"problem": [[0, 1, 2], [4, 5, 6]], "penalty": [3, 7], "edge_codes": [1],
              "couplers": [[0, 4], [1, 5]], "offsets": [0, 2], **changes}
    return QacEncoding(**arrays)


@pytest.mark.parametrize("changes, message", [
    ({"penalty": [3, 7, 8]}, "shapes"),
    ({"couplers": [0, 4]}, "shapes"),
    ({"penalty": [3, -7]}, "not non-negative"),
    ({"penalty": [3, 0]}, "not non-negative and distinct"),
    ({"problem": [[0, 1, 2], [4, 5, 1]]}, "not non-negative and distinct"),
    ({"edge_codes": [2]}, "pair codes"),  # the pair (1, 0)
    ({"edge_codes": [0]}, "pair codes"),  # the pair (0, 0)
    ({"edge_codes": [5]}, "pair codes"),  # the pair (2, 1) of a 2-unit encoding
    ({"offsets": [0, 1]}, "offsets"),
    ({"edge_codes": [], "offsets": [0]}, "offsets"),
    ({"couplers": [[0, 4], [1, 9]]}, r"coupler \[1, 9\]"),
    ({"couplers": [[0, 4], [3, 5]]}, r"coupler \[3, 5\]"),
    ({"couplers": [[0, 4], [0, 1]]}, r"coupler \[0, 1\]"),
    ({"couplers": [[0, 4], [4, 0]]}, "given twice"),
])
def test_encoding_refuses_each_broken_claim(changes, message):
    _two_units()  # the unchanged arrays are an encoding
    with pytest.raises(InvalidParameterError, match=message):
        _two_units(**changes)


def test_combined_serialization_round_trip(g4):
    # k = 1 takes the whole graph, and on Chimera the per-cell template tiling
    for comb in (combine_qac_rbm(g4, 4), combine_qac_rbm(g4, 1),
                 combine_qac_rbm(build_chimera(2, 2, 4), 1)):
        assert combined_from_dict(json.loads(dumps(combined_to_dict(comb)))) == comb


def test_combined_payload_whose_counts_disagree_is_rejected(g4):
    data = combined_to_dict(combine_qac_rbm(g4, 4))
    slots = data["rbm_slots"]
    two = combined_to_dict(combine_qac_rbm(g4, 2))
    for bad in ({**data, "k": 2}, {**data, "encodings": data["encodings"][:3]},
                {**data, "k": 0, "encodings": []},
                {**data, "encodings": [two["encodings"][0], *data["encodings"][1:]]},
                {**data, "rbm_slots": slots[:-1]}, {**data, "rbm_slots": [3, *slots[1:]]},
                {**data, "rbm_slots": [-1, *slots[1:]]}):
        with pytest.raises(FormatError, match="inconsistent"):
            combined_from_dict(bad)
    # two equal encodings pick the same qubits for both regions
    twice = [data["encodings"][0]] * 2 + data["encodings"][2:]
    with pytest.raises(FormatError, match="encodings 0 and 1 share qubit 6"):
        combined_from_dict({**data, "encodings": twice})
    # regions share no qubit, a hub included: encoding 3's unit 0 takes
    # encoding 1's hub, and each encoding is sound alone
    third = {**data["encodings"][3], "penalty": [*data["encodings"][3]["penalty"]]}
    third["penalty"][0] = data["encodings"][1]["penalty"][0]
    encoding_from_dict(third)
    with pytest.raises(FormatError, match=f"encodings 1 and 3 share qubit {third['penalty'][0]}"):
        combined_from_dict({**data, "encodings": [*data["encodings"][:3], third]})


def test_combined_payload_names_each_units_replica_slot(g4):
    comb = combine_qac_rbm(g4, 4)
    slots = combined_to_dict(comb)["rbm_slots"]
    assert len(slots) == comb.encodings[0].n_logical and set(slots) <= {0, 1, 2}
    for enc, image in zip(comb.encodings, comb.rbm_partition.images):
        assert enc.problem[np.arange(len(slots)), slots].tolist() == image.tolist()
    # an rbm_partition its slots would not load as is refused, not written
    images = comb.rbm_partition.images.copy()
    images[1, 0] = comb.encodings[1].penalty[0]
    moved = dataclasses.replace(comb, rbm_partition=dataclasses.replace(
        comb.rbm_partition, images=images))
    with pytest.raises(InvalidParameterError, match="same slot in every region"):
        combined_to_dict(moved)


def test_structure_loaders_name_keys_they_do_not_read(g4):
    # a key no stage reads is refused by name; the CLI's meta is read by none
    # but written into every file
    data = combined_to_dict(combine_qac_rbm(g4, 4))
    enc = data["encodings"][0]
    meta = {"tool": "anneal-rbm"}
    assert combined_from_dict({**data, "meta": meta}) == combined_from_dict(data)
    assert encoding_from_dict({**enc, "meta": meta}) == encoding_from_dict(enc)
    unread = r"unknown {} keys \['{}'\]".format
    with pytest.raises(FormatError, match=unread("combined-embedding", "base_partition")):
        combined_from_dict({**data, "base_partition": partition_to_dict(g4, 4)})
    # partition and combined files as they were before they held the recipe
    # and the slots: listed iso maps, regions and logical edges
    listed = listed_partition(partition_replicas(g4, 4))
    unread_all = r"unknown {} keys \[{}\]".format
    with pytest.raises(FormatError, match=unread_all(
            "partition", "'iso_maps', 'logical_edges', 'n_logical', 'regions'")):
        partition_from_dict(listed)
    old = {k: v for k, v in data.items() if k != "rbm_slots"}
    with pytest.raises(FormatError, match=unread("combined-embedding", "rbm_partition")):
        combined_from_dict({**old, "rbm_partition": listed_partition(
            combine_qac_rbm(g4, 4).rbm_partition)})
    weighted = {**enc, "penalty_weight": -1.0}
    with pytest.raises(FormatError, match=unread("encoding", "penalty_weight")):
        encoding_from_dict(weighted)
    with pytest.raises(FormatError, match=unread("encoding", "penalty_weight")):
        combined_from_dict({**data, "encodings": [weighted, *data["encodings"][1:]]})


def test_structure_from_dict_serves_each_role_from_each_file_kind(g4):
    comb = combine_qac_rbm(g4, 4)
    part = partition_replicas(g4, 2)
    enc = tile_qac(build_chimera(1, 2, 4))
    files = {"graph": graph_to_dict(g4), "partition": partition_to_dict(g4, 2),
             "encoding": encoding_to_dict(enc), "combined": combined_to_dict(comb)}
    served = {
        ("graph", "graph"): g4,
        ("partition", "graph"): part.logical_graph(),
        ("partition", "partition"): part,
        ("encoding", "encoding"): enc,
        ("combined", "graph"): comb.rbm_partition.logical_graph(),
        ("combined", "partition"): comb.rbm_partition,
        ("combined", "encoding"): comb.encodings[0],
    }
    for kind, data in files.items():
        for role in ("graph", "partition", "encoding"):
            if (kind, role) in served:
                assert structure_from_dict(data, role) == served[kind, role]
            else:
                with pytest.raises(FormatError):
                    structure_from_dict(data, role)
    # a combined file without its rbm_slots is still read, and refused, as one
    no_slots = {k: v for k, v in files["combined"].items() if k != "rbm_slots"}
    for role in ("graph", "partition", "encoding"):
        with pytest.raises(FormatError, match="combined-embedding"):
            structure_from_dict(no_slots, role)
    # a listed partition is read as one for every role but the encoding, and
    # refused by its keys
    listed = listed_partition(part)
    for role in ("graph", "partition"):
        with pytest.raises(FormatError, match="unknown partition keys"):
            structure_from_dict(listed, role)
    with pytest.raises(InvalidParameterError):
        structure_from_dict(files["partition"], "region")
