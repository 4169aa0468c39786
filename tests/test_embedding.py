import dataclasses

import numpy as np
import pytest

from anneal_rbm.embedding import (QacEncoding, combine_qac_rbm, combined_from_dict,
                                  combined_to_dict, encoding_from_dict,
                                  encoding_to_dict, partition_from_dict, partition_replicas,
                                  partition_to_dict, structure_from_dict,
                                  tile_qac, verify_partition)
from anneal_rbm.errors import (EmbeddingInfeasibleError, FormatError,
                               InvalidParameterError)
from anneal_rbm.topology import (apply_defects, build_chimera, build_custom,
                                 build_pegasus, graph_stats, graph_to_dict)
from conftest import active_edges, id_set, iso_maps, logical_edges, regions, two_stars_graph
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


def test_loader_refuses_removed_region(g4):
    # k is the number of iso maps, so only a payload can miss a region
    data = partition_to_dict(partition_replicas(g4, 4))
    for bad in ({**data, "regions": data["regions"][:3]},
                {**data, "regions": data["regions"][:3], "iso_maps": data["iso_maps"][:3]}):
        with pytest.raises(FormatError, match="k=4 but 3 regions"):
            partition_from_dict(bad)


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
    part = partition_replicas(g4, 2)
    again = partition_from_dict(partition_to_dict(part))
    assert again == part


def test_encoding_serialization_round_trip():
    enc = tile_qac(build_chimera(1, 2, 4))
    again = encoding_from_dict(encoding_to_dict(enc))
    assert again == enc


def test_encoding_arrays_are_read_only_int64():
    enc = tile_qac(build_chimera(1, 2, 4))
    for name in ("problem", "penalty", "edge_codes", "couplers", "offsets"):
        a = getattr(enc, name)
        assert a.dtype == np.int64 and not a.flags.writeable, name


def test_encoding_loader_takes_pair_keys_in_any_order():
    enc = tile_qac(build_chimera(1, 2, 4))
    data = encoding_to_dict(enc)
    assert len(data["logical_edges"]) > 1
    reversed_keys = dict(reversed(data["logical_edges"].items()))
    assert encoding_from_dict({**data, "logical_edges": reversed_keys}) == enc


def test_encoding_loader_refuses_keys_beyond_its_units(g4):
    # on 9 units "0,11" would code as 0*9 + 11 = 1*9 + 2, the pair (1, 2)
    data = encoding_to_dict(combine_qac_rbm(g4, 4).encodings[0])
    assert len(data["units"]) == 9
    ledges = {("0,11" if key == "1,2" else key): cs for key, cs in data["logical_edges"].items()}
    with pytest.raises(InvalidParameterError, match="leaves 0..8"):
        encoding_from_dict({**data, "logical_edges": ledges})


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
    comb = combine_qac_rbm(g4, 4)
    again = combined_from_dict(combined_to_dict(comb))
    assert again == comb


def test_combined_payload_whose_counts_disagree_is_rejected(g4):
    data = combined_to_dict(combine_qac_rbm(g4, 4))
    for bad in ({**data, "k": 2}, {**data, "encodings": data["encodings"][:3]},
                {**data, "rbm_partition": partition_to_dict(partition_replicas(g4, 2))}):
        with pytest.raises(FormatError, match="inconsistent"):
            combined_from_dict(bad)


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
        combined_from_dict({**data, "base_partition": data["rbm_partition"]})
    weighted = {**enc, "penalty_weight": -1.0}
    with pytest.raises(FormatError, match=unread("encoding", "penalty_weight")):
        encoding_from_dict(weighted)
    with pytest.raises(FormatError, match=unread("encoding", "penalty_weight")):
        combined_from_dict({**data, "encodings": [weighted, *data["encodings"][1:]]})


def test_structure_from_dict_serves_each_role_from_each_file_kind(g4):
    comb = combine_qac_rbm(g4, 4)
    part = partition_replicas(g4, 2)
    enc = tile_qac(build_chimera(1, 2, 4))
    files = {"graph": graph_to_dict(g4), "partition": partition_to_dict(part),
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
    # a combined file without its rbm_partition is still read, and refused, as one
    no_rbm = {k: v for k, v in files["combined"].items() if k != "rbm_partition"}
    for role in ("graph", "partition", "encoding"):
        with pytest.raises(FormatError, match="combined-embedding"):
            structure_from_dict(no_rbm, role)
    with pytest.raises(InvalidParameterError):
        structure_from_dict(files["partition"], "region")
