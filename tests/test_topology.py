import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anneal_rbm.errors import FormatError, InvalidParameterError
from anneal_rbm.jsonio import read_json, write_json
from anneal_rbm.topology import (HardwareGraph, apply_defects, build_chimera, build_custom,
                                 build_pegasus, graph_from_dict, graph_stats,
                                 graph_to_dict, pegasus_coords, pegasus_index)
from conftest import active_edges, edge_tuples, id_set


def test_pegasus_node_counts():
    assert build_pegasus(2).node_ids.size == 48
    assert build_pegasus(16).node_ids.size == 5760


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=2, max_value=8))
def test_pegasus_node_count_formula(m):
    assert build_pegasus(m).node_ids.size == 24 * m * (m - 1)


def test_pegasus_rejects_small_m():
    with pytest.raises(InvalidParameterError):
        build_pegasus(1)


def test_pegasus_max_degree_is_15():
    stats = graph_stats(build_pegasus(16))
    assert stats.max_degree == 15


def test_pegasus_m16_with_133_dead_qubits_has_5627_active():
    g = build_pegasus(16)
    mask = g.node_ids.tolist()[::43][:133]
    assert len(mask) == 133
    masked = apply_defects(g, mask)
    assert masked.active_ids.size == 5627


def test_pegasus_coordinate_round_trip():
    m = 4
    for node in (0, 7, 100, 287):
        u, w, k, z = pegasus_coords(m, node)
        assert pegasus_index(m, u, w, k, z) == node


def test_chimera_single_cell():
    g = build_chimera(1, 1, 4)
    s = graph_stats(g)
    assert (s.num_nodes, s.num_edges) == (8, 16)
    assert s.average_degree == 4.0


def test_chimera_two_cells_vertical():
    s = graph_stats(build_chimera(2, 1, 4))
    assert (s.num_nodes, s.num_edges) == (16, 36)


def test_chimera_k11():
    g = build_chimera(1, 1, 1)
    assert (g.node_ids.size, g.ideal_codes.size) == (2, 1)


def test_chimera_rejects_bad_params():
    with pytest.raises(InvalidParameterError):
        build_chimera(0, 1, 4)


def test_apply_defects_empty_mask_is_identity():
    g = build_pegasus(2)
    assert apply_defects(g) == g


def test_apply_defects_node_removes_incident_edges():
    g = build_pegasus(2)
    degrees = np.diff(g.neighbors[0])
    node, d = int(g.active_ids[degrees.argmax()]), int(degrees.max())
    masked = apply_defects(g, [node])
    assert masked.edge_codes.size == g.edge_codes.size - d
    assert node not in id_set(masked.active_ids)


def test_apply_defects_idempotent():
    g = build_pegasus(2)
    edge = edge_tuples(g.ideal_codes, g.code_base)[0]
    once = apply_defects(g, [3, 5], [edge])
    twice = apply_defects(once, [3, 5], [edge])
    assert once == twice


def test_apply_defects_unknown_id_rejected():
    g = build_chimera(1, 1, 4)
    with pytest.raises(InvalidParameterError):
        apply_defects(g, [999])
    with pytest.raises(InvalidParameterError):
        apply_defects(g, [], [(0, 999)])


def test_defective_coupler_breaks_tiling_unit():
    from anneal_rbm.embedding import tile_qac
    star = build_custom(range(4), [(0, 1), (0, 2), (0, 3)])
    assert tile_qac(star).n_logical == 1
    broken = apply_defects(star, [], [(0, 2)])
    assert tile_qac(broken).n_logical == 0


def test_graph_stats_empty():
    s = graph_stats(build_custom([], []))
    assert (s.num_nodes, s.num_edges, s.average_degree) == (0, 0, 0.0)
    assert s.degree_histogram == {}


def test_edges_only_connect_active_nodes():
    g = apply_defects(build_pegasus(2), [10, 20])
    active = id_set(g.active_ids)
    for a, b in active_edges(g):
        assert a in active and b in active


def test_serialization_round_trip_bit_exact(tmp_path):
    base = build_pegasus(2)
    g = apply_defects(base, [1, 2], [edge_tuples(base.ideal_codes, base.code_base)[0]])
    path = tmp_path / "g.json"
    write_json(graph_to_dict(g), str(path))
    g2 = graph_from_dict(read_json(str(path)))
    assert g2 == g
    path2 = tmp_path / "g2.json"
    write_json(graph_to_dict(g2), str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_graph_dict_schema():
    # a builder family's graph is its recipe, a custom graph its lists
    g = apply_defects(build_chimera(1, 1, 2), [3], [(0, 2)])
    d = graph_to_dict(g)
    assert d == {"family": "chimera", "params": {"rows": 1, "cols": 1, "shore": 2},
                 "defects": {"nodes": [3], "edges": [[0, 2]]}}
    assert graph_from_dict(json.loads(json.dumps(d))) == g
    custom = apply_defects(build_custom(range(4), [(0, 2), (0, 3), (1, 2), (1, 3)]), [3], [(0, 2)])
    d = graph_to_dict(custom)
    assert d == {"family": "custom", "params": {}, "nodes": [0, 1, 2, 3],
                 "edges": [[0, 2], [0, 3], [1, 2], [1, 3]],
                 "defects": {"nodes": [3], "edges": [[0, 2]]}}
    assert graph_from_dict(json.loads(json.dumps(d))) == custom


def test_graph_recipe_refuses_lists_and_unknown_params():
    d = graph_to_dict(build_pegasus(2))
    with pytest.raises(FormatError, match=r"unknown graph keys \['edges', 'nodes'\]"):
        graph_from_dict({**d, "nodes": [0, 1], "edges": [[0, 1]]})
    with pytest.raises(FormatError, match=r"pegasus params are \['m'\], got \['m', 'x'\]"):
        graph_from_dict({**d, "params": {"m": 16, "x": 1}})
    with pytest.raises(FormatError, match=r"unknown graph keys \['defectz'\]"):
        graph_from_dict({**d, "defectz": {"nodes": [0]}})


@pytest.mark.parametrize("g", [
    HardwareGraph("pegasus", {"m": 2}, np.arange(3), [1]),
    HardwareGraph("pegasus", {"m": 3}, build_pegasus(2).node_ids, build_pegasus(2).ideal_codes),
    HardwareGraph("pegasus", {}, build_pegasus(2).node_ids, build_pegasus(2).ideal_codes),
    HardwareGraph("chimera", {"rows": 1, "cols": 1, "shore": 2}, np.arange(4),
                  build_chimera(1, 1, 2).ideal_codes[:-1]),
], ids=["pegasus-3-qubits", "pegasus-other-m", "pegasus-no-params", "chimera-coupler-missing"])
def test_graph_to_dict_refuses_a_graph_its_recipe_does_not_build(g):
    # the recipe would load as the builder's graph, which is not this one
    with pytest.raises(InvalidParameterError, match="recipe would load as another graph"):
        graph_to_dict(g)


def test_masked_built_graph_round_trips_as_its_recipe():
    base = build_pegasus(3)
    g = apply_defects(base, [0, 7, 100], edge_tuples(base.ideal_codes, base.code_base)[5:9])
    d = json.loads(json.dumps(graph_to_dict(g)))
    assert sorted(d) == ["defects", "family", "params"]
    assert graph_from_dict(d) == g


@pytest.mark.parametrize("family", ["pegasus", "chimera"])
def test_build_custom_refuses_a_builder_family_name(family):
    # so every graph named after a builder is that builder's output plus a mask
    with pytest.raises(InvalidParameterError, match=family):
        build_custom(range(2), [(0, 1)], family=family)


def test_builders_refuse_the_first_shape_past_the_cap():
    # refused before any array is made: 24*210*209 qubits, 2**18 + 1 two-qubit
    # cells in a row, and one cell of 2897**2 couplers
    with pytest.raises(InvalidParameterError, match="1053360 qubits"):
        build_pegasus(210)
    with pytest.raises(InvalidParameterError, match="1048580 qubits"):
        build_chimera(1, 2**18 + 1, 2)
    with pytest.raises(InvalidParameterError, match="8392609 couplers"):
        build_chimera(1, 1, 2897)


@pytest.mark.parametrize("g, params", [(build_pegasus(2), {"m": True}),
                                       (build_chimera(1, 1, 1), {"rows": 1, "cols": 1,
                                                                 "shore": True})])
def test_graph_family_params_must_be_json_integers(g, params):
    # a bool is an int to isinstance: {"m": true} loaded as m=1
    with pytest.raises(FormatError):
        graph_from_dict({**graph_to_dict(g), "params": params})
