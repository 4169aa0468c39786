import copy
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anneal_rbm.embedding import (combine_qac_rbm, combined_from_dict,
                                  combined_to_dict, encoding_from_dict,
                                  encoding_to_dict, partition_from_dict,
                                  partition_to_dict,
                                  tile_qac)
from anneal_rbm.errors import ContractError, FormatError
from anneal_rbm.experiments import (ExperimentConfig, config_from_dict,
                                    config_to_dict, report_from_dict)
from anneal_rbm.ising import make_problem, problem_from_dict, problem_to_dict
from anneal_rbm.jsonio import dumps, read_json, write_json
from anneal_rbm.samplers import (AnnealParams, NoiseModel, noise_from_dict,
                                 noise_to_dict, region_biases, sample_sa,
                                 sampleset_from_dict, sampleset_to_dict)
from anneal_rbm.topology import (apply_defects, build_chimera, build_pegasus,
                                 defects_from_dict, graph_from_dict,
                                 graph_to_dict)
from conftest import edge_tuples


def _payloads():
    """loader name -> (loader of one payload argument, a valid payload)."""
    g2 = build_pegasus(2)
    problem = make_problem(3, {0: 1.0}, {(0, 1): -1.0, (1, 2): 2.0})
    samples = sample_sa(problem, AnnealParams(num_reads=3, sweeps=5, seed=1))
    noise = NoiseModel(0.1, 0.05, 3, region_biases([{0, 1}], [0.5]))
    cell = {"cell": {"k": 2, "bias": [10.0, 2.0], "beta": 1.0}, "method": "rbm",
            "mean_best": -8.0, "mean_planted": -8.0, "mean_normalized": 1.0, "gsp": 1.0,
            "records": [{"instance": 0, "best": -8.0, "planted": -8.0}]}
    payloads = {
        "graph": (graph_from_dict, graph_to_dict(apply_defects(g2, [1], edge_tuples(
            g2.ideal_codes, g2.code_base)[:1]))),
        "defects": (defects_from_dict, {"nodes": [1, 2], "edges": [[0, 3]]}),
        "problem": (problem_from_dict, problem_to_dict(problem)),
        "partition": (partition_from_dict, partition_to_dict(g2, 2)),
        "encoding": (encoding_from_dict, encoding_to_dict(tile_qac(build_chimera(1, 1, 4)))),
        "combined": (combined_from_dict, combined_to_dict(combine_qac_rbm(build_pegasus(3), 2))),
        "noise": (noise_from_dict, noise_to_dict(noise)),
        "sampleset": (lambda data: sampleset_from_dict(data, problem),
                      sampleset_to_dict(samples, problem)),
        "config": (config_from_dict, config_to_dict(ExperimentConfig(noise=noise))),
        "report": (report_from_dict, {"study": "scaling", "config": {},
                                      "instance_sizes": {}, "cells": [cell]}),
    }
    # payloads travel as JSON text, so keys are strings and tuples are lists
    return {name: (load, json.loads(dumps(data))) for name, (load, data) in payloads.items()}


PAYLOADS = _payloads()


def _paths(node, prefix=(), depth=3):
    """Paths to the node and its descendants; lists contribute two items."""
    yield prefix
    if depth == 0:
        return
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node[:2])
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, prefix + (key,), depth - 1)


PATHS = {name: list(_paths(data)) for name, (_, data) in PAYLOADS.items()}

_JSON_VALUES = [None, True, 7, 2.5, "x", [], {}, [1, 2], {"a": 1}]


def _json_type(value) -> str:
    for kind in (bool, (int, float), str, list, dict):
        if isinstance(value, kind):
            return str(kind)
    return "null"


def test_valid_payloads_load():
    for name, (load, data) in PAYLOADS.items():
        load(copy.deepcopy(data))


@pytest.mark.parametrize("name", sorted(PAYLOADS))
@settings(derandomize=True, deadline=None, max_examples=150)
@given(choice=st.data())
def test_mutated_payloads_raise_only_contract_errors(name, choice):
    """Dropping a key or item, swapping a value for one of another JSON type,
    or wrapping a value in a list either still loads or raises a ContractError,
    never another exception; a payload wrapped in a list is always rejected."""
    load, data = PAYLOADS[name]
    mutated = copy.deepcopy(data)
    path = choice.draw(st.sampled_from(PATHS[name]), label="path")
    op = choice.draw(st.sampled_from(["drop", "swap", "wrap"] if path else ["wrap"]),
                     label="op")
    if not path:
        with pytest.raises(FormatError):
            load([mutated])
        return
    parent = mutated
    for key in path[:-1]:
        parent = parent[key]
    key, old = path[-1], parent[path[-1]]
    if op == "drop":
        del parent[key]
    elif op == "swap":
        parent[key] = choice.draw(st.sampled_from(
            [v for v in _JSON_VALUES if _json_type(v) != _json_type(old)]), label="value")
    else:
        parent[key] = [old]
    try:
        load(mutated)
    except ContractError:
        pass


def test_write_json_format_and_read_json_round_trip(tmp_path):
    path = tmp_path / "x.json"
    payload = {"b": [1, 2], "a": {"d": 1.5, "c": None}}
    write_json(payload, str(path))
    assert path.read_text() == dumps(payload) == '{\n "a": {\n  "c": null,\n  "d": 1.5\n }' \
        ',\n "b": [\n  1,\n  2\n ]\n}\n'
    assert read_json(str(path)) == payload


@pytest.mark.parametrize("raw", [b"\xff\xfe{}", b"{not json", b"[1, 2]", b"5", b"", b'"{}"',
                                 b'{"a": NaN}', b'{"a": [1, Infinity]}', b'{"a": {"b": -Infinity}}',
                                 # numbers the stdlib parses to infinity
                                 b'{"a": 1e400}', b'{"a": [-1e400]}'])
def test_read_json_rejects_what_is_not_a_json_object(tmp_path, raw):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    with pytest.raises(FormatError):
        read_json(str(path))


def test_write_json_that_fails_part_way_leaves_path_as_it_was(tmp_path):
    # the payload fails after its first key: a new file is not created, an
    # old one keeps its bytes, and no temporary file is left beside either
    payload = {"a": [1, 2], "b": {"c": math.nan}}
    with pytest.raises(ValueError):
        write_json(payload, str(tmp_path / "new.json"))
    assert list(tmp_path.iterdir()) == []
    old = tmp_path / "old.json"
    old.write_bytes(b'{"kept": true}\n')
    with pytest.raises(ValueError):
        write_json(payload, str(old))
    assert old.read_bytes() == b'{"kept": true}\n'
    assert list(tmp_path.iterdir()) == [old]


def test_sample_reads_outside_int8_are_rejected():
    problem = make_problem(2, {}, {(0, 1): 1.0})
    for row in ([300, 1], [1.5, -1], ["1", -1]):
        with pytest.raises(ContractError):
            sampleset_from_dict({"reads": [row]}, problem)
    assert np.array_equal(sampleset_from_dict({"reads": [[1, -1]]}, problem).reads,
                          [[1, -1]])


def _stdlib_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=1, allow_nan=False) + "\n"


def _assert_written_as_stdlib(payload, path):
    """dumps and write_json give the stdlib's text, or raise its error."""
    try:
        want = _stdlib_text(payload)
    except (TypeError, ValueError) as exc:
        for write in (dumps, lambda x: write_json(x, str(path))):
            with pytest.raises(type(exc)) as got:
                write(payload)
            assert str(got.value) == str(exc)
        return
    write_json(payload, str(path))
    assert dumps(payload) == want
    assert path.read_bytes() == want.encode()


# encoded, none of these may be mistaken for a row or item boundary
_TRICKY_STRINGS = ["],\n [", "],\n  [", "]],\n [[", "},\n {", "a,b", ",", '"q"', "\\",
                   "\x00\x1f\n\t", "é€😀 ", "[1, 2]", ""]
_strings = st.sampled_from(_TRICKY_STRINGS) | st.text(max_size=6)
def _payload_strategy(floats):
    """Payloads whose floats are drawn from ``floats``, plus their deep
    variants, which nest each payload inside containers of containers."""
    numbers = (st.integers(-2**70, 2**70) | floats | floats.map(np.float64)
               | st.just(-0.0))
    scalars = st.none() | st.booleans() | numbers | _strings
    number_rows = st.lists(st.lists(numbers, min_size=1, max_size=4), min_size=1, max_size=4)
    # rows that must not be split by text: an empty row, a bool or a string among numbers
    mixed_rows = st.lists(st.lists(numbers | st.booleans() | _strings, max_size=3),
                          min_size=1, max_size=4)
    # one key family per dict, since sorting keys of unorderable types fails in json too
    key_families = [_strings, st.integers(-10**6, 10**6) | floats | st.booleans(),
                    st.none()]

    def dicts(children):
        return st.sampled_from(key_families).flatmap(
            lambda keys: st.dictionaries(keys, children, max_size=4))

    payloads = st.recursive(
        scalars | number_rows | number_rows.map(tuple) | mixed_rows,
        lambda children: (st.lists(children, max_size=4) | dicts(children)
                          | st.lists(children, max_size=3).map(tuple)),
        max_leaves=24)
    return payloads | payloads.map(lambda x: {"a": [{"b": [x, [[1, 2.5]]]}], "c": (1, x)})


_finite_payloads = _payload_strategy(st.floats(allow_nan=False, allow_infinity=False))
# a NaN or an infinity somewhere in most payloads: a value, a row entry or a key
_nonfinite_payloads = _payload_strategy(
    st.floats() | st.sampled_from([math.nan, math.inf, -math.inf]))

WRITER_CASES = [
    {}, [], (), {"a": []}, {"a": {}}, [[]], [[], [1]], [[1], []], [[1, 2], [3]],
    [[1, 2], [3, 4.5], [-0.0, 7]], ((1, 2), (3, 4)), [(1, 2), [3, 4]], [[1]],
    [[True, 2], [3]], [[1, "a"], [2]], [["],\n  [", 1], [2]], [[1, None], [2]],
    [[1, [2]], [3]], [[1.5, np.float64(2.5)], [3]], [[math.nan, math.inf], [-math.inf, 0]],
    {1: [1, [2]], 2.5: {"x": None}}, {None: [1, [2]]}, {False: [[1]], True: 1},
    {math.nan: [[1]], -math.inf: {"a": [1]}}, {-0.0: [[1]]}, {2**70: [[1]], -3: 2},
    {1: 1, 2.5: "x", True: None}, {"s": "],\n [", "t": ["],\n  [", [1]]},
    [math.nan, math.inf, -math.inf, -0.0, np.float64(1.5), True, False, None],
    {"é": "ü\x01\"", "b": [[1.5, -2], [3, 4e300]]}, [[[[[1]]]]], [1, [2, [3, [4, []]]]],
    {"x": {"y": {"z": [[1, 2], [3, 4]], "w": [{"v": [[5]]}]}}}, [{}, [], {"a": 1}, [1]],
    5, -0.0, "x", None, True, np.float64(0.1),
    # lists of scalar dicts, which are encoded in one call and split by text
    [{"a": 1}], [{"a": 1}, {"b": None}], ({"a": 1}, {"a": 2}),
    [{"loop": 3, "magnitude": 9.7, "flip": None}, {"loop": 4, "magnitude": -0.0, "flip": 1}],
    [{"t": True, "f": False}, {"n": None, "z": -0.0, "x": math.nan, "i": -math.inf}],
    [{"s": "},\n {"}, {"s": "},\n  {", "t": "}, {"}, {"u": "}"}, {"v": "{"}],
    [{"},\n {": 1}, {"},\n  {": "},\n {"}], [{1: "a", 2.5: None}, {True: 1, False: 2}, {None: 3}],
    [{"é": "ü\x01\"", "b": 1.5}, {"a": np.float64(2.5)}], {"c": [{"a": 1}, {"b": 2}]},
    [{}, {"a": 1}], [{"a": 1}, {}], [{"a": 1}, [1]], [{"a": [1]}, {"b": 2}],
    [{"a": {}}, {"b": 2}], [[{"a": 1}], {"b": 2}], [{"a": 1}, {"b": 2}, 3],
    {"x": {"y": [{"a": 1, "b": [2]}, {"c": 3}], "z": [{"d": 4}, {"e": 5}]}},
]


@pytest.mark.parametrize("payload", WRITER_CASES, ids=repr)
def test_writer_matches_stdlib_indent_on_edge_cases(payload, tmp_path):
    # the cases holding a NaN or an infinity raise, as the stdlib does
    _assert_written_as_stdlib(payload, tmp_path / "x.json")


@settings(derandomize=True, deadline=None, max_examples=400)
@given(payload=_finite_payloads)
def test_writer_matches_stdlib_indent(payload, tmp_path_factory):
    """dumps and write_json give the stdlib's indented bytes for any payload."""
    path = tmp_path_factory.getbasetemp() / "writer.json"
    write_json(payload, str(path))
    assert dumps(payload) == _stdlib_text(payload)
    assert path.read_bytes() == _stdlib_text(payload).encode()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(payload=_nonfinite_payloads)
def test_writer_refuses_non_finite_numbers_as_stdlib_does(payload, tmp_path_factory):
    _assert_written_as_stdlib(payload, tmp_path_factory.getbasetemp() / "nonfinite.json")


@pytest.mark.parametrize("payload", [{(1, 2): [1, [2]]}, {(1, 2): 1}, [object()],
                                     {"a": [object(), [1]]}, {1: [1, [2]], "a": [1]},
                                     {None: [[1]], 1: 2}, [{(1, 2): 1}, {"a": 1}],
                                     [{1: 1, "a": 1}, {"b": 2}],
                                     # each path of the writer meets a non-finite number
                                     math.nan, [1, math.inf], {"a": -math.inf},
                                     {math.nan: 1}, {2.5: 1, -math.inf: [1, [2]]},
                                     [[1, 2], [3, math.nan]], [{"a": 1}, {"b": math.inf}],
                                     {"a": [{"b": [1, [math.nan]]}]},
                                     [object(), math.nan], [math.nan, object()]],
                         ids=lambda p: re.sub(r" at 0x[0-9a-f]+", "", repr(p)))
def test_writer_raises_what_stdlib_raises(payload, tmp_path):
    with pytest.raises((TypeError, ValueError)):
        _stdlib_text(payload)
    _assert_written_as_stdlib(payload, tmp_path / "x.json")
