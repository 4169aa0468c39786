import hashlib
import json
import math
import xml.etree.ElementTree as ET

import pytest

from anneal_rbm import experiments
from anneal_rbm.errors import FormatError, InvalidParameterError
from anneal_rbm.experiments import (ExperimentConfig, config_from_dict,
                                    config_to_dict, emit_report, gsp,
                                    render_report, report_from_dict,
                                    report_to_dict, run_experiment)
from anneal_rbm.samplers import NoiseModel


def test_gsp_arithmetic():
    assert gsp([(-5.0, -5.0)] * 3 + [(-4.0, -5.0)] * 7) == 0.3
    assert gsp([(-1.0, -1.0)] * 4) == 1.0
    assert gsp([(0.0, -1.0)] * 4) == 0.0


def test_gsp_empty_rejected():
    with pytest.raises(InvalidParameterError):
        gsp([])


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        ExperimentConfig(study="bogus")
    with pytest.raises(InvalidParameterError):
        ExperimentConfig(instances_per_cell=0)
    with pytest.raises(InvalidParameterError):
        ExperimentConfig(bias_sets=())
    with pytest.raises(InvalidParameterError):
        ExperimentConfig(bias_sets=((9.0, 2.0, 1.0),))


def test_config_round_trip_with_noise():
    cfg = ExperimentConfig(study="scaling", graph_m=4, seed=3,
                           noise=NoiseModel(sigma_h=0.1, chip_seed=2,
                                            region_bias=((frozenset({1, 2}), 0.5),)))
    again = config_from_dict(config_to_dict(cfg))
    assert again == cfg


SMOKE = ExperimentConfig(study="qac_comparison", graph_m=4,
                         bias_sets=((9.0, 2.0),), instances_per_cell=3,
                         num_reads=30, sweeps=150, seed=11)


@pytest.fixture(scope="module")
def qac_report():
    return run_experiment(SMOKE)


def test_qac_comparison_noiseless_reaches_gsp_one(qac_report):
    assert {c.method for c in qac_report.cells} == {"rbm", "qac", "sqa"}
    for c in qac_report.cells:
        assert c.gsp == 1.0
        assert c.mean_best == c.mean_planted


def test_report_lower_bound_invariant(qac_report):
    for c in qac_report.cells:
        for r in c.records:
            assert r["best"] >= r["planted"]
        assert c.mean_normalized <= 1.0


def test_report_round_trip(qac_report):
    data = json.loads(json.dumps(report_to_dict(qac_report)))
    again = report_from_dict(data)
    assert report_to_dict(again) == report_to_dict(qac_report)


def test_report_determinism(qac_report):
    again = run_experiment(SMOKE)
    assert report_to_dict(again) == report_to_dict(qac_report)
    assert render_report(again)["report.csv"] == render_report(qac_report)["report.csv"]


def test_csv_row_count_and_shape(qac_report):
    payload = render_report(qac_report)["report.csv"]
    lines = payload.strip().splitlines()
    assert len(lines) - 1 == len(qac_report.cells)
    assert lines[0].startswith("study,k,bias_large")


def test_svg_is_well_formed_xml(qac_report):
    payloads = render_report(qac_report)
    for name in ("energies.svg", "gsp.svg"):
        root = ET.fromstring(payloads[name])
        assert root.tag.endswith("svg")


def test_emit_report_writes_requested_formats(tmp_path, qac_report):
    paths = emit_report(qac_report, str(tmp_path), formats=("json", "csv", "svg"))
    names = sorted(p.split("/")[-1] for p in paths)
    assert names == ["energies.svg", "gsp.svg", "report.csv", "report.json"]

    # an unknown format is rejected before any sink is written
    rejected = tmp_path / "rejected"
    with pytest.raises(InvalidParameterError):
        emit_report(qac_report, str(rejected), formats=("csv", "pdf"))
    assert not rejected.exists() or not any(rejected.iterdir())

    meta = {"tool": "anneal-rbm", "seed": 3, "config_hash": "0123456789abcdef"}
    with_meta = tmp_path / "with_meta"
    emit_report(qac_report, str(with_meta), meta=meta)
    assert json.loads((with_meta / "report.json").read_text()) == {
        **report_to_dict(qac_report), "meta": meta}
    comment = f"<!-- {json.dumps(meta, sort_keys=True)} -->"
    for name in ("energies.svg", "gsp.svg"):
        lines = (with_meta / name).read_text().splitlines()
        assert lines[1] == comment
        assert ET.fromstring("\n".join(lines)).tag.endswith("svg")
    assert (with_meta / "report.csv").read_text() == (tmp_path / "report.csv").read_text()


SCALING = ExperimentConfig(study="scaling", graph_m=4, k_values=(4,),
                           beta_grid=(1.0,), instances_per_cell=3,
                           num_reads=40, sweeps=200, seed=5)


@pytest.fixture(scope="module")
def scaling_report():
    return run_experiment(SCALING)


#: An unsaturated noisy scaling config: best-of-3 reads at 5 sweeps misses
#: the planted energy on some instances, so every anneal seed shows.
NOISY_SCALING = ExperimentConfig(study="scaling", graph_m=4, k_values=(2, 4),
                                 beta_grid=(1.0,), instances_per_cell=2,
                                 num_reads=3, sweeps=5, seed=7,
                                 noise=NoiseModel(sigma_h=0.05, sigma_j=0.02,
                                                  chip_seed=3))


@pytest.fixture(scope="module")
def noisy_scaling_report():
    return run_experiment(NOISY_SCALING)


def test_scaling_aggregates_recompute_from_records(scaling_report, noisy_scaling_report):
    cells = scaling_report.cells + noisy_scaling_report.cells
    assert any(0.0 < c.gsp < 1.0 for c in cells)  # some cell is not saturated
    for c in cells:
        best = [r["best"] for r in c.records]
        planted = [r["planted"] for r in c.records]
        n = len(c.records)
        assert c.mean_best == pytest.approx(math.fsum(best) / n, rel=1e-12)
        assert c.mean_planted == pytest.approx(math.fsum(planted) / n, rel=1e-12)
        assert c.mean_normalized == pytest.approx(
            math.fsum(b / p for b, p in zip(best, planted)) / n, rel=1e-12)
        assert c.gsp == sum(b == p for b, p in zip(best, planted)) / n


def test_scaling_reports_instance_sizes(scaling_report):
    sizes = scaling_report.instance_sizes
    assert "k4" in sizes
    assert sizes["k4"]["n_linear"] == 48
    assert sizes["k4"]["reference"] == [1219, 6914]


def test_scaling_read_budgets_match(monkeypatch):
    """Per instance, replication decodes one k-copy call and the baseline k
    single-region calls, and both consume the same spin-reads."""
    budgets = {}  # id(sample set) -> (sample set, n * num_reads)
    consumed = {"rbm": [], "sqa": []}
    real_sample = experiments.sample_sa
    real_rbm = experiments.decode_rbm
    real_repeat = experiments.decode_sqa_repeat

    def spy_sample(p, params, *args):
        ss = real_sample(p, params, *args)
        budgets[id(ss)] = (ss, p.n * params.num_reads)
        return ss

    def spy_rbm(ss, *args):
        consumed["rbm"].append([budgets.pop(id(ss))[1]])
        return real_rbm(ss, *args)

    def spy_repeat(sets, *args):
        consumed["sqa"].append([budgets.pop(id(ss))[1] for ss in sets])
        return real_repeat(sets, *args)

    monkeypatch.setattr(experiments, "sample_sa", spy_sample)
    monkeypatch.setattr(experiments, "decode_rbm", spy_rbm)
    monkeypatch.setattr(experiments, "decode_sqa_repeat", spy_repeat)
    run_experiment(SCALING)

    k, instances = SCALING.k_values[0], SCALING.instances_per_cell
    assert not budgets  # every anneal call was decoded by exactly one method
    assert [len(calls) for calls in consumed["rbm"]] == [1] * instances
    assert [len(calls) for calls in consumed["sqa"]] == [k] * instances
    for rbm, sqa in zip(consumed["rbm"], consumed["sqa"]):
        assert sum(rbm) == sum(sqa) > 0


def test_gsp_monotone_when_sweeps_collapse(scaling_report):
    starved = run_experiment(config_from_dict({**config_to_dict(SCALING), "sweeps": 1}))
    by_method = {c.method: c.gsp for c in scaling_report.cells}
    starved_by_method = {c.method: c.gsp for c in starved.cells}
    for method, value in starved_by_method.items():
        assert value <= by_method[method]


def test_scaling_gsp_counts_planted_ground_states_at_inexact_biases():
    # 9.7 and 2.3 are not dyadic, so the decoded best and the planted energy
    # compare equal only when both come from the same sum in the same order
    cfg = ExperimentConfig(study="scaling", graph_m=4, k_values=(8,),
                           scaling_bias=(9.7, 2.3), beta_grid=(1.0,),
                           instances_per_cell=5, sweeps=300, seed=0)
    report = run_experiment(cfg)
    assert {c.method: c.gsp for c in report.cells} == {"rbm": 1.0, "sqa": 1.0}
    assert all(r["best"] == r["planted"] for c in report.cells for r in c.records)


#: sha256 of every render_report payload.  Seed paths and task order are part
#: of the report, so any drift in either changes these.
PINNED_PAYLOADS = {
    "smoke": {
        "report.json": "e47c5dcfb5e321ccbce152f4bfceb944f5e7293f210f7f9d2251465b809f8a2b",
        "report.csv": "0ef1fa0a3a962dc023e6e3cd3056acde4cb7dfb90cb9dd3f3257f56c7e0fb427",
        "energies.svg": "9f9fefe5735f24002507449c2633bfdc917a01194ace7e3fb4ff178f1b818228",
        "gsp.svg": "3802253381990aae13637f01f598f4d7a049064a98a92d23d8cfa7748c1ebd2b",
    },
    "noisy_scaling": {
        "report.json": "18e6675c5fbfb4f2b02d7275ac346c60517232e5ef1b820a3e447a79409600a5",
        "report.csv": "56874d0bafec33c35cd17086bfc9a3319cda941b8adf4c8faa2331222629d855",
        "energies.svg": "bf5d661f208cbdcf270319c904cc1a10487ffc39e76875f25727a7e035b20c2a",
        "gsp.svg": "fc3d5531dc85c1b1a34024638bb0530c9740c690dc999ceabfe331976366e57b",
    },
}


def test_report_payloads_are_pinned(qac_report, noisy_scaling_report):
    for name, report in (("smoke", qac_report), ("noisy_scaling", noisy_scaling_report)):
        hashes = {sink: hashlib.sha256(body.encode()).hexdigest()
                  for sink, body in render_report(report).items()}
        assert hashes == PINNED_PAYLOADS[name], name


@pytest.mark.parametrize("value", [2.0, True, "2"], ids=["float", "bool", "string"])
@pytest.mark.parametrize("key", ["graph_m", "k", "k_values", "instances_per_cell",
                                 "num_reads", "sweeps", "seed"])
def test_config_integer_fields_must_be_json_integers(key, value):
    data = config_to_dict(ExperimentConfig())
    data[key] = [value] if key == "k_values" else value
    with pytest.raises(FormatError):
        config_from_dict(data)


def test_shipped_configs_parse():
    import os
    here = os.path.join(os.path.dirname(__file__), "..", "configs")
    for name in ("qac_m16.json", "scaling_m16.json", "scaling_desk.json"):
        with open(os.path.join(here, name)) as f:
            cfg = config_from_dict(json.load(f))
        assert cfg.instances_per_cell == 10


def test_readme_config_example_parses():
    import os
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as f:
        readme = f.read()
    example = readme.split("A minimal experiment config:", 1)[1]
    example = example.split("```json", 1)[1].split("```", 1)[0]
    assert config_from_dict(json.loads(example)).study == "scaling"
