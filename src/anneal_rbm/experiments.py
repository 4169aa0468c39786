"""Experiment orchestration: replication vs penalty-encoding vs baseline.

Two studies:

* ``qac_comparison`` -- on a structure admitting both embeddings (k=4), run
  replication (one call, min subsample), penalty encoding (alpha < 0,
  majority decode) and the uncorrected baseline (alpha = 0, majority decode),
  with matched read counts, over a grid of bias sets.
* ``scaling`` -- on replica-only partitions for k in {2,4,8}, compare
  replication (one call on the k-copy problem) against k separate calls on a
  single region, over a clause-density grid.  Both consume identical total
  reads per instance.

Every random draw is keyed off the config seed, so a report is a pure
function of its config.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
from dataclasses import dataclass, field
from functools import partial

from . import rng
from .decode import build_qac_problem, decode_majority, decode_rbm, decode_sqa_repeat
from .embedding import combine_qac_rbm, partition_replicas
from .errors import InvalidParameterError
from .ising import replicate
from .jsonio import dumps, integer, loader, numbers
from .planted import GeneratorParams, build_loop_cover, generate_instance
from .samplers import (AnnealParams, NoiseModel, noise_from_dict,
                       noise_to_dict, sample_sa)
from .topology import build_pegasus

#: Hardware-scale (m=16) embedding sizes reported for reference, keyed by
#: study structure: (linear terms, quadratic terms).  Desk-scale runs log
#: their own sizes next to these for comparison.
REFERENCE_SIZES = {
    "qac_k4": (95, 125),
    "k2": (2652, 15349),
    "k4": (1219, 6914),
    "k8": (526, 2826),
}


@dataclass(frozen=True)
class ExperimentConfig:
    study: str = "qac_comparison"
    graph_m: int = 4
    k: int = 4
    k_values: tuple[int, ...] = (2, 4, 8)
    bias_sets: tuple[tuple[float, float], ...] = ((9.0, 2.0), (10.0, 2.0), (11.0, 2.0))
    scaling_bias: tuple[float, float] = (10.0, 2.0)
    p_large: float = 0.08
    beta: float = 1.0
    beta_grid: tuple[float, ...] = (0.7, 0.8, 0.9, 1.0)
    instances_per_cell: int = 10
    num_reads: int = 100
    sweeps: int = 1000
    alpha: float = -1.0
    noise: NoiseModel | None = None
    seed: int = 0

    def __post_init__(self):
        if self.study not in _STUDIES:
            raise InvalidParameterError(
                f"study must be one of {tuple(_STUDIES)}, got {self.study!r}")
        if self.instances_per_cell < 1:
            raise InvalidParameterError("instances_per_cell must be >= 1")
        if not self.bias_sets or not self.beta_grid or not self.k_values:
            raise InvalidParameterError("parameter grids must be nonempty")
        if any(len(b) != 2 for b in (*self.bias_sets, self.scaling_bias)):
            raise InvalidParameterError("bias sets must be (large, small) pairs")


@dataclass
class MethodCell:
    """Aggregated results of one method on one parameter cell."""

    cell: dict
    method: str
    mean_best: float
    mean_planted: float
    mean_normalized: float
    gsp: float
    records: list[dict] = field(default_factory=list)


@dataclass
class ExperimentReport:
    study: str
    config: dict
    cells: list[MethodCell]
    instance_sizes: dict


def gsp(results: list[tuple[float, float]]) -> float:
    """Fraction of instances whose best energy matches the planted energy.

    Matching is exact equality.  Both energies come from `ising.energies`,
    so with exact coefficients every ground state reads exactly the planted
    energy.  With inexact ones a ground state other than the planted one can
    read an ulp below or above it, and is then not counted.
    """
    if not results:
        raise InvalidParameterError("ground-state probability of an empty result list")
    hits = sum(1 for best, planted in results if best == planted)
    return hits / len(results)


def _derived_seed(base: int, *path: int) -> int:
    return int(rng.stream(base, rng.STREAM_EXPERIMENT, *path).integers(1 << 62))


def _cell_results(cell: dict, per_method: dict[str, list[dict]]) -> list[MethodCell]:
    out = []
    for method, records in per_method.items():
        pairs = [(r["best"], r["planted"]) for r in records]
        out.append(MethodCell(
            cell=dict(cell), method=method,
            mean_best=sum(b for b, _ in pairs) / len(pairs),
            mean_planted=sum(p for _, p in pairs) / len(pairs),
            mean_normalized=sum(b / p for b, p in pairs) / len(pairs),
            gsp=gsp(pairs), records=records))
    return out


# A method maps (logical problem, anneal call) to the best energy it decodes;
# the studies bind the structure arguments with functools.partial.
def _rbm(part, problem, anneal) -> float:
    """Replication: one call on the k-copy problem, min-energy subsample."""
    rp = replicate(problem, part)
    return decode_rbm(anneal(rp.problem, rp.placement), part, problem).energy


def _majority(enc, alpha: float, problem, anneal) -> float:
    """Penalty encoding at weight alpha (0 is the baseline), majority vote."""
    qp = build_qac_problem(problem, enc, alpha)
    return decode_majority(anneal(qp.problem, qp.placement), enc, problem)[1].energy


def _repeat(k: int, placement, problem, anneal) -> float:
    """Baseline: k separate calls on one region, best read overall."""
    return decode_sqa_repeat([anneal(problem, placement) for _ in range(k)],
                             problem).energy


def _qac_structures(cfg: ExperimentConfig):
    """One combined k-structure; RBM, QAC and SQA on each bias set.

    All three methods solve the same planted instances with the same number
    of reads; the baseline is the penalty encoding with alpha = 0 and a
    problem-qubits-only majority vote.
    """
    comb = combine_qac_rbm(build_pegasus(cfg.graph_m), cfg.k)
    part, enc = comb.rbm_partition, comb.encodings[0]
    methods = {"rbm": partial(_rbm, part), "qac": partial(_majority, enc, cfg.alpha),
               "sqa": partial(_majority, enc, 0.0)}
    cells = [((ci,), cfg.k, bias, cfg.beta) for ci, bias in enumerate(cfg.bias_sets)]
    yield "qac_k4", part, methods, cells


def _scaling_structures(cfg: ExperimentConfig):
    """One replica partition per k; RBM and k-repeated SQA on each beta.

    Per instance, replication samples the k-copy problem once with num_reads
    reads (k subsamples each); the baseline runs k separate calls of
    num_reads reads on region 0 -- identical total read budgets, but the
    baseline occupies one hardware region only (and k times the wall time).
    """
    g = build_pegasus(cfg.graph_m)
    for ki, k in enumerate(cfg.k_values):
        part = partition_replicas(g, k)
        methods = {"rbm": partial(_rbm, part),
                   "sqa": partial(_repeat, k, part.images[0])}
        cells = [((ki, bi), k, cfg.scaling_bias, beta)
                 for bi, beta in enumerate(cfg.beta_grid)]
        yield f"k{k}", part, methods, cells


#: study -> (structures, generation seed tag, anneal seed tag).  The tags
#: head every seed path, so changing one changes every report of the study.
_STUDIES = {
    "qac_comparison": (_qac_structures, 1, 2),
    "scaling": (_scaling_structures, 3, 4),
}


def _annealer(cfg: ExperimentConfig, *path: int):
    """Anneal calls of one instance; the j-th call samples with seed path (*path, j)."""
    calls = itertools.count()

    def anneal(problem, placement):
        params = AnnealParams(cfg.num_reads, cfg.sweeps,
                              seed=_derived_seed(cfg.seed, *path, next(calls)))
        return sample_sa(problem, params, cfg.noise, placement)
    return anneal


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run every (cell, instance, method) task of the study in grid order.

    Instance ii of the cell at grid path c is generated with seed path
    (generation tag, *c, ii); its methods share one annealer keyed by
    (anneal tag, *c, ii), so the report is a pure function of the config.
    """
    structures, gen_tag, anneal_tag = _STUDIES[cfg.study]
    cells: list[MethodCell] = []
    sizes: dict[str, dict] = {}
    for key, part, methods, grid in structures(cfg):
        cover = build_loop_cover(part.n_logical, part.logical_graph().edge_ranks.T)
        quad_counts: list[int] = []
        for path, k, (large, small), beta in grid:
            per_method: dict[str, list[dict]] = {name: [] for name in methods}
            for ii in range(cfg.instances_per_cell):
                gen = GeneratorParams(bias_large=large, bias_small=small,
                                      p_large=cfg.p_large, beta=beta,
                                      seed=_derived_seed(cfg.seed, gen_tag, *path, ii))
                inst = generate_instance(cover, gen)
                quad_counts.append(len(inst.problem.j))
                anneal = _annealer(cfg, anneal_tag, *path, ii)
                for name, method in methods.items():
                    per_method[name].append({
                        "instance": ii, "best": method(inst.problem, anneal),
                        "planted": inst.planted_energy})
            cells += _cell_results({"k": k, "bias": [large, small], "beta": beta},
                                   per_method)
        sizes[key] = {
            "n_linear": part.n_logical,
            "n_quadratic": sum(quad_counts) / len(quad_counts),
            "reference": list(REFERENCE_SIZES.get(key, ())),
        }
    return ExperimentReport(study=cfg.study, config=config_to_dict(cfg),
                            cells=cells, instance_sizes=sizes)


# ---------------------------------------------------------------------------
# Report emission

def report_to_dict(report: ExperimentReport) -> dict:
    return {
        "study": report.study,
        "config": report.config,
        "instance_sizes": report.instance_sizes,
        "cells": [{
            "cell": c.cell, "method": c.method,
            "mean_best": c.mean_best, "mean_planted": c.mean_planted,
            "mean_normalized": c.mean_normalized, "gsp": c.gsp,
            "records": c.records,
        } for c in report.cells],
    }


@loader("report")
def report_from_dict(data: dict) -> ExperimentReport:
    """Rebuild a report from its JSON form; FormatError when it cannot render."""
    cells = []
    for c in data["cells"]:
        values = [c[key] for key in ("mean_best", "mean_planted", "mean_normalized", "gsp")]
        if not isinstance(c["method"], str) or not all(
                isinstance(v, (int, float)) for v in values):
            raise TypeError("a cell needs a string method and numeric aggregates")
        _cell_label(c["cell"])
        cells.append(MethodCell(c["cell"], c["method"], *values,
                                records=list(c.get("records", ()))))
    return ExperimentReport(study=data["study"], config=dict(data.get("config", {})),
                            cells=cells,
                            instance_sizes=dict(data.get("instance_sizes", {})))


def _cell_label(cell: dict) -> str:
    parts = [f"k={cell['k']}"]
    if "bias" in cell:
        large, small = cell["bias"]
        parts.append(f"bias=({large:g},{small:g})")
    if "beta" in cell:
        parts.append(f"beta={cell['beta']:g}")
    return " ".join(parts)


def report_to_csv(report: ExperimentReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["study", "k", "bias_large", "bias_small", "beta", "method",
                     "instances", "mean_best", "mean_planted",
                     "mean_normalized", "gsp"])
    for c in report.cells:
        bias = c.cell.get("bias", ["", ""])
        writer.writerow([report.study, c.cell.get("k", ""), bias[0], bias[1],
                         c.cell.get("beta", ""), c.method, len(c.records),
                         repr(c.mean_best), repr(c.mean_planted),
                         repr(c.mean_normalized), repr(c.gsp)])
    return buf.getvalue()


def _svg_bar_chart(title: str, groups: list[str], series: list[str],
                   values: dict[tuple[str, str], float], y_label: str,
                   comment: list[str]) -> str:
    """Deterministic grouped bar chart, one group per cell, one bar per method."""
    width, height = 120 + 90 * max(1, len(groups)), 360
    plot_left, plot_right, plot_top, plot_bottom = 70, width - 20, 50, height - 80
    vmax = max([abs(v) for v in values.values()] + [1e-12])
    colors = ["#4878cf", "#e24a33", "#6aa84f", "#b45fbf", "#d9a326"]
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        *comment,
        f'<text x="{width / 2:g}" y="24" text-anchor="middle" font-size="15">{title}</text>',
        f'<text x="16" y="{(plot_top + plot_bottom) / 2:g}" font-size="11" '
        f'transform="rotate(-90 16 {(plot_top + plot_bottom) / 2:g})" '
        f'text-anchor="middle">{y_label}</text>',
        f'<line x1="{plot_left}" y1="{plot_bottom}" x2="{plot_right}" '
        f'y2="{plot_bottom}" stroke="#333"/>',
    ]
    group_w = (plot_right - plot_left) / max(1, len(groups))
    bar_w = group_w / (len(series) + 1)
    for gi, group in enumerate(groups):
        x0 = plot_left + gi * group_w
        for si, method in enumerate(series):
            v = values.get((group, method))
            if v is None:
                continue
            frac = abs(v) / vmax
            bar_h = (plot_bottom - plot_top) * frac
            x = x0 + (si + 0.5) * bar_w
            y = plot_bottom - bar_h
            out.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" '
                       f'height="{bar_h:.2f}" fill="{colors[si % len(colors)]}"/>')
            out.append(f'<text x="{x + bar_w / 2:.2f}" y="{y - 4:.2f}" font-size="9" '
                       f'text-anchor="middle">{v:.4g}</text>')
        out.append(f'<text x="{x0 + group_w / 2:.2f}" y="{plot_bottom + 16}" '
                   f'font-size="10" text-anchor="middle">{group}</text>')
    for si, method in enumerate(series):
        lx = plot_left + si * 110
        out.append(f'<rect x="{lx}" y="{height - 36}" width="12" height="12" '
                   f'fill="{colors[si % len(colors)]}"/>')
        out.append(f'<text x="{lx + 16}" y="{height - 26}" font-size="11">{method}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_report(report: ExperimentReport, meta: dict | None = None) -> dict[str, str]:
    """All report sinks as named payload strings (filename -> content).  With
    ``meta``, report.json carries it as its ``meta`` object and each SVG as
    a comment after the root tag; the CSV stays pure rows."""
    groups: list[str] = []
    for c in report.cells:
        label = _cell_label(c.cell)
        if label not in groups:
            groups.append(label)
    series: list[str] = []
    for c in report.cells:
        if c.method not in series:
            series.append(c.method)
    energy_vals = {(_cell_label(c.cell), c.method): c.mean_normalized for c in report.cells}
    gsp_vals = {(_cell_label(c.cell), c.method): c.gsp for c in report.cells}
    payload = report_to_dict(report)
    comment = []
    if meta is not None:
        payload["meta"] = meta
        comment.append(f"<!-- {json.dumps(meta, sort_keys=True)} -->")
    return {
        "report.json": dumps(payload),
        "report.csv": report_to_csv(report),
        "energies.svg": _svg_bar_chart(f"{report.study}: normalized best energy",
                                       groups, series, energy_vals,
                                       "mean best / planted", comment),
        "gsp.svg": _svg_bar_chart(f"{report.study}: ground state probability",
                                  groups, series, gsp_vals, "GSP", comment),
    }


#: report format -> the payloads of render_report it writes
_SINKS = {
    "json": ("report.json",),
    "csv": ("report.csv",),
    "svg": ("energies.svg", "gsp.svg"),
}


def emit_report(report: ExperimentReport, out_dir: str,
                formats: tuple[str, ...] = ("json", "csv", "svg"),
                meta: dict | None = None) -> list[str]:
    """Write the selected sinks of `render_report` into ``out_dir``, or none
    if a format is unknown; returns the paths written."""
    unknown = sorted(set(formats) - set(_SINKS))
    if unknown:
        raise InvalidParameterError(f"unknown report formats: {unknown}")
    payloads = render_report(report, meta)
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name in [n for fmt, names in _SINKS.items() if fmt in formats for n in names]:
        path = os.path.join(out_dir, name)
        with open(path, "w") as f:
            f.write(payloads[name])
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# Config serialization

def config_to_dict(cfg: ExperimentConfig) -> dict:
    noise = noise_to_dict(cfg.noise) if cfg.noise is not None else None
    return {
        "study": cfg.study, "graph_m": cfg.graph_m, "k": cfg.k,
        "k_values": list(cfg.k_values),
        "bias_sets": [list(b) for b in cfg.bias_sets],
        "scaling_bias": list(cfg.scaling_bias),
        "p_large": cfg.p_large, "beta": cfg.beta,
        "beta_grid": list(cfg.beta_grid),
        "instances_per_cell": cfg.instances_per_cell,
        "num_reads": cfg.num_reads, "sweeps": cfg.sweeps,
        "alpha": cfg.alpha, "noise": noise, "seed": cfg.seed,
    }


def _listed(value):
    """A list field as given; a string would otherwise iterate as characters."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list, got {value!r}")
    return value


def _floats(values) -> tuple[float, ...]:
    """A list field of JSON numbers as floats; TypeError for anything else,
    where ``float()`` would take a bool or parse a string."""
    return tuple(map(float, numbers(_listed(values))))


@loader("experiment config", keys=tuple(config_to_dict(ExperimentConfig())))
def config_from_dict(data: dict) -> ExperimentConfig:
    noise = data.get("noise")
    p_large, beta, alpha = _floats([data.get("p_large", 0.08), data.get("beta", 1.0),
                                    data.get("alpha", -1.0)])
    return ExperimentConfig(
        study=data.get("study", "qac_comparison"),
        graph_m=integer(data.get("graph_m", 4)),
        k=integer(data.get("k", 4)),
        k_values=tuple(integer(k) for k in _listed(data.get("k_values", (2, 4, 8)))),
        bias_sets=tuple(_floats(b) for b in
                        _listed(data.get("bias_sets", ((9, 2), (10, 2), (11, 2))))),
        scaling_bias=_floats(data.get("scaling_bias", (10, 2))),
        p_large=p_large, beta=beta,
        beta_grid=_floats(data.get("beta_grid", (0.7, 0.8, 0.9, 1.0))),
        instances_per_cell=integer(data.get("instances_per_cell", 10)),
        num_reads=integer(data.get("num_reads", 100)),
        sweeps=integer(data.get("sweeps", 1000)),
        alpha=alpha,
        noise=None if noise is None else noise_from_dict(noise),
        seed=integer(data.get("seed", 0)))
