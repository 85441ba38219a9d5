"""End-to-end pipeline: ingest, split, score, tune, evaluate, export.

The flow mirrors a forward-in-time prediction protocol: scores are
computed from the training window (optionally train+val for the final
scores), decision thresholds are tuned by F1 on the tuning split, and
everything is evaluated on the candidate-pair universe of the test
split. All artifacts are written with fixed orderings and 6-significant
-digit floats so identical configs reproduce byte-identical outputs.
"""

import json
import logging
import time
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import geo, metrics, synth
from ._fork import processes, run_parts
from .graphs import build_adjacency, build_network, candidate_pairs, \
    ingest_movements, temporal_split
from .errors import NumericError
from .katz import MODEL_PARTS, _on_union, combine, \
    edge_weighted_katz_scores, katz_scores, normalize, write_score_table

log = logging.getLogger(__name__)

GAMMA_GRID = tuple(np.logspace(-4, -1, 13))

# (row label, EvaluationReport attribute) for summary.csv, in row order.
SUMMARY_ROWS = (("Threshold", "threshold"), ("Precision", "precision"),
                ("Recall", "recall"), ("F1-Score", "f1"), ("AUPR", "aupr"),
                ("AUCROC", "auroc"))

INCOMPLETE_MARKER = "INCOMPLETE"


@dataclass
class PipelineResult:
    """Everything a run produced, keyed by model name.

    ``timings`` holds the wall seconds of each stage: ``data`` (input,
    network, split, adjacencies and universes), ``scoring`` (Katz
    tables, decay, normalize and combine), ``gamma_tuning``,
    ``evaluation`` (the tuning universe's tables, threshold tuning and
    reports) and, when artifacts are written, ``export``: the wall time
    until every file is written, which includes waiting for the forked
    writers of ``_write_artifacts``. A stage the run skips reads about
    0. Wall times are not deterministic, so no artifact holds them;
    each stage is logged once at DEBUG.
    """
    reports: dict
    tables: dict
    universe: object
    tune_universe: object
    summary: dict = field(default_factory=dict)
    out_dir: object = None
    timings: dict = field(default_factory=dict)

    @property
    def thresholds(self):
        """Each evaluated model's tuned decision threshold."""
        return {m: r.threshold for m, r in self.reports.items()}


def _needed_bases(models):
    bases = []
    for model in models:
        for base in MODEL_PARTS[model]:
            if base not in bases:
                bases.append(base)
    return bases


@dataclass(eq=False)
class _Scoring:
    """One universe scored from one adjacency.

    ``bases`` are the base models whose tables the run wants for the
    universe; ``raw`` holds the unnormalized tables scored so far.
    Every step works on score tables' supports, so the universe's
    great-circle distances are taken for its support pairs only.
    """
    universe: object
    adj: object
    registry: object
    bases: tuple
    raw: dict = field(default_factory=dict)
    _distances: tuple = field(default=(None, None), repr=False)

    def distances(self, support):
        """Great-circle km of the universe's pairs at the flat positions
        ``support``, as ``ScoreTable.support`` holds them; the last
        support's distances are kept for the next call."""
        if self._distances[0] is not support:
            nodes = self.universe.node_indices
            rows, cols = np.divmod(support, self.universe.k)
            self._distances = support, geo.pair_distances(
                self.registry.lat_array()[nodes],
                self.registry.lon_array()[nodes], rows, cols)
        return self._distances[1]


def _score_base(base, scorings, katz_cfg):
    """Raw ``base`` (KI or WKI) tables for each scoring that lacks one.

    Scorings on the same adjacency object are scored together, from one
    Katz operator (see ``katz_scores`` over a list of universes).
    """
    groups = {}
    for scoring in scorings:
        if base not in scoring.raw:
            groups.setdefault(id(scoring.adj), []).append(scoring)
    for group in groups.values():
        adj = group[0].adj
        if base == "WKI":
            registry = group[0].registry
            adj = geo.weighted_adjacency(
                adj, registry.lat_array(), registry.lon_array(),
                transform=katz_cfg.wki_transform,
                gamma=katz_cfg.resolved_gamma()
                if katz_cfg.wki_transform == "decay" else 0.0)
        tables = katz_scores(adj, katz_cfg, [s.universe for s in group],
                             model=base)
        for scoring, table in zip(group, tables):
            scoring.raw[base] = table


def _tune_gamma(ki_table, distances):
    """Pick gamma from a log grid by tuning-split F1 of the decay model.

    Each candidate is the EWKI table of the unnormalized KI table,
    normalized and swept for its optimal F1; ties keep the smaller
    gamma. ``distances`` are those ``edge_weighted_katz_scores`` takes.
    Every step works on KI's support: a pair off it scores 0, which
    decays to 0, the candidate's minimum. That rests on KI tables
    being non-negative; a negative KI score is a NumericError. Returns
    the chosen gamma and each candidate's (threshold, F1), in grid
    order.
    """
    ki = ki_table.scores
    if (ki < 0).any():
        raise NumericError(
            f"KI table holds {np.count_nonzero(ki < 0)} negative scores; "
            "walk counts cannot be negative")
    cuts = [metrics.optimal_threshold(normalize(edge_weighted_katz_scores(
        ki_table, distances, float(gamma)))) for gamma in GAMMA_GRID]
    best = int(np.argmax([f1 for _, f1 in cuts]))
    log.info("gamma tuned to %.6g (tuning F1 %.6g)", GAMMA_GRID[best],
             cuts[best][1])
    return float(GAMMA_GRID[best]), cuts


def _model_tables(scoring, katz_cfg, cfg):
    """Normalized table of each of ``cfg.models`` on the scoring's
    universe: the base tables are put on the union of their supports,
    EWKI decays the KI table there, each base is normalized and the
    combined models fuse two of them."""
    scored = [base for base in ("KI", "WKI") if base in scoring.raw]
    scoring.raw.update(zip(scored, _on_union(
        [scoring.raw[base] for base in scored])))
    if "EWKI" in scoring.bases:
        ki = scoring.raw["KI"]
        scoring.raw["EWKI"] = edge_weighted_katz_scores(
            ki, scoring.distances(ki.support), katz_cfg.resolved_gamma())
    norm = {base: normalize(scoring.raw[base]) for base in scoring.bases}
    tables = {}
    for model in cfg.models:
        parts = MODEL_PARTS[model]
        tables[model] = norm[model] if len(parts) == 1 else combine(
            norm[parts[0]], norm[parts[1]], rule=cfg.combine_rule,
            on=cfg.combine_on)
    return tables


def _build_data(cfg, out_dir):
    """Movements to networks: synth-or-ingest (either gives an
    IngestReport), build, split.

    A movement file, the ``input:`` file or the synthetic movements
    written to the output directory and read back, is ingested by up to
    ``cfg.workers`` processes (see ``ingest_movements``); the report
    does not depend on their number.
    """
    if cfg.synth is not None:
        report, truth = synth.generate(cfg.synth)
        if out_dir is not None:
            movements_path = out_dir / "movements.csv"
            synth.write_movements(report, movements_path)
            synth.write_truth(truth, out_dir / "truth.json")
            report = ingest_movements(
                movements_path, schema=None, on_bad_rows="abort",
                year_range=cfg.year_range, workers=cfg.workers)
    else:
        report = ingest_movements(
            cfg.input, schema=cfg.schema, on_bad_rows=cfg.on_bad_rows,
            delimiter=cfg.delimiter, year_range=cfg.year_range,
            workers=cfg.workers)
    net = build_network(report)
    train, val, test = temporal_split(net, cfg.split)
    return net, train, val, test


def _with_marker(cfg, evaluate_models):
    """Prepare the output directory, run, and clear the marker on success.

    The INCOMPLETE marker file exists for exactly as long as the run is
    in flight, so an aborted run's partial artifacts are recognizable.
    """
    out_dir = Path(cfg.output_dir) if cfg.output_dir else None
    marker = None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        marker = out_dir / INCOMPLETE_MARKER
        marker.write_text("this run has not completed\n", encoding="utf-8")
        if cfg.source_text:
            (out_dir / "config.yaml").write_text(cfg.source_text,
                                                 encoding="utf-8")
    result = _run_steps(cfg, out_dir, evaluate_models)
    if marker is not None:
        marker.unlink()
    return result


def run(cfg):
    """Execute the full pipeline described by a RunConfig.

    With an output directory set, artifacts (score tables, per-model
    reports, curve points, the summary table, and the verbatim config)
    are written there. Returns a PipelineResult either way.
    """
    return _with_marker(cfg, evaluate_models=True)


def run_scores_only(cfg):
    """Score and export tables without tuning thresholds or evaluating."""
    return _with_marker(cfg, evaluate_models=False)


class _Stopwatch:
    """Wall seconds between calls of ``lap``, added up per stage name."""

    def __init__(self):
        self.timings = {}
        self._last = time.perf_counter()

    def lap(self, stage):
        now = time.perf_counter()
        self.timings[stage] = self.timings.get(stage, 0.0) + now - self._last
        self._last = now


def _run_steps(cfg, out_dir, evaluate_models):
    watch = _Stopwatch()
    net, train, val, test = _build_data(cfg, out_dir)
    registry = net.registry
    mode = "binary-directed" if cfg.directed else "binary-undirected"
    adj_train = build_adjacency(train, mode)
    if cfg.score_basis == "train+val":
        adj_basis = build_adjacency(train.merged_with(val), mode)
    else:
        adj_basis = adj_train

    katz_cfg = cfg.katz
    bases = _needed_bases(cfg.models)
    final = _Scoring(candidate_pairs(test), adj_basis, registry, bases)
    if cfg.tune_on == "test":
        tune = final
        scorings = [final]
    else:
        # Without evaluation the tuning universe serves gamma tuning only.
        tune = _Scoring(candidate_pairs(val), adj_train, registry,
                        bases if evaluate_models else ())
        scorings = [final, tune]
    tuning = katz_cfg.gamma == "tune" and (
        "EWKI" in bases or katz_cfg.wki_transform == "decay")
    watch.lap("data")

    # KI, then gamma (which decays the tuning universe's KI table), then
    # WKI (whose decay transform may need gamma), then the model tables.
    _score_base("KI", [s for s in scorings if (tuning and s is tune)
                       or "KI" in s.bases or "EWKI" in s.bases], katz_cfg)
    watch.lap("scoring")
    if tuning:
        ki = tune.raw["KI"]
        gamma_tuned, cuts = _tune_gamma(ki, tune.distances(ki.support))
    else:
        gamma_tuned, cuts = None, None
    watch.lap("gamma_tuning")
    if katz_cfg.gamma == "tune":
        katz_cfg = replace(katz_cfg, gamma=0.0 if gamma_tuned is None
                           else gamma_tuned)
    _score_base("WKI", [s for s in scorings if "WKI" in s.bases], katz_cfg)
    tables = _model_tables(final, katz_cfg, cfg)
    watch.lap("scoring")

    reports = {}
    if evaluate_models:
        tune_tables = (None if tune is final
                       else _model_tables(tune, katz_cfg, cfg))
        for model, final_table in tables.items():
            info = dict(final_table.info, tuned_on=cfg.tune_on,
                        score_basis=cfg.score_basis)
            if gamma_tuned is not None:
                info["gamma_tuned"] = gamma_tuned
            if tune_tables is None:
                _, tuned_f1, report = metrics._tune_and_evaluate(
                    final_table, model, info)
            else:
                thr, tuned_f1 = metrics.optimal_threshold(tune_tables[model])
                report = metrics.evaluate(final_table, threshold=thr,
                                          model=model, info=info)
            report.info["tuning_f1"] = tuned_f1
            reports[model] = report

    summary = _run_summary(cfg, net, train, val, test, tune.universe,
                           final.universe, reports, katz_cfg, gamma_tuned,
                           cuts)
    result = PipelineResult(reports=reports, tables=tables,
                            universe=final.universe,
                            tune_universe=tune.universe, summary=summary,
                            out_dir=out_dir, timings=watch.timings)
    watch.lap("evaluation")
    if out_dir is not None:
        _write_artifacts(cfg, result, registry)
        watch.lap("export")
    for stage, seconds in watch.timings.items():
        log.debug("stage %s took %.3f s", stage, seconds)
    return result


def _split_stats(net):
    return {"nodes": int(net.n_nodes), "edges": int(net.n_edges),
            "links": int(net.n_links)}


def _universe_stats(universe):
    return {"nodes": int(universe.k), "pairs": int(universe.n_pairs),
            "positives": int(universe.n_positives)}


def _run_summary(cfg, net, train, val, test, tune_universe, final_universe,
                 reports, katz_cfg, gamma_tuned, cuts):
    summary = {
        "models": list(cfg.models),
        "score_basis": cfg.score_basis,
        "tune_on": cfg.tune_on,
        "combine_rule": cfg.combine_rule,
        "combine_on": cfg.combine_on,
        "directed": cfg.directed,
        # Kept as a literal: the benchmark's reference digests hash this file.
        "kernel_backend": "python",
        "network": _split_stats(net),
        "splits": {"train": _split_stats(train),
                   "val": _split_stats(val),
                   "test": _split_stats(test)},
        "universes": {"tuning": _universe_stats(tune_universe),
                      "final": _universe_stats(final_universe)},
        "gamma": katz_cfg.gamma,
    }
    if gamma_tuned is not None:
        summary["gamma_tuned"] = gamma_tuned
        summary["gamma_grid"] = {
            "gamma": [metrics._round6(g) for g in GAMMA_GRID],
            "tuning_f1": [metrics._round6(f1) for _, f1 in cuts]}
    if cfg.synth is not None:
        summary["synth_seed"] = cfg.synth.seed
    if reports:
        summary["thresholds"] = {m: metrics._round6(r.threshold)
                                 for m, r in reports.items()}
        summary["tuning_f1"] = {m: metrics._round6(r.info["tuning_f1"])
                                for m, r in reports.items()}
    return summary


def _write_artifacts(cfg, result, registry):
    """Write the run's files model by model: a model's report and
    curves, then its score table, which takes its ``score_norm`` text
    from the curves' thresholds. The recall and FPR text of all the
    reports (one universe) is built once, before the first model.

    The models are dealt round-robin into ``_fork.processes(cfg.workers,
    number of models)`` groups. Each group but the first is written by a
    forked child (``_fork.run_parts``), which shares the tables
    copy-on-write and is sent nothing; the caller writes the first
    group (it holds the first model, KI by default), then waits for
    every child, even when its own group raised. A child's exception is
    raised here with its type and message; a child that ends without
    reporting one (a signal, running out of memory) is a RuntimeError
    naming its models. Only when every group is written are
    ``summary.csv`` and ``run_summary.json`` written. Each file depends
    only on its model, so the bytes do not depend on the group count.
    """
    out_dir = result.out_dir
    ratios = (metrics._ratio_text(list(result.reports.values()))
              if result.reports else None)

    def write(group):
        for model in group:
            report = result.reports.get(model)
            known = None
            if report is not None:
                known = metrics._write_evaluation(report, out_dir, model,
                                                  ratios)
            write_score_table(result.tables[model], registry,
                              out_dir / f"scores_{model}.csv", known)

    n = processes(cfg.workers, len(cfg.models))
    groups = [cfg.models[i::n] for i in range(n)]
    run_parts([(partial(write, group),
                f"the export worker writing models {', '.join(group)}")
               for group in groups])
    if result.reports:
        _write_summary_table(cfg.models, result.reports,
                             out_dir / "summary.csv")
    payload = json.dumps(result.summary, indent=2, sort_keys=True)
    metrics._write_text(payload + "\n", out_dir / "run_summary.json")


def _write_summary_table(models, reports, dest):
    """Summary CSV: one metric per row, one model per column."""
    lines = ["metric," + ",".join(models) + "\n"]
    for label, attr in SUMMARY_ROWS:
        cells = [f"{getattr(reports[m], attr):.6g}" for m in models]
        lines.append(label + "," + ",".join(cells) + "\n")
    metrics._write_text("".join(lines), dest)
