"""End-to-end pipeline: ingest, split, score, tune, evaluate, export.

The flow mirrors a forward-in-time prediction protocol: scores are
computed from the training window (optionally train+val for the final
scores), decision thresholds are tuned by F1 on the tuning split, and
everything is evaluated on the candidate-pair universe of the test
split. All artifacts are written with fixed orderings and 6-significant
-digit floats so identical configs reproduce byte-identical outputs.
"""

import csv
import json
import logging
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import geo, metrics, synth
from .errors import DataError, UniverseMismatchError
from .graphs import _open_input, build_adjacency, build_network, \
    candidate_pairs, ingest_movements, temporal_split
from .katz import ScoreTable, _write_scores, combine, \
    edge_weighted_katz_scores, katz_scores, normalize

log = logging.getLogger(__name__)

GAMMA_GRID = tuple(np.logspace(-4, -1, 13))

MODEL_PARTS = {
    "KI": ("KI",),
    "WKI": ("WKI",),
    "EWKI": ("EWKI",),
    "KIWKI": ("KI", "WKI"),
    "KIEWKI": ("KI", "EWKI"),
    "WKIEWKI": ("WKI", "EWKI"),
}

# (row label, EvaluationReport attribute) for summary.csv, in row order.
SUMMARY_ROWS = (("Threshold", "threshold"), ("Precision", "precision"),
                ("Recall", "recall"), ("F1-Score", "f1"), ("AUPR", "aupr"),
                ("AUCROC", "auroc"))

INCOMPLETE_MARKER = "INCOMPLETE"


@dataclass
class PipelineResult:
    """Everything a run produced, keyed by model name."""
    reports: dict
    thresholds: dict
    tables: dict
    universe: object
    tune_universe: object
    summary: dict = field(default_factory=dict)
    out_dir: object = None


def _needed_bases(models):
    bases = []
    for model in models:
        for base in MODEL_PARTS[model]:
            if base not in bases:
                bases.append(base)
    return bases


class _UniverseScoring:
    """Score tables for one (universe, basis adjacency) combination.

    ``bases`` are the base models this universe will be asked for.
    Scorings listed in each other's ``peers`` share one adjacency: a
    base model is scored for all of them that need it from one Katz
    operator (see ``katz_scores`` over a list of universes).
    """

    def __init__(self, universe, adj, registry, cfg, katz_cfg, bases):
        self.universe = universe
        self.adj = adj
        self.registry = registry
        self.cfg = cfg
        self.katz_cfg = katz_cfg
        self.bases = bases
        self.peers = [self]
        self.raw = {}
        self.norm = {}
        self.tables = {}

    @cached_property
    def distances(self):
        """Great-circle (k, k) matrix of the universe, built on first use."""
        nodes = self.universe.node_indices
        return geo.distance_matrix(self.registry.lat_array()[nodes],
                                   self.registry.lon_array()[nodes])

    def _needs(self, base):
        return base in self.bases or (base == "KI" and "EWKI" in self.bases)

    def _score_base(self, base):
        """Raw ``base`` tables for this universe and every peer that
        needs one and lacks it, from one operator on the adjacency."""
        group = [s for s in self.peers if base not in s.raw
                 and (s is self or s._needs(base))]
        adj = self.adj
        if base == "WKI":
            adj = geo.weighted_adjacency(
                self.adj, self.registry.lat_array(),
                self.registry.lon_array(),
                transform=self.katz_cfg.wki_transform,
                gamma=self.katz_cfg.resolved_gamma()
                if self.katz_cfg.wki_transform == "decay" else 0.0)
        tables = katz_scores(adj, self.katz_cfg,
                             [s.universe for s in group], model=base)
        for scoring, table in zip(group, tables):
            scoring.raw[base] = table

    def compute(self):
        """Score the base models, then assemble combinations.

        The pairwise-decay table is an elementwise product on top of KI
        and is built after it.
        """
        for b in ("KI", "WKI"):
            if self._needs(b) and b not in self.raw:
                self._score_base(b)
        if "EWKI" in self.bases:
            self.raw["EWKI"] = edge_weighted_katz_scores(
                self.adj, self.distances, self.katz_cfg, self.universe,
                ki_table=self.raw["KI"])
        for b in self.bases:
            self.norm[b] = normalize(self.raw[b])

    def tune_gamma(self):
        """Pick gamma from a log grid by tuning-split F1 of the decay model.

        Each candidate multiplies this universe's KI table by its decay
        weights, normalizes, and sweeps the optimal F1; ties keep the
        smaller gamma. The KI table and the distance matrix stay cached
        for ``compute``. Stores the resolved KatzConfig and returns the
        chosen value.
        """
        if "KI" not in self.raw:
            self._score_base("KI")
        best_gamma, best_f1 = None, -1.0
        for gamma in GAMMA_GRID:
            candidate = edge_weighted_katz_scores(
                self.adj, self.distances,
                replace(self.katz_cfg, gamma=float(gamma)),
                self.universe, ki_table=self.raw["KI"])
            _, f1 = metrics.optimal_threshold(normalize(candidate))
            if f1 > best_f1:
                best_gamma, best_f1 = float(gamma), f1
        log.info("gamma tuned to %.6g (tuning F1 %.6g)", best_gamma, best_f1)
        self.katz_cfg = replace(self.katz_cfg, gamma=best_gamma)
        return best_gamma

    def table_for(self, model):
        """Normalized score table for a base or combined model."""
        table = self.tables.get(model)
        if table is not None:
            return table
        parts = MODEL_PARTS[model]
        if len(parts) == 1:
            table = self.norm[model]
        else:
            table = combine(self.norm[parts[0]], self.norm[parts[1]],
                            rule=self.cfg.combine_rule,
                            on=self.cfg.combine_on)
        self.tables[model] = table
        return table


def _build_data(cfg, out_dir):
    """Movements to networks: synth-or-ingest (either gives an
    IngestReport), build, split."""
    if cfg.synth is not None:
        report, truth = synth.generate(cfg.synth)
        if out_dir is not None:
            movements_path = out_dir / "movements.csv"
            synth.write_movements(report, movements_path)
            synth.write_truth(truth, out_dir / "truth.json")
            report = ingest_movements(
                movements_path, schema=None, on_bad_rows="abort",
                year_range=cfg.year_range)
    else:
        report = ingest_movements(
            cfg.input, schema=cfg.schema, on_bad_rows=cfg.on_bad_rows,
            delimiter=cfg.delimiter, year_range=cfg.year_range)
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


def _run_steps(cfg, out_dir, evaluate_models):
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
    final_universe = candidate_pairs(test)
    final_scoring = _UniverseScoring(final_universe, adj_basis, registry,
                                     cfg, katz_cfg, bases)
    if cfg.tune_on == "test":
        tune_scoring = final_scoring
    else:
        # Without evaluation the tuning universe serves gamma tuning only.
        tune_scoring = _UniverseScoring(candidate_pairs(val), adj_train,
                                        registry, cfg, katz_cfg,
                                        bases if evaluate_models else ())
        if adj_basis is adj_train:
            final_scoring.peers.append(tune_scoring)
            tune_scoring.peers = final_scoring.peers
    tune_universe = tune_scoring.universe

    gamma_tuned = None
    if katz_cfg.gamma == "tune":
        if "EWKI" in bases or katz_cfg.wki_transform == "decay":
            gamma_tuned = tune_scoring.tune_gamma()
        else:
            tune_scoring.katz_cfg = replace(katz_cfg, gamma=0.0)
        katz_cfg = final_scoring.katz_cfg = tune_scoring.katz_cfg

    final_scoring.compute()
    if tune_scoring is not final_scoring:
        tune_scoring.compute()

    thresholds = {}
    tuning_f1 = {}
    reports = {}
    tables = {}
    for model in cfg.models:
        final_table = final_scoring.table_for(model)
        tables[model] = final_table
        if not evaluate_models:
            continue
        tune_table = tune_scoring.table_for(model)
        info = dict(final_table.info)
        info.update({"tuned_on": cfg.tune_on,
                     "score_basis": cfg.score_basis})
        if gamma_tuned is not None:
            info["gamma_tuned"] = gamma_tuned
        if tune_table is final_table:
            thr, tuned_f1, report = metrics._tune_and_evaluate(
                final_table, model, info)
        else:
            thr, tuned_f1 = metrics.optimal_threshold(tune_table)
            report = metrics.evaluate(final_table, threshold=thr,
                                      model=model, info=info)
        report.info["tuning_f1"] = tuned_f1
        thresholds[model] = thr
        tuning_f1[model] = tuned_f1
        reports[model] = report

    summary = _run_summary(cfg, net, train, val, test, tune_universe,
                           final_universe, thresholds, tuning_f1,
                           katz_cfg, gamma_tuned)
    result = PipelineResult(reports=reports, thresholds=thresholds,
                            tables=tables, universe=final_universe,
                            tune_universe=tune_universe, summary=summary,
                            out_dir=out_dir)
    if out_dir is not None:
        _write_artifacts(cfg, result, registry)
    return result


def _split_stats(net):
    return {"nodes": int(net.n_nodes), "edges": int(net.n_edges),
            "links": int(net.n_links)}


def _universe_stats(universe):
    return {"nodes": int(universe.k), "pairs": int(universe.n_pairs),
            "positives": int(universe.n_positives)}


def _run_summary(cfg, net, train, val, test, tune_universe, final_universe,
                 thresholds, tuning_f1, katz_cfg, gamma_tuned):
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
        "gamma": (katz_cfg.gamma if katz_cfg.gamma != "tune" else None),
    }
    if gamma_tuned is not None:
        summary["gamma_tuned"] = gamma_tuned
    if cfg.synth is not None:
        summary["synth_seed"] = cfg.synth.seed
    if thresholds:
        summary["thresholds"] = {m: metrics._round6(t)
                                 for m, t in thresholds.items()}
        summary["tuning_f1"] = {m: metrics._round6(v)
                                for m, v in tuning_f1.items()}
    return summary


def _write_artifacts(cfg, result, registry):
    out_dir = result.out_dir
    for model in cfg.models:
        report = result.reports.get(model)
        known = None
        if report is not None:
            metrics.write_report(report, out_dir / f"report_{model}.json")
            known = metrics._write_curves(
                report, out_dir / f"curve_roc_{model}.csv",
                out_dir / f"curve_pr_{model}.csv")
        _write_scores(result.tables[model], registry,
                      out_dir / f"scores_{model}.csv", known)
    if result.reports:
        _write_summary_table(cfg.models, result.reports,
                             out_dir / "summary.csv")
    payload = json.dumps(result.summary, indent=2, sort_keys=True)
    (out_dir / "run_summary.json").write_text(payload + "\n",
                                              encoding="utf-8")


def _write_summary_table(models, reports, dest):
    """Summary CSV: one metric per row, one model per column."""
    with open(dest, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("metric," + ",".join(models) + "\n")
        for label, attr in SUMMARY_ROWS:
            cells = [f"{getattr(reports[m], attr):.6g}" for m in models]
            fh.write(label + "," + ",".join(cells) + "\n")


def read_score_table(path, universe, registry):
    """Load an exported score table back onto a pair universe.

    The file must cover exactly the universe's off-diagonal pairs, each
    once, with ids resolvable in the registry. Returns a normalized
    ScoreTable carrying the file's raw scores as ``raw_values``.
    """
    k = universe.k
    position = {int(node): i for i, node in enumerate(universe.node_indices)}
    norm = np.zeros((k, k), dtype=np.float64)
    raw = np.zeros((k, k), dtype=np.float64)
    seen = np.zeros((k, k), dtype=bool)
    model = None
    with _open_input(path, "score table") as fh:
        reader = csv.DictReader(fh)
        names = reader.fieldnames
        if names:
            # A spreadsheet may save the file with a byte order mark.
            reader.fieldnames = [names[0].removeprefix("\ufeff"), *names[1:]]
        required = {"source_id", "dest_id", "model", "score", "score_norm"}
        if reader.fieldnames is None or not required.issubset(
                reader.fieldnames):
            raise DataError(
                f"score table {path} lacks required columns "
                f"{sorted(required)}")
        for row in reader:
            # DictReader skips blank lines, so count physical lines.
            line_no = reader.line_num
            if None in row.values():
                raise DataError(
                    f"line {line_no}: fewer fields than the header")
            if model is None:
                model = row["model"]
            elif row["model"] != model:
                raise DataError(
                    f"score table mixes models {model!r} and "
                    f"{row['model']!r} (line {line_no})")
            try:
                u = registry.index(row["source_id"])
                v = registry.index(row["dest_id"])
                i, j = position[u], position[v]
            except KeyError:
                raise UniverseMismatchError(
                    f"line {line_no}: pair ({row['source_id']}, "
                    f"{row['dest_id']}) is not in the evaluation universe")
            if i == j or seen[i, j]:
                raise UniverseMismatchError(
                    f"line {line_no}: duplicate or diagonal pair")
            seen[i, j] = True
            try:
                raw[i, j] = float(row["score"])
                norm[i, j] = float(row["score_norm"])
            except ValueError:
                raise DataError(f"line {line_no}: non-numeric score")
            if not (np.isfinite(raw[i, j]) and np.isfinite(norm[i, j])):
                raise DataError(f"line {line_no}: non-finite score")
    expected = k * (k - 1)
    got = int(seen.sum())
    if got != expected:
        raise UniverseMismatchError(
            f"score table covers {got} pairs; the universe has {expected}")
    return ScoreTable(model=model or "", universe=universe, values=norm,
                      normalized=True, raw_values=raw)
