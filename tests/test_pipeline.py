"""Unit tests for the end-to-end pipeline and artifact round trips."""

import json
import logging
import os
import re
import signal
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from geokatz import _fork, katz, pipeline
from geokatz.config import parse_run_config
from geokatz.errors import (BetaDomainError, DataError,
                            DegenerateLabelsError,
                            DegenerateScoreTableWarning, NumericError,
                            UniverseMismatchError)
from geokatz.graphs import PairUniverse
from geokatz.katz import read_score_table
from geokatz.pipeline import (GAMMA_GRID, INCOMPLETE_MARKER, MODEL_PARTS,
                              SUMMARY_ROWS, run, run_scores_only)

QUICKSTART = Path(__file__).parents[1] / "configs" / "quickstart.yaml"

SMALL_SYNTH = """\
synth:
  seed: 314
  n_nodes: 45
  years: [2015, 2019]
  bbox: [50.0, 53.0, -4.0, 0.0]
  movements_per_year: 130
  decay_rate: 0.02
  hub_bias: 2.0
  repeat_edge_prob: 0.6
split:
  train: [2015, 2017]
  val: 2018
  test: 2019
katz:
  gamma: 0.01
models: [KI, WKI, EWKI, KIEWKI]
workers: 2
"""

# The stages every run times; ``export`` is timed only with an output
# directory.
STAGES = ("data", "scoring", "gamma_tuning", "evaluation")

TWO_HOP_CSV = """\
source_id,dest_id,year,source_lat,source_lon,dest_lat,dest_lon,species
a,b,2010,51.0,-1.0,51.2,-1.1,carp
d,a,2010,51.4,-0.8,51.0,-1.0,carp
b,c,2011,51.2,-1.1,51.6,-0.5,carp
a,c,2012,51.0,-1.0,51.6,-0.5,carp
d,a,2012,51.4,-0.8,51.0,-1.0,carp
"""

TWO_HOP_SPLIT = """\
split:
  train: 2010
  val: 2011
  test: 2012
models: KI
"""


def _cfg(text, tmp_path=None, out=None):
    cfg = parse_run_config(text)
    if out is not None:
        from dataclasses import replace
        cfg = replace(cfg, output_dir=str(out))
    return cfg


def _assert_same_table(got, want):
    """The two tables hold the same support and columns, bit for bit."""
    assert got.support.tobytes() == want.support.tobytes()
    for a, b in ((got.scores, want.scores), (got.raw, want.raw)):
        assert a.on_support.tobytes() == b.on_support.tobytes()
        assert float(a.floor).hex() == float(b.floor).hex()


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("small_run")
    cfg = _cfg(SMALL_SYNTH, out=out)
    return cfg, run(cfg), out


class TestFullRun:

    def test_result_covers_requested_models(self, small_run):
        cfg, result, _ = small_run
        assert set(result.tables) == set(cfg.models)
        assert set(result.reports) == set(cfg.models)
        assert set(result.thresholds) == set(cfg.models)

    def test_tables_are_normalized(self, small_run):
        _, result, _ = small_run
        for table in result.tables.values():
            assert table.normalized
            values = oracles.dense(table)
            off = values[~np.eye(values.shape[0], dtype=bool)]
            assert off.min() >= 0.0 and off.max() <= 1.0

    def test_reports_are_internally_consistent(self, small_run):
        _, result, _ = small_run
        for model, report in result.reports.items():
            assert report.model == model
            cm = report.confusion
            assert cm.total == result.universe.n_pairs
            assert cm.positives == result.universe.n_positives
            assert report.info["tuned_on"] == "val"
            assert 0.0 <= report.info["tuning_f1"] <= 1.0

    def test_threshold_matches_report(self, small_run):
        _, result, _ = small_run
        for model, report in result.reports.items():
            assert report.threshold == result.thresholds[model]

    def test_expected_artifacts_written(self, small_run):
        cfg, _, out = small_run
        names = {p.name for p in out.iterdir()}
        expected = {"config.yaml", "run_summary.json", "summary.csv",
                    "movements.csv", "truth.json"}
        for model in cfg.models:
            expected |= {f"scores_{model}.csv", f"report_{model}.json",
                         f"curve_roc_{model}.csv", f"curve_pr_{model}.csv"}
        assert names == expected
        assert INCOMPLETE_MARKER not in names

    def test_config_copy_is_verbatim(self, small_run):
        _, _, out = small_run
        assert (out / "config.yaml").read_text() == SMALL_SYNTH

    def test_run_summary_content(self, small_run):
        cfg, _, out = small_run
        summary = json.loads((out / "run_summary.json").read_text())
        assert "workers" not in summary
        assert summary["kernel_backend"] == "python"
        assert summary["models"] == list(cfg.models)
        assert summary["gamma"] == pytest.approx(0.01)
        assert "gamma_grid" not in summary
        assert summary["synth_seed"] == 314
        assert set(summary["thresholds"]) == set(cfg.models)
        assert summary["splits"]["test"]["edges"] > 0
        assert (summary["universes"]["final"]["pairs"]
                == summary["universes"]["final"]["nodes"]
                * (summary["universes"]["final"]["nodes"] - 1))

    def test_stage_timings_stay_out_of_the_run_directory(self, small_run):
        _, result, out = small_run
        assert set(result.timings) == set(STAGES) | {"export"}
        assert all(seconds >= 0.0 for seconds in result.timings.values())
        summary = json.loads((out / "run_summary.json").read_text())

        def keys(node):
            if isinstance(node, dict):
                for key, value in node.items():
                    yield key
                    yield from keys(value)

        assert not (set(keys(summary)) & (set(result.timings) | {"timings"}))
        for path in out.iterdir():
            assert "timings" not in path.read_text(encoding="utf-8")

    def test_summary_csv_layout(self, small_run):
        cfg, result, out = small_run
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0] == "metric," + ",".join(cfg.models)
        labels = [label for label, _ in SUMMARY_ROWS]
        assert [line.split(",")[0] for line in lines[1:]] == labels
        f1_row = lines[1 + labels.index("F1-Score")].split(",")
        for model, cell in zip(cfg.models, f1_row[1:]):
            assert float(cell) == pytest.approx(
                result.reports[model].f1, abs=1e-4)

    def test_synth_artifacts_reingest(self, small_run):
        _, result, out = small_run
        truth = json.loads((out / "truth.json").read_text())
        network = json.loads(
            (out / "run_summary.json").read_text())["network"]
        assert network == {k: truth["totals"][k]
                           for k in ("nodes", "edges", "links")}


class TestSyntheticInput:

    def test_exported_run_scores_its_written_movements(self, tmp_path):
        # A synthetic run with an output directory scores the
        # movements.csv it wrote (6-decimal coordinates), so running
        # that file as input gives the same scores, reports and curves.
        text = QUICKSTART.read_text(encoding="utf-8")
        run(_cfg(text, out=tmp_path / "synth"))
        movements = tmp_path / "synth" / "movements.csv"
        body = re.sub(r"^synth:\n(?:[ \t].*\n)*", "", text, flags=re.M)
        file_cfg = _cfg(f"input: {json.dumps(str(movements))}\n{body}",
                        out=tmp_path / "file")
        assert file_cfg.synth is None
        run(file_cfg)
        names = sorted(path.name for pattern in
                       ("scores_*.csv", "report_*.json", "curve_*.csv")
                       for path in (tmp_path / "synth").glob(pattern))
        assert len(names) == 6 * 4
        for name in names:
            assert ((tmp_path / "synth" / name).read_bytes()
                    == (tmp_path / "file" / name).read_bytes()), name


class TestScoresOnly:

    def test_scores_only_skips_evaluation(self, tmp_path):
        cfg = _cfg(SMALL_SYNTH.replace("models: [KI, WKI, EWKI, KIEWKI]",
                                       "models: [KI]"), out=tmp_path)
        result = run_scores_only(cfg)
        assert set(result.tables) == {"KI"}
        assert result.reports == {}
        assert result.thresholds == {}
        names = {p.name for p in tmp_path.iterdir()}
        assert "scores_KI.csv" in names
        assert "summary.csv" not in names
        assert not any(n.startswith(("report_", "curve_")) for n in names)
        assert INCOMPLETE_MARKER not in names
        summary = json.loads((tmp_path / "run_summary.json").read_text())
        assert "thresholds" not in summary

    def test_combined_model_alone_computes_parts(self, tmp_path):
        cfg = _cfg(SMALL_SYNTH.replace("models: [KI, WKI, EWKI, KIEWKI]",
                                       "models: [KIWKI]"), out=tmp_path)
        result = run_scores_only(cfg)
        assert set(result.tables) == {"KIWKI"}
        names = {p.name for p in tmp_path.iterdir()}
        assert "scores_KIWKI.csv" in names
        assert "scores_KI.csv" not in names

    @pytest.mark.parametrize("gamma", ["0.01", "tune"])
    @pytest.mark.parametrize("tune_on", ["val", "test"])
    @pytest.mark.parametrize("basis", ["train", "train+val"])
    def test_scores_only_tables_match_full_run(self, gamma, tune_on, basis):
        # Without evaluation the tuning universe serves gamma tuning
        # only; the final tables must not depend on that.
        text = SMALL_SYNTH.replace(
            "models: [KI, WKI, EWKI, KIEWKI]", f"models: {list(MODEL_PARTS)}"
        ).replace("  gamma: 0.01", f"  gamma: {gamma}").replace(
            "split:", f"tune_on: {tune_on}\nscore_basis: {basis}\nsplit:")
        cfg = _cfg(text)
        full, scores_only = run(cfg), run_scores_only(cfg)
        assert list(scores_only.tables) == list(MODEL_PARTS)
        for model, table in full.tables.items():
            _assert_same_table(scores_only.tables[model], table)


class TestSupportTables:

    @pytest.mark.parametrize("gamma", ["0.01", "tune"])
    @pytest.mark.parametrize("write", [False, True])
    def test_run_builds_no_dense_table(self, tmp_path, gamma, write):
        # Every table of a run holds one score per support pair and a
        # floor for the rest, and all six share the universe's support.
        text = QUICKSTART.read_text().replace("  gamma: 0.01",
                                              f"  gamma: {gamma}")
        result = run(_cfg(text, out=tmp_path if write else None))
        assert len(result.reports) == 6
        support = result.tables["KI"].support
        assert 0 < support.size < result.universe.n_pairs
        for table in result.tables.values():
            assert table.support is support
            assert vars(table).keys() == {"model", "universe", "support",
                                          "scores", "normalized", "raw",
                                          "info"}
            for column in (table.scores, table.raw):
                assert column.on_support.shape == support.shape
                assert isinstance(column.floor, float)
        written = sorted(p.name for p in tmp_path.glob("scores_*.csv"))
        assert written == (sorted(f"scores_{m}.csv" for m in MODEL_PARTS)
                           if write else [])


class TestScoreBasis:

    def _run(self, tmp_path, basis):
        # Score tables only: with this tiny input the tuning universe
        # would be degenerate, and thresholds are not under test here.
        tmp_path.mkdir(parents=True, exist_ok=True)
        data = tmp_path / "movements.csv"
        data.write_text(TWO_HOP_CSV)
        text = (f"input: {data}\nscore_basis: {basis}\n" + TWO_HOP_SPLIT)
        return run_scores_only(parse_run_config(text))

    def test_two_hop_pair_needs_val_edges(self, tmp_path):
        # train holds a -> b, val holds b -> c, test asks about a -> c:
        # the two-hop walk only exists once the scoring basis includes
        # the validation window.
        train_only = self._run(tmp_path / "t", basis="train")
        with_val = self._run(tmp_path / "tv", basis="train+val")

        for result, expect_positive in ((train_only, False),
                                        (with_val, True)):
            universe = result.universe
            raw = oracles.dense_raw(result.tables["KI"])
            assert raw is not None
            assert universe.k == 3
            # a and c are global nodes 0 and 3 (first-seen order in the
            # file: a, b, d, c).
            pos = {int(n): i for i, n in enumerate(universe.node_indices)}
            value = raw[pos[0], pos[3]]
            assert (value > 0) == expect_positive

    def test_direct_train_edge_scores_either_way(self, tmp_path):
        result = self._run(tmp_path, basis="train")
        pos = {int(n): i for i, n in enumerate(result.universe.node_indices)}
        raw = oracles.dense_raw(result.tables["KI"])
        # d -> a is a train edge, so its one-hop walk is always there.
        assert raw[pos[2], pos[0]] > 0


class TestTuning:

    def test_gamma_tune_resolves_from_grid(self, tmp_path):
        text = SMALL_SYNTH.replace("  gamma: 0.01", "  gamma: tune").replace(
            "models: [KI, WKI, EWKI, KIEWKI]", "models: [EWKI]")
        cfg = _cfg(text, out=tmp_path)
        result = run(cfg)
        summary = json.loads((tmp_path / "run_summary.json").read_text())
        assert summary["gamma_tuned"] in [pytest.approx(g)
                                          for g in GAMMA_GRID]
        assert summary["gamma"] == summary["gamma_tuned"]
        assert result.reports["EWKI"].info["gamma_tuned"] == summary[
            "gamma_tuned"]
        grid = summary["gamma_grid"]
        assert grid["gamma"] == [float(f"{g:.6g}") for g in GAMMA_GRID]
        assert len(grid["tuning_f1"]) == len(GAMMA_GRID)
        assert all(f1 == float(f"{f1:.6g}") for f1 in grid["tuning_f1"])
        chosen = GAMMA_GRID.index(summary["gamma_tuned"])
        assert grid["tuning_f1"][chosen] == max(grid["tuning_f1"])

    def test_gamma_tune_without_spatial_models_becomes_zero(self, tmp_path):
        text = SMALL_SYNTH.replace("  gamma: 0.01", "  gamma: tune").replace(
            "models: [KI, WKI, EWKI, KIEWKI]", "models: [KI]").replace(
            "katz:\n", "katz:\n  wki_transform: raw\n")
        result = run(_cfg(text, out=tmp_path))
        summary = json.loads((tmp_path / "run_summary.json").read_text())
        assert summary["gamma"] == 0.0
        assert "gamma_tuned" not in summary
        assert "gamma_grid" not in summary
        assert "gamma_tuned" not in result.reports["KI"].info

    @pytest.mark.parametrize("edits,builds", [
        # EWKI on the tuning and the final universe: one matrix each.
        ((("  gamma: 0.01", "  gamma: tune"),), 2),
        # One universe serves both tuning and evaluation.
        ((("  gamma: 0.01", "  gamma: tune"),
          ("split:", "tune_on: test\nsplit:")), 1),
        # Edge-weight decay computes its own edge distances.
        ((("katz:\n", "katz:\n  wki_transform: decay\n"),
          ("[EWKI]", "[KI, WKI]")), 0),
    ])
    def test_distances_computed_once_per_ewki_universe(
            self, monkeypatch, edits, builds):
        # Gamma tuning and EWKI share the distances of KI's support
        # pairs.
        calls = []
        inside_weighting = []
        pair_distances = pipeline.geo.pair_distances
        weighted_adjacency = pipeline.geo.weighted_adjacency

        def counting(lat, lon, src, dst):
            if not inside_weighting:
                calls.append(len(src))
            return pair_distances(lat, lon, src, dst)

        def weighting(*args, **kwargs):
            inside_weighting.append(True)
            try:
                return weighted_adjacency(*args, **kwargs)
            finally:
                inside_weighting.pop()

        monkeypatch.setattr(pipeline.geo, "pair_distances", counting)
        monkeypatch.setattr(pipeline.geo, "weighted_adjacency", weighting)
        text = SMALL_SYNTH.replace("models: [KI, WKI, EWKI, KIEWKI]",
                                   "models: [EWKI]")
        for old, new in edits:
            text = text.replace(old, new)
        result = run(_cfg(text))
        assert len(calls) == builds
        if builds:
            support = result.tables["EWKI"].support
            assert calls[-1] == support.size < result.universe.n_pairs

    @pytest.mark.parametrize("edit,spectral,factorizations,weighted", [
        # The tuning and the final universe share adj_train: KI and WKI
        # are each one operator.
        ((), 2, 2, 1),
        (("split:", "tune_on: test\nsplit:"), 2, 2, 1),
        # Train+val scores the final universe from its own adjacency.
        (("split:", "score_basis: train+val\nsplit:"), 4, 4, 2),
        # The truncated series needs one spectral estimate per adjacency.
        (("katz:\n", "katz:\n  solve_max_nodes: 10\n"), 2, 0, 1),
    ])
    def test_operator_built_once_per_adjacency(
            self, monkeypatch, edit, spectral, factorizations, weighted):
        calls = {"spectral_radius": 0, "splu": 0, "weighted_adjacency": 0}

        def counting(module, name):
            wrapped = getattr(module, name)

            def count(*args, **kwargs):
                calls[name] += 1
                return wrapped(*args, **kwargs)

            monkeypatch.setattr(module, name, count)

        counting(katz, "spectral_radius")
        counting(katz, "splu")
        counting(pipeline.geo, "weighted_adjacency")
        text = SMALL_SYNTH.replace(*edit) if edit else SMALL_SYNTH
        result = run(_cfg(text))
        assert result.reports
        assert calls == {"spectral_radius": spectral,
                         "splu": factorizations,
                         "weighted_adjacency": weighted}

    def test_tune_on_test_reuses_final_universe(self, tmp_path):
        text = SMALL_SYNTH.replace("split:", "tune_on: test\nsplit:")
        result = run(_cfg(text, out=tmp_path))
        assert result.tune_universe is result.universe
        for report in result.reports.values():
            assert report.info["tuned_on"] == "test"
            # Tuned and achieved F1 coincide when the tuning universe is
            # the evaluation universe itself.
            assert report.f1 == pytest.approx(report.info["tuning_f1"],
                                              abs=1e-12)

    @pytest.mark.parametrize("tune_on,sweeps,public_calls", [
        ("test", 6, 0),
        ("val", 12, 6),
    ])
    def test_sweeps_per_final_table(self, monkeypatch, tune_on, sweeps,
                                    public_calls):
        # Tuning on the evaluated table reads threshold and report off
        # one sweep; tuning on val still goes through both public names.
        calls = {"_table_sweep": 0, "optimal_threshold": 0, "evaluate": 0}

        def counting(name):
            wrapped = getattr(pipeline.metrics, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return wrapped(*args, **kwargs)
            monkeypatch.setattr(pipeline.metrics, name, call)

        for name in calls:
            counting(name)
        text = QUICKSTART.read_text().replace(
            "\nsplit:", f"\ntune_on: {tune_on}\nsplit:")
        result = run(_cfg(text))
        assert len(result.reports) == 6
        assert calls == {"_table_sweep": sweeps,
                         "optimal_threshold": public_calls,
                         "evaluate": public_calls}

    def test_val_tuning_uses_distinct_universe(self, small_run):
        _, result, _ = small_run
        assert result.tune_universe is not result.universe

    def test_export_sorts_no_values(self, tmp_path, monkeypatch):
        # Each exported column is formatted where it is written, so the
        # export leaves each table's one sort to its sweep.
        calls = []
        write_artifacts = pipeline._write_artifacts
        unique = np.unique

        def counting(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return unique(*args, **kwargs)

        def watched(*args):
            monkeypatch.setattr(np, "unique", counting)
            try:
                write_artifacts(*args)
            finally:
                monkeypatch.setattr(np, "unique", unique)
            calls.append("written")

        monkeypatch.setattr(pipeline, "_write_artifacts", watched)
        # One writing process: a forked writer's calls would not be seen.
        run(replace(_cfg(QUICKSTART.read_text(), out=tmp_path), workers=1))
        assert calls == ["written"]
        assert len(list(tmp_path.glob("curve_*.csv"))) == 12


def _tuning_input(ki, distances, labels):
    """A KI table over k nodes and its (k, k) distance matrix."""
    k = len(ki)
    universe = PairUniverse(node_indices=np.arange(k, dtype=np.int64),
                            labels=np.asarray(labels, dtype=np.uint8))
    table = oracles.table_of("KI", universe, ki)
    return table, np.asarray(distances, dtype=np.float64)


def _tune_gamma(ki_table, distances):
    """``pipeline._tune_gamma`` given the (k, k) distance matrix: it
    takes the distances of the table's support pairs."""
    support = ki_table.support
    return pipeline._tune_gamma(ki_table, distances.ravel()[support])


def _search(tune, ki_table, distances):
    """A gamma search's outcome: the chosen gamma and each candidate's
    (threshold, F1) as hex text, or the type of the error it raised;
    and whether it warned of a constant table."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            gamma, cuts = tune(ki_table, distances)
            outcome = (gamma, [(t.hex(), f1.hex()) for t, f1 in cuts])
        except (ValueError, DegenerateLabelsError) as exc:
            outcome = type(exc)
    return outcome, any(issubclass(w.category, DegenerateScoreTableWarning)
                        for w in caught)


# Zeros of both signs, tied values, a score whose decay underflows, and
# free draws.
KI_CELLS = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, 1e-300]),
                     st.floats(0.0, 10.0))
# Coincident sites, distances at which exp(-0.1 * d) is subnormal or
# underflows to 0, and free draws.
DISTANCE_CELLS = st.one_of(st.sampled_from([0.0, 7400.0, 8000.0]),
                           st.floats(0.0, 2000.0))


@st.composite
def _tuning_cases(draw):
    k = draw(st.integers(2, 7))
    cells = k * k
    ki = np.array(draw(st.lists(KI_CELLS, min_size=cells,
                                max_size=cells))).reshape(k, k)
    shape = draw(st.sampled_from(["drawn", "no zero pairs", "all zero"]))
    if shape == "no zero pairs":
        ki[ki == 0.0] = 0.25
    elif shape == "all zero":
        ki[:] = draw(st.sampled_from([0.0, -0.0]))
    distances = np.array(draw(st.lists(
        DISTANCE_CELLS, min_size=cells, max_size=cells))).reshape(k, k)
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=cells,
                                    max_size=cells))).reshape(k, k)
    for matrix in (ki, distances, labels):
        np.fill_diagonal(matrix, 0)
    return _tuning_input(ki, distances, labels)


class TestGammaSearch:
    """``_tune_gamma`` decays and sweeps KI's nonzero pairs only; every
    candidate must match the dense search over full (k, k) tables."""

    @settings(max_examples=300, deadline=None)
    @given(_tuning_cases())
    def test_matches_dense_search_bit_for_bit(self, case):
        want = _search(oracles.dense_tune_gamma, *case)
        assert _search(_tune_gamma, *case) == want

    def test_all_zero_table_warns_and_keeps_smallest_gamma(self):
        k = 4
        labels = np.ones((k, k)) - np.eye(k)
        case = _tuning_input(np.zeros((k, k)), np.full((k, k), 10.0), labels)
        with pytest.warns(DegenerateScoreTableWarning):
            gamma, cuts = _tune_gamma(*case)
        assert gamma == GAMMA_GRID[0]
        assert cuts == [(0.0, 1.0)] * len(GAMMA_GRID)

    def test_negative_ki_score_is_numeric_error(self):
        ki = np.array([[0.0, 0.5, -1e-17], [0.2, 0.0, 0.0], [0.0, 0.1, 0.0]])
        labels = np.array([[0, 1, 0], [0, 0, 0], [0, 1, 0]])
        with pytest.raises(NumericError, match="1 negative"):
            _tune_gamma(*_tuning_input(ki, np.ones((3, 3)), labels))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_ki_score_is_refused(self, bad):
        ki = np.array([[0.0, 0.5, bad], [0.2, 0.0, 0.0], [0.0, 0.1, 0.0]])
        labels = np.array([[0, 1, 0], [0, 0, 0], [0, 1, 0]])
        with pytest.raises(ValueError, match="non-finite"), \
                np.errstate(invalid="ignore"):
            _tune_gamma(*_tuning_input(ki, np.ones((3, 3)), labels))

    def test_no_positive_label_is_degenerate(self):
        ki = np.array([[0.0, 0.5], [0.2, 0.0]])
        with pytest.raises(DegenerateLabelsError):
            _tune_gamma(*_tuning_input(ki, np.ones((2, 2)),
                                                np.zeros((2, 2))))

    def test_quickstart_tunes_on_support_vectors_only(self, monkeypatch):
        # Each candidate goes through EWKI's own decay, normalize and
        # threshold code, on KI's support: every array decayed or swept
        # has one entry per nonzero KI pair.
        active = []
        calls = {"edge_weighted_katz_scores": 0, "normalize": 0,
                 "optimal_threshold": 0}
        sizes = {"decay_weights": [], "_sweep_above": []}

        def watch(module, name, record):
            wrapped = getattr(module, name)

            def call(*args, **kwargs):
                if active:
                    record(name, args)
                return wrapped(*args, **kwargs)
            monkeypatch.setattr(module, name, call)

        def counted(name, args):
            calls[name] += 1

        for module, name in ((pipeline, "edge_weighted_katz_scores"),
                             (pipeline, "normalize"),
                             (pipeline.metrics, "optimal_threshold")):
            watch(module, name, counted)
        for module, name in ((katz, "decay_weights"),
                             (pipeline.metrics, "_sweep_above")):
            watch(module, name,
                  lambda name, args: sizes[name].append(len(args[0])))
        tune_gamma = pipeline._tune_gamma
        support = []

        def tracked(ki_table, distances):
            support.append((ki_table.support.size, ki_table.n_floor))
            active.append(True)
            try:
                return tune_gamma(ki_table, distances)
            finally:
                active.clear()

        monkeypatch.setattr(pipeline, "_tune_gamma", tracked)
        text = QUICKSTART.read_text().replace("  gamma: 0.01",
                                              "  gamma: tune")
        assert len(run(_cfg(text)).reports) == 6
        [(nonzero, n_floor)] = support
        assert nonzero > 0 and n_floor > 0
        grid = len(GAMMA_GRID)
        assert calls == dict.fromkeys(calls, grid)
        assert sizes == dict.fromkeys(sizes, [nonzero] * grid)


class TestCombineOn:

    def test_raw_and_normalized_fusion_differ(self, tmp_path):
        base = SMALL_SYNTH.replace("models: [KI, WKI, EWKI, KIEWKI]",
                                   "models: [KIWKI]")
        r_norm = run_scores_only(_cfg(base))
        r_raw = run_scores_only(_cfg(base + "combine_on: raw\n"))
        a = oracles.dense(r_norm.tables["KIWKI"])
        b = oracles.dense(r_raw.tables["KIWKI"])
        assert a.shape == b.shape
        assert not np.allclose(a, b)

    def test_raw_fusion_metadata(self, tmp_path):
        base = SMALL_SYNTH.replace("models: [KI, WKI, EWKI, KIEWKI]",
                                   "models: [KIWKI]") + "combine_on: raw\n"
        result = run_scores_only(_cfg(base))
        info = result.tables["KIWKI"].info
        assert info["combined_on"] == "raw"
        assert info["rule"] == "mean"


class TestIncompleteMarker:

    def test_marker_survives_a_failed_run(self, tmp_path):
        data = tmp_path / "movements.csv"
        data.write_text(TWO_HOP_CSV
                        + "a,d,2010,51.0,-1.0,51.4,-0.8,carp\n"
                        + "d,a,2011,51.4,-0.8,51.0,-1.0,carp\n")
        text = (f"input: {data}\n" + TWO_HOP_SPLIT
                + "katz:\n  beta_mode: explicit\n  beta: 5.0\n"
                + f"output_dir: {tmp_path / 'out'}\n")
        with pytest.raises(BetaDomainError):
            run(parse_run_config(text))
        out = tmp_path / "out"
        assert (out / INCOMPLETE_MARKER).exists()
        # The verbatim config is written before scoring starts, so a
        # partial directory still records what produced it.
        assert (out / "config.yaml").read_text() == text

    def test_no_output_dir_writes_nothing(self, tmp_path):
        cfg = _cfg(SMALL_SYNTH.replace("models: [KI, WKI, EWKI, KIEWKI]",
                                       "models: [KI]"))
        result = run_scores_only(cfg)
        assert result.out_dir is None
        assert list(tmp_path.iterdir()) == []

    def test_no_output_dir_times_no_export(self, caplog):
        cfg = _cfg(SMALL_SYNTH.replace("models: [KI, WKI, EWKI, KIEWKI]",
                                       "models: [KI]"))
        with caplog.at_level(logging.DEBUG, logger="geokatz.pipeline"):
            result = run(cfg)
        assert set(result.timings) == set(STAGES)
        logged = [r.getMessage().split()[1] for r in caplog.records
                  if r.levelno == logging.DEBUG
                  and r.getMessage().startswith("stage ")]
        assert sorted(logged) == sorted(STAGES)


class TestWorkerParity:

    def test_worker_count_leaves_artifacts_unchanged(self, small_run,
                                                     tmp_path):
        _, _, out_two = small_run
        cfg = _cfg(SMALL_SYNTH.replace("workers: 2", "workers: 1"),
                   out=tmp_path)
        run(cfg)
        for path in sorted(tmp_path.iterdir()):
            if path.name == "config.yaml":
                continue
            assert path.read_bytes() == (out_two / path.name).read_bytes(), \
                path.name


def _artifacts(out_dir):
    return {path.name: path.read_bytes() for path in out_dir.iterdir()}


def _log_writers(monkeypatch, log_path, act=None):
    """Make the pipeline's score writer append "model pid" to
    ``log_path`` before it writes, from whichever process it runs in;
    ``act(model)``, if given, runs first and may raise or end the
    process."""
    write = pipeline.write_score_table

    def logged(table, registry, dest, known=None):
        model = Path(dest).stem.removeprefix("scores_")
        if act is not None:
            act(model)
        with open(log_path, "a", encoding="utf-8") as fh:
            fh.write(f"{model} {os.getpid()}\n")
        return write(table, registry, dest, known)

    monkeypatch.setattr(pipeline, "write_score_table", logged)


def _writers(log_path):
    """The pid that wrote each model's score table."""
    lines = log_path.read_text(encoding="utf-8").split()
    return dict(zip(lines[::2], map(int, lines[1::2])))


class TestForkedExport:
    """Each group of models but the first is written by a forked child."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        # Every child was reaped, on success and on failure alike.
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.fixture
    def cpus(self, monkeypatch):
        """Pretend the host has ``n`` usable CPUs."""
        def set_cpus(n):
            monkeypatch.setattr(_fork, "usable_cpus", lambda: n)
        return set_cpus

    @pytest.mark.parametrize("entry", [run, run_scores_only])
    def test_bytes_do_not_depend_on_workers(self, tmp_path, cpus, entry):
        cpus(64)
        cfg = _cfg(QUICKSTART.read_text())
        written = []
        for workers in (1, 2, 7):
            out = tmp_path / f"w{workers}"
            entry(replace(cfg, workers=workers, output_dir=str(out)))
            written.append(_artifacts(out))
        assert INCOMPLETE_MARKER not in written[0]
        assert {f"scores_{m}.csv" for m in cfg.models} <= set(written[0])
        assert written[1] == written[0]
        assert written[2] == written[0]

    def test_two_workers_write_from_two_processes(self, tmp_path, cpus,
                                                  monkeypatch):
        cpus(2)
        _log_writers(monkeypatch, tmp_path / "writers.log")
        cfg = _cfg(SMALL_SYNTH, out=tmp_path / "out")
        run(cfg)
        writers = _writers(tmp_path / "writers.log")
        assert sorted(writers) == sorted(cfg.models)
        assert len(set(writers.values())) == 2
        # Round-robin: the caller writes the first model and every
        # second one after it, one child the rest.
        assert {writers[m] for m in cfg.models[::2]} == {os.getpid()}
        assert os.getpid() not in {writers[m] for m in cfg.models[1::2]}

    def test_without_fork_the_caller_writes_everything(self, tmp_path, cpus,
                                                       monkeypatch):
        cpus(2)
        cfg = _cfg(SMALL_SYNTH)
        run(replace(cfg, workers=1, output_dir=str(tmp_path / "one")))
        monkeypatch.delattr(os, "fork")
        _log_writers(monkeypatch, tmp_path / "writers.log")
        run(replace(cfg, output_dir=str(tmp_path / "two")))
        assert set(_writers(tmp_path / "writers.log").values()) \
            == {os.getpid()}
        assert _artifacts(tmp_path / "two") == _artifacts(tmp_path / "one")

    @pytest.mark.parametrize("cpu_count,forks", [(None, None), (10**6, 3)])
    def test_forks_at_most_one_child_per_model_but_one(
            self, tmp_path, cpus, monkeypatch, cpu_count, forks):
        if cpu_count is not None:
            cpus(cpu_count)
        calls = []
        fork = os.fork

        def counting():
            calls.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counting)
        cfg = _cfg(SMALL_SYNTH, out=tmp_path)
        run(replace(cfg, workers=10**6))
        assert len(cfg.models) == 4
        if forks is None:
            forks = min(_fork.usable_cpus(), len(cfg.models)) - 1
        assert len(calls) == forks <= len(cfg.models) - 1
        assert INCOMPLETE_MARKER not in _artifacts(tmp_path)

    class LocalError(Exception):
        """An exception pickle cannot rebuild: it takes two arguments."""

        def __init__(self, what, where):
            super().__init__(f"{what} in {where}")

    @pytest.mark.parametrize("in_child,error,raised", [
        (True, DataError("bad table WKI"), DataError("bad table WKI")),
        (True, LocalError("bad table", "WKI"),
         RuntimeError("LocalError: bad table in WKI")),
        # The caller's own failure wins, after its child is reaped.
        (False, NumericError("bad table KI"), NumericError("bad table KI")),
    ])
    def test_a_failed_group_fails_the_run(self, tmp_path, cpus, monkeypatch,
                                          in_child, error, raised):
        cpus(2)
        parent = os.getpid()

        def fail(model):
            if (os.getpid() != parent) == in_child \
                    and model == ("WKI" if in_child else "KI"):
                raise error

        _log_writers(monkeypatch, tmp_path / "writers.log", fail)
        out = tmp_path / "out"
        with pytest.raises(type(raised)) as info:
            run(_cfg(SMALL_SYNTH, out=out))
        assert type(info.value) is type(raised)
        assert str(info.value) == str(raised)
        names = _artifacts(out)
        assert INCOMPLETE_MARKER in names
        assert "summary.csv" not in names and "run_summary.json" not in names

    def test_a_killed_child_is_an_error_naming_its_models(
            self, tmp_path, cpus, monkeypatch):
        cpus(2)
        parent = os.getpid()

        def die(model):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)

        _log_writers(monkeypatch, tmp_path / "writers.log", die)
        out = tmp_path / "out"
        with pytest.raises(RuntimeError,
                           match=r"models WKI, KIEWKI ended with exit "
                                 r"status -9 \(killed by signal 9\)"):
            run(_cfg(SMALL_SYNTH, out=out))
        assert INCOMPLETE_MARKER in _artifacts(out)
        assert set(_writers(tmp_path / "writers.log")) == {"KI", "EWKI"}

class TestScoreTableRoundTrip:

    @pytest.fixture
    def exported(self, tmp_path):
        cfg = _cfg(SMALL_SYNTH.replace("models: [KI, WKI, EWKI, KIEWKI]",
                                       "models: [KI]"), out=tmp_path)
        result = run_scores_only(cfg)
        net, train, val, test = pipeline._build_data(cfg, None)
        from geokatz.graphs import candidate_pairs
        universe = candidate_pairs(test)
        return (tmp_path / "scores_KI.csv", result.tables["KI"], universe,
                net.registry)

    def test_round_trip_recovers_scores(self, exported):
        path, table, universe, registry = exported
        loaded = read_score_table(path, universe, registry)
        assert loaded.model == "KI"
        assert loaded.normalized
        # Exported floats carry 6 significant digits.
        np.testing.assert_allclose(oracles.dense(loaded),
                                   oracles.dense(table), rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(oracles.dense_raw(loaded),
                                   oracles.dense_raw(table), rtol=1e-5,
                                   atol=1e-7)

    def test_byte_order_mark_is_stripped(self, exported):
        # A spreadsheet saving the table as UTF-8 prefixes U+FEFF.
        path, _, universe, registry = exported
        plain = read_score_table(path, universe, registry)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        loaded = read_score_table(path, universe, registry)
        assert loaded.model == plain.model
        _assert_same_table(loaded, plain)

    def test_header_names_are_stripped(self, exported):
        # Movement-file headers are read alike: "model, score" names
        # the columns model and score.
        path, _, universe, registry = exported
        plain = read_score_table(path, universe, registry)
        self._mutate(path, lambda lines: [", ".join(lines[0].split(","))]
                     + lines[1:])
        loaded = read_score_table(path, universe, registry)
        assert loaded.model == plain.model
        _assert_same_table(loaded, plain)

    def test_unopenable_file_is_data_error_naming_it(self, exported,
                                                     tmp_path):
        _, _, universe, registry = exported
        for path in (tmp_path / "nope.csv", tmp_path):
            with pytest.raises(DataError,
                               match=re.escape(f"score table {path}")):
                read_score_table(path, universe, registry)

    def _mutate(self, path, mutate):
        lines = path.read_text().splitlines()
        lines = mutate(lines)
        path.write_text("\n".join(lines) + "\n")

    def test_missing_pair_detected(self, exported):
        path, _, universe, registry = exported
        self._mutate(path, lambda lines: lines[:-1])
        with pytest.raises(UniverseMismatchError, match="covers"):
            read_score_table(path, universe, registry)

    def test_duplicate_pair_detected(self, exported):
        path, _, universe, registry = exported
        self._mutate(path, lambda lines: lines + [lines[1]])
        with pytest.raises(UniverseMismatchError,
                           match="duplicate or diagonal"):
            read_score_table(path, universe, registry)

    def test_diagonal_pair_detected(self, exported):
        path, _, universe, registry = exported

        def make_diagonal(lines):
            fields = lines[1].split(",")
            fields[1] = fields[0]
            return lines[:1] + [",".join(fields)] + lines[2:]

        self._mutate(path, make_diagonal)
        with pytest.raises(UniverseMismatchError,
                           match="duplicate or diagonal"):
            read_score_table(path, universe, registry)

    def test_unknown_node_detected(self, exported):
        path, _, universe, registry = exported

        def rename(lines):
            fields = lines[1].split(",")
            fields[0] = "not-a-farm"
            return lines[:1] + [",".join(fields)] + lines[2:]

        self._mutate(path, rename)
        with pytest.raises(UniverseMismatchError,
                           match="not in the evaluation universe"):
            read_score_table(path, universe, registry)

    def test_mixed_models_detected(self, exported):
        path, _, universe, registry = exported

        def remodel(lines):
            fields = lines[2].split(",")
            fields[2] = "WKI"
            return lines[:2] + [",".join(fields)] + lines[3:]

        self._mutate(path, remodel)
        with pytest.raises(DataError, match="mixes models"):
            read_score_table(path, universe, registry)

    def test_missing_columns_detected(self, exported):
        path, _, universe, registry = exported
        self._mutate(path, lambda lines: ["source_id,dest_id,score"]
                     + [",".join(l.split(",")[:3]) for l in lines[1:]])
        with pytest.raises(DataError, match="required columns"):
            read_score_table(path, universe, registry)

    def test_short_row_is_data_error_naming_its_line(self, exported):
        path, _, universe, registry = exported
        self._mutate(path, lambda lines: lines[:-1] + [
            ",".join(lines[-1].split(",")[:3])])
        last = len(path.read_text().splitlines())
        with pytest.raises(DataError, match=f"line {last}: fewer fields"):
            read_score_table(path, universe, registry)

    def test_line_numbers_count_blank_lines(self, exported):
        path, _, universe, registry = exported

        def corrupt(lines):
            fields = lines[4].split(",")
            fields[3] = "high"
            return (lines[:2] + [""] + lines[2:4] + [",".join(fields)]
                    + lines[5:])

        self._mutate(path, corrupt)
        with pytest.raises(DataError, match="line 6: non-numeric score"):
            read_score_table(path, universe, registry)

    def test_non_numeric_score_detected(self, exported):
        path, _, universe, registry = exported

        def corrupt(lines):
            fields = lines[1].split(",")
            fields[3] = "high"
            return lines[:1] + [",".join(fields)] + lines[2:]

        self._mutate(path, corrupt)
        with pytest.raises(DataError, match="non-numeric score"):
            read_score_table(path, universe, registry)

    @pytest.mark.parametrize("column,value", [
        (4, "nan"), (3, "inf"), (4, "-inf")])
    def test_non_finite_score_detected(self, exported, column, value):
        path, _, universe, registry = exported

        def corrupt(lines):
            fields = lines[1].split(",")
            fields[column] = value
            return lines[:1] + [",".join(fields)] + lines[2:]

        self._mutate(path, corrupt)
        with pytest.raises(DataError, match="line 2: non-finite score"):
            read_score_table(path, universe, registry)
