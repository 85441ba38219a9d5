"""Unit tests for the end-to-end pipeline and artifact round trips."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from geokatz import katz, pipeline
from geokatz.config import parse_run_config
from geokatz.errors import (BetaDomainError, DataError,
                            UniverseMismatchError)
from geokatz.pipeline import (GAMMA_GRID, INCOMPLETE_MARKER, SUMMARY_ROWS,
                              read_score_table, run, run_scores_only)

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
            off = table.values[~np.eye(table.values.shape[0], dtype=bool)]
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
        assert summary["synth_seed"] == 314
        assert set(summary["thresholds"]) == set(cfg.models)
        assert summary["splits"]["test"]["edges"] > 0
        assert (summary["universes"]["final"]["pairs"]
                == summary["universes"]["final"]["nodes"]
                * (summary["universes"]["final"]["nodes"] - 1))

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
            raw = result.tables["KI"].raw_values
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
        raw = result.tables["KI"].raw_values
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

    def test_gamma_tune_without_spatial_models_becomes_zero(self, tmp_path):
        text = SMALL_SYNTH.replace("  gamma: 0.01", "  gamma: tune").replace(
            "models: [KI, WKI, EWKI, KIEWKI]", "models: [KI]").replace(
            "katz:\n", "katz:\n  wki_transform: raw\n")
        result = run(_cfg(text, out=tmp_path))
        summary = json.loads((tmp_path / "run_summary.json").read_text())
        assert summary["gamma"] == 0.0
        assert "gamma_tuned" not in summary
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
    def test_distance_matrix_built_once_per_ewki_universe(
            self, monkeypatch, edits, builds):
        calls = []
        distance_matrix = pipeline.geo.distance_matrix

        def counting(lat, lon):
            calls.append(len(lat))
            return distance_matrix(lat, lon)

        monkeypatch.setattr(pipeline.geo, "distance_matrix", counting)
        text = SMALL_SYNTH.replace("models: [KI, WKI, EWKI, KIEWKI]",
                                   "models: [EWKI]")
        for old, new in edits:
            text = text.replace(old, new)
        run(_cfg(text))
        assert len(calls) == builds

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
        calls = {"_sweep": 0, "optimal_threshold": 0, "evaluate": 0}

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
        assert calls == {"_sweep": sweeps, "optimal_threshold": public_calls,
                         "evaluate": public_calls}

    def test_val_tuning_uses_distinct_universe(self, small_run):
        _, result, _ = small_run
        assert result.tune_universe is not result.universe


class TestCombineOn:

    def test_raw_and_normalized_fusion_differ(self, tmp_path):
        base = SMALL_SYNTH.replace("models: [KI, WKI, EWKI, KIEWKI]",
                                   "models: [KIWKI]")
        r_norm = run_scores_only(_cfg(base))
        r_raw = run_scores_only(_cfg(base + "combine_on: raw\n"))
        a = r_norm.tables["KIWKI"].values
        b = r_raw.tables["KIWKI"].values
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
        np.testing.assert_allclose(loaded.values, table.values,
                                   rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(loaded.raw_values, table.raw_values,
                                   rtol=1e-5, atol=1e-7)

    def test_byte_order_mark_is_stripped(self, exported):
        # A spreadsheet saving the table as UTF-8 prefixes U+FEFF.
        path, _, universe, registry = exported
        plain = read_score_table(path, universe, registry)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        loaded = read_score_table(path, universe, registry)
        assert loaded.model == plain.model
        assert loaded.values.tobytes() == plain.values.tobytes()
        assert loaded.raw_values.tobytes() == plain.raw_values.tobytes()

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
