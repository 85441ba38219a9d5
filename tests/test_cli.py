"""Unit tests for the command-line interface (in-process)."""

import csv
import json
import logging

import pytest

from geokatz import katz, metrics, pipeline
from geokatz.cli import build_parser, main
from geokatz.config import load_run_config
from geokatz.graphs import candidate_pairs

RUN_YAML = """\
synth:
  seed: 42
  n_nodes: 40
  years: [2016, 2019]
  bbox: [50.0, 53.0, -4.0, 0.0]
  movements_per_year: 120
  repeat_edge_prob: 0.6
split:
  train: [2016, 2017]
  val: 2018
  test: 2019
katz:
  gamma: 0.01
models: [KI, EWKI]
"""

SYNTH_ONLY_YAML = """\
synth:
  seed: 9
  n_nodes: 12
  years: [2020, 2021]
  bbox: [50.0, 51.0, -1.0, 0.0]
  movements_per_year: 30
"""


@pytest.fixture
def run_config(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(RUN_YAML)
    return path


def _names(path):
    return {p.name for p in path.iterdir()}


class TestParser:

    def test_subcommand_required(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
        capsys.readouterr()

    def test_eval_needs_threshold_or_tune(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["eval", "--config", "c.yaml", "--scores", "s.csv"])
        capsys.readouterr()

    def test_eval_threshold_and_tune_conflict(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["eval", "--config", "c.yaml", "--scores", "s.csv",
                 "--threshold", "0.5", "--tune"])
        capsys.readouterr()

    def test_log_level_choices(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--config", "c.yaml", "--log-level", "chatty"])
        capsys.readouterr()


class TestRunCommand:

    def test_full_run_writes_artifacts(self, run_config, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(run_config),
                     "--out", str(out)]) == 0
        names = _names(out)
        for model in ("KI", "EWKI"):
            assert f"scores_{model}.csv" in names
            assert f"report_{model}.json" in names
        assert "summary.csv" in names
        assert (out / "config.yaml").read_bytes() == \
            run_config.read_bytes()

    def test_missing_out_dir_is_config_error(self, run_config):
        assert main(["run", "--config", str(run_config)]) == 1

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path / "out")]) == 1

    def test_missing_input_file_is_data_error(self, tmp_path, caplog):
        missing = tmp_path / "nope.csv"
        path = tmp_path / "run.yaml"
        path.write_text(f"input: {missing}\nsplit:\n  train: 2010\n"
                        "  val: 2011\n  test: 2012\nmodels: KI\n")
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert f"cannot open movement file {missing}" in caplog.text
        assert "unexpected failure" not in caplog.text

    def test_unknown_model_is_config_error(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(RUN_YAML.replace("models: [KI, EWKI]",
                                         "models: [KI, PAGERANK]"))
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 1

    def test_synth_years_outside_year_range_is_config_error(self, tmp_path,
                                                            caplog):
        # Refused with the config, before the run directory is made, not
        # by the re-ingest of the movements.csv the run wrote.
        path = tmp_path / "run.yaml"
        path.write_text(RUN_YAML + "ingest:\n  year_range: [2017, 2100]\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        assert "synth.years [2016, 2019] are not inside" in caplog.text
        assert not out.exists()

    def test_bad_rows_abort_is_data_error(self, tmp_path):
        data = tmp_path / "m.csv"
        data.write_text(
            "source_id,dest_id,year,source_lat,source_lon,dest_lat,"
            "dest_lon,species\n"
            "a,b,2010,51.0,-1.0,51.2,-1.1,carp\n"
            "b,c,2011,51.2,-1.1,51.6,-0.5,carp\n"
            "c,a,2012,91.5,-0.5,51.0,-1.0,carp\n")
        path = tmp_path / "run.yaml"
        path.write_text(f"input: {data}\nsplit:\n  train: 2010\n"
                        "  val: 2011\n  test: 2012\nmodels: KI\n")
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2

    def test_latin1_input_is_data_error(self, tmp_path, caplog):
        data = tmp_path / "m.csv"
        data.write_bytes(
            ("source_id,dest_id,year,source_lat,source_lon,dest_lat,"
             "dest_lon\n"
             "a,Fl\u00e5m,2010,51.0,-1.0,61.0,7.1\n").encode("latin-1"))
        path = tmp_path / "run.yaml"
        path.write_text(f"input: {data}\nsplit:\n  train: 2010\n"
                        "  val: 2011\n  test: 2012\nmodels: KI\n")
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert "is not valid UTF-8" in caplog.text
        assert "unexpected failure" not in caplog.text

    def test_divergent_beta_is_numeric_error(self, tmp_path):
        data = tmp_path / "m.csv"
        data.write_text(
            "source_id,dest_id,year,source_lat,source_lon,dest_lat,"
            "dest_lon,species\n"
            "a,b,2010,51.0,-1.0,51.2,-1.1,carp\n"
            "b,a,2010,51.2,-1.1,51.0,-1.0,carp\n"
            "a,b,2011,51.0,-1.0,51.2,-1.1,carp\n"
            "a,b,2012,51.0,-1.0,51.2,-1.1,carp\n")
        path = tmp_path / "run.yaml"
        path.write_text(f"input: {data}\nsplit:\n  train: 2010\n"
                        "  val: 2011\n  test: 2012\nmodels: KI\n"
                        "katz:\n  beta_mode: explicit\n  beta: 5.0\n")
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 3


class TestSynthCommand:

    def test_writes_fixture_files(self, tmp_path):
        path = tmp_path / "synth.yaml"
        path.write_text(SYNTH_ONLY_YAML)
        out = tmp_path / "fixture"
        assert main(["synth", "--config", str(path),
                     "--out", str(out)]) == 0
        assert _names(out) == {"movements.csv", "truth.json"}
        truth = json.loads((out / "truth.json").read_text())
        assert truth["totals"]["movements"] == 60

    def test_bare_mapping_config_accepted(self, tmp_path):
        path = tmp_path / "synth.yaml"
        path.write_text(SYNTH_ONLY_YAML.replace("synth:\n", "")
                        .replace("  ", ""))
        out = tmp_path / "fixture"
        assert main(["synth", "--config", str(path),
                     "--out", str(out)]) == 0
        assert (out / "movements.csv").exists()

    def test_output_dir_key_in_config(self, tmp_path):
        path = tmp_path / "synth.yaml"
        path.write_text(SYNTH_ONLY_YAML
                        + f"output_dir: {tmp_path / 'from_config'}\n")
        assert main(["synth", "--config", str(path)]) == 0
        assert (tmp_path / "from_config" / "movements.csv").exists()

    def test_missing_out_dir_rejected(self, tmp_path):
        path = tmp_path / "synth.yaml"
        path.write_text(SYNTH_ONLY_YAML)
        assert main(["synth", "--config", str(path)]) == 1

    def test_seed_override_changes_fixture(self, tmp_path):
        path = tmp_path / "synth.yaml"
        path.write_text(SYNTH_ONLY_YAML)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["synth", "--config", str(path),
                     "--out", str(out_a)]) == 0
        assert main(["synth", "--config", str(path), "--out", str(out_b),
                     "--seed-override", "123"]) == 0
        assert (out_a / "movements.csv").read_bytes() != \
            (out_b / "movements.csv").read_bytes()
        truth = json.loads((out_b / "truth.json").read_text())
        assert truth["config"]["seed"] == 123


class TestScoreCommand:

    def test_score_writes_tables_only(self, run_config, tmp_path):
        out = tmp_path / "scores"
        assert main(["score", "--config", str(run_config),
                     "--out", str(out)]) == 0
        names = _names(out)
        assert "scores_KI.csv" in names and "scores_EWKI.csv" in names
        assert not any(n.startswith("report_") for n in names)
        assert "summary.csv" not in names


class TestEvalCommand:

    @pytest.fixture
    def scored(self, run_config, tmp_path):
        out = tmp_path / "scored"
        assert main(["score", "--config", str(run_config),
                     "--out", str(out)]) == 0
        return out / "scores_KI.csv"

    def test_tune_writes_report(self, run_config, scored, tmp_path):
        out = tmp_path / "eval_out"
        assert main(["eval", "--config", str(run_config),
                     "--scores", str(scored), "--out", str(out),
                     "--tune"]) == 0
        report = json.loads((out / "report_KI.json").read_text())
        assert report["info"]["tuned_on"] == "eval-universe"
        assert report["metrics"]["f1"] == pytest.approx(
            report["info"]["tuning_f1"], abs=1e-6)
        assert (out / "curve_roc_KI.csv").exists()
        assert (out / "curve_pr_KI.csv").exists()

    def test_fixed_threshold_to_stdout(self, run_config, scored, capsys):
        assert main(["eval", "--config", str(run_config),
                     "--scores", str(scored), "--threshold", "0.5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["threshold"] == 0.5
        assert report["model"] == "KI"
        cm = report["confusion"]
        assert cm["tp"] + cm["fn"] + cm["fp"] + cm["tn"] > 0

    def test_tampered_scores_is_data_error(self, run_config, scored):
        lines = scored.read_text().splitlines()
        scored.write_text("\n".join(lines[:-1]) + "\n")
        assert main(["eval", "--config", str(run_config),
                     "--scores", str(scored), "--tune"]) == 2

    def test_truncated_row_is_data_error(self, run_config, scored, caplog):
        lines = scored.read_text().splitlines()
        lines[-1] = ",".join(lines[-1].split(",")[:3])
        scored.write_text("\n".join(lines) + "\n")
        assert main(["eval", "--config", str(run_config),
                     "--scores", str(scored), "--tune"]) == 2
        assert f"line {len(lines)}: fewer fields" in caplog.text
        assert "unexpected failure" not in caplog.text

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_threshold_is_config_error(
            self, run_config, scored, caplog, capsys, value):
        assert main(["eval", "--config", str(run_config),
                     "--scores", str(scored), "--threshold", value]) == 1
        assert "'--threshold' must be finite" in caplog.text
        assert capsys.readouterr().out == ""

    def test_tune_report_matches_tuning_then_evaluating(
            self, run_config, scored, capsys):
        assert main(["eval", "--config", str(run_config),
                     "--scores", str(scored), "--tune"]) == 0
        got = json.loads(capsys.readouterr().out)
        cfg = load_run_config(run_config)
        net, _, _, test = pipeline._build_data(cfg, None)
        table = katz.read_score_table(scored, candidate_pairs(test),
                                      net.registry)
        threshold, tuned_f1 = metrics.optimal_threshold(table)
        report = metrics.evaluate(
            table, threshold=threshold,
            info={"tuned_on": "eval-universe", "tuning_f1": tuned_f1})
        assert got == json.loads(json.dumps(metrics.report_dict(report)))

    @pytest.mark.parametrize("model", ["sub/KI", "../KI", ".."])
    def test_model_that_is_not_a_file_name_is_data_error(
            self, run_config, scored, tmp_path, caplog, model):
        with open(scored, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            row[2] = model
        with open(scored, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        out = tmp_path / "nest" / "eval_out"
        assert main(["eval", "--config", str(run_config),
                     "--scores", str(scored), "--out", str(out),
                     "--tune"]) == 2
        assert f"model {model!r} cannot name a file" in caplog.text
        assert not (tmp_path / "nest").exists()

    def test_undecodable_scores_is_data_error(self, run_config, scored,
                                              caplog):
        raw = scored.read_bytes()
        offset = raw.index(b"\n", len(raw) // 2) + 1
        scored.write_bytes(raw[:offset] + b"\xff" + raw[offset:])
        assert main(["eval", "--config", str(run_config),
                     "--scores", str(scored), "--tune"]) == 2
        assert (f"{scored}: byte {offset} (0xff) is not valid UTF-8; "
                "score tables must be encoded as UTF-8") in caplog.text
        assert "unexpected failure" not in caplog.text

    def test_missing_scores_file_is_data_error(self, run_config, tmp_path,
                                               caplog):
        missing = tmp_path / "nope.csv"
        assert main(["eval", "--config", str(run_config),
                     "--scores", str(missing), "--tune"]) == 2
        assert f"cannot open score table {missing}" in caplog.text
        assert "unexpected failure" not in caplog.text


class TestOverridesAndLogging:

    def test_seed_override_on_file_input_warns(self, tmp_path, caplog):
        data = tmp_path / "m.csv"
        data.write_text(
            "source_id,dest_id,year,source_lat,source_lon,dest_lat,"
            "dest_lon,species\n"
            "a,b,2010,51.0,-1.0,51.2,-1.1,carp\n"
            "b,c,2011,51.2,-1.1,51.6,-0.5,carp\n"
            "a,c,2012,51.0,-1.0,51.6,-0.5,carp\n"
            "c,b,2012,51.6,-0.5,51.2,-1.1,carp\n")
        path = tmp_path / "run.yaml"
        path.write_text(f"input: {data}\nsplit:\n  train: 2010\n"
                        "  val: 2011\n  test: 2012\nmodels: KI\n")
        with caplog.at_level(logging.WARNING, logger="geokatz.config"):
            code = main(["score", "--config", str(path),
                         "--out", str(tmp_path / "out"),
                         "--seed-override", "7"])
        assert code == 0
        assert any("--seed-override ignored" in r.message
                   for r in caplog.records)

    @pytest.mark.parametrize("command", ["run", "score", "synth"])
    def test_negative_seed_override_is_config_error(
            self, run_config, tmp_path, caplog, command):
        out = tmp_path / "out"
        assert main([command, "--config", str(run_config), "--out", str(out),
                     "--seed-override", "-1"]) == 1
        assert "'synth.seed' must be >= 0" in caplog.text
        assert "unexpected failure" not in caplog.text
        assert not out.exists()

    def test_log_level_flag_accepted(self, tmp_path, caplog):
        path = tmp_path / "synth.yaml"
        path.write_text(SYNTH_ONLY_YAML)
        with caplog.at_level(logging.DEBUG, logger="geokatz.cli"):
            assert main(["synth", "--config", str(path),
                         "--out", str(tmp_path / "f"),
                         "--log-level", "debug"]) == 0
        assert any("wrote" in r.message for r in caplog.records)

    def test_run_seed_override_changes_randomness(self, run_config,
                                                  tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["score", "--config", str(run_config),
                     "--out", str(out_a)]) == 0
        assert main(["score", "--config", str(run_config),
                     "--out", str(out_b), "--seed-override", "777"]) == 0
        assert (out_a / "movements.csv").read_bytes() != \
            (out_b / "movements.csv").read_bytes()
        assert (out_a / "scores_KI.csv").read_bytes() != \
            (out_b / "scores_KI.csv").read_bytes()
