"""Unit tests for run-configuration parsing and CLI overrides."""

import copy
import logging
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from geokatz.config import (_INGEST_KEYS, _KATZ_KEYS, _SYNTH_KEYS, _TOP_KEYS,
                            ALL_MODELS, RunConfig, load_run_config,
                            parse_run_config)
from geokatz.errors import ConfigError, DataError
from geokatz.graphs import ingest_movements

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

MINIMAL_SYNTH = """\
synth:
  seed: 1
  n_nodes: 10
  years: [2019, 2021]
  bbox: [50.0, 51.0, -1.0, 0.0]
  movements_per_year: 20
split:
  train: 2019
  val: 2020
  test: 2021
"""

MINIMAL_INPUT = """\
input: movements.csv
split:
  train: [2010, 2019]
  val: 2020
  test: 2021
"""


class TestDefaults:

    def test_minimal_synth_config_defaults(self):
        cfg = parse_run_config(MINIMAL_SYNTH)
        assert cfg.input is None
        assert cfg.synth.seed == 1
        assert cfg.models == ALL_MODELS
        assert cfg.score_basis == "train"
        assert cfg.tune_on == "val"
        assert cfg.combine_rule == "mean"
        assert cfg.combine_on == "normalized"
        assert cfg.directed is True
        assert cfg.workers == 1
        assert cfg.on_bad_rows == "abort"
        assert cfg.delimiter == ","
        assert cfg.year_range == (1900, 2100)
        assert cfg.output_dir is None

    def test_minimal_input_config(self):
        cfg = parse_run_config(MINIMAL_INPUT)
        assert cfg.input == "movements.csv"
        assert cfg.synth is None
        assert cfg.split.train_years == (2010, 2019)
        assert cfg.split.val_years == (2020, 2020)

    def test_source_text_kept_verbatim(self):
        cfg = parse_run_config(MINIMAL_SYNTH)
        assert cfg.source_text == MINIMAL_SYNTH


class TestStructuralValidation:

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError, match="must be a mapping"):
            parse_run_config("- just\n- a\n- list\n")

    def test_invalid_yaml_rejected(self):
        with pytest.raises(ConfigError, match="not valid YAML"):
            parse_run_config("split: [unclosed\n")

    def test_empty_config_needs_split(self):
        with pytest.raises(ConfigError, match="'split' block"):
            parse_run_config("")

    def test_unknown_top_level_key_named(self):
        with pytest.raises(ConfigError,
                           match="unknown key(.*)'config': outputs"):
            parse_run_config(MINIMAL_SYNTH + "outputs: /tmp/x\n")

    def test_unknown_katz_key_named(self):
        with pytest.raises(ConfigError,
                           match="unknown key(.*)'katz': betta"):
            parse_run_config(MINIMAL_SYNTH + "katz:\n  betta: 0.1\n")

    def test_unknown_synth_key_named(self):
        text = MINIMAL_SYNTH.replace("  seed: 1\n", "  seed: 1\n  nodes: 3\n")
        with pytest.raises(ConfigError, match="unknown key(.*)'synth': nodes"):
            parse_run_config(text)

    def test_unknown_ingest_key_named(self):
        with pytest.raises(ConfigError,
                           match="unknown key(.*)'ingest': sep"):
            parse_run_config(MINIMAL_SYNTH + "ingest:\n  sep: ';'\n")

    def test_unknown_split_key_named(self):
        with pytest.raises(ConfigError, match="unknown key(.*)'split': dev"):
            parse_run_config(MINIMAL_INPUT + "  dev: 2019\n")

    def test_split_missing_part_named(self):
        with pytest.raises(ConfigError, match="split block is missing: val"):
            parse_run_config("input: m.csv\nsplit:\n  train: 2019\n"
                             "  test: 2021\n")

    def test_input_and_synth_are_mutually_exclusive(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_run_config(MINIMAL_SYNTH + "input: movements.csv\n")

    def test_neither_input_nor_synth_rejected(self):
        text = "\n".join(line for line in MINIMAL_INPUT.splitlines()
                         if not line.startswith("input")) + "\n"
        with pytest.raises(ConfigError, match="exactly one"):
            parse_run_config(text)


class TestScalarCoercion:

    def test_plain_scientific_notation_string_coerces(self):
        # Plain-style "1e-10" is a YAML string; the loader must still
        # accept it as the float it visually is.
        cfg = parse_run_config(MINIMAL_SYNTH
                               + "katz:\n  series_tolerance: 1e-10\n")
        assert cfg.katz.series_tolerance == pytest.approx(1e-10)

    def test_non_numeric_float_rejected(self):
        with pytest.raises(ConfigError, match="katz.alpha.*number"):
            parse_run_config(MINIMAL_SYNTH + "katz:\n  alpha: fast\n")

    @pytest.mark.parametrize("key", ["gamma", "alpha", "series_tolerance"])
    def test_bool_is_not_a_float(self, key):
        with pytest.raises(ConfigError, match=f"'katz.{key}' must be a num"):
            parse_run_config(MINIMAL_SYNTH + f"katz:\n  {key}: true\n")

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ConfigError, match="'workers' must be an integer"):
            parse_run_config(MINIMAL_SYNTH + "workers: true\n")

    @pytest.mark.parametrize("value", ['"false"', "0", "yes please"])
    def test_directed_must_be_a_bool(self, value):
        with pytest.raises(ConfigError, match="'directed' must be true"):
            parse_run_config(MINIMAL_SYNTH + f"directed: {value}\n")

    @pytest.mark.parametrize("key,value", [
        ("gamma", ".inf"), ("gamma", "-.inf"), ("gamma", ".nan"),
        ("alpha", ".nan"), ("series_tolerance", "inf"),
    ])
    def test_non_finite_float_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"'katz.{key}' must be finite"):
            parse_run_config(MINIMAL_SYNTH + f"katz:\n  {key}: {value}\n")

    def test_non_finite_synth_float_rejected(self):
        text = MINIMAL_SYNTH.replace("  seed: 1\n",
                                     "  seed: 1\n  decay_rate: .nan\n")
        with pytest.raises(ConfigError, match="'synth.decay_rate' must be"):
            parse_run_config(text)

    def test_workers_must_be_positive(self):
        with pytest.raises(ConfigError, match="workers must be >= 1"):
            parse_run_config(MINIMAL_SYNTH + "workers: 0\n")

    @pytest.mark.parametrize("value", ["'2020'", "[2019]",
                                       "[2019, 2020, 2021]",
                                       "[2019.5, 2020]"])
    def test_bad_interval_forms_rejected(self, value):
        text = MINIMAL_INPUT.replace("  val: 2020", f"  val: {value}")
        with pytest.raises(ConfigError, match="split.val"):
            parse_run_config(text)

    def test_single_year_interval_expands(self):
        cfg = parse_run_config(MINIMAL_SYNTH)
        assert cfg.split.test_years == (2021, 2021)

    def test_year_range_list_form(self):
        cfg = parse_run_config(MINIMAL_SYNTH
                               + "ingest:\n  year_range: [1990, 2030]\n")
        assert cfg.year_range == (1990, 2030)

    def test_year_range_reversed_rejected(self):
        reversed_range = r"ingest\.year_range \[2030, 1990\] is reversed"
        with pytest.raises(ConfigError, match=reversed_range):
            parse_run_config(MINIMAL_SYNTH
                             + "ingest:\n  year_range: [2030, 1990]\n")

    def test_year_range_bad_form_rejected(self):
        with pytest.raises(ConfigError, match="year_range"):
            parse_run_config(MINIMAL_SYNTH + "ingest:\n  year_range: 1990\n")


class TestModelList:

    def test_single_string_becomes_one_model(self):
        cfg = parse_run_config(MINIMAL_SYNTH + "models: EWKI\n")
        assert cfg.models == ("EWKI",)

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown model\(s\) \['KATZ'\]"):
            parse_run_config(MINIMAL_SYNTH + "models: [KI, KATZ]\n")

    def test_duplicate_models_rejected(self):
        with pytest.raises(ConfigError, match="duplicates"):
            parse_run_config(MINIMAL_SYNTH + "models: [KI, KI]\n")

    def test_empty_model_list_rejected(self):
        with pytest.raises(ConfigError, match="non-empty"):
            parse_run_config(MINIMAL_SYNTH + "models: []\n")

    def test_non_list_models_rejected(self):
        with pytest.raises(ConfigError, match="'models' must be a list"):
            parse_run_config(MINIMAL_SYNTH + "models: {KI: true}\n")


class TestEnumFields:

    @pytest.mark.parametrize("line,message", [
        ("score_basis: test", "score_basis"),
        ("tune_on: train", "tune_on"),
        ("combine_rule: median", "combine_rule"),
        ("combine_on: scores", "combine_on"),
        ("ingest: {on_bad_rows: bogus}", "on_bad_rows"),
    ])
    def test_bad_enum_value_rejected(self, line, message):
        with pytest.raises(ConfigError, match=message):
            parse_run_config(MINIMAL_SYNTH + line + "\n")

    def test_valid_enum_values_accepted(self):
        cfg = parse_run_config(MINIMAL_SYNTH
                               + "score_basis: train+val\ntune_on: test\n"
                               + "combine_rule: max\ncombine_on: raw\n")
        assert cfg.score_basis == "train+val"
        assert cfg.tune_on == "test"
        assert cfg.combine_rule == "max"
        assert cfg.combine_on == "raw"


class TestSplitSemantics:

    def test_overlapping_split_rejected(self):
        text = MINIMAL_INPUT.replace("  val: 2020", "  val: 2019")
        with pytest.raises(DataError, match="overlap"):
            parse_run_config(text)

    def test_disordered_split_rejected(self):
        text = ("input: m.csv\nsplit:\n  train: [2010, 2019]\n"
                "  val: 2021\n  test: 2020\n")
        with pytest.raises(DataError):
            parse_run_config(text)


class TestLoadOverrides:

    @pytest.fixture
    def synth_path(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(MINIMAL_SYNTH)
        return path

    @pytest.fixture
    def input_path(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(MINIMAL_INPUT)
        return path

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_run_config(tmp_path / "absent.yaml")

    def test_no_overrides_round_trips(self, synth_path):
        cfg = load_run_config(synth_path)
        assert cfg == parse_run_config(MINIMAL_SYNTH)

    def test_out_override_sets_output_dir(self, synth_path, tmp_path):
        cfg = load_run_config(synth_path, out_override=tmp_path / "out")
        assert cfg.output_dir == str(tmp_path / "out")

    def test_seed_override_replaces_synth_seed(self, synth_path):
        cfg = load_run_config(synth_path, seed_override=777)
        assert cfg.synth.seed == 777
        # Everything else is untouched, including the verbatim text.
        assert cfg.synth.n_nodes == 10
        assert cfg.source_text == MINIMAL_SYNTH

    def test_seed_override_on_file_input_warns_and_ignores(
            self, input_path, caplog):
        with caplog.at_level(logging.WARNING, logger="geokatz.config"):
            cfg = load_run_config(input_path, seed_override=777)
        assert cfg.synth is None
        assert cfg == parse_run_config(MINIMAL_INPUT)
        assert any("--seed-override ignored" in r.message
                   for r in caplog.records)

    def test_on_bad_rows_validated_at_load(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(MINIMAL_INPUT + "ingest:\n  on_bad_rows: mend\n")
        with pytest.raises(ConfigError, match="on_bad_rows"):
            load_run_config(path)

    def test_on_bad_rows_skip_accepted(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(MINIMAL_INPUT + "ingest:\n  on_bad_rows: skip\n")
        assert load_run_config(path).on_bad_rows == "skip"


class TestSchemaBlock:

    def test_schema_keys_and_values_stringified(self):
        cfg = parse_run_config(MINIMAL_INPUT
                               + "schema:\n  src: source_id\n  yr: year\n")
        assert cfg.schema == {"src": "source_id", "yr": "year"}

    def test_shipped_file_input_config_reads_its_documented_headers(
            self, tmp_path):
        # The schema maps canonical names to the file's headers.
        cfg = load_run_config(CONFIGS / "file_input.yaml")
        path = tmp_path / "movements.csv"
        path.write_text(
            "origin,destination,move_year,origin_lat,origin_lon,"
            "destination_lat,destination_lon\n"
            "a,b,2015,50.0,0.0,51.0,1.0\n"
            "b,c,2016,51.0,1.0,52.0,0.5\n")
        report = ingest_movements(path, schema=cfg.schema,
                                  on_bad_rows=cfg.on_bad_rows,
                                  delimiter=cfg.delimiter,
                                  year_range=cfg.year_range)
        assert report.accepted == 2
        assert report.records[1].dest_id == "c"

    def test_schema_must_be_mapping(self):
        with pytest.raises(ConfigError, match="'schema' must be a mapping"):
            parse_run_config(MINIMAL_INPUT + "schema: [src, dst]\n")


class TestDirectConstruction:

    def test_runconfig_validates_without_yaml(self):
        base = parse_run_config(MINIMAL_SYNTH)
        with pytest.raises(ConfigError, match="exactly one"):
            RunConfig(split=base.split, katz=base.katz)


class TestWrongTypes:

    @pytest.mark.parametrize("block, key", [
        ("katz:\n  method: [1]\n", "method"),
        ("katz:\n  beta_mode: {a: 1}\n", "beta_mode"),
        ("ingest:\n  delimiter: 55\n", "ingest.delimiter"),
        ("ingest:\n  delimiter: ab\n", "ingest.delimiter"),
        ("ingest:\n  delimiter: '\"'\n", "ingest.delimiter"),
        ("output_dir: [1]\n", "output_dir"),
    ])
    def test_wrong_type_is_config_error_naming_the_key(self, block, key):
        with pytest.raises(ConfigError, match=key):
            parse_run_config(MINIMAL_SYNTH + block)

    def test_input_that_is_not_a_path_is_config_error(self):
        with pytest.raises(ConfigError, match="'input' must be a path"):
            parse_run_config(MINIMAL_INPUT.replace("movements.csv", "5"))

    def test_species_must_be_a_list_of_names(self):
        with pytest.raises(ConfigError, match="synth.species"):
            parse_run_config(MINIMAL_SYNTH.replace(
                "  seed: 1\n", "  seed: 1\n  species: 5\n"))
        cfg = parse_run_config(MINIMAL_SYNTH.replace(
            "  seed: 1\n", "  seed: 1\n  species: carp\n"))
        assert cfg.synth.species == ("carp",)


# Every key the parser knows, by the block it sits in (None: top level).
_PLACES = ([(None, key) for key in sorted(_TOP_KEYS)]
           + [("ingest", key) for key in sorted(_INGEST_KEYS)]
           + [("katz", key) for key in sorted(_KATZ_KEYS)]
           + [("synth", key) for key in sorted(_SYNTH_KEYS)]
           + [("split", key) for key in ("train", "val", "test")])
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-10**20, 10**20),
                     st.floats(), st.text(max_size=5))
_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=4),
                    st.dictionaries(st.text(max_size=3), _SCALARS,
                                    max_size=3))


@settings(max_examples=300, deadline=None)
@given(base=st.sampled_from([MINIMAL_SYNTH, MINIMAL_INPUT]),
       edits=st.lists(st.tuples(st.sampled_from(_PLACES), _VALUES),
                      min_size=1, max_size=4))
def test_fuzzed_config_parses_or_is_config_error(base, edits):
    doc = copy.deepcopy(yaml.safe_load(base))
    for (block, key), value in edits:
        if block is None:
            doc[key] = value
        else:
            if not isinstance(doc.get(block), dict):
                doc[block] = {}
            doc[block][key] = value
    try:
        cfg = parse_run_config(yaml.safe_dump(doc))
    except ConfigError:
        return
    except DataError as exc:
        # SplitSpec refuses reversed or overlapping years as a DataError
        # (TestSplitSemantics).
        assert "year interval" in str(exc) or "split intervals" in str(exc)
        return
    assert isinstance(cfg.delimiter, str) and len(cfg.delimiter) == 1
    assert cfg.input is None or isinstance(cfg.input, str)
    assert cfg.output_dir is None or isinstance(cfg.output_dir, str)
