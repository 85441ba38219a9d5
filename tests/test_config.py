"""Unit tests for run-configuration parsing and CLI overrides."""

import copy
import logging
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from geokatz.config import (_INGEST_KEYS, _KATZ_KEYS, _SYNTH_KEYS, _TOP_KEYS,
                            ALL_MODELS, RunConfig, load_run_config,
                            parse_run_config)
from geokatz.errors import ConfigError, DataError
from geokatz.geo import WEIGHT_TRANSFORMS
from geokatz.graphs import SplitSpec, ingest_movements
from geokatz.katz import BETA_MODES, METHODS, KatzConfig
from geokatz.synth import SynthConfig

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
        with pytest.raises(ConfigError,
                           match=f"'katz.{key}' must be a real num"):
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

    def test_undecodable_file_is_config_error(self, tmp_path):
        path = tmp_path / "latin1.yaml"
        path.write_bytes(MINIMAL_SYNTH.encode() + b"# caf\xe9\n")
        with pytest.raises(ConfigError, match="cannot read config"):
            load_run_config(path)

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


def _edited(base, edits):
    doc = copy.deepcopy(yaml.safe_load(base))
    for (block, key), value in edits:
        if block is None:
            doc[key] = value
        else:
            if not isinstance(doc.get(block), dict):
                doc[block] = {}
            doc[block][key] = value
    return yaml.safe_dump(doc)


def _outcome(parse, text):
    try:
        return parse(text)
    except (ConfigError, DataError):
        return "refused"


@settings(max_examples=300, deadline=None)
@given(base=st.sampled_from([MINIMAL_SYNTH, MINIMAL_INPUT]),
       edits=st.lists(st.tuples(st.sampled_from(_PLACES), _VALUES),
                      min_size=1, max_size=4))
def test_fuzzed_config_parses_like_the_keyed_parser(base, edits):
    text = _edited(base, edits)
    assert (_outcome(parse_run_config, text)
            == _outcome(oracles.keyed_parse_run_config, text))


# (block, key, quoted text, the float it must parse to or None when an
# integer key refuses text). bbox entries are placed by index.
_QUOTED = ([("katz", key, "0.25", 0.25)
            for key in ("alpha", "beta", "gamma")]
           + [("katz", key, "1e-9", 1e-9)
              for key in ("series_tolerance", "spectral_tol")]
           + [("katz", key, "5", None)
              for key in ("max_walk_length", "spectral_max_iter",
                          "solve_max_nodes")]
           + [("synth", key, "0.25", 0.25)
              for key in ("decay_rate", "hub_bias", "repeat_edge_prob")]
           + [("synth", key, "20", None)
              for key in ("seed", "n_nodes", "movements_per_year")]
           + [("synth", ("bbox", i), text, value) for i, text, value in (
               (0, "50.5", 50.5), (1, "51", 51.0), (2, "-1.0e0", -1.0),
               (3, "0", 0.0))]
           + [("synth", "years", "2019", None), (None, "workers", "2", None),
              ("split", "test", "2021", None),
              ("ingest", "year_range", ["1990", 2030], None)])


@pytest.mark.parametrize("block,key,text,value", _QUOTED)
def test_quoted_number_parses_like_the_keyed_parser(block, key, text, value):
    name, index = key if isinstance(key, tuple) else (key, None)
    doc = yaml.safe_load(MINIMAL_SYNTH)
    place = doc if block is None else doc.setdefault(block, {})
    if index is None:
        place[name] = text
    else:
        place[name][index] = text
    source = yaml.safe_dump(doc)
    got = _outcome(parse_run_config, source)
    assert got == _outcome(oracles.keyed_parse_run_config, source)
    if value is None:
        assert got == "refused"
    else:
        parsed = getattr(getattr(got, block), name)
        assert (parsed if index is None else parsed[index]) == value


# Field values for direct construction: values of the kinds the
# fields take, with the edge cases of each, and values of other kinds.
_SPLIT = SplitSpec(train_years=(2019, 2019), val_years=(2020, 2020),
                   test_years=(2021, 2021))
_SYNTH = SynthConfig(seed=1, n_nodes=10, years=(2019, 2021),
                     bbox=(50.0, 51.0, -1.0, 0.0), movements_per_year=20)
_YEARS = st.one_of(st.integers(2000, 2030),
                   st.tuples(st.integers(2000, 2030),
                             st.integers(2000, 2030)))
_FIELD_VALUES = st.one_of(
    _VALUES, _YEARS, st.floats(-2, 2), st.floats(),
    st.tuples(_SCALARS, _SCALARS),
    st.tuples(st.integers(1990, 2030), st.floats(1990, 2030)),
    st.lists(st.integers(-1, 9), max_size=4),
    st.lists(st.floats(-200, 200), min_size=4, max_size=4),
    st.sampled_from(BETA_MODES + METHODS + WEIGHT_TRANSFORMS + ALL_MODELS
                    + ("tune", "fraction", "series", "skip", ";", "carp",
                       "train+val", "test", "max", "raw")),
    st.lists(st.sampled_from(ALL_MODELS), max_size=3),
    st.just(_SPLIT), st.just(KatzConfig()), st.just(_SYNTH))


_UNIT = st.one_of(st.floats(0.01, 0.99), st.floats(0.01, 0.99).map(np.float64))
_COUNT = st.one_of(st.integers(1, 9), st.integers(1, 9).map(np.int64))
# Values each field takes, in every accepted form.
_TAKES = {
    "beta_mode": st.sampled_from(BETA_MODES + ("fraction",)),
    "method": st.sampled_from(METHODS + ("series", "solve")),
    "alpha": _UNIT, "beta": st.one_of(st.none(), _UNIT),
    "series_tolerance": _UNIT, "spectral_tol": _UNIT,
    "gamma": st.one_of(st.just("tune"), _UNIT, st.integers(0, 2)),
    "max_walk_length": _COUNT, "spectral_max_iter": _COUNT,
    "solve_max_nodes": _COUNT,
    "wki_transform": st.sampled_from(WEIGHT_TRANSFORMS),
    "seed": _COUNT, "n_nodes": _COUNT, "years": _YEARS,
    "bbox": st.tuples(st.integers(40, 49), st.floats(50, 60),
                      st.floats(-10, -1), _UNIT),
    "movements_per_year": st.one_of(st.integers(0, 9),
                                    st.lists(st.integers(0, 9))),
    "decay_rate": _UNIT, "hub_bias": _UNIT, "repeat_edge_prob": _UNIT,
    "species": st.one_of(st.text(max_size=4),
                         st.lists(st.text(max_size=4), min_size=1)),
    "split": st.just(_SPLIT), "katz": st.just(KatzConfig()),
    "synth": st.one_of(st.none(), st.just(_SYNTH)),
    "input": st.one_of(st.none(), st.just("m.csv")),
    "schema": st.one_of(st.none(), st.dictionaries(_SCALARS, _SCALARS)),
    "on_bad_rows": st.sampled_from(("abort", "skip")),
    "delimiter": st.sampled_from(",;\t|"),
    "year_range": _YEARS.filter(lambda v: isinstance(v, tuple)),
    "models": st.one_of(st.sampled_from(ALL_MODELS),
                        st.lists(st.sampled_from(ALL_MODELS), max_size=3)),
    "score_basis": st.sampled_from(("train", "train+val")),
    "tune_on": st.sampled_from(("val", "test")),
    "combine_rule": st.sampled_from(("mean", "product", "max")),
    "combine_on": st.sampled_from(("normalized", "raw")),
    "directed": st.booleans(), "workers": _COUNT,
    "output_dir": st.one_of(st.none(), st.just("out")),
    "source_text": st.text(max_size=5),
}


def _edits(cls):
    """1-3 fields of ``cls``, each set to a value of a kind it takes
    or to any other value."""
    names = sorted(f.name for f in fields(cls))
    edit = st.sampled_from(names).flatmap(lambda name: st.tuples(
        st.just(name), st.one_of(_TAKES[name], _FIELD_VALUES)))
    return st.lists(edit, min_size=1, max_size=3).map(dict)


def _is_real(value):
    return type(value) is float and math.isfinite(value)


def _is_int(value):
    return type(value) is int


@settings(max_examples=300, deadline=None)
@given(edits=_edits(KatzConfig))
def test_katz_config_builds_well_typed_or_is_refused(edits):
    try:
        cfg = KatzConfig(**edits)
    except ConfigError:
        return
    assert cfg.beta_mode in BETA_MODES and cfg.method in METHODS
    assert cfg.wki_transform in WEIGHT_TRANSFORMS
    assert all(map(_is_real, (cfg.alpha, cfg.series_tolerance,
                              cfg.spectral_tol)))
    assert cfg.beta is None or _is_real(cfg.beta)
    assert cfg.gamma == "tune" or _is_real(cfg.gamma) and cfg.gamma >= 0
    assert all(map(_is_int, (cfg.max_walk_length, cfg.spectral_max_iter,
                             cfg.solve_max_nodes)))


@settings(max_examples=300, deadline=None)
@given(edits=_edits(SynthConfig))
def test_synth_config_builds_well_typed_or_is_refused(edits):
    try:
        cfg = replace(_SYNTH, **edits)
    except ConfigError:
        return
    assert _is_int(cfg.seed) and _is_int(cfg.n_nodes) and cfg.n_nodes >= 1
    assert type(cfg.years) is tuple and all(map(_is_int, cfg.years))
    assert cfg.years[0] <= cfg.years[1]
    assert type(cfg.bbox) is tuple and all(map(_is_real, cfg.bbox))
    # yearly_counts() is not called: the years may span 10**20.
    counts = cfg.movements_per_year
    if type(counts) is tuple:
        assert len(counts) == cfg.years[1] - cfg.years[0] + 1
    else:
        counts = (counts,)
    assert all(_is_int(c) and c >= 0 for c in counts)
    assert all(map(_is_real, (cfg.decay_rate, cfg.hub_bias,
                              cfg.repeat_edge_prob)))
    assert type(cfg.species) is tuple and cfg.species
    assert all(type(name) is str for name in cfg.species)


@settings(max_examples=300, deadline=None)
@given(edits=_edits(RunConfig))
def test_run_config_builds_well_typed_or_is_refused(edits):
    try:
        cfg = RunConfig(**{"split": _SPLIT, "katz": KatzConfig(),
                           "synth": _SYNTH, **edits})
    except (ConfigError, DataError):
        return
    assert isinstance(cfg.split, SplitSpec)
    assert isinstance(cfg.katz, KatzConfig)
    assert (cfg.input is None) != (cfg.synth is None)
    assert cfg.synth is None or isinstance(cfg.synth, SynthConfig)
    assert cfg.schema is None or all(
        type(k) is str and type(v) is str for k, v in cfg.schema.items())
    assert type(cfg.year_range) is tuple
    assert all(map(_is_int, cfg.year_range))
    assert cfg.year_range[0] <= cfg.year_range[1]
    assert type(cfg.models) is tuple and cfg.models
    assert set(cfg.models) <= set(ALL_MODELS)
    assert type(cfg.directed) is bool
    assert _is_int(cfg.workers) and cfg.workers >= 1
    for path in (cfg.input, cfg.output_dir):
        assert path is None or type(path) is str
    assert type(cfg.source_text) is str


class TestDirectConstructionChecks:
    """Values a library caller could pass that YAML parsing never
    produced: each was accepted before the dataclasses checked their
    own fields."""

    def test_species_string_is_one_name(self):
        assert replace(_SYNTH, species="carp").species == ("carp",)

    def test_bool_movement_count_refused(self):
        with pytest.raises(ConfigError, match="synth.movements_per_year"):
            replace(_SYNTH, movements_per_year=True)

    @pytest.mark.parametrize("key", ["hub_bias", "decay_rate"])
    def test_nan_synth_rate_refused(self, key):
        with pytest.raises(ConfigError, match=f"'synth.{key}' must be fin"):
            replace(_SYNTH, **{key: math.nan})

    def test_text_directed_refused(self):
        cfg = parse_run_config(MINIMAL_SYNTH)
        with pytest.raises(ConfigError, match="'directed' must be true"):
            replace(cfg, directed="no")

    def test_fractional_workers_refused(self):
        cfg = parse_run_config(MINIMAL_SYNTH)
        with pytest.raises(ConfigError, match="'workers' must be an integ"):
            replace(cfg, workers=2.5)

    def test_fractional_year_range_refused(self):
        cfg = parse_run_config(MINIMAL_SYNTH)
        with pytest.raises(ConfigError, match="ingest.year_range"):
            replace(cfg, year_range=(1990.5, 2030))
