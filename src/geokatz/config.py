"""Run configuration: one YAML file driving the whole pipeline.

The file either points at a movement file (``input``) or embeds a
``synth`` block to generate one. Everything else tunes the pipeline:
split years, scoring parameters, model list, tuning split, combination
rule and output location. Unknown keys are rejected so typos fail fast
instead of silently running defaults.
"""

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import yaml

from .errors import ConfigError
from .graphs import BAD_ROW_POLICIES, SplitSpec, delimiter_problem
from .katz import COMBINE_INPUTS, COMBINE_RULES, KatzConfig
from .synth import SynthConfig

log = logging.getLogger(__name__)

ALL_MODELS = ("KI", "WKI", "EWKI", "KIWKI", "KIEWKI", "WKIEWKI")
SCORE_BASES = ("train", "train+val")
TUNE_SPLITS = ("val", "test")

_TOP_KEYS = {"input", "synth", "schema", "ingest", "split", "katz",
             "models", "score_basis", "tune_on", "combine_rule",
             "combine_on", "directed", "workers", "output_dir"}
_INGEST_KEYS = {"on_bad_rows", "delimiter", "year_range"}
_KATZ_KEYS = {"beta_mode", "alpha", "beta", "method", "max_walk_length",
              "series_tolerance", "gamma", "wki_transform", "spectral_tol",
              "spectral_max_iter", "solve_max_nodes"}
_SYNTH_KEYS = {"seed", "n_nodes", "years", "bbox", "movements_per_year",
               "decay_rate", "hub_bias", "repeat_edge_prob", "species"}


@dataclass(frozen=True)
class RunConfig:
    """Validated pipeline configuration plus the verbatim source text."""
    split: SplitSpec
    katz: KatzConfig
    input: Optional[str] = None
    synth: Optional[SynthConfig] = None
    schema: Optional[dict] = None
    on_bad_rows: str = "abort"
    delimiter: str = ","
    year_range: tuple = (1900, 2100)
    models: tuple = ALL_MODELS
    score_basis: str = "train"
    tune_on: str = "val"
    combine_rule: str = "mean"
    combine_on: str = "normalized"
    directed: bool = True
    workers: int = 1
    output_dir: Optional[str] = None
    source_text: str = field(default="", repr=False)

    def __post_init__(self):
        if (self.input is None) == (self.synth is None):
            raise ConfigError(
                "exactly one of 'input' and 'synth' must be given")
        if self.on_bad_rows not in BAD_ROW_POLICIES:
            raise ConfigError(
                f"ingest.on_bad_rows must be one of {BAD_ROW_POLICIES}, "
                f"got {self.on_bad_rows!r}")
        if not self.models:
            raise ConfigError("model list must be non-empty")
        bad = [m for m in self.models if m not in ALL_MODELS]
        if bad:
            raise ConfigError(
                f"unknown model(s) {bad}; valid models: {list(ALL_MODELS)}")
        if len(set(self.models)) != len(self.models):
            raise ConfigError("model list contains duplicates")
        if self.score_basis not in SCORE_BASES:
            raise ConfigError(
                f"score_basis must be one of {SCORE_BASES}, "
                f"got {self.score_basis!r}")
        if self.tune_on not in TUNE_SPLITS:
            raise ConfigError(
                f"tune_on must be one of {TUNE_SPLITS}, "
                f"got {self.tune_on!r}")
        if self.combine_rule not in COMBINE_RULES:
            raise ConfigError(
                f"combine_rule must be one of {COMBINE_RULES}, "
                f"got {self.combine_rule!r}")
        if self.combine_on not in COMBINE_INPUTS:
            raise ConfigError(
                f"combine_on must be one of {COMBINE_INPUTS}, "
                f"got {self.combine_on!r}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        first, last = self.year_range
        if first > last:
            raise ConfigError(
                f"ingest.year_range [{first}, {last}] is reversed: "
                "the first year must not be after the last")


def _require_mapping(value, name):
    if not isinstance(value, dict):
        raise ConfigError(f"'{name}' must be a mapping, got {value!r}")
    return value


def _reject_unknown(mapping, allowed, name):
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in '{name}': {', '.join(unknown)}")


def _as_float(value, key):
    """Coerce YAML scalars to a finite float.

    Plain-style '1e-10' parses as str and is accepted; booleans, NaN
    and infinity are refused.
    """
    if isinstance(value, bool):
        raise ConfigError(f"'{key}' must be a number, got {value!r}")
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"'{key}' must be a number, got {value!r}")
    if not math.isfinite(number):
        raise ConfigError(f"'{key}' must be finite, got {value!r}")
    return number


def _as_int(value, key):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{key}' must be an integer, got {value!r}")
    return value


def _as_bool(value, key):
    if not isinstance(value, bool):
        raise ConfigError(f"'{key}' must be true or false, got {value!r}")
    return value


def _as_interval(value, key):
    """A year interval: [lo, hi] or a single year."""
    if isinstance(value, int) and not isinstance(value, bool):
        return (value, value)
    if (isinstance(value, (list, tuple)) and len(value) == 2
            and all(isinstance(v, int) and not isinstance(v, bool)
                    for v in value)):
        return (value[0], value[1])
    raise ConfigError(
        f"'{key}' must be a year or a [first, last] pair, got {value!r}")


def _parse_split(block):
    block = _require_mapping(block, "split")
    _reject_unknown(block, {"train", "val", "test"}, "split")
    missing = [k for k in ("train", "val", "test") if k not in block]
    if missing:
        raise ConfigError(f"split block is missing: {', '.join(missing)}")
    return SplitSpec(train_years=_as_interval(block["train"], "split.train"),
                     val_years=_as_interval(block["val"], "split.val"),
                     test_years=_as_interval(block["test"], "split.test"))


def _parse_katz(block):
    block = _require_mapping(block, "katz") if block else {}
    _reject_unknown(block, _KATZ_KEYS, "katz")
    kwargs = dict(block)
    for key in ("alpha", "beta", "series_tolerance", "spectral_tol"):
        if kwargs.get(key) is not None:
            kwargs[key] = _as_float(kwargs[key], f"katz.{key}")
    for key in ("max_walk_length", "spectral_max_iter", "solve_max_nodes"):
        if key in kwargs:
            kwargs[key] = _as_int(kwargs[key], f"katz.{key}")
    if "gamma" in kwargs and kwargs["gamma"] != "tune":
        kwargs["gamma"] = _as_float(kwargs["gamma"], "katz.gamma")
    return KatzConfig(**kwargs)


def _parse_synth(block):
    block = _require_mapping(block, "synth")
    _reject_unknown(block, _SYNTH_KEYS, "synth")
    kwargs = dict(block)
    for key in ("seed", "n_nodes"):
        if key not in kwargs:
            raise ConfigError(f"synth block requires '{key}'")
        kwargs[key] = _as_int(kwargs[key], f"synth.{key}")
    if "years" not in kwargs or "bbox" not in kwargs:
        raise ConfigError("synth block requires 'years' and 'bbox'")
    kwargs["years"] = _as_interval(kwargs["years"], "synth.years")
    bbox = kwargs["bbox"]
    if not (isinstance(bbox, (list, tuple)) and len(bbox) == 4):
        raise ConfigError(
            "synth.bbox must be [lat_min, lat_max, lon_min, lon_max]")
    kwargs["bbox"] = tuple(_as_float(v, "synth.bbox") for v in bbox)
    if "movements_per_year" not in kwargs:
        raise ConfigError("synth block requires 'movements_per_year'")
    mpy = kwargs["movements_per_year"]
    if isinstance(mpy, list):
        kwargs["movements_per_year"] = [_as_int(v, "movements_per_year")
                                        for v in mpy]
    else:
        kwargs["movements_per_year"] = _as_int(mpy, "movements_per_year")
    for key in ("decay_rate", "hub_bias", "repeat_edge_prob"):
        if key in kwargs:
            kwargs[key] = _as_float(kwargs[key], f"synth.{key}")
    if "species" in kwargs:
        species = kwargs["species"]
        if isinstance(species, str):
            species = [species]
        if not (isinstance(species, list)
                and all(isinstance(s, str) for s in species)):
            raise ConfigError(
                f"synth.species must be a list of names, got {species!r}")
        kwargs["species"] = tuple(species)
    return SynthConfig(**kwargs)


def parse_run_config(text):
    """Parse and validate run-config YAML text into a RunConfig."""
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}")
    raw = _require_mapping(raw if raw is not None else {}, "config")
    _reject_unknown(raw, _TOP_KEYS, "config")
    if "split" not in raw:
        raise ConfigError("config requires a 'split' block")

    ingest = _require_mapping(raw.get("ingest") or {}, "ingest")
    _reject_unknown(ingest, _INGEST_KEYS, "ingest")
    year_range = ingest.get("year_range", (1900, 2100))
    if not isinstance(year_range, tuple):
        if not (isinstance(year_range, list) and len(year_range) == 2):
            raise ConfigError("ingest.year_range must be [first, last]")
        year_range = (
            _as_int(year_range[0], "year_range"),
            _as_int(year_range[1], "year_range"))

    delimiter = ingest.get("delimiter", ",")
    problem = delimiter_problem(delimiter, "ingest.delimiter")
    if problem is not None:
        raise ConfigError(problem)
    for key in ("input", "output_dir"):
        if raw.get(key) is not None and not isinstance(raw[key], str):
            raise ConfigError(f"'{key}' must be a path, got {raw[key]!r}")

    schema = raw.get("schema")
    if schema is not None:
        schema = {str(k): str(v)
                  for k, v in _require_mapping(schema, "schema").items()}

    models = raw.get("models", list(ALL_MODELS))
    if isinstance(models, str):
        models = [models]
    if not isinstance(models, list):
        raise ConfigError(f"'models' must be a list, got {models!r}")

    workers = raw.get("workers", 1)

    return RunConfig(
        split=_parse_split(raw["split"]),
        katz=_parse_katz(raw.get("katz")),
        input=raw.get("input"),
        synth=_parse_synth(raw["synth"]) if "synth" in raw else None,
        schema=schema,
        on_bad_rows=ingest.get("on_bad_rows", "abort"),
        delimiter=delimiter,
        year_range=year_range,
        models=tuple(str(m) for m in models),
        score_basis=raw.get("score_basis", "train"),
        tune_on=raw.get("tune_on", "val"),
        combine_rule=raw.get("combine_rule", "mean"),
        combine_on=raw.get("combine_on", "normalized"),
        directed=_as_bool(raw.get("directed", True), "directed"),
        workers=_as_int(workers, "workers"),
        output_dir=raw.get("output_dir"),
        source_text=text)


def load_run_config(path, out_override=None, seed_override=None):
    """Load a run config from disk, applying CLI overrides.

    ``out_override`` replaces the output directory; ``seed_override``
    replaces the synth seed (and is ignored, with a warning, for
    file-input runs, which involve no randomness).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    cfg = parse_run_config(text)
    if out_override is not None:
        cfg = replace(cfg, output_dir=str(out_override))
    if seed_override is not None:
        if cfg.synth is None:
            log.warning("--seed-override ignored: the run ingests a file "
                        "and uses no randomness")
        else:
            cfg = replace(cfg, synth=replace(cfg.synth, seed=seed_override))
    return cfg
