"""Run configuration: one YAML file driving the whole pipeline.

The file either points at a movement file (``input``) or embeds a
``synth`` block to generate one. Everything else tunes the pipeline:
split years, scoring parameters, model list, tuning split, combination
rule and output location. Unknown keys are rejected so typos fail fast
instead of silently running defaults.

Each value is checked by the dataclass it lands in (``RunConfig``,
``SplitSpec``, ``KatzConfig``, ``SynthConfig``), so a config built in
code is checked by the same code as one read from YAML. This module
only maps the YAML blocks onto those dataclasses.
"""

import logging
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Optional

import yaml

from .errors import ConfigError, as_bool, as_int, as_interval, one_of
from .graphs import BAD_ROW_POLICIES, SplitSpec, delimiter_problem
from .katz import COMBINE_INPUTS, COMBINE_RULES, KatzConfig
from .synth import SynthConfig

log = logging.getLogger(__name__)

ALL_MODELS = ("KI", "WKI", "EWKI", "KIWKI", "KIEWKI", "WKIEWKI")
SCORE_BASES = ("train", "train+val")
TUNE_SPLITS = ("val", "test")


@dataclass(frozen=True)
class RunConfig:
    """Validated pipeline configuration plus the verbatim source text.

    ``models`` may be given as one model name; ``year_range`` is a
    [first, last] pair of years, which must hold a synth block's years.
    """
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
        def put(name, value):
            object.__setattr__(self, name, value)

        for name, kind in (("split", SplitSpec), ("katz", KatzConfig),
                           ("synth", SynthConfig)):
            value = getattr(self, name)
            if not (isinstance(value, kind)
                    or name == "synth" and value is None):
                raise ConfigError(
                    f"'{name}' must be a {kind.__name__}, got {value!r}")
        for name in ("input", "output_dir"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ConfigError(f"'{name}' must be a path, got {value!r}")
        if (self.input is None) == (self.synth is None):
            raise ConfigError(
                "exactly one of 'input' and 'synth' must be given")
        if self.schema is not None:
            if not isinstance(self.schema, dict):
                raise ConfigError(
                    f"'schema' must be a mapping, got {self.schema!r}")
            put("schema", {str(k): str(v) for k, v in self.schema.items()})
        one_of(self.on_bad_rows, BAD_ROW_POLICIES, "ingest.on_bad_rows")
        problem = delimiter_problem(self.delimiter, "ingest.delimiter")
        if problem is not None:
            raise ConfigError(problem)
        first, last = as_interval(self.year_range, "ingest.year_range",
                                  single=False)
        if first > last:
            raise ConfigError(
                f"ingest.year_range [{first}, {last}] is reversed: "
                "the first year must not be after the last")
        put("year_range", (first, last))
        if self.synth is not None and not (
                first <= self.synth.years[0] <= self.synth.years[1] <= last):
            raise ConfigError(
                f"synth.years {list(self.synth.years)} are not inside "
                f"ingest.year_range [{first}, {last}]")

        models = ((self.models,) if isinstance(self.models, str)
                  else self.models)
        if not isinstance(models, (list, tuple)):
            raise ConfigError(f"'models' must be a list, got {models!r}")
        if not models:
            raise ConfigError("model list must be non-empty")
        bad = [m for m in models if m not in ALL_MODELS]
        if bad:
            raise ConfigError(
                f"unknown model(s) {bad}; valid models: {list(ALL_MODELS)}")
        if len(set(models)) != len(models):
            raise ConfigError("model list contains duplicates")
        put("models", tuple(models))

        one_of(self.score_basis, SCORE_BASES, "score_basis")
        one_of(self.tune_on, TUNE_SPLITS, "tune_on")
        one_of(self.combine_rule, COMBINE_RULES, "combine_rule")
        one_of(self.combine_on, COMBINE_INPUTS, "combine_on")
        as_bool(self.directed, "directed")
        put("workers", as_int(self.workers, "workers"))
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if not isinstance(self.source_text, str):
            raise ConfigError(
                f"'source_text' must be text, got {self.source_text!r}")


def _names(cls):
    return {f.name for f in fields(cls)}


_INGEST_KEYS = {"on_bad_rows", "delimiter", "year_range"}
_TOP_KEYS = _names(RunConfig) - _INGEST_KEYS - {"source_text"} | {"ingest"}
_SPLIT_KEYS = ("train", "val", "test")
_KATZ_KEYS = _names(KatzConfig)
_SYNTH_KEYS = _names(SynthConfig)
_SYNTH_REQUIRED = [f.name for f in fields(SynthConfig)
                   if f.default is MISSING and f.default_factory is MISSING]

# YAML 1.1 reads a plain 1e-10 (no dot) as text, as it reads a quoted
# number; these keys, and each synth.bbox entry, take such text as the
# float it spells.
_REAL_KEYS = {"alpha", "beta", "series_tolerance", "spectral_tol", "gamma",
              "decay_rate", "hub_bias", "repeat_edge_prob"}


def _real_text(value):
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            pass
    return value


def _block(value, name, keys, required=()):
    """``value`` as block ``name``: a mapping of only ``keys`` that has
    every key in ``required``, with number text read under _REAL_KEYS."""
    if not isinstance(value, dict):
        raise ConfigError(f"'{name}' must be a mapping, got {value!r}")
    unknown = sorted(map(str, set(value) - set(keys)))
    if unknown:
        raise ConfigError(f"unknown key(s) in '{name}': {', '.join(unknown)}")
    missing = [key for key in required if key not in value]
    if missing:
        raise ConfigError(f"{name} block is missing: {', '.join(missing)}")
    return {key: _real_text(v) if key in _REAL_KEYS else v
            for key, v in value.items()}


def _synth_config(value):
    block = _block(value, "synth", _SYNTH_KEYS, _SYNTH_REQUIRED)
    if isinstance(block["bbox"], list):
        block["bbox"] = [_real_text(v) for v in block["bbox"]]
    return SynthConfig(**block)


def _load_yaml(text):
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}")
    return {} if raw is None else raw


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")


def parse_run_config(text):
    """Parse and validate run-config YAML text into a RunConfig."""
    raw = _block(_load_yaml(text), "config", _TOP_KEYS)
    if "split" not in raw:
        raise ConfigError("config requires a 'split' block")
    split = _block(raw.pop("split"), "split", _SPLIT_KEYS, _SPLIT_KEYS)
    katz = _block(raw.pop("katz", None) or {}, "katz", _KATZ_KEYS)
    ingest = _block(raw.pop("ingest", None) or {}, "ingest", _INGEST_KEYS)
    if "synth" in raw:
        raw["synth"] = _synth_config(raw["synth"])
    return RunConfig(
        split=SplitSpec(**{f"{key}_years": v for key, v in split.items()}),
        katz=KatzConfig(**katz), source_text=text, **ingest, **raw)


def load_run_config(path, out_override=None, seed_override=None):
    """Load a run config from disk, applying CLI overrides.

    ``out_override`` replaces the output directory; ``seed_override``
    replaces the synth seed (and is ignored, with a warning, for
    file-input runs, which involve no randomness).
    """
    cfg = parse_run_config(_read(path))
    if out_override is not None:
        cfg = replace(cfg, output_dir=str(out_override))
    if seed_override is not None:
        if cfg.synth is None:
            log.warning("--seed-override ignored: the run ingests a file "
                        "and uses no randomness")
        else:
            cfg = replace(cfg, synth=replace(cfg.synth, seed=seed_override))
    return cfg


def load_synth_config(path, out_override=None, seed_override=None):
    """Load the ``synth`` block of a config file, or the whole file when
    it is a bare synth mapping, applying CLI overrides.

    Keys outside the synth block are ignored, except ``output_dir``.
    Returns (SynthConfig, output directory or None).
    """
    raw = _load_yaml(_read(path))
    block = raw.get("synth", raw) if isinstance(raw, dict) else raw
    if isinstance(block, dict):
        block = {k: v for k, v in block.items() if k != "output_dir"}
    cfg = _synth_config(block)
    if seed_override is not None:
        cfg = replace(cfg, seed=seed_override)
    if out_override is not None:
        return cfg, str(out_override)
    out_dir = raw.get("output_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError(f"'output_dir' must be a path, got {out_dir!r}")
    return cfg, out_dir
