"""Command-line entry points.

Subcommands: ``run`` (full pipeline), ``synth`` (generate a fixture),
``score`` (score tables only) and ``eval`` (metrics for an existing
score table). All are driven by a YAML config file; flags only override
the output directory, the synth seed, and logging. Exit codes: 0
success, 1 configuration error, 2 data error, 3 numeric error.
"""

import argparse
import logging
import sys
from pathlib import Path

from . import katz, metrics, pipeline, synth
from .config import load_run_config, load_synth_config
from .errors import ConfigError, DataError, GeokatzError, as_real
from .graphs import candidate_pairs

log = logging.getLogger(__name__)


def _add_common(sub):
    sub.add_argument("--config", required=True,
                     help="path to the YAML run config")
    sub.add_argument("--out", default=None,
                     help="output directory (overrides output_dir in the "
                          "config)")
    sub.add_argument("--seed-override", type=int, default=None,
                     help="replace the synth block's seed")
    sub.add_argument("--log-level", default="info",
                     choices=("debug", "info", "warning", "error"),
                     help="stderr logging verbosity")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="geokatz",
        description="Walk-count link prediction on geolocated temporal "
                    "networks: scoring, threshold tuning and evaluation.")
    subs = parser.add_subparsers(dest="command", required=True)

    _add_common(subs.add_parser(
        "run", help="full pipeline: ingest, split, score, tune, evaluate"))
    _add_common(subs.add_parser(
        "synth", help="generate a synthetic movement fixture and its "
                      "ground truth"))
    _add_common(subs.add_parser(
        "score", help="compute and export score tables without evaluating"))

    ev = subs.add_parser(
        "eval", help="evaluate an exported score table against the "
                     "config's test universe")
    _add_common(ev)
    ev.add_argument("--scores", required=True,
                    help="path to an exported score table CSV")
    group = ev.add_mutually_exclusive_group(required=True)
    group.add_argument("--threshold", type=float, default=None,
                       help="decision threshold on normalized scores "
                            "(finite)")
    group.add_argument("--tune", action="store_true",
                       help="sweep the optimal F1 threshold on the "
                            "evaluation universe itself")
    return parser


def _require_out(out_dir):
    if not out_dir:
        raise ConfigError(
            "an output directory is required: set output_dir in the "
            "config or pass --out")
    return out_dir


def _cmd_run(args):
    cfg = load_run_config(args.config, args.out, args.seed_override)
    _require_out(cfg.output_dir)
    result = pipeline.run(cfg)
    log.info("run complete: %d model(s) evaluated, artifacts in %s",
             len(result.reports), result.out_dir)
    return 0


def _cmd_score(args):
    cfg = load_run_config(args.config, args.out, args.seed_override)
    _require_out(cfg.output_dir)
    result = pipeline.run_scores_only(cfg)
    log.info("scoring complete: %d table(s) written to %s",
             len(result.tables), result.out_dir)
    return 0


def _cmd_synth(args):
    scfg, out_dir = load_synth_config(args.config, args.out,
                                      args.seed_override)
    out_dir = Path(_require_out(out_dir))
    out_dir.mkdir(parents=True, exist_ok=True)
    report, truth = synth.generate(scfg)
    synth.write_movements(report, out_dir / "movements.csv")
    synth.write_truth(truth, out_dir / "truth.json")
    log.info("wrote %d movements and ground truth to %s",
             report.accepted, out_dir)
    return 0


def _cmd_eval(args):
    # A non-finite threshold would reach the report as a bare NaN or
    # Infinity token, which is not JSON.
    threshold = None if args.tune else as_real(args.threshold, "--threshold")
    cfg = load_run_config(args.config, args.out, args.seed_override)
    net, _, _, test = pipeline._build_data(cfg, None)
    universe = candidate_pairs(test)
    table = katz.read_score_table(args.scores, universe, net.registry)
    if args.tune:
        _, tuned_f1, report = metrics._tune_and_evaluate(
            table, table.model, {"tuned_on": "eval-universe"})
        report.info["tuning_f1"] = tuned_f1
    else:
        report = metrics.evaluate(table, threshold=threshold)
    if cfg.output_dir:
        name = report.model or "table"
        if Path(name).name != name or name in (".", "..") or "\0" in name:
            raise DataError(
                f"score table model {name!r} cannot name a file: its "
                "report and curves would be written outside --out")
        out_dir = Path(cfg.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        metrics._write_evaluation(report, out_dir, name)
        log.info("evaluation written to %s", out_dir)
    else:
        metrics.write_report(report, sys.stdout)
    return 0


_COMMANDS = {"run": _cmd_run, "synth": _cmd_synth, "score": _cmd_score,
             "eval": _cmd_eval}


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return _COMMANDS[args.command](args)
    except GeokatzError as exc:
        log.error("%s", exc)
        return exc.exit_code
    except Exception:
        log.exception("unexpected failure")
        return 1


if __name__ == "__main__":
    sys.exit(main())
