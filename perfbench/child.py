"""The measuring process: set up, say so, then run the closed loop.

Usage: python3 perfbench/child.py MODE TRACE SECONDS SPANS_DIR OUT_DIR \\
           CONFIG [CONFIG ...]

The process imports geokatz and loads the first run config, then prints
``ready``: the parent times set-up from starting this process to that
line, so nothing of the benchmark runs before it but this file's first
lines (and, with TRACE 1, the tracer). MODE ``setup`` stops there.
MODE ``loop`` runs ``pipeline.run`` back to back over the configs in
turn, in whole cycles, while another cycle still fits in SECONDS (at
least one); MODE ``once`` runs each config once. OUT_DIR is the
artifact directory, or ``-`` for none. The last line printed is one
JSON object: per run, the input's position in the config list, the
wall time, the time of the calibration work run next to it
(``calibration.py``; the mean of the calibrations just before and just
after the run) and a digest of the output for the checks.

MODE ``loop`` starts with one untimed warm-up run of the first config.
``ru_maxrss`` never falls, so only the first run of a process has a
peak resident memory of its own; that run's peak is reported, and no
calibration runs before it.
"""

import sys


def set_up(first_config, out_dir, trace):
    import geokatz
    from geokatz import config, pipeline

    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    cfg = config.load_run_config(first_config, out_override=out_dir)
    return geokatz, config, pipeline, cfg, tracer


def _sha256(path):
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _digest(result, out_dir, ingest):
    """What the checks compare: reports, sizes, Katz info, artifacts."""
    import os

    reports = {}
    for model, rep in result.reports.items():
        cm = rep.confusion
        reports[model] = {
            "confusion": [cm.tp, cm.fp, cm.fn, cm.tn],
            "threshold": rep.threshold, "f1": rep.f1, "auroc": rep.auroc,
            "aupr": rep.aupr, "average_precision": rep.average_precision}
    ki = result.tables.get("KI")
    digest = {
        "reports": reports,
        "universes": result.summary["universes"],
        "network": result.summary["network"],
        "ki_info": {key: ki.info.get(key)
                    for key in ("method", "spectral_converged")}
        if ki is not None else {},
        "ingest": ingest,
    }
    if out_dir is not None:
        names = sorted(os.listdir(out_dir))
        digest["artifacts"] = {name: _sha256(os.path.join(out_dir, name))
                               for name in names}
        digest["artifact_bytes"] = sum(
            os.path.getsize(os.path.join(out_dir, name)) for name in names)
    return digest


def _count_rows(ingest):
    """Wrapper factory that adds each ingest report's counts to ``ingest``.

    Every run is checked against the number of malformed rows the
    generator injected; with tracing on, this wraps the tracer's wrapper.
    """
    def wrap(fn):
        def counted(*args, **kwargs):
            report = fn(*args, **kwargs)
            ingest["accepted"] = ingest.get("accepted", 0) + report.accepted
            ingest["rejected"] = ingest.get("rejected", 0) + report.rejected
            return report
        return counted
    return wrap


def main(mode, trace, seconds, spans_dir, out_dir, configs):
    geokatz, config, pipeline, first, tracer = set_up(
        configs[0], out_dir, trace)
    print("ready", flush=True)
    if mode == "setup":
        return None

    import os
    import resource
    import shutil
    import statistics
    import time
    import traceback

    import calibration
    import spans

    cfgs = [first] + [config.load_run_config(path, out_override=out_dir)
                      for path in configs[1:]]
    ingest = {}
    spans.patch_everywhere("geokatz.graphs", "ingest_movements",
                           _count_rows(ingest))
    runs, cycles = [], []
    before = None

    def run_once(position):
        nonlocal before
        ingest.clear()
        if out_dir is not None:
            shutil.rmtree(out_dir, ignore_errors=True)
        entry = {"input": position}
        try:
            start = time.perf_counter()
            result = pipeline.run(cfgs[position])
            entry["run_s"] = time.perf_counter() - start
        except Exception:  # a failed run is counted, and the loop goes on
            entry["error"] = traceback.format_exc().splitlines()[-1]
        if not runs:
            entry["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        # The calibrations on both sides of the run, averaged; the first
        # run has none before it, to keep its peak memory clean.
        after = calibration.calibrate()
        entry["calibration_s"] = after if before is None \
            else (before + after) / 2
        before = after
        if "error" not in entry:
            if tracer is not None:
                entry["layers"] = spans.layer_metrics(tracer.spans)
                tracer.write(os.path.join(spans_dir,
                                          f"run-{len(runs) + 1}.json"))
            entry["digest"] = _digest(result, out_dir, dict(ingest))
            del result
        if tracer is not None:
            tracer.next_run()
        if out_dir is not None:
            shutil.rmtree(out_dir, ignore_errors=True)
        runs.append(entry)
        return entry

    if mode == "loop":
        # An untimed first run lets lazy imports and caches settle, as
        # they have for a caller that ran before; it is still checked,
        # and its peak memory is the one reported.
        run_once(0)["warmup"] = True
    loop_start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for position in range(len(cfgs)):
            run_once(position)
        cycles.append(time.perf_counter() - cycle_start)
        elapsed = time.perf_counter() - loop_start
        if mode == "once" or elapsed + statistics.median(cycles) > seconds:
            break
    import numpy
    import scipy
    return {
        "runs": runs,
        "missing": tracer.missing if tracer is not None else [],
        "provenance": {
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "kernel_backend": getattr(geokatz, "kernel_backend", None)}}


if __name__ == "__main__":
    mode, trace, seconds, spans_dir, out_dir, *configs = sys.argv[1:]
    out = main(mode, trace == "1", float(seconds), spans_dir,
               None if out_dir == "-" else out_dir, configs)
    if out is not None:
        import json
        print(json.dumps(out))
