"""geokatz benchmark: one workload, measured as a closed loop.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload national-export --seed 2026 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload national-export --record

``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json, which also
names every metric and its unit.

Each workload is one caller running ``pipeline.run`` back to back in
one Python process (see ``child.py``): the next run starts when the
previous one has returned. The seed picks eight of the workload's
inputs (``workloads.inputs``), and the process runs them in turn, in
whole cycles, while another cycle still fits in ``--seconds``; there is
always at least one. A mix of eight keeps any one input from setting
the result. The process's BLAS and OpenMP pools are pinned to one
thread, so the fixture's two workers stay within the two cores of the
reference machine.

Times are reported at the reference machine's speed: each timed run or
set-up is divided by the time of a fixed calibration work run next to
it and multiplied by that work's time on the reference machine (see
``calibration.py``). The host's speed drifts by 10-40% over minutes;
the ratio cancels most of that, and a change to the program still
moves it as it moves the wall time. The raw wall times are printed beside them.

With ``--trace 0`` the result carries the end-to-end metrics: the
median time of one run (``run_s``), the median set-up time
(``setup_s``: from starting a process until ``import geokatz`` and
``load_run_config`` have returned, in several fresh processes), and the
peak resident memory of the first run of the measuring process
(``peak_rss_mb``; that run is an untimed warm-up). With ``--trace 1``
an untraced and a traced process each run for half the time (at least
one cycle each), and the result carries the per-layer metrics of the
traced runs (medians, in wall seconds) plus ``trace.overhead_s``, the
traced minus the untraced median run time at reference speed, and
``host.calibration_s``, the median calibration time, which turns
reference-speed times back into wall times. Spans are written under
``.perfbench/spans``.

Every run's output is checked against the reference committed for its
input in ``reference/<workload>.json``; a run that raised or failed a
check counts in ``failed`` and its timings are dropped. The last line
printed is the JSON result. ``--record`` runs every input of the
workload once, applies the checks that need no reference, and writes
that file anew: do so only after an intended change of output, and
verify the new outputs first.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import workloads  # noqa: E402

# Set-up-only processes; the measuring process adds one more sample.
SETUP_SAMPLES = 4
# Budget of one invocation; a measuring process gets what is left of it.
TIME_LIMIT_S = 170.0
# Budget of recording the references of one workload.
RECORD_LIMIT_S = 1800.0
# Relative tolerance for the floats of an evaluation report: results are
# deterministic, so this only absorbs reordered floating-point sums.
REL_TOL = 1e-9
REPORT_FLOATS = ("threshold", "f1", "auroc", "aupr", "average_precision")

PIN_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def _child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = "0"
    for name in PIN_THREADS:
        env[name] = "1"
    return env


def at_reference_speed(seconds, calibration_s):
    return seconds / calibration_s * calibration.REFERENCE_S


class Runner:
    """Starts measuring processes for one workload."""

    def __init__(self, workload, label, deadline):
        self.deadline = deadline
        self.env = _child_env()
        self.spans_dir = STATE / "spans" / label
        self.out_dir = (STATE / "out" / label
                        if workloads.exports(workload) else None)

    def call(self, mode, configs, trace=False, seconds=0.0):
        """Run one child; return (result dict or None, error text).

        The result carries ``setup``: the seconds from starting the
        child until it was ready, and the calibration taken just before.
        """
        if trace:
            self.spans_dir.mkdir(parents=True, exist_ok=True)
        out_dir = "-" if self.out_dir is None or mode == "setup" \
            else str(self.out_dir)
        calibration_s = calibration.calibrate()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), mode, str(int(trace)),
             str(seconds), str(self.spans_dir), out_dir, *configs],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        watchdog = threading.Timer(
            max(self.deadline - time.perf_counter(), 1.0), proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            stdout, stderr = proc.communicate()
        finally:
            watchdog.cancel()
            if self.out_dir is not None:
                shutil.rmtree(self.out_dir, ignore_errors=True)
        if proc.returncode == -signal.SIGKILL:
            return None, f"{mode} process stopped at the time limit"
        if proc.returncode != 0 or ready.strip() != "ready":
            return None, (stderr.strip().splitlines()[-1:]
                          or [f"exit code {proc.returncode}"])
        result = json.loads(stdout.strip().splitlines()[-1]) \
            if mode != "setup" else {}
        result["setup"] = {"setup_s": setup_s,
                           "calibration_s": calibration_s}
        return result, None


def _close(a, b):
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def compare(digest, expected):
    """Differences between a run's digest and its input's reference."""
    if expected is None:
        return ["no committed reference for this input"]
    problems = []
    for key in ("universes", "network", "ki_info", "ingest", "artifacts"):
        if key in expected and digest.get(key) != expected[key]:
            problems.append(f"{key} differ from the reference")
    if set(digest["reports"]) != set(expected["reports"]):
        problems.append("models differ from the reference")
        return problems
    for model, rep in digest["reports"].items():
        ref = expected["reports"][model]
        if rep["confusion"] != ref["confusion"]:
            problems.append(f"{model} confusion differs from the reference")
        for key in REPORT_FLOATS:
            if not _close(rep[key], ref[key]):
                problems.append(f"{model} {key} differs from the reference")
    return problems


def check(workload, digest, expected_input):
    """The workload's own checks, which need no reference."""
    problems = []
    if workload == "registry-file":
        if digest["ki_info"].get("spectral_converged") is not True:
            problems.append("KI spectral radius did not converge")
        if digest["ki_info"].get("method") != "truncated-series":
            problems.append("KI did not use the truncated series")
        if digest["ingest"].get("rejected") != expected_input["bad_rows"]:
            problems.append(
                f"ingest rejected {digest['ingest'].get('rejected')} rows; "
                f"the generator injected {expected_input['bad_rows']}")
    if workloads.exports(workload):
        if "INCOMPLETE" in digest["artifacts"]:
            problems.append("INCOMPLETE marker left in the artifacts")
        if not digest["artifacts"]:
            problems.append("no artifacts written")
    return problems


def _reference_path(workload):
    return HERE / "reference" / f"{workload}.json"


def record(workload):
    """Write the reference of every input of ``workload``; return the code."""
    prepared = [workloads.prepare(workload, index, str(STATE))
                for index in range(workloads.N_INPUTS)]
    runner = Runner(workload, f"{workload}-record",
                    time.perf_counter() + RECORD_LIMIT_S)
    result, error = runner.call("once", [path for path, _ in prepared])
    if result is None:
        print(f"recording failed: {error}", file=sys.stderr)
        return 1
    reference = {}
    for index, entry in enumerate(result["runs"]):
        problems = [entry["error"]] if "error" in entry else check(
            workload, entry["digest"], prepared[index][1])
        if problems:
            print(f"input {index}: {problems}", file=sys.stderr)
            return 1
        reference[str(index)] = entry["digest"]
    _reference_path(workload).write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {_reference_path(workload)} ({len(reference)} inputs)")
    return 0


def _percentile_note(values):
    """Highest nearest-rank percentile with ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n={n}; no percentile has 10 samples beyond it"
    pct = int(100 * (1 - 10 / n))
    rank = max(1, -(-pct * n // 100))
    return f"p{pct} {sorted(values)[rank - 1]:.6g} (n={n})"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int,
                        default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (ROOT / "src" / "geokatz" / "__init__.py").is_file():
        print(f"no geokatz sources under {ROOT / 'src'}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    workload = args.workload
    STATE.mkdir(exist_ok=True)
    if args.record:
        return record(workload)

    indexes = workloads.inputs(args.seed)
    prepared = [workloads.prepare(workload, index, str(STATE))
                for index in indexes]
    reference_path = _reference_path(workload)
    reference = json.loads(reference_path.read_text()) \
        if reference_path.exists() else {}
    runner = Runner(workload, f"{workload}-{args.seed}",
                    started + TIME_LIMIT_S)
    configs = [path for path, _ in prepared]

    setup, runs, traced, failures = [], [], [], []
    provenance, missing, peak, digests = {}, [], None, {}
    for _ in range(0 if args.trace else SETUP_SAMPLES):
        result, error = runner.call("setup", configs[:1])
        if result is None:
            print(f"set-up failed: {error}", file=sys.stderr)
            return 1
        setup.append(result["setup"])
    # With tracing, an untraced loop and a traced loop share the time.
    loops = (False, True) if args.trace else (False,)
    attempted = 0
    for trace in loops:
        result, error = runner.call("loop", configs, trace=trace,
                                    seconds=seconds / len(loops))
        if result is None:
            attempted += 1
            failures.append(error)
            continue
        if not trace:
            setup.append(result["setup"])
        provenance, missing = result["provenance"], result["missing"]
        for entry in result["runs"]:
            attempted += 1
            index = indexes[entry["input"]]
            problems = [entry["error"]] if "error" in entry else (
                check(workload, entry["digest"], prepared[entry["input"]][1])
                + compare(entry["digest"], reference.get(str(index))))
            if problems:
                failures.append((index, problems))
                continue
            digests[index] = entry["digest"]
            if not trace and "peak_rss_mb" in entry:
                peak = entry["peak_rss_mb"]
            if not entry.get("warmup"):
                (traced if trace else runs).append(entry)

    for error in failures:
        print(f"failed run: {error}", file=sys.stderr)
    if not runs or peak is None or (args.trace and not traced):
        print("no run completed correctly", file=sys.stderr)
        return 1

    run_s = [at_reference_speed(r["run_s"], r["calibration_s"])
             for r in runs]
    # Each set-up is scaled by the mean of the calibrations taken just
    # before it and just before the next process; the last has only one.
    after = [s["calibration_s"] for s in setup[1:]] + [None]
    setup_s = [at_reference_speed(s["setup_s"], s["calibration_s"]
                                  if a is None
                                  else (s["calibration_s"] + a) / 2)
               for s, a in zip(setup, after)]
    e2e = {"run_s": statistics.median(run_s),
           "setup_s": statistics.median(setup_s),
           "peak_rss_mb": peak}
    print(f"workload {workload} seed {args.seed}: inputs {indexes}, closed "
          f"loop, one caller, {attempted} run(s) attempted, "
          f"{len(failures)} failed")
    print(f"  run_s       median {e2e['run_s']:.4f} s at reference speed  "
          f"({_percentile_note(run_s)}); wall median "
          f"{statistics.median(r['run_s'] for r in runs):.4f} s, "
          f"calibration median "
          f"{statistics.median(r['calibration_s'] for r in runs):.4f} s "
          f"(reference {calibration.REFERENCE_S} s)")
    print(f"  setup_s     median {e2e['setup_s']:.4f} s at reference speed "
          f"(n={len(setup)}); wall median "
          f"{statistics.median(s['setup_s'] for s in setup):.4f} s")
    print(f"  peak_rss_mb {e2e['peak_rss_mb']:.1f} MB  "
          "(n=1, the first run of the measuring process)")
    print(f"  error_rate  {len(failures) / attempted:.4g}  "
          f"({len(failures)}/{attempted})")
    for index, digest in sorted(digests.items()):
        universes = digest["universes"]["final"]
        sizes = {"rows": prepared[indexes.index(index)][1]["rows"],
                 "sites": digest["network"]["nodes"],
                 "universe_nodes": universes["nodes"],
                 "universe_pairs": universes["pairs"],
                 "models": len(digest["reports"]),
                 "artifact_bytes": digest.get("artifact_bytes", 0)}
        print(f"  input {index}: {json.dumps(sizes)}")
    print(f"  inputs generated in "
          f"{sum(e['generate_s'] for _, e in prepared):.2f} s "
          "(not part of setup_s)")
    provenance["nproc"] = os.cpu_count()
    print(f"  provenance: {json.dumps(provenance)}")

    if args.trace:
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        values["trace.overhead_s"] = statistics.median(
            at_reference_speed(r["run_s"], r["calibration_s"])
            for r in traced) - e2e["run_s"]
        values["host.calibration_s"] = statistics.median(
            r["calibration_s"] for r in traced)
        if missing:
            print(f"  absent targets (their metrics read 0): "
                  f"{', '.join(missing)}")
    else:
        values = e2e
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
