"""Shared fixtures and the acceptance-criteria terminal summary."""

import re
import time
from types import SimpleNamespace

import numpy as np
import pytest

from geokatz import config as config_mod
from geokatz import pipeline
from geokatz.graphs import IngestReport, build_network
from oracles import MovementRecord

# Frozen end-to-end fixture: a synthetic national live-fish-movement
# record with hub trading patterns and distance-decayed destination
# choice, sized like a 14-year country-scale dataset (~2.5k sites,
# ~17k movements). The seed and every parameter are pinned; the whole
# pipeline is byte-deterministic given this text.
NATIONAL_SCALE_YAML = """\
synth:
  seed: 2026
  n_nodes: 2480
  years: [2010, 2023]
  bbox: [50.0, 55.5, -5.5, 1.5]
  movements_per_year: [1211, 1211, 1211, 1211, 1211, 1211, 1210,
                       1210, 1210, 1210, 1210, 1210, 1210, 1210]
  decay_rate: 0.02
  hub_bias: 4.0
  repeat_edge_prob: 0.72
split:
  train: [2010, 2021]
  val: 2022
  test: 2023
models: [KI, WKI, EWKI, KIWKI, KIEWKI, WKIEWKI]
katz:
  beta_mode: fraction-of-spectral-bound
  alpha: 0.5
  method: closed-form-solve
  gamma: 0.01
  wki_transform: decay
workers: 2
"""


@pytest.fixture(scope="session")
def national_scale_run(tmp_path_factory):
    """One full pipeline run of the frozen fixture, shared per session."""
    base = tmp_path_factory.mktemp("national-scale")
    cfg_path = base / "config.yaml"
    cfg_path.write_text(NATIONAL_SCALE_YAML, encoding="utf-8")
    out_dir = base / "out"
    cfg = config_mod.load_run_config(cfg_path, out_override=out_dir)
    start = time.perf_counter()
    result = pipeline.run(cfg)
    seconds = time.perf_counter() - start
    return SimpleNamespace(yaml_text=NATIONAL_SCALE_YAML, config_path=cfg_path,
                           config=cfg, result=result, out_dir=out_dir,
                           seconds=seconds)


def rows_of(report):
    """An IngestReport's accepted rows as the oracles' records."""
    ids = report.ids
    # Species code -1 (none) takes the last entry.
    species = list(report.species_names) + [None]
    return list(map(MovementRecord,
                    map(ids.__getitem__, report.source.tolist()),
                    map(ids.__getitem__, report.dest.tolist()),
                    report.year.tolist(), report.source_lat.tolist(),
                    report.source_lon.tolist(), report.dest_lat.tolist(),
                    report.dest_lon.tolist(),
                    map(species.__getitem__, report.species.tolist())))


def report_of(rows):
    """An IngestReport whose columns hold the records ``rows``. Its ids
    and species names are sorted, not in the order the rows first name
    them, as a report built by hand may list them."""
    def column(name):
        return [getattr(row, name) for row in rows]

    def coded(values, names):
        index = {name: code for code, name in enumerate(names)}
        return np.array([index.get(value, -1) for value in values],
                        dtype=np.int64)

    ids = sorted(set(column("source_id")) | set(column("dest_id")))
    species = column("species")
    species_names = sorted(set(species) - {None})
    return IngestReport(
        ids, coded(column("source_id"), ids), coded(column("dest_id"), ids),
        np.array(column("year"), dtype=np.int64),
        *(np.array(column(name), dtype=np.float64) for name in
          ("source_lat", "source_lon", "dest_lat", "dest_lon")),
        coded(species, species_names), species_names, accepted=len(rows))


def make_record(src, dst, year, s_lat=0.0, s_lon=0.0, d_lat=0.0, d_lon=0.0,
                species=None):
    """Movement record with defaulted coordinates, for terse test setup;
    ``report_of`` turns a list of them into the package's columns."""
    return MovementRecord(source_id=src, dest_id=dst, year=year,
                          source_lat=s_lat, source_lon=s_lon,
                          dest_lat=d_lat, dest_lon=d_lon, species=species)


def simple_network(edges):
    """Network from (src, dst, year) triples; node i sits at (i, i) deg."""
    coords = {}
    for u, v, _ in edges:
        coords.setdefault(u, float(len(coords)))
        coords.setdefault(v, float(len(coords)))
    records = [make_record(u, v, year, coords[u], coords[u],
                           coords[v], coords[v])
               for u, v, year in edges]
    return build_network(report_of(records))


# ---------------------------------------------------------------------------
# Acceptance summary: one PASS/FAIL line per numbered criterion.

_CRITERION_TITLES = {
    1: "published confusion matrices reproduce precision/recall/F1",
    2: "pair-universe consistency: cell sums, positives, k(k-1) size",
    3: "katz scores equal brute-force walk sums and the closed form",
    4: "zero-decay weighting collapses WKI and EWKI onto plain KI",
    5: "AUROC pair statistic, exhaustive F1 sweep, rank invariance",
    6: "haversine distances match the precomputed reference table",
    7: "distance-decayed model outranks plain KI on the fixture",
    8: "byte-identical artifacts across reruns and worker counts",
}
_CRITERION_PATTERN = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")
_criterion_outcomes = {}


def pytest_runtest_logreport(report):
    match = _CRITERION_PATTERN.search(report.nodeid)
    if not match:
        return
    outcomes = _criterion_outcomes.setdefault(int(match.group(1)), [])
    if report.when == "call":
        outcomes.append(report.outcome == "passed")
    elif report.outcome in ("failed", "skipped"):
        # Setup errors and skips both mean the criterion was not shown
        # to hold.
        outcomes.append(False)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_criterion_outcomes):
        outcomes = _criterion_outcomes[num]
        status = "PASS" if outcomes and all(outcomes) else "FAIL"
        title = _CRITERION_TITLES.get(num, "")
        terminalreporter.write_line(f"criterion {num}: {status} - {title}")
