"""Release acceptance gate.

Each numbered test family checks one acceptance criterion at its stated
tolerance. The conftest terminal summary prints one PASS/FAIL line per
criterion number after the run. Criteria 7 and 8 share the session's
frozen synthetic fixture run.
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp

import oracles
from conftest import NATIONAL_SCALE_YAML
from geokatz import config as config_mod
from geokatz import geo, katz, metrics, pipeline, synth
from geokatz.graphs import PairUniverse, build_adjacency, candidate_pairs
from geokatz.katz import KatzConfig

# Published test-split confusion matrices, keyed by model:
# (tp, fn, fp, tn) plus the precision/recall/F1 reported alongside them.
PUBLISHED_CONFUSION = {
    "KI": ((141, 536, 1164, 243679), (0.108, 0.208, 0.142)),
    "WKI": ((83, 594, 422, 244421), (0.164, 0.123, 0.140)),
    "EWKI": ((482, 195, 6, 244837), (0.988, 0.712, 0.827)),
    "KIWKI": ((187, 490, 1276, 243567), (0.128, 0.276, 0.175)),
    "KIEWKI": ((592, 85, 334, 244509), (0.639, 0.874, 0.739)),
    "WKIEWKI": ((676, 1, 1386, 243457), (0.328, 0.999, 0.494)),
}
PUBLISHED_CELL_SUM = 245_520
PUBLISHED_UNIVERSE_NODES = 496
PUBLISHED_POSITIVES = 677


# --- criterion 1: confusion matrices reproduce published metrics ----------

@pytest.mark.parametrize("model", sorted(PUBLISHED_CONFUSION))
def test_criterion_1_published_metrics(model):
    (tp, fn, fp, tn), (p_ref, r_ref, f_ref) = PUBLISHED_CONFUSION[model]
    cm = metrics.ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)
    assert abs(metrics.precision(cm) - p_ref) <= 0.0005
    assert abs(metrics.recall(cm) - r_ref) <= 0.0005
    assert abs(metrics.f1(cm) - f_ref) <= 0.0005


# --- criterion 2: pair-universe consistency --------------------------------

@pytest.mark.parametrize("model", sorted(PUBLISHED_CONFUSION))
def test_criterion_2_published_cell_sums(model):
    (tp, fn, fp, tn), _ = PUBLISHED_CONFUSION[model]
    cm = metrics.ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)
    assert cm.total == PUBLISHED_CELL_SUM
    assert cm.total == PUBLISHED_UNIVERSE_NODES * (PUBLISHED_UNIVERSE_NODES
                                                   - 1)
    assert cm.positives == PUBLISHED_POSITIVES


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_criterion_2_candidate_pairs_size(seed):
    cfg = synth.SynthConfig(seed=seed, n_nodes=40 + 7 * seed,
                            years=(2000, 2002), bbox=(50.0, 54.0, -4.0, 1.0),
                            movements_per_year=90, decay_rate=0.01,
                            hub_bias=2.0, repeat_edge_prob=0.3)
    report = synth.generate(cfg)[0]
    from geokatz.graphs import build_network
    net = build_network(report)
    universe = candidate_pairs(net)
    k = universe.k
    assert k == net.n_nodes
    assert universe.n_pairs == k * (k - 1)
    assert len(universe.label_vector) == k * (k - 1)
    assert universe.n_positives == net.n_links


def test_criterion_2_fixture_universe(national_scale_run):
    universe = national_scale_run.result.universe
    assert universe.n_pairs == universe.k * (universe.k - 1)


# --- criterion 3: katz oracle equivalence ----------------------------------

def _random_digraphs(seed, count=50, max_nodes=6, edge_prob=0.3):
    """Seeded stream of (n, dense adjacency, edge list) triples."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, max_nodes + 1))
        mask = (rng.random((n, n)) < edge_prob) & ~np.eye(n, dtype=bool)
        dense = mask.astype(np.float64)
        edges = [(int(u), int(v)) for u, v in zip(*np.nonzero(mask))]
        yield n, dense, edges


def _full_universe(n):
    return PairUniverse(node_indices=np.arange(n, dtype=np.int64),
                        labels=np.zeros((n, n), dtype=np.uint8))


def _safe_beta(dense):
    lam = oracles.dense_spectral_radius(dense)
    return (0.5 / lam if lam > 0 else 0.5), lam


def test_criterion_3_series_equals_walk_enumeration():
    checked = 0
    for n, dense, edges in _random_digraphs(seed=20260301):
        beta, _ = _safe_beta(dense)
        cfg = KatzConfig(beta_mode="explicit", beta=beta,
                         method="truncated-series", max_walk_length=4,
                         series_tolerance=1e-300)
        table = katz.katz_scores(sp.csr_matrix(dense), cfg,
                                 _full_universe(n))
        reference = oracles.brute_force_katz(n, edges, beta, max_len=4)
        np.fill_diagonal(reference, 0.0)
        assert np.max(np.abs(oracles.dense(table) - reference)) <= 1e-12
        checked += 1
    assert checked == 50


def test_criterion_3_solve_equals_series():
    for n, dense, edges in _random_digraphs(seed=20260301):
        beta, lam = _safe_beta(dense)
        universe = _full_universe(n)
        adj = sp.csr_matrix(dense)

        def series_table(length):
            cfg = KatzConfig(beta_mode="explicit", beta=beta,
                             method="truncated-series",
                             max_walk_length=length,
                             series_tolerance=1e-300)
            return oracles.dense(katz.katz_scores(adj, cfg, universe))

        long_series = series_table(400)
        longer_series = series_table(500)
        # Terms are non-negative, so the 400->500 delta bounds how much
        # the partial sum can still be moving; require it far below the
        # comparison tolerance before trusting the series as a stand-in
        # for the infinite sum.
        assert np.max(np.abs(longer_series - long_series)) < 1e-12
        assert beta * lam <= 0.5 + 1e-12

        solve_cfg = KatzConfig(beta_mode="explicit", beta=beta,
                               method="closed-form-solve")
        solved = oracles.dense(katz.katz_scores(adj, solve_cfg, universe))
        assert np.max(np.abs(solved - longer_series)) <= 1e-9


# --- criterion 4: zero-decay reductions -------------------------------------

@pytest.fixture(scope="module")
def reduction_setup():
    cfg = synth.SynthConfig(seed=99, n_nodes=60, years=(2015, 2017),
                            bbox=(50.0, 54.0, -4.0, 1.0),
                            movements_per_year=150, decay_rate=0.02,
                            hub_bias=3.0, repeat_edge_prob=0.4)
    report = synth.generate(cfg)[0]
    from geokatz.graphs import build_network
    net = build_network(report)
    universe = candidate_pairs(net)
    adj = build_adjacency(net)
    return net, universe, adj


def _assert_same_scores(got, want):
    assert got.support.tobytes() == want.support.tobytes()
    assert got.scores.on_support.tobytes() == want.scores.on_support.tobytes()
    assert got.scores.floor == want.scores.floor == 0.0


def test_criterion_4_zero_gamma_edge_weighting(reduction_setup):
    net, universe, adj = reduction_setup
    cfg = KatzConfig(gamma=0.0)
    plain = katz.katz_scores(adj, cfg, universe)
    base = katz.katz_scores(adj, cfg, universe)
    nodes = universe.node_indices
    rows, cols = np.divmod(base.support, universe.k)
    distances = geo.pair_distances(net.registry.lat_array()[nodes],
                                   net.registry.lon_array()[nodes],
                                   rows, cols)
    assert distances.max() > 0.0
    edge_weighted = katz.edge_weighted_katz_scores(base, distances,
                                                   cfg.resolved_gamma())
    _assert_same_scores(edge_weighted, plain)


def test_criterion_4_zero_gamma_decay_transform(reduction_setup):
    net, universe, adj = reduction_setup
    cfg = KatzConfig()
    registry = net.registry
    weighted = geo.weighted_adjacency(adj, registry.lat_array(),
                                      registry.lon_array(),
                                      transform="decay", gamma=0.0)
    plain = katz.katz_scores(adj, cfg, universe)
    distance_weighted = katz.katz_scores(weighted, cfg, universe,
                                          model="WKI")
    _assert_same_scores(distance_weighted, plain)


# --- criterion 5: metric properties -----------------------------------------

def _toy_universes(seed, count=100, max_pairs=200):
    """Seeded score/label draws with both classes and frequent ties."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(4, max_pairs + 1))
        n_pos = int(rng.integers(1, n))
        labels = np.zeros(n, dtype=np.uint8)
        labels[:n_pos] = 1
        labels = labels[rng.permutation(n)]
        scores = rng.normal(0.0, 2.0, n) + labels * rng.uniform(0.0, 1.5)
        if rng.random() < 0.5:
            scores = np.round(scores, 1)
        yield scores, labels


def test_criterion_5_auroc_pair_statistic():
    for scores, labels in _toy_universes(seed=50501):
        area = metrics.evaluate(scores, labels).auroc
        reference = oracles.pair_count_auroc(scores, labels)
        assert abs(area - reference) <= 1e-9


def test_criterion_5_threshold_sweep_exhaustive():
    for scores, labels in _toy_universes(seed=50502):
        threshold, best_f1 = metrics.optimal_threshold(scores, labels)
        reference_best, achievers = oracles.exhaustive_f1_scan(scores,
                                                               labels)
        assert abs(best_f1 - reference_best) <= 1e-12
        assert threshold == max(achievers)
        cm = metrics.confusion_at(scores, labels, threshold)
        assert abs(metrics.f1(cm) - best_f1) <= 1e-12


def test_criterion_5_rank_invariance():
    transforms = (lambda v: 3.0 * v + 11.0,
                  lambda v: np.arctan(v),
                  lambda v: v ** 3)
    for scores, labels in _toy_universes(seed=50503, count=20):
        base_auroc = metrics.evaluate(scores, labels).auroc
        base_aupr = metrics.evaluate(scores, labels).aupr
        base_ap = metrics.evaluate(scores, labels).average_precision
        _, base_f1 = metrics.optimal_threshold(scores, labels)
        for transform in transforms:
            mapped = transform(scores)
            # Transforms must not merge distinct scores, or the
            # comparison itself would be ill-posed.
            assert len(np.unique(mapped)) == len(np.unique(scores))
            assert metrics.evaluate(mapped, labels).auroc == base_auroc
            assert metrics.evaluate(mapped, labels).aupr == base_aupr
            assert (metrics.evaluate(mapped, labels).average_precision
                    == base_ap)
            _, mapped_f1 = metrics.optimal_threshold(mapped, labels)
            assert mapped_f1 == base_f1


# --- criterion 6: haversine reference distances -----------------------------

def test_criterion_6_coincident_points():
    assert geo.haversine_km(51.5, -0.12, 51.5, -0.12) == 0.0
    assert geo.haversine_km(-33.9, 151.2, -33.9, 151.2) == 0.0
    assert geo.haversine_km(0.0, 0.0, 0.0, 0.0) == 0.0


def test_criterion_6_equatorial_antipodes():
    half_circumference = np.pi * oracles.EARTH_RADIUS_KM
    assert abs(geo.haversine_km(0.0, 0.0, 0.0, 180.0)
               - half_circumference) <= 0.01


@pytest.mark.parametrize(
    "name,lat1,lon1,lat2,lon2,expected",
    oracles.HAVERSINE_TABLE,
    ids=[row[0] for row in oracles.HAVERSINE_TABLE])
def test_criterion_6_reference_pairs(name, lat1, lon1, lat2, lon2, expected):
    assert abs(geo.haversine_km(lat1, lon1, lat2, lon2) - expected) <= 0.1


# --- criterion 7: directional property on the frozen fixture ----------------

def test_criterion_7_distance_model_outranks(national_scale_run):
    assert national_scale_run.config.synth.decay_rate > 0
    reports = national_scale_run.result.reports
    assert reports["EWKI"].aupr > reports["KI"].aupr
    assert reports["EWKI"].auroc >= reports["KI"].auroc
    assert national_scale_run.seconds < 300


# --- criterion 8: determinism ------------------------------------------------

def _artifact_bytes(out_dir):
    return {path.name: path.read_bytes() for path in out_dir.iterdir()}


def _run_yaml(tmp_path, yaml_text, tag):
    cfg_path = tmp_path / f"config-{tag}.yaml"
    cfg_path.write_text(yaml_text, encoding="utf-8")
    out_dir = tmp_path / f"out-{tag}"
    cfg = config_mod.load_run_config(cfg_path, out_override=out_dir)
    start = time.perf_counter()
    pipeline.run(cfg)
    return out_dir, time.perf_counter() - start


def test_criterion_8_rerun_byte_identical(national_scale_run, tmp_path):
    rerun_dir, rerun_seconds = _run_yaml(tmp_path, NATIONAL_SCALE_YAML,
                                         "rerun")
    first = _artifact_bytes(national_scale_run.out_dir)
    second = _artifact_bytes(rerun_dir)
    assert sorted(first) == sorted(second)
    for name in first:
        assert first[name] == second[name], f"{name} differs between reruns"
    assert national_scale_run.seconds + rerun_seconds < 600


def test_criterion_8_worker_count_invariant(national_scale_run, tmp_path):
    assert "workers: 2" in NATIONAL_SCALE_YAML
    single_yaml = NATIONAL_SCALE_YAML.replace("workers: 2", "workers: 1")
    single_dir, single_seconds = _run_yaml(tmp_path, single_yaml, "single")
    first = _artifact_bytes(national_scale_run.out_dir)
    second = _artifact_bytes(single_dir)
    assert sorted(first) == sorted(second)
    for name in first:
        if name == "config.yaml":
            # The config copy is verbatim input, so it differs exactly
            # in the workers line and nowhere else.
            continue
        assert first[name] == second[name], f"{name} differs with workers=1"
    assert (first["config.yaml"].decode() .replace("workers: 2", "workers: 1")
            == second["config.yaml"].decode())
    assert national_scale_run.seconds + single_seconds < 600
