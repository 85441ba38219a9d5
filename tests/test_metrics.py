"""Confusion counts, threshold sweeps, curves and report artifacts."""

import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid

import oracles
from geokatz import metrics
from geokatz.errors import DegenerateLabelsError
from geokatz.metrics import ConfusionMatrix


def test_precision_recall_f1_basic():
    cm = ConfusionMatrix(tp=6, fp=2, fn=4, tn=88)
    assert metrics.precision(cm) == 0.75
    assert metrics.recall(cm) == 0.6
    assert metrics.f1(cm) == pytest.approx(2 * 0.75 * 0.6 / 1.35)


def test_zero_division_conventions():
    nothing_predicted = ConfusionMatrix(tp=0, fp=0, fn=5, tn=5)
    assert metrics.precision(nothing_predicted) == 0.0
    assert metrics.f1(nothing_predicted) == 0.0
    no_positives = ConfusionMatrix(tp=0, fp=3, fn=0, tn=7)
    assert metrics.recall(no_positives) == 0.0


def test_confusion_at_threshold_is_inclusive():
    scores = np.array([0.1, 0.5, 0.5, 0.9])
    labels = np.array([0, 1, 0, 1])
    cm = metrics.confusion_at(scores, labels, threshold=0.5)
    # score == threshold predicts positive.
    assert (cm.tp, cm.fp, cm.fn, cm.tn) == (2, 1, 0, 1)
    assert cm.total == 4
    assert cm.positives == 2


def test_confusion_rejects_non_finite_scores():
    with pytest.raises(ValueError):
        metrics.confusion_at(np.array([0.1, np.nan]), np.array([0, 1]), 0.0)
    with pytest.raises(ValueError):
        metrics.confusion_at(np.array([0.1, 0.2]), np.array([0, 1, 1]), 0.0)
    with pytest.raises(ValueError):
        metrics.confusion_at(np.array([0.1, 0.2]), None, 0.0)


def test_optimal_threshold_prefers_larger_on_ties():
    # Predicting {0.9} or {0.9, 0.8} both give F1 = 1 paths? No: design
    # scores so two thresholds tie and the larger must win.
    scores = np.array([0.9, 0.8, 0.2, 0.1])
    labels = np.array([1, 0, 1, 0])
    threshold, best = metrics.optimal_threshold(scores, labels)
    reference_best, achievers = oracles.exhaustive_f1_scan(scores, labels)
    assert best == pytest.approx(reference_best, abs=1e-12)
    assert threshold == max(achievers)


def test_optimal_threshold_predict_nothing_candidate():
    # All positives score lowest: the sweep must still consider the
    # above-max candidate and every distinct value.
    scores = np.array([0.3, 0.3, 0.3, 0.9])
    labels = np.array([1, 1, 1, 0])
    threshold, best = metrics.optimal_threshold(scores, labels)
    assert threshold == 0.3
    assert best == pytest.approx(0.75 * 2 / 1.75)


def test_optimal_threshold_needs_a_positive():
    with pytest.raises(DegenerateLabelsError):
        metrics.optimal_threshold(np.array([0.5, 0.2]), np.array([0, 0]))


def test_roc_curve_anchors_and_ends():
    scores = np.array([0.9, 0.7, 0.4, 0.2])
    labels = np.array([1, 0, 1, 0])
    curve = metrics.evaluate(scores, labels).roc
    assert curve.kind == "roc"
    assert curve.thresholds[0] == math.inf
    assert (curve.x[0], curve.y[0]) == (0.0, 0.0)
    assert (curve.x[-1], curve.y[-1]) == (1.0, 1.0)
    assert np.all(np.diff(curve.x) >= 0)
    assert np.all(np.diff(curve.y) >= 0)


def test_reports_and_curves_compare_and_hash_by_identity():
    # Their array fields have no single truth value, so the dataclass
    # == would raise on two distinct instances, and hash() on a curve.
    scores = np.array([0.9, 0.7, 0.4, 0.2])
    labels = np.array([1, 0, 1, 0])
    first, second = (metrics.evaluate(scores, labels) for _ in range(2))
    assert first == first
    assert first != second
    for curve in (first.roc, first.pr):
        assert curve == curve
        assert curve != metrics.Curve(curve.kind, curve.thresholds,
                                      curve.x, curve.y)
        assert len({curve, curve}) == 1


def test_roc_requires_both_classes():
    with pytest.raises(DegenerateLabelsError):
        metrics.evaluate(np.array([0.5, 0.2]), np.array([1, 1])).roc
    with pytest.raises(DegenerateLabelsError):
        metrics.evaluate(np.array([0.5, 0.2]), np.array([0, 0])).roc


def test_auroc_perfect_and_inverted():
    scores = np.array([0.9, 0.8, 0.2, 0.1])
    perfect = np.array([1, 1, 0, 0])
    inverted = np.array([0, 0, 1, 1])
    assert metrics.evaluate(scores, perfect).auroc == 1.0
    assert metrics.evaluate(scores, inverted).auroc == 0.0


def test_auroc_all_tied_is_half():
    scores = np.array([0.5, 0.5, 0.5, 0.5])
    labels = np.array([1, 0, 1, 0])
    assert metrics.evaluate(scores, labels).auroc == 0.5


def test_pr_curve_has_no_synthetic_anchor():
    scores = np.array([0.9, 0.7, 0.4])
    labels = np.array([1, 0, 1])
    curve = metrics.evaluate(scores, labels).pr
    assert curve.kind == "pr"
    # First point is the highest threshold actually swept, recall 1/2.
    assert curve.x[0] == 0.5
    assert curve.y[0] == 1.0
    assert curve.x[-1] == 1.0


def test_average_precision_hand_example():
    # Ranked: pos, neg, pos. AP = 0.5 * 1.0 + 0.5 * (2/3).
    scores = np.array([0.9, 0.7, 0.4])
    labels = np.array([1, 0, 1])
    expected = 0.5 * 1.0 + 0.5 * (2.0 / 3.0)
    assert metrics.evaluate(scores, labels).average_precision == (
        pytest.approx(expected, abs=1e-12))


def test_evaluate_assembles_consistent_report():
    scores = np.array([0.9, 0.8, 0.6, 0.4, 0.2])
    labels = np.array([1, 0, 1, 0, 0])
    report = metrics.evaluate(scores, labels, threshold=0.5, model="KI",
                              info={"beta": 0.25})
    cm = report.confusion
    assert (cm.tp, cm.fp, cm.fn, cm.tn) == (2, 1, 0, 2)
    assert report.precision == metrics.precision(cm)
    assert report.f1 == metrics.f1(cm)
    assert report.auroc == trapezoid(report.roc.y, report.roc.x)
    assert report.aupr == trapezoid(report.pr.y, report.pr.x)
    assert report.info["beta"] == 0.25
    assert report.model == "KI"


def test_evaluate_sweeps_once(monkeypatch):
    calls = []
    sweep = metrics._sweep

    def counting_sweep(s, y):
        calls.append(len(s))
        return sweep(s, y)

    monkeypatch.setattr(metrics, "_sweep", counting_sweep)
    metrics.evaluate(np.array([0.9, 0.8, 0.6, 0.4, 0.2]),
                     np.array([1, 0, 1, 0, 0]), threshold=0.5)
    assert calls == [5]


def test_a_report_retains_only_its_sweep():
    # 20k distinct scores give 20k curve points. A report keeps its
    # sweep's thresholds, tp and fp, three 8-byte entries per point, and
    # builds its curves on access, so it holds less than four; a report
    # that also stored its curves would hold at least eight.
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        rng = np.random.default_rng(5)
        scores = rng.permutation(20_000) / 20_000
        labels = rng.random(20_000) < 0.1
        report = metrics.evaluate(scores, labels)
        del scores, labels
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    points = len(report.pr.thresholds)
    assert points == 20_000
    assert held < 4 * 8 * points
    assert len(report.roc.x) == len(report.pr.x) + 1 == points + 1


def test_report_dict_rounds_to_six_significant_digits():
    scores = np.array([0.9, 0.8, 0.6, 0.4, 0.2])
    labels = np.array([1, 0, 1, 0, 0])
    report = metrics.evaluate(scores, labels, threshold=1.0 / 3.0,
                              model="KI", info={"beta": 2.0 / 3.0})
    payload = metrics.report_dict(report)
    assert payload["threshold"] == 0.333333
    assert payload["info"]["beta"] == 0.666667
    assert payload["confusion"]["tp"] == report.confusion.tp
    assert set(payload["metrics"]) == {"precision", "recall", "f1",
                                       "auroc", "aupr",
                                       "average_precision"}


def test_write_report_deterministic_json():
    scores = np.array([0.9, 0.4, 0.2])
    labels = np.array([1, 1, 0])
    report = metrics.evaluate(scores, labels, threshold=0.3, model="KI")
    first = io.StringIO()
    second = io.StringIO()
    metrics.write_report(report, first)
    metrics.write_report(report, second)
    assert first.getvalue() == second.getvalue()
    assert first.getvalue().endswith("\n")
    parsed = json.loads(first.getvalue())
    assert parsed["model"] == "KI"
    assert list(parsed) == sorted(parsed)


def test_evaluate_accepts_score_table():
    # A ScoreTable carries its universe labels; omitted labels resolve
    # from it. Build a tiny stand-in with the same duck-typed surface.
    from geokatz.katz import normalize
    universe = oracles.universe_of([0, 1], [[0, 1], [0, 0]])
    table = normalize(oracles.table_of("KI", universe,
                                       np.array([[0.0, 0.9], [0.1, 0.0]])))
    threshold, best = metrics.optimal_threshold(table)
    report = metrics.evaluate(table, threshold=threshold)
    assert report.model == "KI"
    assert report.f1 == best == 1.0


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.floats(-5, 5, allow_nan=False, width=32),
                          st.booleans()),
                min_size=2, max_size=60).filter(
                    lambda rows: (any(y for _, y in rows)
                                  and any(not y for _, y in rows))))
def test_auroc_complement_under_label_flip(rows):
    scores = np.array([s for s, _ in rows], dtype=np.float64)
    labels = np.array([int(y) for _, y in rows])
    area = metrics.evaluate(scores, labels).auroc
    flipped = metrics.evaluate(scores, 1 - labels).auroc
    assert area + flipped == pytest.approx(1.0, abs=1e-9)
    assert 0.0 <= area <= 1.0


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.floats(-5, 5, allow_nan=False, width=32),
                          st.booleans()),
                min_size=2, max_size=60).filter(
                    lambda rows: any(y for _, y in rows)))
def test_optimal_threshold_never_beaten_by_any_cut(rows):
    scores = np.array([s for s, _ in rows], dtype=np.float64)
    labels = np.array([int(y) for _, y in rows])
    threshold, best = metrics.optimal_threshold(scores, labels)
    probe_points = np.concatenate([scores, [scores.max() + 1.0],
                                   scores - 1e-6])
    for cut in probe_points:
        cm = metrics.confusion_at(scores, labels, float(cut))
        assert metrics.f1(cm) <= best + 1e-12


_TIE_VALUES = (-2.5, -1.0, -0.0, 0.0, 5e-324, 0.25, 0.5, 1.0)
_SCORES = st.one_of(st.sampled_from(_TIE_VALUES),
                    st.floats(-5, 5, allow_nan=False, width=32))


@st.composite
def _swept_cases(draw):
    """Scores with heavy ties, signed zeros and negative values, over a
    floor group from a single minimum to the whole vector, and labels."""
    rest = draw(st.lists(_SCORES, max_size=40))
    floor = min([draw(_SCORES)] + rest)
    n_floor = draw(st.integers(0 if rest else 1, 40))
    signs = draw(st.lists(st.booleans(), min_size=n_floor,
                          max_size=n_floor))
    floors = [math.copysign(floor, 1.0 if keep else -1.0) if floor == 0.0
              else floor for keep in signs]
    scores = draw(st.permutations(rest + floors))
    labels = draw(st.lists(st.booleans(), min_size=len(scores),
                           max_size=len(scores)))
    return np.array(scores, dtype=np.float64), np.array(labels, dtype=bool)


@settings(max_examples=300, deadline=None)
@given(_swept_cases())
def test_sweep_matches_stable_sort_oracle(case):
    s, y = case
    got = metrics._sweep(s, y)
    want = oracles.stable_sweep(s, y)
    for g, w in zip(got[1:3], want[1:3]):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)
    assert got[3:] == want[3:]
    assert all(type(n) is int for n in got[3:])
    thresholds, expected = got[0], want[0]
    if np.signbit(s[s == 0.0]).any():
        np.testing.assert_array_equal(thresholds, expected)
    else:
        assert thresholds.tobytes() == expected.tobytes()
    # A zero group is reported as +0.0 whichever zeros it holds.
    assert not np.signbit(thresholds[thresholds == 0.0]).any()


@settings(max_examples=300, deadline=None)
@given(_swept_cases())
def test_confusion_read_off_the_sweep_matches_masks(case):
    s, y = case
    distinct = np.unique(s)
    cuts = np.concatenate([distinct, (distinct[1:] + distinct[:-1]) / 2.0,
                           [s.min() - 1.0, s.max() + 1.0, -0.0, 0.0,
                            -math.inf, math.inf, math.nan]])
    sweep = metrics._sweep(s, y)
    both_classes = y.any() and not y.all()
    for cut in cuts.tolist():
        want = metrics.confusion_at(s, y, cut)
        assert (want.tp, want.fp, want.fn, want.tn) == \
            oracles.mask_confusion(s, y, cut)
        assert metrics._confusion_from_sweep(*sweep, cut) == want
        if both_classes:
            assert metrics.evaluate(s, y, threshold=cut).confusion == want


def test_import_leaves_scipy_integrate_unloaded():
    code = ("import sys, geokatz, geokatz.cli, geokatz.pipeline; "
            "print('scipy.integrate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(
                             sys.path)})
    assert out.stdout.strip() == "False"


def _assert_same_sweep(got, want):
    """Two sweeps agree bit for bit: thresholds, int64 tp and fp, and
    the label counts as ints."""
    for g, w in zip(got[:3], want[:3]):
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()
    assert got[3:] == want[3:]
    assert all(type(n) is int for n in got[3:])


@st.composite
def _table_cases(draw):
    """A ScoreTable over a universe of 2 to 7 nodes: any support, empty
    and full included, scores with heavy ties, signed zeros and values
    below the 0 of the pairs off the support, and positives drawn apart
    from the support (none, one, any, or every pair)."""
    from geokatz.graphs import PairUniverse
    from geokatz.katz import ScoreTable

    k = draw(st.integers(2, 7))
    pairs = [p for p in range(k * k) if p % (k + 1)]
    support = sorted(draw(st.one_of(st.sets(st.sampled_from(pairs)),
                                    st.just(set(pairs)))))
    positives = sorted(draw(st.one_of(
        st.sets(st.sampled_from(pairs)),
        st.sampled_from(pairs).map(lambda p: {p}),
        st.just(set(pairs)))))
    scores = draw(st.lists(_SCORES, min_size=len(support),
                           max_size=len(support)))
    universe = PairUniverse(np.arange(k), np.array(positives, np.int64))
    return ScoreTable("KI", universe, np.array(support, np.int64),
                      np.array(scores, dtype=np.float64))


@settings(max_examples=400, deadline=None)
@given(_table_cases())
def test_table_sweep_matches_argsort_isin_oracle(table):
    _assert_same_sweep(metrics._table_sweep(table),
                       oracles.isin_table_sweep(table))


@st.composite
def _cut_sweeps(draw):
    """A sweep drawn as its steps' tp and fp increments, with counts up
    to a few 1e12: long runs of steps that add only negatives between
    positives, steps that add both (a tied group of mixed labels), and
    sweeps whose positives all fall in the last (floor) step."""
    scale = draw(st.sampled_from([1, 1000, 10 ** 9]))
    count = st.integers(0, 3).map(lambda n: n * scale)
    steps = draw(st.lists(st.tuples(count, count), min_size=1,
                          max_size=40))
    if draw(st.booleans()):
        steps = [(0, fp) for _, fp in steps[:-1]] + [steps[-1]]
    run = st.integers(0, 30)
    steps = [step for tp_fp in steps for step in
             [(0, scale)] * draw(run) + [tp_fp]]
    tp = np.cumsum([t for t, _ in steps], dtype=np.int64)
    fp = np.cumsum([f for _, f in steps], dtype=np.int64)
    if tp[-1] == 0:
        tp[-1] = 1
    thresholds = -np.arange(len(steps), dtype=np.float64) / 7.0 + 0.0
    return thresholds, tp, fp, int(tp[-1]), int(fp[-1])


def _cut_bits(cut):
    threshold, best = cut
    return float(threshold).hex(), float(best).hex()


@settings(max_examples=400, deadline=None)
@given(_cut_sweeps())
def test_best_cut_at_rises_matches_full_argmax(sweep):
    assert _cut_bits(metrics._best_cut(*sweep)) == _cut_bits(
        oracles.argmax_best_cut(*sweep))


@settings(max_examples=300, deadline=None)
@given(_swept_cases())
def test_best_cut_of_score_sweeps_matches_full_argmax(case):
    s, y = case
    assume(y.any())
    sweep = metrics._sweep(s, y)
    assert _cut_bits(metrics._best_cut(*sweep)) == _cut_bits(
        oracles.argmax_best_cut(*sweep))
    n_pos = int(np.count_nonzero(y))
    assert _cut_bits(metrics.optimal_threshold(s, y)) == _cut_bits(
        oracles.argmax_best_cut(*oracles.argsort_sweep_above(
            s, y, s.min(), n_pos, len(y) - n_pos)))


@pytest.fixture(scope="module")
def quickstart_tables():
    from pathlib import Path

    from geokatz.config import parse_run_config
    from geokatz.pipeline import run

    path = Path(__file__).parents[1] / "configs" / "quickstart.yaml"
    return run(parse_run_config(path.read_text())).tables


def test_quickstart_sweeps_and_cuts_match_oracles(quickstart_tables):
    for table in quickstart_tables.values():
        sweep = metrics._table_sweep(table)
        want = oracles.isin_table_sweep(table)
        _assert_same_sweep(sweep, want)
        assert _cut_bits(metrics._best_cut(*sweep)) == _cut_bits(
            oracles.argmax_best_cut(*want))


def test_table_sweep_sorts_values_once(monkeypatch, quickstart_tables):
    # One value sort per sweep; no pair order and no membership test.
    calls = {"sort": 0, "argsort": 0, "isin": 0}

    def counting(name):
        wrapped = getattr(np, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return wrapped(*args, **kwargs)
        monkeypatch.setattr(np, name, call)

    for name in calls:
        counting(name)
    metrics._table_sweep(quickstart_tables["KIEWKI"])
    assert calls == {"sort": 1, "argsort": 0, "isin": 0}
