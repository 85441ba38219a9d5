"""Chunked artifact writers against the row-at-a-time reference loops."""

import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from geokatz import katz, metrics
from geokatz.graphs import NodeRegistry
from geokatz.katz import normalize, write_score_table

# Ids with a comma, a double quote, a newline, a carriage return,
# padding spaces or non-ASCII letters, plus one id that is a prefix of
# another, so the sorted order is not the registration order.
AWKWARD_IDS = ("farm, east", 'the "old" mill', "two\nlines", "cr\rsite",
               " padded ", "Łódź-fischerei", "site", "site-2", "ZZ top")

# Floats whose .6g text is easy to get wrong: signed zero, the smallest
# subnormal, both sides of the fixed/exponent switch at 1e-4 and at
# 1e6 (999999.5 rounds up to 1e+06), huge values and non-finite ones.
AWKWARD_FLOATS = (-0.0, 0.0, 5e-324, 9.99999e-05, 9.999995e-05, 1e-04,
                  0.000100001, 999999.4, 999999.5, 1e16, -1e16, 1.0 / 3.0,
                  2.0 / 3.0, 1.0, float("inf"), float("-inf"), float("nan"))

FLOATS = st.one_of(st.sampled_from(AWKWARD_FLOATS), st.floats(width=64))


def _registry(ids):
    return NodeRegistry(ids, [50.0] * len(ids), [0.0] * len(ids))


@settings(max_examples=60, deadline=None)
@given(extra_ids=st.lists(st.text(max_size=6), max_size=4),
       model=st.sampled_from(["KI", "KIEWKI", "K,I", 'W"KI', " EWKI"]),
       repeated=st.lists(st.sampled_from(AWKWARD_FLOATS), min_size=1,
                         max_size=4),
       data=st.data())
def test_write_score_table_matches_row_loop(extra_ids, model, repeated,
                                            data):
    ids = list(dict.fromkeys(AWKWARD_IDS + tuple(extra_ids)))
    k = len(ids)
    # A few values repeated across the table, others drawn per cell.
    cells = st.lists(st.one_of(st.sampled_from(repeated), FLOATS),
                     min_size=k * k, max_size=k * k)
    raw = np.array(data.draw(cells)).reshape(k, k)
    norm = np.array(data.draw(cells)).reshape(k, k)
    universe = oracles.universe_of(np.arange(k))
    table = oracles.table_of(model, universe, norm, raw_values=raw)
    registry = _registry(ids)
    expected = io.StringIO()
    oracles.loop_write_score_table(table, registry, expected)
    got = io.StringIO()
    write_score_table(table, registry, got)
    assert got.getvalue() == expected.getvalue()


def _table(raw, norm, model="KI"):
    k = len(raw)
    universe = oracles.universe_of(np.arange(k))
    return oracles.table_of(model, universe, norm, raw_values=raw)


def _check_against_row_loop(table, ids, known=None):
    registry = _registry(ids)
    expected = io.StringIO()
    oracles.loop_write_score_table(table, registry, expected)
    got = io.StringIO()
    write_score_table(table, registry, got, known)
    assert got.getvalue() == expected.getvalue()
    return got.getvalue()


# Floors a table can hold: signed zeros, NaN (argmin's first NaN is the
# minimum) and a negative value.
FLOORS = (0.0, -0.0, float("nan"), -2.5)

# Added to a finite floor for the cells off it; a zero keeps the cell on
# the floor's value, with either sign.
STEPS = st.one_of(st.sampled_from([0.0, -0.0, 1e-300, 0.5, 1.0 / 3.0, 1e6]),
                  st.floats(0.0, 1e9))


def _floor_heavy(floor, kinds, draws, steps):
    """A table column on ``floor``: each row is all floor, all off or
    mixed (off where ``draws`` is 0, one cell in ten on average)."""
    k = len(kinds)
    values = np.full((k, k), floor)
    for a, kind in enumerate(kinds):
        for b in range(k):
            if kind == "off" or (kind == "mixed" and draws[a * k + b] == 0):
                step = steps[(a * k + b) % len(steps)]
                values[a, b] = step if math.isnan(floor) else floor + step
    return values


@settings(max_examples=150, deadline=None)
@given(k=st.integers(1, 7),
       floors=st.tuples(st.sampled_from(FLOORS), st.sampled_from(FLOORS)),
       kinds=st.tuples(*[st.lists(st.sampled_from(["floor", "off", "mixed"]),
                                  min_size=7, max_size=7)] * 2),
       draws=st.tuples(*[st.lists(st.integers(0, 9), min_size=49,
                                  max_size=49)] * 2),
       steps=st.lists(STEPS, min_size=1, max_size=6),
       known=st.sampled_from(["all", "part", "none"]))
@example(k=3, floors=(0.0, 0.0), kinds=(["off"] * 7, ["floor"] * 7),
         draws=([0] * 49, [0] * 49), steps=[1.0], known="all")
@example(k=4, floors=(-0.0, float("nan")), kinds=(["mixed"] * 7,) * 2,
         draws=([0, 5] * 25, [5, 0] * 25), steps=[0.0, -0.0, 2.0],
         known="part")
def test_floor_heavy_tables_match_row_loop(k, floors, kinds, draws, steps,
                                           known):
    # The raw and normalized columns have their own floors and their own
    # off cells, so their first minima are often in different cells.
    raw, norm = (_floor_heavy(floor, kind[:k], draw, steps)
                 for floor, kind, draw in zip(floors, kinds, draws))
    keys = np.unique(norm)
    if known == "part":
        keys = keys[1:]
    known = None if known == "none" else (keys, _fstrings(keys))
    _check_against_row_loop(_table(raw, norm, " KI,"), AWKWARD_IDS[:k],
                            known)


def test_floors_in_different_cells():
    # Each column's floor sits where the other column is off it: a
    # writer that finds the floor rows from one column alone writes the
    # other column's floor text into a cell that is off it.
    raw = [[0.0, 2.0, 0.0, 0.0],
           [3.0, 0.0, 0.0, 0.0],
           [0.0, 0.0, 0.0, 4.0],
           [0.0, 0.0, 0.0, 0.0]]
    norm = [[0.5, 0.5, 0.5, 0.5],
            [0.0, 0.5, 0.5, 0.5],
            [0.5, 0.5, 0.5, 0.5],
            [0.5, 0.25, 0.5, 0.5]]
    text = _check_against_row_loop(_table(raw, norm), ["a", "b", "c", "d"])
    assert "b,a,KI,3,0\n" in text and "a,b,KI,2,0.5\n" in text


def test_one_and_two_node_tables():
    header = "source_id,dest_id,model,score,score_norm\n"
    assert _check_against_row_loop(_table([[0.0]], [[0.0]]), ["a"]) == header
    text = _check_against_row_loop(
        _table([[0.0, 1.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]),
        ["b", "a"])
    assert text == header + "a,b,KI,0,0\nb,a,KI,1,1\n"


def test_only_off_floor_cells_are_formatted(monkeypatch):
    # A 6-node table of zeros with three raw and two normalized cells
    # off 0 (one shared) and a diagonal off both: the four support cells
    # per column are formatted, not the 36 cells of the table, nor the
    # diagonal one, which is not written.
    raw = np.zeros((6, 6))
    norm = np.zeros((6, 6))
    raw[0, 1], raw[2, 3], raw[5, 4] = 7.0, 8.0, 9.0
    norm[2, 3], norm[4, 0] = 0.5, 1.0
    raw[3, 3] = norm[3, 3] = 0.25
    off = np.count_nonzero((raw != 0.0) | (norm != 0.0))
    sizes = []

    def counting(values, known=None):
        sizes.append(np.size(values))
        return metrics._format6(values, known)

    monkeypatch.setattr(katz, "_format6", counting)
    table = _table(raw, norm)
    _check_against_row_loop(table, list("abcdef"))
    assert off == 5
    assert table.support.size == off - 1
    assert sizes == [off - 1, off - 1]


def _fstrings(values):
    return np.array([f"{v:.6g}" for v in np.ravel(values)],
                    dtype=object).reshape(np.shape(values))


@settings(max_examples=150, deadline=None)
@given(pool=st.lists(FLOATS, min_size=1, max_size=5),
       picks=st.lists(st.integers(0, 4), max_size=60),
       shape=st.sampled_from([(-1,), (-1, 1), (1, -1)]))
@example(pool=[0.0], picks=[], shape=(-1,))
@example(pool=[0.25], picks=[0, 0, 0], shape=(-1,))
@example(pool=[float("nan"), 0.5, -1.0], picks=[0, 1, 2, 1, 0], shape=(-1,))
@example(pool=[-0.0, 0.0], picks=[0, 1, 1, 0], shape=(-1,))
@example(pool=[0.0, -0.0], picks=[1, 0, 0, 1], shape=(-1,))
@example(pool=[-5.0, 2.0], picks=[0, 1, 1, 1, 1], shape=(-1,))
def test_format6_matches_fstrings(pool, picks, shape):
    # Draws from a small pool make ties; the floor is often not the
    # most common value, and may be NaN or a signed zero.
    values = np.array([pool[i % len(pool)] for i in picks],
                      dtype=np.float64).reshape(shape)
    got = metrics._format6(values)
    assert got.shape == values.shape
    assert got.tolist() == _fstrings(values).tolist()


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.sampled_from(AWKWARD_FLOATS), max_size=30),
       keys=st.lists(st.sampled_from(AWKWARD_FLOATS), min_size=1,
                     max_size=10))
@example(values=[0.0, 0.5, 0.5], keys=[0.5, -0.0])
def test_format6_with_known_text_matches_fstrings(values, keys):
    # The known text is used only where every value is bitwise a key;
    # any other table is formatted as without it.
    keys = np.unique(np.array(keys))
    values = np.array(values, dtype=np.float64)
    got = metrics._format6(values, (keys, _fstrings(keys)))
    assert got.tolist() == _fstrings(values).tolist()


RAW = st.one_of(st.sampled_from([0.0, -0.0, 1.5, -2.0, 3.0, 7.25, 1e-12]),
                st.floats(-1e3, 1e3))


# Each example overwrites the same three files in tmp_path.
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(k=st.integers(2, 6), pool=st.lists(RAW, min_size=1, max_size=6),
       cells=st.lists(st.integers(0, 5), min_size=36, max_size=36),
       flags=st.lists(st.booleans(), min_size=30, max_size=30),
       threshold=st.sampled_from([0.0, 0.5, 1.0, 2.0]))
@example(k=2, pool=[1.5], cells=[0] * 36, flags=[True] * 30, threshold=0.0)
@example(k=3, pool=[0.0, -0.0, 2.0], cells=list(range(6)) * 6,
         flags=[False] * 30, threshold=0.5)
@example(k=4, pool=[-2.0, 3.0, 3.0, 7.25], cells=[1, 2, 3] * 12,
         flags=[True, False] * 15, threshold=1.0)
def test_model_files_match_row_loops(tmp_path, k, pool, cells, flags,
                                     threshold):
    # A model's score table and curves, written as the pipeline writes
    # them (curves first, their threshold text reused for score_norm),
    # against the row-at-a-time loops. Small pools give constant
    # tables, heavy ties, negative raw values, a raw floor other than 0
    # and -0.0 in the raw scores.
    raw = np.array([pool[c % len(pool)] for c in cells[:k * k]]).reshape(k, k)
    np.fill_diagonal(raw, 0.0)
    labels = np.zeros((k, k), dtype=np.uint8)
    labels[~np.eye(k, dtype=bool)] = [True, False] + flags[:k * k - k - 2]
    universe = oracles.universe_of(np.arange(k), labels)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = normalize(oracles.table_of("KI", universe, raw))
    report = metrics.evaluate(table, threshold=threshold)
    registry = _registry(AWKWARD_IDS[:k])

    known = metrics._write_evaluation(report, tmp_path, "KI")
    assert known is not None
    write_score_table(table, registry, tmp_path / "scores_KI.csv", known)
    roc, pr, scores = (_text(tmp_path / f"{kind}_KI.csv")
                       for kind in ("curve_roc", "curve_pr", "scores"))

    expected = [io.StringIO() for _ in range(3)]
    oracles.loop_write_curve(report.roc, expected[0])
    oracles.loop_write_curve(report.pr, expected[1])
    oracles.loop_write_score_table(table, registry, expected[2])
    assert [roc, pr, scores] == [e.getvalue() for e in expected]


def _text(path):
    """A written file's text, with its line ends as written."""
    return path.read_bytes().decode("utf-8")


def _bits(values):
    return np.ascontiguousarray(values, dtype=np.float64).view(
        np.int64).tolist()


@settings(max_examples=150, deadline=None)
@given(scores=st.lists(st.sampled_from([0.0, -0.0, 0.5, -2.0, 1e-300])
                       | st.floats(-1e3, 1e3), min_size=2, max_size=30),
       labels=st.lists(st.booleans(), min_size=30, max_size=30),
       single=st.integers(0, 29) | st.none())
@example(scores=[0.0, -0.0, -0.0, 0.0], labels=[False] * 30, single=2)
@example(scores=[-0.0, 0.5, 0.5, -0.0, 0.0], labels=[True, False] * 15,
         single=None)
@example(scores=[1.0, 1.0], labels=[False] * 30, single=1)
def test_roc_curve_is_the_pr_curve_behind_its_anchor(scores, labels,
                                                     single):
    # _write_evaluation writes the ROC thresholds and TPR from the PR
    # thresholds and recall text, and the recall and FPR text from the
    # report's tp and fp, so the curves evaluate derives from its sweep
    # must lie so, bit for bit: ties, signed zeros and a single positive
    # included. Both curves are also the ones a point-by-point loop
    # builds from a stable sort of the scores.
    n = len(scores)
    if single is None:
        labels = [True, False] + labels[:n - 2]
    else:
        labels = [i == single % n for i in range(n)]
    report = metrics.evaluate(np.array(scores), np.array(labels))
    roc, pr = report.roc, report.pr
    assert len(roc.x) == len(roc.thresholds) == len(pr.thresholds) + 1
    assert _bits(roc.thresholds) == _bits(np.append(math.inf,
                                                    pr.thresholds))
    assert _bits(roc.y) == _bits(np.append(0.0, pr.x))
    assert _bits(roc.x[:1]) == _bits([0.0])
    tp, fp, n_pos, n_neg = report.tp, report.fp, report.n_pos, report.n_neg
    assert tp.dtype == fp.dtype == np.int64
    assert (n_pos, n_neg) == (sum(labels), n - sum(labels))
    assert _bits(report.thresholds) == _bits(pr.thresholds)
    assert _bits(fp / n_neg) == _bits(roc.x[1:])
    assert _bits(tp / n_pos) == _bits(pr.x)
    assert _bits(tp / (tp + fp)) == _bits(pr.y)
    for got, want in zip((roc, pr), oracles.loop_curves(np.array(scores),
                                                        np.array(labels))):
        assert got.kind == want.kind
        assert [_bits(got.thresholds), _bits(got.x), _bits(got.y)] == [
            _bits(want.thresholds), _bits(want.x), _bits(want.y)]


def test_normalize_emits_no_negative_zero_so_threshold_text_is_reused(
        tmp_path):
    # -0.0 over a +0.0 minimum would normalize to -0.0, which the sweep
    # reports as a +0.0 threshold: the score table could then not take
    # its score_norm text from the curves.
    raw = np.array([[0.0, 0.0, -0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    labels = np.zeros((3, 3), dtype=np.uint8)
    labels[1, 0] = 1
    universe = oracles.universe_of(np.arange(3), labels)
    table = normalize(oracles.table_of("KI", universe, raw))
    assert not np.signbit(oracles.dense(table)).any()
    report = metrics.evaluate(table, threshold=0.5)
    keys, _ = metrics._write_evaluation(report, tmp_path, "KI")
    marked = np.array([f"key {i}" for i in range(len(keys))], dtype=object)
    got = metrics._format6(oracles.dense(table), (keys, marked))
    assert all(text.startswith("key ") for text in got.ravel())


def _universe_reports(scores, labels, pad, floor):
    """``evaluate`` reports of one universe: one per score list, each
    padded with ``pad`` negatives at ``floor`` below every score."""
    y = np.append(np.array(labels, dtype=bool), np.zeros(pad, dtype=bool))
    return [metrics.evaluate(np.append(np.array(s), np.full(pad, floor)), y)
            for s in scores]


def _written(out_dir):
    return {path.name: path.read_bytes() for path in out_dir.iterdir()}


# Each example overwrites the files of the two directories it makes.
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(2, 30),
       pools=st.lists(st.lists(st.sampled_from([0.0, -0.0, 0.5, 2.0, 1e-05])
                               | st.floats(-1e3, 1e3), min_size=1,
                               max_size=30),
                      min_size=1, max_size=4),
       flags=st.lists(st.booleans(), min_size=28, max_size=28),
       single=st.integers(0, 29) | st.none(),
       pad=st.sampled_from([0, 1, 100_000]))
@example(n=4, pools=[[0.25]], flags=[False] * 28, single=None, pad=0)
@example(n=3, pools=[[0.0, -0.0, -0.0], [-0.0, 0.5, 0.0]],
         flags=[False] * 28, single=1, pad=0)
@example(n=5, pools=[[1.0, 1.0, 0.5], [0.5], [2.0, 0.0, 2.0, 1.0]],
         flags=[True] * 28, single=None, pad=100_000)
def test_universe_evaluations_match_one_report_writer(tmp_path, n, pools,
                                                      flags, single, pad):
    # One pass over 1-4 reports of one universe (the pipeline's), against
    # each report written alone with every curve column formatted. Small
    # pools give ties and all-floor tables; signed zeros, a single
    # positive and 100k floor negatives (FPRs over a large n_neg) too.
    if single is None:
        labels = [True, False] + flags[:n - 2]
    else:
        labels = [i == single % n for i in range(n)]
    scores = [[pool[i % len(pool)] for i in range(n)] for pool in pools]
    floor = min(min(s) for s in scores) - 1.0
    reports = _universe_reports(scores, labels, pad, floor)
    got_dir, expected_dir = tmp_path / "got", tmp_path / "expected"
    got_dir.mkdir(exist_ok=True)
    expected_dir.mkdir(exist_ok=True)

    ratios = metrics._ratio_text(reports)
    for i, report in enumerate(reports):
        keys, text = metrics._write_evaluation(report, got_dir, f"M{i}",
                                               ratios)
        expected_keys, expected_text = oracles.one_report_write_evaluation(
            report, expected_dir, f"M{i}")
        assert _bits(keys) == _bits(expected_keys)
        assert text.tolist() == expected_text.tolist()
    assert _written(got_dir) == _written(expected_dir)


def test_recall_and_fpr_are_formatted_once_per_count(tmp_path, monkeypatch):
    # Three models of one universe: recall text is formatted once for
    # each count 0..n_pos and FPR text once for each fp count some model
    # reaches; per model only its thresholds and precision are formatted.
    rng = np.random.default_rng(7)
    labels = rng.random(400) < 0.1
    scores = [rng.random(400).round(2), rng.random(400).round(3),
              rng.random(400)]
    reports = [metrics.evaluate(s, labels) for s in scores]
    n_pos, n_neg = int(labels.sum()), int((~labels).sum())
    fp = {int(c) for r in reports for c in np.rint(r.roc.x[1:] * n_neg)}
    calls = []
    texts = metrics._texts

    def counting(values):
        calls.append(np.asarray(values, dtype=np.float64).copy())
        return texts(values)

    monkeypatch.setattr(metrics, "_texts", counting)
    ratios = metrics._ratio_text(reports)
    recall, fpr = calls
    assert _bits(recall) == _bits(np.arange(n_pos + 1) / n_pos)
    assert _bits(fpr) == _bits(np.array(sorted(fp)) / n_neg)
    assert len(fp) < sum(len(r.roc.x) - 1 for r in reports)
    calls.clear()
    for i, report in enumerate(reports):
        metrics._write_evaluation(report, tmp_path, f"M{i}", ratios)
    assert [len(c) for c in calls] == [
        len(r.pr.thresholds) for r in reports for _ in range(2)]


def test_mixed_label_counts_and_unreached_fprs_raise(tmp_path):
    labels = np.array([True, False, False, True, False])
    # Ties among the negatives: this report reaches fp counts 0 and 3.
    scores = np.array([0.9, 0.1, 0.1, 0.4, 0.1])
    report = metrics.evaluate(scores, labels)
    other = metrics.evaluate(scores, ~labels)
    with pytest.raises(ValueError, match="label counts"):
        metrics._ratio_text([report, other])
    with pytest.raises(ValueError, match="labels"):
        metrics._write_evaluation(other, tmp_path, "KI",
                                  metrics._ratio_text([report]))
    # Same label counts, but an FPR the shared text was not built for.
    shifted = metrics.evaluate(np.array([0.9, 0.8, 0.4, 0.4, 0.0]), labels)
    with pytest.raises(ValueError, match="FPR"):
        metrics._write_evaluation(shifted, tmp_path, "KI",
                                  metrics._ratio_text([report]))
    assert list(tmp_path.iterdir()) == []
    metrics._write_evaluation(report, tmp_path, "KI")
