"""Chunked artifact writers against the row-at-a-time reference loops."""

import io

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from geokatz import metrics
from geokatz.graphs import NodeRegistry, PairUniverse
from geokatz.katz import ScoreTable, write_score_table

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

FINITE_AWKWARD_FLOATS = tuple(v for v in AWKWARD_FLOATS if np.isfinite(v))

FLOATS = st.one_of(st.sampled_from(AWKWARD_FLOATS), st.floats(width=64))


def _registry(ids):
    registry = NodeRegistry()
    for node_id in ids:
        registry.add(node_id, 50.0, 0.0)
    return registry


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
    universe = PairUniverse(node_indices=np.arange(k, dtype=np.int64),
                            labels=np.zeros((k, k), dtype=np.uint8))
    table = ScoreTable(model=model, universe=universe, values=norm,
                       normalized=True, raw_values=raw)
    registry = _registry(ids)
    expected = io.StringIO()
    oracles.loop_write_score_table(table, registry, expected)
    got = io.StringIO()
    write_score_table(table, registry, got)
    assert got.getvalue() == expected.getvalue()


@settings(max_examples=80, deadline=None)
@given(scores=st.lists(st.sampled_from(FINITE_AWKWARD_FLOATS)
                      | st.floats(-1e6, 1e6), min_size=2, max_size=40),
       labels=st.lists(st.booleans(), min_size=40, max_size=40),
       points=st.lists(st.tuples(FLOATS, FLOATS, FLOATS), max_size=30))
@example(scores=[0.5, 0.5, 1e-05, -0.0], labels=[True, False] * 20,
         points=[(float("inf"), -0.0, 0.0), (0.0, 0.0, -0.0)])
def test_write_curve_matches_point_loop(scores, labels, points):
    labels = [True, False] + labels[:len(scores) - 2]
    report = metrics.evaluate(np.array(scores), np.array(labels))
    assert report.roc.thresholds[0] == float("inf")
    drawn = metrics.Curve(
        "roc", *np.array(points, dtype=np.float64).reshape(-1, 3).T)
    for curve in (report.roc, report.pr, drawn):
        expected = io.StringIO()
        oracles.loop_write_curve(curve, expected)
        got = io.StringIO()
        metrics.write_curve(curve, got)
        assert got.getvalue() == expected.getvalue()
