"""Score tables on their nonzero-pair support against the dense oracles.

Every table of a universe lives on the union of its base tables'
nonzero pairs, and every other pair scores 0; decay, normalize, combine,
the sweeps and reports, the score-table export and its reader must
give, bit for bit and byte for byte, what the (k, k) versions in
``oracles`` give.
"""

import csv
import io
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from geokatz import geo, katz, metrics, pipeline
from geokatz.config import ALL_MODELS
from geokatz.errors import DegenerateLabelsError, DegenerateScoreTableWarning
from geokatz.graphs import NodeRegistry, PairUniverse
from geokatz.katz import KatzConfig, ScoreTable

# Zeros of both signs, values tied with each other, one whose decay
# underflows to a zero, and free draws; negative values put the 0 of
# the pairs off a table's support above its minimum.
CELLS = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, 1e-300]),
                  st.floats(0.0, 10.0))
SIGNED_CELLS = st.one_of(CELLS, st.sampled_from([-1.0, -0.5]))
# Coincident sites and antipodes, at which exp(-0.1 * d) underflows.
COORDS = st.one_of(st.sampled_from([(0.0, 0.0), (0.0, 180.0), (51.5, -0.1)]),
                   st.tuples(st.floats(-80.0, 80.0), st.floats(-180.0, 180.0)))


def _bits(values):
    return np.ascontiguousarray(values, dtype=np.float64).view(
        np.int64).tolist()


@st.composite
def _cases(draw):
    k = draw(st.integers(2, 6))
    cells = SIGNED_CELLS if draw(st.booleans()) else CELLS

    def matrix():
        return np.array(draw(st.lists(cells, min_size=k * k,
                                      max_size=k * k))).reshape(k, k)

    ki = matrix()
    shape = draw(st.sampled_from(["drawn", "all pairs", "empty"]))
    if shape == "all pairs":
        ki[ki == 0.0] = 0.25
    elif shape == "empty":
        ki[:] = draw(st.sampled_from([0.0, -0.0]))
    # WKI on its own support, on KI's, or on part of KI's (as when a
    # decay transform's edge weights underflow).
    wki_shape = draw(st.sampled_from(["drawn", "same", "subset"]))
    wki = matrix()
    if wki_shape == "same":
        wki[(ki == 0.0) & (wki != 0.0)] = 0.0
        wki[(ki != 0.0) & (wki == 0.0)] = 0.75
    elif wki_shape == "subset":
        wki = ki * np.array(draw(st.lists(st.booleans(), min_size=k * k,
                                          max_size=k * k))).reshape(k, k)
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=k * k,
                                    max_size=k * k))).reshape(k, k)
    for m in (ki, wki, labels):
        np.fill_diagonal(m, 0)
    coords = np.array(draw(st.lists(COORDS, min_size=k, max_size=k)))
    return SimpleNamespace(
        ki=ki, wki=wki, labels=labels.astype(np.uint8), lat=coords[:, 0],
        lon=coords[:, 1], gamma=draw(st.sampled_from([0.0, 1e-4, 0.01, 0.1])),
        rule=draw(st.sampled_from(["mean", "product", "max"])),
        on=draw(st.sampled_from(["normalized", "raw"])))


def _outcome(call):
    """What ``call`` returns, with the DegenerateScoreTableWarnings it
    raised, or the type of its error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = call()
        except (ValueError, DegenerateLabelsError) as exc:
            out = type(exc)
    return out, sum(issubclass(w.category, DegenerateScoreTableWarning)
                    for w in caught)


def _report_bits(report):
    return (metrics.report_dict(report), report.threshold.hex(),
            report.tp.tolist(), report.fp.tolist(), report.n_pos,
            report.n_neg,
            [_bits(c) for c in (report.roc.thresholds, report.roc.x,
                                report.roc.y, report.pr.thresholds,
                                report.pr.x, report.pr.y)])


def _evaluation(table, dense):
    """The tuned report of a support table and of its dense oracle."""
    def tuned():
        threshold, f1, report = metrics._tune_and_evaluate(
            table, table.model, {})
        return threshold.hex(), f1.hex(), _report_bits(report)

    def dense_tuned():
        scores = oracles.dense_vector(dense)
        labels = oracles.label_vector(dense.universe)
        threshold, f1 = metrics.optimal_threshold(scores, labels)
        report = metrics.evaluate(scores, labels, threshold=threshold,
                                  model=dense.model)
        return threshold.hex(), f1.hex(), _report_bits(report)

    return _outcome(tuned), _outcome(dense_tuned)


def _exports(table, dense, registry):
    """The exported text of a support table, with and without its
    report's threshold text, and of the dense writer and row loop."""
    known = None
    if table.universe.n_positives not in (0, table.universe.n_pairs):
        thresholds = metrics.evaluate(table).pr.thresholds[::-1]
        known = (np.ascontiguousarray(thresholds),
                 np.array(metrics._texts(thresholds), dtype=object))
    texts = []
    for write, source, given in ((katz.write_score_table, table, known),
                                 (katz.write_score_table, table, None),
                                 (oracles.dense_write_score_table, dense,
                                  known)):
        buf = io.StringIO()
        write(source, registry, buf, given)
        texts.append(buf.getvalue())
    buf = io.StringIO()
    oracles.loop_write_score_table(dense, registry, buf)
    return texts + [buf.getvalue()]


def _check_tables(tables, dense, registry):
    for model, table in tables.items():
        want = dense[model]
        assert _bits(oracles.dense(table)) == _bits(want.values), model
        assert _bits(oracles.dense_raw(table)) == _bits(want.raw_values), \
            model
        assert table.info == want.info
        assert table.support.dtype == np.int64
        assert np.all(np.diff(table.support) > 0)
        got, expected = _evaluation(table, want)
        assert got == expected, model
        first, *rest = _exports(table, want, registry)
        assert rest == [first] * 3, model


def _model_tables(case, ki, wki):
    """``pipeline._model_tables`` of all six models from the base tables
    ``ki`` and ``wki``, and the dense oracle's, each with its count of
    constant-table warnings."""
    k = len(case.ki)
    universe = ki.universe
    registry = NodeRegistry([f"s{i}" for i in range(k)], case.lat, case.lon)
    scoring = pipeline._Scoring(universe, None, registry,
                                tuple(pipeline._needed_bases(ALL_MODELS)),
                                raw={"KI": ki, "WKI": wki})
    cfg = SimpleNamespace(models=ALL_MODELS, combine_rule=case.rule,
                          combine_on=case.on)
    got = _outcome(lambda: pipeline._model_tables(
        scoring, KatzConfig(gamma=case.gamma), cfg))
    dense_raw = {name: oracles.DenseTable(name, universe,
                                          oracles.dense(table),
                                          info=dict(table.info))
                 for name, table in (("KI", ki), ("WKI", wki))}
    distances = oracles.loop_distance_matrix(case.lat, case.lon)
    want = _outcome(lambda: oracles.dense_model_tables(
        dense_raw, distances, case.gamma, ALL_MODELS, case.rule, case.on))
    return got, want, registry


@settings(max_examples=250, deadline=None)
@given(_cases())
def test_model_tables_match_dense_oracle(case):
    k = len(case.ki)
    universe = oracles.universe_of(np.arange(k), case.labels)
    ki = oracles.table_of("KI", universe, case.ki, info={"beta": 0.1})
    wki = oracles.table_of("WKI", universe, case.wki, info={"beta": 0.2})
    (tables, warned), (dense, want_warned), registry = _model_tables(
        case, ki, wki)
    assert warned == want_warned
    union = np.flatnonzero(((_bits_matrix(case.ki) != 0)
                            | (_bits_matrix(case.wki) != 0)).ravel())
    assert oracles.support_of(case.ki).tolist() == ki.support.tolist()
    assert oracles.support_of(case.ki, case.wki).tolist() == union.tolist()
    # A table normalized from a negative score while a pair is off the
    # union, and every table fused from it, lies on every pair.
    every = np.flatnonzero(~np.eye(k, dtype=bool))
    negative = {base: bool((dense[base].raw_values < 0.0).any())
                for base in ("KI", "WKI", "EWKI")}
    for model, table in tables.items():
        moved = union.size < every.size and any(
            negative[base] for base in pipeline.MODEL_PARTS[model])
        assert table.support.tolist() == (every if moved else union).tolist()
    _check_tables(tables, dense, registry)


def _bits_matrix(matrix):
    bits = np.ascontiguousarray(matrix, dtype=np.float64).view(np.int64)
    bits = bits.copy()
    np.fill_diagonal(bits, 0)
    return bits


@settings(max_examples=150, deadline=None)
@given(_cases())
def test_combine_of_tables_on_other_supports_matches_dense_oracle(case):
    # Tables built apart each hold their own support; combine fuses
    # them on the union.
    k = len(case.ki)
    universe = oracles.universe_of(np.arange(k), case.labels)
    tables, dense = [], []
    for model, values in (("KI", case.ki), ("WKI", case.wki)):
        table = oracles.table_of(model, universe, values)
        tables.append(_outcome(lambda: katz.normalize(table))[0])
        dense.append(_outcome(lambda: oracles.dense_normalize(
            oracles.DenseTable(model, universe, values)))[0])
    got, warned = _outcome(lambda: katz.combine(*tables, rule=case.rule,
                                                on=case.on))
    want, want_warned = _outcome(lambda: oracles.dense_combine(
        *dense, rule=case.rule, on=case.on))
    assert warned == want_warned
    registry = NodeRegistry([f"s{i}" for i in range(k)], case.lat, case.lon)
    _check_tables({"KIWKI": got, "KI": tables[0], "WKI": tables[1]},
                  {"KIWKI": want, "KI": dense[0], "WKI": dense[1]},
                  registry)


# Sites 0 and 1 in Britain, 2 in New Zealand: the long edges' decay
# weights underflow at gamma 0.1, so WKI loses every walk over them.
SITES = ([51.5, 52.0, -41.3, 51.0], [-0.1, 0.5, 174.8, 1.0])
EDGES = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3), (0, 3)]


@pytest.mark.parametrize("rule", ["mean", "product", "max"])
@pytest.mark.parametrize("on", ["normalized", "raw"])
def test_decay_wki_on_part_of_ki_support_matches_dense_oracle(rule, on):
    n = len(SITES[0])
    adj = sp.csr_matrix((np.ones(len(EDGES)), tuple(zip(*EDGES))),
                        shape=(n, n))
    # Positives (0, 1), (2, 0) and (3, 1) at their flat positions.
    universe = PairUniverse(np.arange(n), np.array([1, 8, 13]))
    cfg = KatzConfig(gamma=0.1)
    ki = katz.katz_scores(adj, cfg, universe)
    weighted = geo.weighted_adjacency(adj, *SITES, transform="decay",
                                      gamma=0.1)
    assert np.count_nonzero(weighted.data == 0.0) == 2
    wki = katz.katz_scores(weighted, cfg, universe, model="WKI")
    assert set(wki.support) < set(ki.support)
    case = SimpleNamespace(ki=oracles.dense(ki), lat=np.array(SITES[0]),
                           lon=np.array(SITES[1]), gamma=0.1, rule=rule,
                           on=on)
    (tables, warned), (dense, want_warned), registry = _model_tables(
        case, ki, wki)
    assert warned == want_warned == 0
    for table in tables.values():
        assert table.support is tables["KI"].support
        assert table.support.tolist() == ki.support.tolist()
    _check_tables(tables, dense, registry)


def test_support_holds_signed_zeros_and_leaves_the_diagonal():
    values = np.array([[5.0, -0.0, 0.0], [0.0, 0.0, 2.0], [1e-300, 0.0,
                                                             -0.0]])
    universe = oracles.universe_of(np.arange(3))
    assert oracles.support_of(values).tolist() == [1, 5, 6]
    # A second matrix adds the cells at which it is not +0.0.
    other = np.zeros((3, 3))
    other[0, 0], other[1, 0], other[2, 1] = 1.0, -0.0, 0.0
    assert oracles.support_of(values, other).tolist() == [1, 3, 5, 6]
    table = oracles.table_of("KI", universe, values)
    assert table.support.tolist() == [1, 5, 6]
    assert universe.n_pairs - table.support.size == 3
    assert _bits(table.scores) == _bits([-0.0, 2.0, 1e-300])
    rebuilt = ScoreTable("KI", universe, table.support, table.scores)
    want = values.copy()
    np.fill_diagonal(want, 0.0)
    assert _bits(oracles.dense(table)) == _bits(want)
    assert _bits(oracles.dense(rebuilt)) == _bits(want)


def test_score_matrix_of_another_size_is_refused():
    universe = oracles.universe_of(np.arange(3))
    with pytest.raises(katz.UniverseMismatchError):
        oracles.table_of("KI", universe, np.zeros((2, 2)))


@settings(max_examples=100, deadline=None)
@given(_cases(), st.lists(st.booleans(), min_size=36, max_size=36))
def test_table_sweep_with_given_labels_matches_dense_vector(case, drawn):
    # The universe's positives, drawn apart from the table's values,
    # label the support pairs by their flat positions.
    k = len(case.ki)
    positives = [p for p in range(k * k) if drawn[p] and p % (k + 1)]
    universe = PairUniverse(np.arange(k), np.array(positives, np.int64))
    table = _outcome(lambda: katz.normalize(
        oracles.table_of("KI", universe, case.ki)))[0]
    labels = oracles.label_vector(universe)
    vector = oracles.dense_vector(table)
    got = _outcome(lambda: _report_bits(metrics.evaluate(
        table, threshold=0.5)))
    want = _outcome(lambda: _report_bits(metrics.evaluate(
        vector, labels, threshold=0.5, model="KI")))
    assert got == want
    # The confusion at any cut is read off the table's sweep, and
    # counts what masks over every pair count.
    for cut in np.append(vector, [0.5, -np.inf, np.inf, np.nan]):
        cm = metrics.confusion_at(table, threshold=cut)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == oracles.mask_confusion(
            vector, labels != 0, cut)


def test_table_with_labels_is_refused():
    # A table is labeled by its universe: labels given beside it are
    # refused, not read in another order.
    universe = oracles.universe_of(np.arange(3), np.eye(3)[::-1])
    table = oracles.table_of("KI", universe, np.eye(3)[::-1])
    labels = oracles.label_vector(universe)
    for call in (metrics.evaluate, metrics.optimal_threshold,
                 metrics.confusion_at):
        with pytest.raises(ValueError, match="labeled by its universe"):
            call(table, labels)


def test_table_of_public_types_matches_table_of():
    # A support may hold a +0.0 score; every other pair scores 0.
    import geokatz

    values = np.array([[0.0, 2.0, 0.0, 0.5],
                       [0.0, 0.0, 0.0, 0.0],
                       [1.0, 0.0, 0.0, 2.0],
                       [0.0, 0.0, 0.25, 0.0]])
    universe = geokatz.PairUniverse(np.arange(4), np.array([1, 8, 11, 13]))
    table = geokatz.ScoreTable("KI", universe, np.array([1, 3, 6, 8, 11, 14]),
                               np.array([2.0, 0.5, 0.0, 1.0, 2.0, 0.25]))
    assert not table.normalized
    want = oracles.table_of("KI", universe, values)
    assert _bits(oracles.dense(table)) == _bits(oracles.dense(want))
    got, want = geokatz.normalize(table), geokatz.normalize(want)
    assert got.normalized
    for column in (oracles.dense, oracles.dense_raw):
        assert _bits(column(got)) == _bits(column(want))
    assert _report_bits(geokatz.evaluate(got, threshold=0.5)) == \
        _report_bits(geokatz.evaluate(want, threshold=0.5))
    registry = NodeRegistry(list("abcd"), np.zeros(4), np.zeros(4))
    texts = []
    for table in (got, want):
        buf = io.StringIO()
        geokatz.write_score_table(table, registry, buf)
        texts.append(buf.getvalue())
    assert texts[0] == texts[1]
    assert "a,c,KI,0,0\n" in texts[0] and "b,c,KI,0,0\n" in texts[0]


def test_unnormalized_table_is_refused_by_combine_and_export():
    universe = oracles.universe_of(np.arange(3))
    table = ScoreTable("KI", universe, np.array([1, 5]), np.array([1.0, 2.0]))
    assert not table.normalized and table.raw is None
    normed = katz.normalize(table)
    for on in ("normalized", "raw"):
        for pair in ((table, table), (normed, table), (table, normed)):
            with pytest.raises(ValueError, match="two normalized tables"):
                katz.combine(*pair, on=on)
    registry = NodeRegistry(list("abc"), np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError, match="normalized table"):
        katz.write_score_table(table, registry, io.StringIO())


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 6).flatmap(lambda k: st.tuples(
    st.just(k),
    st.lists(st.booleans(), min_size=k * k, max_size=k * k),
    st.lists(SIGNED_CELLS, min_size=k * k, max_size=k * k))))
def test_normalize_of_negative_table_with_pairs_off_support(case):
    # The pairs off the support would normalize above 0, so the table
    # is normalized on every pair, as the dense oracle normalizes it.
    k, on, cells = case
    values = np.where(np.reshape(on, (k, k)), np.reshape(cells, (k, k)), 0.0)
    values[0, 1] = -0.5
    np.fill_diagonal(values, 0.0)
    if oracles.support_of(values).size == k * (k - 1):
        values[1, 0] = 0.0
    universe = oracles.universe_of(np.arange(k))
    table = oracles.table_of("KI", universe, values)
    assert table.support.size < universe.n_pairs
    (got, warned), (want, want_warned) = (
        _outcome(lambda: katz.normalize(table)),
        _outcome(lambda: oracles.dense_normalize(
            oracles.DenseTable("KI", universe, values))))
    assert warned == want_warned == 0
    assert got.support.tolist() == np.flatnonzero(
        ~np.eye(k, dtype=bool)).tolist()
    assert _bits(oracles.dense(got)) == _bits(want.values)
    assert _bits(oracles.dense_raw(got)) == _bits(want.raw_values)


@pytest.mark.parametrize("nodes", [[0, 3], [2, 5], [1, 2, 3]])
def test_universe_node_past_the_registry_is_refused(tmp_path, nodes):
    registry = NodeRegistry(list("abc"), np.zeros(3), np.zeros(3))
    universe = oracles.universe_of(np.array(nodes))
    k = len(nodes)
    table = oracles.table_of("KI", universe, np.ones((k, k)),
                             raw_values=np.ones((k, k)))
    with pytest.raises(katz.UniverseMismatchError, match="registry"):
        katz.write_score_table(table, registry, io.StringIO())
    path = tmp_path / "scores.csv"
    path.write_text("source_id,dest_id,model,score,score_norm\n"
                    "a,b,KI,1,1\nb,a,KI,1,1\n")
    with pytest.raises(katz.UniverseMismatchError, match="registry"):
        katz.read_score_table(path, universe, registry)


# Ids that csv.writer must quote, one of them over two physical lines,
# and short free ones over the same characters.
SCORE_IDS = st.one_of(
    st.sampled_from(["a", "b,c", 'd"e', "f\ng", "h\r\ni", " j ", "é", ""]),
    st.text(alphabet='ab,"\n ', max_size=3))
# Score texts: zeros of both signs in several spellings, a positive zero
# written with a minus in its exponent, and free finite floats.
SCORE_TEXTS = st.one_of(
    st.sampled_from(["0", "-0", "0.0", "-0.0", "+0", "0e-5", "-0e5",
                     " 1.5", "1e-300", "5e-324", "0.25", "1_0"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr))
FAULTS = ("duplicate", "diagonal", "unknown id", "mixed models", "short row",
          "non-numeric", "nan", "inf", "missing row")


@st.composite
def _score_files(draw):
    """A score table's text, its universe and registry: every pair of
    the universe once in a drawn order, the header's columns permuted
    and maybe an extra one, drawn line ends, a byte-order mark, blank
    lines, and up to two different faults."""
    ids = draw(st.lists(SCORE_IDS, min_size=2, max_size=6, unique=True))
    nodes = sorted(draw(st.sets(st.integers(0, len(ids) - 1), min_size=2)))
    # Now and then a universe of no pairs.
    if draw(st.integers(0, 9)) == 9:
        nodes = nodes[:draw(st.integers(0, 1))]
    registry = NodeRegistry(ids, np.zeros(len(ids)), np.zeros(len(ids)))
    universe = oracles.universe_of(nodes)
    names = list(katz.SCORE_COLUMNS) + draw(
        st.sampled_from([[], ["note"]]))
    names = draw(st.permutations(names))
    model = draw(st.sampled_from(["KI", "EWKI", "a,b", 'q"m']))
    rows = [{"source_id": ids[u], "dest_id": ids[v], "model": model,
             "score": draw(SCORE_TEXTS), "score_norm": draw(SCORE_TEXTS),
             "note": "x"}
            for u in nodes for v in nodes if u != v]
    rows = draw(st.permutations(rows))
    faults = draw(st.lists(st.sampled_from(FAULTS), max_size=2, unique=True))
    outside = [node_id for i, node_id in enumerate(ids) if i not in nodes]
    at = None
    for fault in faults:
        if not rows:
            break
        # A second fault may hit the row of the first, so that the
        # order of the checks decides which error is raised.
        if at is None or draw(st.booleans()):
            at = draw(st.integers(0, len(rows) - 1))
        row = dict(rows[at])
        if fault == "duplicate":
            at = draw(st.integers(0, len(rows)))
            rows.insert(at, row)
            continue
        if fault == "missing row":
            del rows[at]
            at = None
            continue
        if fault == "diagonal":
            row["dest_id"] = row["source_id"]
        elif fault == "unknown id":
            row[draw(st.sampled_from(["source_id", "dest_id"]))] = draw(
                st.sampled_from(outside + ["not-a-site"]))
        elif fault == "mixed models":
            row["model"] = model + "x"
        elif fault == "short row":
            row["short"] = draw(st.integers(1, len(names) - 1))
        else:
            column = draw(st.sampled_from(["score", "score_norm"]))
            row[column] = draw(st.sampled_from({
                "non-numeric": ["high", "", "1.2.3", "0x1p3"],
                "nan": ["nan", "NaN", "-nan"],
                "inf": ["inf", "-inf", "1e999", "Infinity"]}[fault]))
        rows[at] = row
    line_end = draw(st.sampled_from(["\n", "\r\n"]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=line_end)
    header = names if draw(st.booleans()) else [" " + n for n in names]
    records = [header] + [[row[n] for n in names][:row.get("short")]
                          for row in rows]
    lines = []
    for record in records:
        writer.writerow(record)
        lines.append(buf.getvalue())
        buf.seek(0)
        buf.truncate()
        if draw(st.integers(0, 5)) == 0:
            lines.append(line_end)
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + "".join(lines), universe, registry


def _read_outcome(read):
    """A table read as the bits of its model, support and columns, or
    the class and text of the error it raised."""
    try:
        table = read()
    except Exception as exc:
        return type(exc), str(exc)
    return (table.model, table.normalized, table.support.dtype,
            table.support.tobytes(), table.scores.tobytes(),
            table.raw.tobytes())


def _two_site_file(*lines):
    registry = NodeRegistry(["a", "b"], np.zeros(2), np.zeros(2))
    text = "source_id,dest_id,model,score,score_norm\n" + "".join(
        line + "\n" for line in lines)
    return text, oracles.universe_of([0, 1]), registry


@settings(max_examples=400, deadline=None)
@given(_score_files())
# A row that is both a diagonal pair and non-numeric, and a duplicate
# that is also not finite: the order of the checks decides the error.
@example(_two_site_file("a,b,KI,0,0", "a,a,KI,high,0"))
@example(_two_site_file("a,b,KI,0,0", "a,b,KI,nan,0", "b,a,KI,0,0"))
def test_read_score_table_matches_dense_oracle(tmp_path_factory, case):
    text, universe, registry = case
    path = tmp_path_factory.mktemp("scores") / "scores.csv"
    path.write_bytes(text.encode("utf-8"))

    def oracle():
        with open(path, newline="", encoding="utf-8") as fh:
            return oracles.dense_read_scores(fh, path, universe, registry)

    assert _read_outcome(lambda: katz.read_score_table(
        path, universe, registry)) == _read_outcome(oracle)
