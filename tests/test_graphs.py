"""Ingestion, network assembly, temporal splits and pair universes."""

import csv
import dataclasses
import io
import logging
import os
import re
import signal
import threading
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_record, report_of, rows_of, simple_network
from geokatz import _fork, graphs
from geokatz.errors import (DataError, EmptyNetworkError, EmptySplitError,
                            GeokatzError, RowError, SchemaError)
from geokatz.graphs import (REQUIRED_COLUMNS, NodeRegistry, PairUniverse,
                            SplitSpec, build_adjacency, build_network,
                            candidate_pairs, ingest_movements,
                            temporal_split)

CSV_HEADER = ("source_id,dest_id,year,source_lat,source_lon,"
              "dest_lat,dest_lon\n")


def _csv(rows):
    return io.StringIO(CSV_HEADER + "".join(rows))


def test_ingest_accepts_well_formed_rows():
    report = ingest_movements(_csv([
        "a,b,2015,50.0,0.0,51.0,1.0\n",
        "b,c,2016,51.0,1.0,52.0,0.5\n",
    ]))
    assert report.accepted == 2
    assert report.rejected == 0
    assert rows_of(report)[0].source_id == "a"
    assert rows_of(report)[0].year == 2015
    assert rows_of(report)[1].dest_lat == 52.0


def test_ingest_remaps_schema():
    stream = io.StringIO(
        "von,nach,jahr,vlat,vlon,nlat,nlon\n"
        "a,b,2015,50.0,0.0,51.0,1.0\n")
    schema = {"source_id": "von", "dest_id": "nach", "year": "jahr",
              "source_lat": "vlat", "source_lon": "vlon",
              "dest_lat": "nlat", "dest_lon": "nlon"}
    report = ingest_movements(stream, schema=schema)
    assert report.accepted == 1
    assert rows_of(report)[0].dest_id == "b"


@pytest.mark.parametrize("delimiter", [";;", "", '"', "\r", "\n", 44, None])
def test_ingest_rejects_a_delimiter_that_is_not_one_plain_character(
        delimiter):
    with pytest.raises(DataError, match="delimiter must be one character"):
        ingest_movements(_csv(["a,b,2015,50.0,0.0,51.0,1.0\n"]),
                         delimiter=delimiter)


def _csv_records(source, **kwargs):
    """The records the csv module read while ``source`` was ingested,
    and the report."""
    records = []
    reader = csv.reader

    def counting_reader(*args, **kwargs):
        for record in reader(*args, **kwargs):
            records.append(record)
            yield record

    with mock.patch.object(graphs.csv, "reader", counting_reader):
        report = ingest_movements(source, **kwargs)
    return records, report


def test_quote_free_file_reads_only_its_header_through_csv(tmp_path):
    rows = ["a,b,2015,50.0,0.0,51.0,1.0\n", "\n", "a,b,2015\n",
            "b,c,2016,51.0,1.0,52.0,0.5,extra\n"] * 300
    path = tmp_path / "quote_free.csv"
    path.write_text(CSV_HEADER + "".join(rows))
    records, report = _csv_records(path, on_bad_rows="skip")
    assert records == [CSV_HEADER.rstrip("\n").split(",")]
    assert (report.accepted, report.rejected) == (600, 300)
    # A stream, quote-free or not, is read by the csv module throughout.
    records, stream_report = _csv_records(_csv(rows), on_bad_rows="skip")
    assert len(records) == 1 + len(rows)
    assert _report_fields(stream_report) == _report_fields(report)


def test_a_quote_in_the_last_row_sends_the_file_through_csv(tmp_path):
    rows = [f"s{i},d{i},2015,50.0,0.0,51.0,1.0\n" for i in range(40)]
    rows[-1] = rows[-1].replace("s39,", '"s39",')
    path = tmp_path / "late_quote.csv"
    path.write_text(CSV_HEADER + "".join(rows))
    records, report = _csv_records(path)
    assert len(records) == 1 + len(rows)
    records, stream_report = _csv_records(_csv(rows))
    assert _report_fields(report) == _report_fields(stream_report)
    assert report.accepted == 40
    assert rows_of(report)[-1].source_id == "s39"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_named_pipe_is_read_through_csv(tmp_path):
    text = _boundary_file({5}, 40)
    path = tmp_path / "movements.csv"
    path.write_text(text)
    pipe = tmp_path / "pipe.csv"
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_text, args=(text,),
                              daemon=True)
    writer.start()
    records, report = _csv_records(pipe, on_bad_rows="skip", workers=2)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert len(records) == 41
    assert _report_fields(report) == _report_fields(
        ingest_movements(path, on_bad_rows="skip"))
    # A bad byte is named without its offset: finding it would mean
    # opening the pipe again, which waits for a writer that never comes.
    writer = threading.Thread(target=pipe.write_bytes, args=(
        text.encode() + "Fl\u00e5m,b,2016,61.0,7.1,51.0,1.0\n".encode(
            "latin-1"),), daemon=True)
    writer.start()
    with pytest.raises(DataError, match=re.escape(
            f"{pipe}: byte 0xe5 is not valid utf-8")):
        ingest_movements(pipe, on_bad_rows="skip")
    writer.join(timeout=10)
    assert not writer.is_alive()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("text,on_bad_rows", [
    (CSV_HEADER + "a,b,2015,50.0,0.0,51.0,1.0\n", "abort"),
    (CSV_HEADER + '"a",b,2015,50.0,0.0,51.0,1.0\n', "abort"),
    ((CSV_HEADER + "Fl\u00e5m,b,2015,50.0,0.0,51.0,1.0\n").encode("latin-1"),
     "skip"),
], ids=["clean", "quoted", "undecodable"])
def test_a_movement_file_is_opened_once(tmp_path, monkeypatch, workers,
                                        text, on_bad_rows):
    path = tmp_path / "movements.csv"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    _outcome(ingest_movements, path, workers=workers,
             on_bad_rows=on_bad_rows)
    assert opened == [path]


def test_ingest_missing_column_raises_schema_error():
    stream = io.StringIO("source_id,dest_id,year\na,b,2015\n")
    with pytest.raises(SchemaError):
        ingest_movements(stream)


@pytest.mark.parametrize("name", ["missing.csv", "a-directory"])
def test_ingest_unopenable_path_is_data_error_naming_it(tmp_path, name):
    (tmp_path / "a-directory").mkdir()
    path = tmp_path / name
    with pytest.raises(DataError, match=re.escape(f"movement file {path}")):
        ingest_movements(path)


def test_ingest_abort_on_bad_row():
    with pytest.raises(RowError):
        ingest_movements(_csv(["a,b,not-a-year,50.0,0.0,51.0,1.0\n"]))


def test_ingest_skip_collects_diagnostics():
    report = ingest_movements(_csv([
        "a,b,2015,50.0,0.0,51.0,1.0\n",
        "a,b,2015,91.5,0.0,51.0,1.0\n",   # latitude out of range
        "a,b,xx,50.0,0.0,51.0,1.0\n",     # year not an integer
        "a,b,2015,50.0\n",               # truncated row
    ]), on_bad_rows="skip")
    assert report.accepted == 1
    assert report.rejected == 3
    assert len(report.diagnostics) == 3
    assert all("row" in d for d in report.diagnostics)


def test_ingest_rejects_year_outside_range():
    report = ingest_movements(
        _csv(["a,b,1850,50.0,0.0,51.0,1.0\n"]), on_bad_rows="skip",
        year_range=(1900, 2100))
    assert report.rejected == 1


def test_ingest_species_column_is_optional():
    stream = io.StringIO(
        CSV_HEADER.rstrip("\n") + ",species\n"
        "a,b,2015,50.0,0.0,51.0,1.0,trout\n")
    report = ingest_movements(stream)
    assert rows_of(report)[0].species == "trout"


def test_ingest_from_path(tmp_path):
    path = tmp_path / "movements.csv"
    path.write_text(CSV_HEADER + "a,b,2015,50.0,0.0,51.0,1.0\n")
    report = ingest_movements(path)
    assert report.accepted == 1


def test_ingest_from_path_skips_byte_order_mark(tmp_path):
    # Spreadsheet exports start the file with a UTF-8 byte-order mark.
    path = tmp_path / "movements.csv"
    path.write_bytes(b"\xef\xbb\xbf"
                     + (CSV_HEADER + "a,b,2015,50.0,0.0,51.0,1.0\n").encode())
    report = ingest_movements(path)
    assert report.accepted == 1
    assert rows_of(report)[0].source_id == "a"


@pytest.mark.parametrize("header", [CSV_HEADER,
                                    '"source_id"' + CSV_HEADER[9:]])
def test_ingest_from_stream_skips_byte_order_mark(header):
    # A caller-opened stream keeps the mark as the header's first char.
    report = ingest_movements(io.StringIO(
        "\ufeff" + header + "a,b,2015,50.0,0.0,51.0,1.0\n"))
    assert report.accepted == 1
    assert rows_of(report)[0].source_id == "a"


def test_build_network_drops_self_loops_and_duplicates():
    records = [
        make_record("a", "b", 2015),
        make_record("a", "b", 2015),   # duplicate triple
        make_record("a", "a", 2015),   # self-loop
        make_record("b", "a", 2016),
    ]
    net = build_network(report_of(records))
    assert net.n_edges == 2
    assert net.n_links == 2
    assert net.n_nodes == 2


def test_networks_compare_and_hash_by_identity():
    # Their array fields have no single truth value, so the dataclass
    # == would raise on two distinct networks, and hash() on any.
    edges = [("a", "b", 2015), ("b", "c", 2016)]
    net, other = simple_network(edges), simple_network(edges)
    assert net == net
    assert net != other
    assert net != net.restrict(2000, 2100)
    assert len({net, net, other}) == 2


def test_build_network_all_self_loops_is_empty():
    with pytest.raises(EmptyNetworkError):
        build_network(report_of([make_record("a", "a", 2015)]))


def test_build_network_no_records_is_empty():
    with pytest.raises(EmptyNetworkError):
        build_network(report_of([]))


def test_build_network_first_seen_coordinates_win():
    records = [
        make_record("a", "b", 2015, s_lat=50.0, s_lon=0.0),
        make_record("a", "c", 2016, s_lat=59.0, s_lon=9.0),  # conflict
    ]
    net = build_network(report_of(records))
    idx = net.registry.index("a")
    assert (net.registry.lat_array()[idx],
            net.registry.lon_array()[idx]) == (50.0, 0.0)


@pytest.mark.parametrize("column, value, named", [
    ("year", np.array([2015, 2016, 2017]), "year"),
    ("source", np.array([0, 0, 1]), "dest"),
    ("dest_lat", np.array([51.0]), "dest_lat"),
])
def test_build_network_rejects_a_column_not_one_per_row(column, value,
                                                        named):
    # A one-entry dest_lat would otherwise broadcast, putting c at 51.
    report = report_of([make_record("a", "b", 2015, s_lat=50.0, d_lat=51.0),
                        make_record("a", "c", 2016, s_lat=50.0, d_lat=52.0)])
    with pytest.raises(DataError, match=f"column '{named}' has"):
        build_network(dataclasses.replace(report, **{column: value}))


@pytest.mark.parametrize("column", ["source", "dest"])
@pytest.mark.parametrize("code", [-1, 3])
def test_build_network_rejects_a_code_outside_the_ids(column, code):
    # NumPy would take code -1 as the last id without any error.
    report = report_of([make_record("a", "b", 2015),
                        make_record("b", "c", 2016)])
    codes = getattr(report, column).copy()
    codes[1] = code
    with pytest.raises(DataError, match=re.escape(
            f"movement column '{column}' holds code {code} at row 1, "
            "outside the 3 ids")):
        build_network(dataclasses.replace(report, **{column: codes}))


def test_build_network_registers_ids_in_the_order_rows_name_them():
    # A report built by hand may list its ids in any order, and ids no
    # row names; the registry takes the rows' first-seen order.
    report = graphs.IngestReport(
        ids=["z", "c", "b", "a"], source=np.array([3, 1]),
        dest=np.array([2, 3]), year=np.array([2015, 2016]),
        source_lat=np.array([1.0, 3.0]), source_lon=np.array([0.0, 0.0]),
        dest_lat=np.array([2.0, 1.0]), dest_lon=np.array([0.0, 0.0]))
    net = build_network(report)
    assert net.registry.ids == ["a", "b", "c"]
    assert net.registry.lat_array().tolist() == [1.0, 2.0, 3.0]
    assert net.links.tolist() == [[0, 1], [2, 0]]


def test_registry_rejects_out_of_range_coordinates():
    for record in (make_record("a", "b", 2015, s_lat=95.0),
                   make_record("a", "b", 2015, d_lon=200.0),
                   make_record("a", "b", 2015, s_lat=float("nan"))):
        with pytest.raises(DataError):
            build_network(report_of([record]))


def test_registry_takes_ids_and_coordinates_in_index_order():
    registry = NodeRegistry(("b", "a"), [50.0, -0.0], np.array([1.0, 180.0]))
    assert registry.ids == ["b", "a"]
    assert registry.index("a") == 1
    assert (registry.lat_array()[1], registry.lon_array()[1]) == (-0.0, 180.0)
    assert not registry.lat_array().flags.writeable


def test_registry_rejects_a_repeated_id():
    with pytest.raises(DataError, match="node 'b' is listed more than once"):
        NodeRegistry(["a", "b", "c", "b"], [0.0] * 4, [0.0] * 4)


@pytest.mark.parametrize("lat,lon", [([0.0], [0.0, 0.0]),
                                     ([0.0, 0.0, 0.0], [0.0, 0.0]),
                                     ([[0.0, 0.0]], [0.0, 0.0])])
def test_registry_rejects_coordinates_not_one_per_id(lat, lon):
    with pytest.raises(DataError, match="2 node ids need 2 latitudes"):
        NodeRegistry(["a", "b"], lat, lon)


@pytest.mark.parametrize("lat,lon,message", [
    ([0.0, 95.0, 0.0], [0.0, 0.0, 200.0], "node 'b': latitude 95.0 "),
    ([0.0, 0.0, 95.0], [0.0, -180.5, 0.0], "node 'b': longitude -180.5 "),
    ([0.0, float("nan"), 0.0], [0.0, 0.0, 0.0], "node 'b': latitude nan "),
    ([0.0, 0.0, 0.0], [float("inf"), 0.0, 0.0], "node 'a': longitude inf "),
])
def test_registry_names_the_first_node_out_of_range(lat, lon, message):
    with pytest.raises(DataError, match=re.escape(message + "out of range")):
        NodeRegistry(["a", "b", "c"], lat, lon)


def test_links_collapse_years():
    net = simple_network([("a", "b", 2015), ("a", "b", 2016),
                          ("b", "c", 2016)])
    assert net.n_edges == 3
    assert net.n_links == 2
    assert sorted(set(net.edge_year.tolist())) == [2015, 2016]


def test_restrict_and_merge_round_trip():
    net = simple_network([("a", "b", 2015), ("b", "c", 2016),
                          ("c", "a", 2017)])
    early = net.restrict(2015, 2016)
    late = net.restrict(2017, 2017)
    assert early.n_edges == 2
    assert late.n_edges == 1
    merged = early.merged_with(late)
    assert merged.n_edges == net.n_edges
    assert merged.links.tolist() == net.links.tolist()


def test_split_spec_rejects_disorder():
    with pytest.raises(DataError):
        SplitSpec(train_years=(2015, 2010), val_years=(2016, 2016),
                  test_years=(2017, 2017))
    with pytest.raises(DataError):
        SplitSpec(train_years=(2010, 2016), val_years=(2016, 2016),
                  test_years=(2017, 2017))
    with pytest.raises(DataError):
        SplitSpec(train_years=(2010, 2014), val_years=(2016, 2016),
                  test_years=(2015, 2015))


def test_temporal_split_partitions_edges():
    net = simple_network([("a", "b", 2010), ("b", "c", 2011),
                          ("c", "d", 2012), ("d", "a", 2013)])
    spec = SplitSpec(train_years=(2010, 2011), val_years=(2012, 2012),
                     test_years=(2013, 2013))
    train, val, test = temporal_split(net, spec)
    assert train.n_edges == 2
    assert val.n_edges == 1
    assert test.n_edges == 1
    assert train.registry is net.registry


def test_temporal_split_empty_window_raises():
    net = simple_network([("a", "b", 2010), ("b", "c", 2013)])
    spec = SplitSpec(train_years=(2010, 2010), val_years=(2011, 2011),
                     test_years=(2013, 2013))
    with pytest.raises(EmptySplitError):
        temporal_split(net, spec)


def test_build_adjacency_binary_directed():
    net = simple_network([("a", "b", 2015), ("a", "b", 2016),
                          ("b", "c", 2016)])
    adj = build_adjacency(net)
    dense = adj.toarray()
    ia = net.registry.index("a")
    ib = net.registry.index("b")
    ic = net.registry.index("c")
    assert dense[ia, ib] == 1.0
    assert dense[ib, ic] == 1.0
    assert dense[ib, ia] == 0.0
    assert dense.sum() == 2.0
    assert adj.shape == (len(net.registry.ids), len(net.registry.ids))


def test_build_adjacency_binary_undirected_symmetrizes():
    net = simple_network([("a", "b", 2015)])
    adj = build_adjacency(net, "binary-undirected")
    ia = net.registry.index("a")
    ib = net.registry.index("b")
    assert adj[ia, ib] == 1.0
    assert adj[ib, ia] == 1.0


def test_build_adjacency_unknown_mode():
    net = simple_network([("a", "b", 2015)])
    with pytest.raises(DataError):
        build_adjacency(net, "weighted")


def test_candidate_pairs_labels_match_links():
    # Restricted to 2017, the network's nodes are c, d and e, at global
    # indices 2..4, so a universe position is not a node index; d -> c
    # is a link of 2016 only, so it is a negative pair.
    net = simple_network([("a", "b", 2015), ("b", "c", 2015),
                          ("d", "c", 2016), ("c", "d", 2017),
                          ("d", "e", 2017), ("e", "c", 2017)]).restrict(
                              2017, 2017)
    universe = candidate_pairs(net)
    assert universe.node_indices.tolist() == [2, 3, 4]
    assert universe.k == 3
    assert universe.n_pairs == 6
    assert universe.n_positives == 3
    rows, cols = np.divmod(universe.positives, universe.k)
    pairs = zip(universe.node_indices[rows].tolist(),
                universe.node_indices[cols].tolist())
    assert sorted(pairs) == sorted(map(tuple, net.links.tolist()))


def test_candidate_pairs_flatten_is_row_major_offdiagonal():
    # Links a -> b and b -> c are cells (0, 1) and (1, 2) of the (3, 3)
    # matrix, at row-major positions 1 and 5; over the off-diagonal
    # cells in row-major order they are the first and fourth pairs.
    net = simple_network([("a", "b", 2015), ("b", "c", 2015)])
    universe = candidate_pairs(net)
    assert universe.positives.dtype == np.int64
    assert universe.positives.tolist() == [1, 5]
    assert oracles.label_vector(universe).tolist() == [1, 0, 0, 1, 0, 0]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9),
                          st.integers(2015, 2017)), min_size=1, max_size=40),
       st.integers(2015, 2017))
def test_candidate_pairs_positives_match_dense_labels(edges, year):
    # Restricted to one year, the universe's nodes are some of the
    # registry's, so their global indices are not contiguous.
    edges = [(f"n{u}", f"n{v}", y) for u, v, y in edges if u != v]
    assume(any(y == year for _, _, y in edges))
    net = simple_network(edges).restrict(year, year)
    nodes, labels = oracles.dense_candidate_pairs(net)
    universe = candidate_pairs(net)
    assert universe.node_indices.tolist() == nodes.tolist()
    assert universe.positives.dtype == np.int64
    assert universe.positives.tolist() == np.flatnonzero(labels).tolist()


@pytest.mark.parametrize("nodes, positives", [
    ([0, 2, 1], []),
    ([0, 1, 1], []),
    ([[0, 1, 2]], []),
    ([0, 1, 2], [5, 1]),
    ([0, 1, 2], [1, 1]),
    ([0, 1, 2], [[1, 5]]),
    ([0, 1, 2], [-1]),
    ([0, 1, 2], [9]),
    ([0, 1, 2], [0]),
    ([0, 1, 2], [1, 4]),
    ([], [0]),
    ([-1, 0], []),
    ([-3, -2, 5], [1]),
])
def test_pair_universe_refuses_malformed_sets(nodes, positives):
    # Nodes must be non-negative, nodes and positives strictly ascending
    # 1-d arrays, and a positive a flat position i * k + j of the (k, k)
    # matrix, i != j.
    with pytest.raises(ValueError):
        PairUniverse(np.array(nodes, np.int64), np.array(positives, np.int64))


def test_pair_universe_accepts_off_diagonal_positions():
    universe = PairUniverse(np.array([2, 5, 9]), np.array([1, 5, 6, 7]))
    assert (universe.k, universe.n_pairs, universe.n_positives) == (3, 6, 4)


def test_same_universe_requires_identical_nodes():
    # Universes are index sets over one shared registry; two temporal
    # slices of the same network give comparable universes.
    net = simple_network([("a", "b", 2015), ("a", "c", 2016)])
    early = candidate_pairs(net.restrict(2015, 2015))
    late = candidate_pairs(net.restrict(2016, 2016))
    assert early.same_universe(candidate_pairs(net.restrict(2015, 2015)))
    assert not early.same_universe(late)
    assert not early.same_universe(candidate_pairs(net))


@settings(max_examples=60, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)),
               min_size=1, max_size=40).filter(
                   lambda pairs: any(u != v for u, v in pairs)))
def test_candidate_pairs_size_property(pairs):
    edges = [(f"n{u}", f"n{v}", 2015) for u, v in pairs if u != v]
    net = simple_network(edges)
    universe = candidate_pairs(net)
    assert universe.n_pairs == universe.k * (universe.k - 1)
    assert universe.n_positives == net.n_links == len(edges)


# --- columnar ingest and build against the record-at-a-time loops ----------

_IDS = ("a", "b", "c", " a ", "b ", "a,b", "x\ny", '"q"', "", "  ", "\x1cb")
_YEARS = ("2015", " 2016 ", "+2017", "2_018", "\u0662\u0660\u0661\u0669",
          "1850", "2200", "2000", "2020", "nan", "", "20.5", "x",
          "99999999999999999999", "-5")
_LATS = ("50.0", " 50.5 ", "1_0", "nan", "inf", "-inf", "", "abc", "90",
         "-90", "90.0000001", "1e1", "-0.0", "51.0\x1c", " 52.0")
_LONS = ("0.0", " -1.5 ", "1_0", "NaN", "Infinity", "", "?", "180", "-180",
         "180.5", "-0", "1.0000000001", "2e2")


def _field(pool, numbers):
    return st.one_of(st.sampled_from(pool), numbers.map(repr))


_ROW_FIELDS = {
    "source_id": st.sampled_from(_IDS),
    "dest_id": st.sampled_from(_IDS),
    "year": _field(_YEARS, st.integers(1890, 2110)),
    "source_lat": _field(_LATS, st.floats(-95, 95)),
    "source_lon": _field(_LONS, st.floats(-185, 185)),
    "dest_lat": _field(_LATS, st.floats(-95, 95)),
    "dest_lon": _field(_LONS, st.floats(-185, 185)),
    "species": st.sampled_from(("", " trout ", "salmon")),
    "note": st.sampled_from(("", "x;y", "long\nnote")),
}


def _plain(field, delimiter):
    """``field`` without the characters that would make csv quote it."""
    for c in (delimiter, '"', "\r", "\n"):
        field = field.replace(c, "")
    return field


@st.composite
def _movement_files(draw, direct=False):
    """CSV text with awkward rows, and the keyword arguments to read it.

    Rejected rows (a bad year, a short row, a blank id) often name ids
    before the first accepted row that names them.

    About half the files are quote-free with LF line ends, which a
    file's reader splits by lines; a NUL, a line over the csv field
    size limit, or a quoted field (which may span lines) in a later row
    sends such a file through the csv module from its first record.
    With ``direct``, every file is quote-free with LF line ends and has
    none of those rows.
    """
    columns = list(REQUIRED_COLUMNS)
    if draw(st.booleans()):
        columns.append("species")
    if draw(st.booleans()):
        columns.append("note")
    columns = draw(st.permutations(columns))
    delimiter = draw(st.sampled_from([",", ";"]))
    plain = direct or draw(st.booleans())
    text = io.StringIO()
    writer = csv.writer(text, delimiter=delimiter,
                        lineterminator="\n" if plain else draw(
                            st.sampled_from(["\n", "\r\n"])))
    writer.writerow([f" {c} " if draw(st.booleans()) else c
                     for c in columns])
    kinds = ["row"] * 6 + ["blank", "short", "long", "skipped"]
    if plain and not direct:
        kinds += ["nul", "wide", "quoted"]
    for i in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            text.write("\n")
            continue
        row = [draw(_ROW_FIELDS[c]) for c in columns]
        if kind == "short":
            row = row[:draw(st.integers(1, len(row) - 1))]
        elif kind == "long":
            row.append("extra")
        elif kind == "skipped":
            # Rejected whatever its other fields: its ids may be named
            # first here, and first accepted in a later row.
            row[columns.index("year")] = "n/a"
        elif kind == "nul":
            row.append("\0")
        elif kind == "wide":
            # Each field under the limit, the line over it.
            row += ["w" * (csv.field_size_limit() // 2)] * 2
        quoted = kind == "quoted" and i >= 5
        if quoted:
            row.append("quoted\nnote")
        if plain and not quoted:
            text.write(delimiter.join(_plain(f, delimiter) for f in row)
                       + "\n")
        else:
            writer.writerow(row)
    bom = "\ufeff" if draw(st.booleans()) else ""
    text = text.getvalue()
    if draw(st.booleans()):
        text = text.removesuffix("\n")
    return bom + text, {
        "delimiter": delimiter,
        "on_bad_rows": draw(st.sampled_from(["skip", "abort"])),
        "year_range": draw(st.sampled_from([(1900, 2100), (2000, 2020),
                                            (0, 2100)])),
    }


def _outcome(fn, *args, **kwargs):
    """(result, None) or (None, (exception type, message))."""
    try:
        return fn(*args, **kwargs), None
    except (GeokatzError, csv.Error) as exc:
        return None, (type(exc), str(exc))


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.lines = []

    def emit(self, record):
        self.lines.append(record.getMessage())


def _build_logged(movements):
    """build_network's outcome and the lines it logged."""
    handler = _Messages()
    logger = logging.getLogger("geokatz.graphs")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        return _outcome(build_network, movements), handler.lines
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def _expected_build_lines(ref):
    lines = []
    if ref["conflicts"]:
        lines.append(f"{ref['conflicts']} record(s) carried coordinates "
                     "conflicting with a node's first-seen position; "
                     "first-seen coordinates kept")
    if ref["self_loops"]:
        lines.append(f"dropped {ref['self_loops']} self-loop movement(s)")
    nodes = len(np.union1d(ref["edge_src"], ref["edge_dst"]))
    lines.append(f"network: {nodes} nodes, {len(ref['edge_src'])} edges "
                 f"({ref['duplicates']} duplicate movement(s) collapsed)")
    return lines


def _assert_build_matches_loop(records, movements):
    ref, ref_error = _outcome(oracles.loop_build_network, records)
    (net, error), lines = _build_logged(movements)
    assert error == ref_error
    if ref_error is not None:
        return
    assert net.registry.ids == ref["ids"]
    assert (net.registry.lat_array().tobytes()
            == np.array(ref["lat"], dtype=np.float64).tobytes())
    assert (net.registry.lon_array().tobytes()
            == np.array(ref["lon"], dtype=np.float64).tobytes())
    for name in ("edge_src", "edge_dst", "edge_year"):
        got = getattr(net, name)
        assert got.dtype == np.int64
        assert np.array_equal(got, ref[name]), name
    assert lines == _expected_build_lines(ref)


def _assert_ingest_matches_loop(text, kwargs, path):
    """Ingesting ``text`` as a stream, which the csv module reads, and
    as a file at ``path``, which may be split directly, gives the row
    loop's outcome."""
    path.write_text(text, encoding="utf-8", newline="")
    ref, ref_error = _outcome(oracles.loop_ingest_stream,
                              io.StringIO(text, newline=""), **kwargs)
    for source in (io.StringIO(text, newline=""), path):
        report, error = _outcome(ingest_movements, source, **kwargs)
        assert error == ref_error
        if ref_error is not None:
            continue
        records, accepted, rejected, diagnostics = ref
        assert (report.accepted, report.rejected) == (accepted, rejected)
        assert report.diagnostics == diagnostics
        # repr tells -0.0 from 0.0, which == does not.
        assert repr(rows_of(report)) == repr(records)
        _assert_named_first_seen(report, records)
        _assert_build_matches_loop(records, report)


def _assert_named_first_seen(report, records):
    """The report lists the ids and species the accepted ``records``
    name, in the order they first name them."""
    assert report.ids == list(dict.fromkeys(chain.from_iterable(
        (r.source_id, r.dest_id) for r in records)))
    assert report.species_names == list(dict.fromkeys(
        r.species for r in records if r.species is not None))


# Texts that int or float refuses or reads in an unusual way: empty,
# words, padding, digit grouping, non-ASCII digits, a control
# character and an int past int64 (a float holds it).
_CONVERT_TEXTS = ("", "n/a", " 7 ", "1_0", "\u0661\u0662", "\x1f5",
                  "99999999999999999999")


@settings(max_examples=300, deadline=None)
@given(texts=st.lists(st.sampled_from(_CONVERT_TEXTS)
                      | st.integers(-10**20, 10**20).map(str)
                      | st.floats().map(repr), max_size=40),
       kind=st.sampled_from([(int, np.int64), (float, np.float64)]))
def test_convert_matches_whole_column_retry(texts, kind):
    # Conversion resumes after each failing text, and the result is the
    # whole-column retry's: the same values, bit for bit, and the same
    # failed texts, or False when none failed.
    values, failed = graphs._convert(texts, *kind)
    expected, expected_failed = oracles.loop_convert(texts, *kind)
    assert values.dtype == expected.dtype
    assert values.view(np.int64).tolist() == expected.view(
        np.int64).tolist()
    assert (failed is False) == (expected_failed is False)
    assert np.array_equal(failed, expected_failed)


def test_convert_resumes_after_a_failing_text():
    converted = []

    def kind(text):
        converted.append(text)
        return int(text)

    texts = ["1", "x", "2", "99999999999999999999", "", "3"]
    values, failed = graphs._convert(texts, kind, np.int64)
    assert converted == texts
    assert values.tolist() == [1, 0, 2, 0, 0, 3]
    assert failed.tolist() == [False, True, False, True, True, False]


@settings(max_examples=300, deadline=None)
@given(_movement_files(), st.sampled_from([1, 2, 3, 5, 64]))
def test_columnar_ingest_and_build_match_row_loop(tmp_path_factory,
                                                  movement_file, block):
    text, kwargs = movement_file
    path = tmp_path_factory.getbasetemp() / "loop.csv"
    with mock.patch.object(graphs, "_INGEST_BLOCK", block):
        _assert_ingest_matches_loop(text, kwargs, path)


@pytest.mark.parametrize("text", [
    "",
    CSV_HEADER.rstrip("\n"),
    CSV_HEADER,
    "\ufeff" + CSV_HEADER + "a,b,2015,50.0,0.0,51.0,1.0\n",
    "\ufeff" + CSV_HEADER + "a,b,2015,50.0,0.0,51.0,1.0",
], ids=["empty", "header-no-lf", "header-only", "bom", "bom-no-lf"])
def test_edge_files_match_row_loop(tmp_path, text):
    _assert_ingest_matches_loop(text, {}, tmp_path / "edge.csv")


def _boundary_file(bad_rows, n_rows):
    lines = [CSV_HEADER]
    for i in range(n_rows):
        year = "n/a" if i in bad_rows else str(2000 + i % 20)
        lines.append(f"s{i % 97},d{i % 89},{year},50.0,{i % 7}.0,"
                     f"51.0,{i % 5}.5\n")
    return "".join(lines)


@pytest.mark.parametrize("on_bad_rows", ["skip", "abort"])
def test_columnar_ingest_matches_row_loop_across_block_boundary(
        tmp_path, on_bad_rows):
    edge = graphs._INGEST_BLOCK
    # Bad rows just before and just after each block boundary, in a
    # file split directly and in one with a multi-line quoted field in
    # the first block.
    bad = {edge - 2, edge - 1, edge, edge + 1, 2 * edge - 1, 2 * edge}
    plain = _boundary_file(bad, 2 * edge + 50)
    kwargs = {"on_bad_rows": on_bad_rows}
    for text in (plain, plain.replace("s3,", '"s3\nsite",', 1)):
        _assert_ingest_matches_loop(text, kwargs, tmp_path / "boundary.csv")
        if on_bad_rows == "skip":
            report = ingest_movements(io.StringIO(text, newline=""),
                                      **kwargs)
            assert report.rejected == len(bad)


def test_reader_error_after_a_bad_row_still_aborts_on_that_row():
    # The csv module refuses a field over its size limit; the bad row
    # before it in the same block is reported first, as row by row.
    huge = "x" * (csv.field_size_limit() + 1)
    text = (CSV_HEADER + "a,b,bad,50.0,0.0,51.0,1.0\n"
            + f"{huge},b,2015,50.0,0.0,51.0,1.0\n")
    with pytest.raises(RowError, match="row 2: year 'bad'"):
        ingest_movements(io.StringIO(text))
    with pytest.raises(csv.Error):
        ingest_movements(io.StringIO(text), on_bad_rows="skip")


def test_latin1_file_is_data_error_naming_file_offset_and_encoding(
        tmp_path):
    path = tmp_path / "latin1.csv"
    raw = (CSV_HEADER + "a,b,2015,50.0,0.0,51.0,1.0\n"
           + "Fl\u00e5m,b,2016,61.0,7.1,51.0,1.0\n").encode("latin-1")
    path.write_bytes(raw)
    offset = raw.index(b"\xe5")
    message = f"{path}: byte {offset} (0xe5) is not valid UTF-8"
    with pytest.raises(DataError, match=re.escape(message)) as caught:
        ingest_movements(path)
    assert "encoded as UTF-8" in str(caught.value)


def test_rows_before_an_undecodable_byte_are_judged_first(tmp_path):
    # The bad byte sits well past the first decoded chunk, so the rows
    # before it are read; an abort on one of them wins, also when they
    # and the bad byte fall in one block.
    path = tmp_path / "late_latin1.csv"
    good = "a,b,2015,50.0,0.0,51.0,1.0\n" * 2000
    raw = (CSV_HEADER + "a,b,bad,50.0,0.0,51.0,1.0\n" + good
           + "Fl\u00e5m,b,2016,61.0,7.1,51.0,1.0\n").encode("latin-1")
    path.write_bytes(raw)
    for block in (graphs._INGEST_BLOCK, 4096):
        with mock.patch.object(graphs, "_INGEST_BLOCK", block), \
                pytest.raises(RowError, match="row 2: year 'bad'"):
            ingest_movements(path)
    offset = raw.index(b"\xe5")
    with pytest.raises(DataError, match=f"byte {offset} "):
        ingest_movements(path, on_bad_rows="skip")


def test_undecodable_byte_in_a_stream_is_data_error(tmp_path):
    path = tmp_path / "latin1.csv"
    good = "a,b,2015,50.0,0.0,51.0,1.0\n" * 2000
    raw = (CSV_HEADER + "a,b,bad,50.0,0.0,51.0,1.0\n" + good
           + "Fl\u00e5m,b,2016,61.0,7.1,51.0,1.0\n").encode("latin-1")
    path.write_bytes(raw)
    with open(path, encoding="utf-8", newline="") as fh:
        with pytest.raises(RowError, match="row 2: year 'bad'"):
            ingest_movements(fh)
    with open(path, encoding="utf-8", newline="") as fh:
        with pytest.raises(DataError, match=re.escape(
                f"{path}: byte 0xe5 is not valid utf-8")):
            ingest_movements(fh, on_bad_rows="skip")
    unnamed = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="")
    with pytest.raises(DataError, match="input stream: byte 0xe5 "):
        ingest_movements(unnamed, on_bad_rows="skip")


def test_year_past_64_bits_inside_year_range_is_data_error():
    text = CSV_HEADER + "a,b,10000000000000000000,50.0,0.0,51.0,1.0\n"
    with pytest.raises(DataError, match="row 2: year 10000000000000000000"):
        ingest_movements(io.StringIO(text), year_range=(0, 10**20))
    report = ingest_movements(io.StringIO(text), on_bad_rows="skip")
    assert report.rejected == 1


# --- movement files read in forked parts ------------------------------------

def _report_fields(report):
    """Every field of an IngestReport, the float columns as bytes (which
    tell -0.0 from 0.0)."""
    fields = dataclasses.asdict(report)
    for name in ("source", "dest", "year", "source_lat", "source_lon",
                 "dest_lat", "dest_lon", "species"):
        column = fields[name]
        fields[name] = (column.dtype, column.tobytes())
    return fields


def _split_parts(raw, workers, cpus):
    """The parts a file of bytes ``raw`` should be read in, by the rules
    ``ingest_movements`` documents; 1 where one reader reads it."""
    limit = csv.field_size_limit()
    lines = raw.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    blocks = -(-max(len(lines) - 1, 0) // graphs._INGEST_BLOCK)
    parts = min(workers, cpus, blocks // graphs._MIN_PART_BLOCKS)
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError:
        return 1
    if (parts < 2 or any(c in raw for c in (b'"', b"\r", b"\0"))
            or max(len(line) + 1 for line in lines) > limit):
        return 1
    return parts


class TestSplitIngest:
    """A large movement file is read in block-aligned parts by the caller
    and forked children, and gives the report of one reader."""

    CPUS = 8

    @pytest.fixture(autouse=True)
    def small_parts(self, monkeypatch):
        """Small blocks and parts, a pretended host of CPUS CPUs, and
        every fork counted in ``self.forks``."""
        monkeypatch.setattr(graphs, "_INGEST_BLOCK", 4)
        monkeypatch.setattr(graphs, "_MIN_PART_BLOCKS", 2)
        monkeypatch.setattr(_fork, "usable_cpus", lambda: self.CPUS)
        self.forks = 0
        fork = os.fork

        def counting():
            self.forks += 1
            return fork()

        monkeypatch.setattr(os, "fork", counting)
        yield
        # Every child was reaped, on success and on failure alike.
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def _read(self, path, workers, **kwargs):
        """(the report's fields, None) or (None, (error type, message)),
        and the forks the read made."""
        before = self.forks
        report, error = _outcome(ingest_movements, path, workers=workers,
                                 **kwargs)
        return ((None if report is None else _report_fields(report)),
                error), self.forks - before

    def _assert_split_as_one_reader(self, path, workers, forks, **kwargs):
        one, one_forks = self._read(path, 1, **kwargs)
        split, split_forks = self._read(path, workers, **kwargs)
        assert one_forks == 0
        assert split_forks == forks
        assert split == one
        return split

    @settings(max_examples=200, deadline=None)
    @given(movement_file=_movement_files() | _movement_files(direct=True),
           block=st.sampled_from([1, 2, 3]),
           min_part=st.sampled_from([1, 2]),
           workers=st.sampled_from([2, 3]))
    def test_split_matches_row_loop_and_one_reader(
            self, tmp_path_factory, movement_file, block, min_part, workers):
        text, kwargs = movement_file
        path = tmp_path_factory.getbasetemp() / "split.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with mock.patch.object(graphs, "_INGEST_BLOCK", block), \
                mock.patch.object(graphs, "_MIN_PART_BLOCKS", min_part):
            parts = _split_parts(path.read_bytes(), workers, self.CPUS)
            (fields, error), _ = self._read(path, workers, **kwargs)
            self._assert_split_as_one_reader(path, workers, parts - 1,
                                             **kwargs)
            with open(path, encoding="utf-8", newline="") as fh:
                ref, ref_error = _outcome(oracles.loop_ingest_stream, fh,
                                          **kwargs)
        assert error == ref_error
        if ref_error is None:
            records, accepted, rejected, diagnostics = ref
            report = ingest_movements(path, workers=workers, **kwargs)
            assert (report.accepted, report.rejected) == (accepted, rejected)
            assert report.diagnostics == diagnostics
            assert repr(rows_of(report)) == repr(records)
            _assert_named_first_seen(report, records)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("rule", ["stream", "csv", "split"])
    def test_rejected_rows_naming_ids_first_leave_no_trace(
            self, tmp_path, rule, workers):
        # Each group's rejected rows (a bad year, a short row, a blank
        # id) name its ids before its accepted rows do, and in another
        # order, at other coordinates; "hub" and "late" are named first
        # by a rejected row in the first part and accepted only in the
        # last group. A reader codes every row it reads, and the split
        # rule reads a short row as a placeholder "0".
        lines = [CSV_HEADER, "hub,late,n/a,10.0,0.0,11.0,0.0\n"]
        for g in range(12):
            lines += [f"s{g},d{g},n/a,1.0,1.0,2.0,2.0\n", f"x{g}\n",
                      f",x{g},2015,3.0,3.0,4.0,4.0\n",
                      f"d{g},x{g},2015,{g}.5,0.0,{g}.25,1.0\n",
                      f"s{g},d{g},2016,{g}.75,2.0,{g}.5,0.0\n"]
        lines.append("late,hub,2017,20.0,0.0,21.0,0.0\n")
        if rule == "csv":
            lines[1] = lines[1].replace("hub,", '"hub",', 1)
        text = "".join(lines)
        path = tmp_path / "first_named_by_rejected_rows.csv"
        path.write_text(text)
        source = io.StringIO(text) if rule == "stream" else path
        report = ingest_movements(source, on_bad_rows="skip",
                                  workers=workers)
        assert self.forks == (workers - 1 if rule == "split" else 0)
        records, _, rejected, _ = oracles.loop_ingest_stream(
            io.StringIO(text), on_bad_rows="skip")
        assert rejected == 37
        assert repr(rows_of(report)) == repr(records)
        _assert_named_first_seen(report, records)
        assert report.ids[:3] == ["d0", "x0", "s0"]
        assert report.ids[-2:] == ["late", "hub"]
        _assert_build_matches_loop(records, report)

    @pytest.mark.parametrize("on_bad_rows", ["skip", "abort"])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_bad_rows_on_both_sides_of_a_part_boundary(
            self, tmp_path, on_bad_rows, workers):
        # 12 blocks of 4 lines: parts start at lines 26 and 34 (3 parts)
        # or at line 26 (2 parts), so records 23-26 and 31-34 straddle
        # the boundaries.
        path = tmp_path / "boundary.csv"
        bad = {23, 24, 25, 26, 31, 32, 33}
        path.write_text(_boundary_file(bad, 48))
        split = self._assert_split_as_one_reader(
            path, workers, workers - 1, on_bad_rows=on_bad_rows)
        if on_bad_rows == "skip":
            assert split[0]["rejected"] == len(bad)
            assert split[0]["diagnostics"][0].startswith("row 25: ")
        else:
            assert split[1] == (RowError,
                                "row 25: year 'n/a' is not an integer")

    @pytest.mark.parametrize("first,later,raised", [
        # A bad row in the caller's part wins over any child's error.
        (("row", 5), ("wide", 30), (RowError, "row 7: year 'n/a'")),
        (("wide", 5), ("row", 30), (DataError, "row 7: year 1")),
        # Between children, the first in file order wins.
        (("row", 30), ("wide", 40), (RowError, "row 32: year 'n/a'")),
        (("wide", 30), ("row", 40), (DataError, "row 32: year 1")),
    ])
    def test_abort_raises_the_first_error_in_file_order(
            self, tmp_path, first, later, raised):
        # 48 records in 3 parts starting at lines 18 and 34.
        rows = {}
        for kind, i in (first, later):
            rows[i] = ("a,b,n/a,50.0,0.0,51.0,1.0\n" if kind == "row"
                       else f"a,b,1{'0' * 19},50.0,0.0,51.0,1.0\n")
        text = CSV_HEADER + "".join(
            rows.get(i, "a,b,2015,50.0,0.0,51.0,1.0\n") for i in range(48))
        path = tmp_path / "abort.csv"
        path.write_text(text)
        (_, error), forks = self._read(path, 3, year_range=(0, 10**20))
        assert forks == 2
        assert error[0] is raised[0]
        assert error[1].startswith(raised[1])
        self._assert_split_as_one_reader(path, 3, 2, year_range=(0, 10**20))

    def test_diagnostics_keep_file_order_and_the_cap_across_parts(
            self, tmp_path):
        # Every second record is bad: 30 per part, 90 in all.
        path = tmp_path / "many_bad.csv"
        path.write_text(_boundary_file(set(range(0, 180, 2)), 180))
        split = self._assert_split_as_one_reader(path, 3, 2,
                                                 on_bad_rows="skip")
        fields = split[0]
        assert fields["rejected"] == 90
        assert len(fields["diagnostics"]) == 50
        assert fields["diagnostics"][0].startswith("row 2: ")
        assert fields["diagnostics"][-1].startswith("row 100: ")
        with open(path, encoding="utf-8", newline="") as fh:
            _, _, rejected, diagnostics = oracles.loop_ingest_stream(
                fh, on_bad_rows="skip")
        assert (fields["rejected"], fields["diagnostics"]) == (rejected,
                                                               diagnostics)

    @pytest.mark.parametrize("bom", ["", "\ufeff"])
    @pytest.mark.parametrize("last_lf", [True, False])
    def test_blank_lines_last_line_and_byte_order_mark(self, tmp_path, bom,
                                                       last_lf):
        text = _boundary_file({3, 20}, 40)
        lines = text.splitlines(keepends=True)
        # Blank lines keep their numbers: one at a part's start, one
        # inside a part, one last.
        for at in (39, 17, 5):
            lines.insert(at, "\n")
        text = bom + "".join(lines) + "\n"
        if not last_lf:
            text = text.removesuffix("\n\n").removesuffix("\n")
        path = tmp_path / "blank.csv"
        path.write_text(text, encoding="utf-8")
        split = self._assert_split_as_one_reader(path, 3, 2,
                                                 on_bad_rows="skip")
        assert split[0]["rejected"] == 2
        assert split[0]["accepted"] == 38

    @pytest.mark.parametrize("change", [
        lambda text: text.replace("s3,", '"s3",', 1),
        lambda text: text.replace("\n", "\r\n"),
        lambda text: text.replace("\n", "\r\n", 30).replace("\r\n", "\n", 29),
        lambda text: text.replace("s5,", "s\x005,", 1),
        lambda text: text.replace(
            "s7,", "s7" + "w" * csv.field_size_limit() + ",", 1),
        lambda text: text.encode("utf-8").replace(b"s9,", b"s\xff9,", 1),
        lambda text: "".join(text.splitlines(keepends=True)[:13]),
    ], ids=["quote", "crlf", "one-cr", "nul", "long-line", "undecodable",
            "below-threshold"])
    @pytest.mark.parametrize("on_bad_rows", ["skip", "abort"])
    def test_files_one_reader_must_read_are_not_split(
            self, tmp_path, change, on_bad_rows):
        text = change(_boundary_file({10, 40}, 60))
        path = tmp_path / "single.csv"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text, encoding="utf-8", newline="")
        self._assert_split_as_one_reader(path, 3, 0, on_bad_rows=on_bad_rows)

    class LocalError(Exception):
        """An exception pickle cannot rebuild: it takes two arguments."""

        def __init__(self, what, where):
            super().__init__(f"{what} in {where}")

    @pytest.mark.parametrize("error,raised", [
        (DataError("bad block"), DataError("bad block")),
        (LocalError("bad block", "part 2"),
         RuntimeError("LocalError: bad block in part 2")),
    ])
    def test_an_error_raised_in_a_child_is_raised_here(
            self, tmp_path, monkeypatch, error, raised):
        parent = os.getpid()
        ingest_block = graphs._ingest_block

        def failing(*args, **kwargs):
            if os.getpid() != parent:
                raise error
            return ingest_block(*args, **kwargs)

        monkeypatch.setattr(graphs, "_ingest_block", failing)
        path = tmp_path / "child_error.csv"
        path.write_text(_boundary_file(set(), 48))
        with pytest.raises(type(raised)) as info:
            ingest_movements(path, workers=2)
        assert type(info.value) is type(raised)
        assert str(info.value) == str(raised)
        assert self.forks == 1

    def test_a_killed_child_is_a_runtime_error_naming_its_lines(
            self, tmp_path, monkeypatch):
        parent = os.getpid()
        ingest_block = graphs._ingest_block

        def dying(*args, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return ingest_block(*args, **kwargs)

        monkeypatch.setattr(graphs, "_ingest_block", dying)
        path = tmp_path / "killed.csv"
        path.write_text(_boundary_file(set(), 48))
        with pytest.raises(RuntimeError, match=re.escape(
                f"the ingest worker reading lines 26-49 of {path} ended "
                "with exit status -9 (killed by signal 9) without "
                "reporting an error")):
            ingest_movements(path, workers=2)
        assert self.forks == 1

    def test_workers_past_the_cpus_fork_one_child_per_part_but_one(
            self, tmp_path, monkeypatch):
        # 10 blocks make 5 parts of 2 blocks at most, whatever the
        # workers and CPUs; the CPUs cap them below that.
        path = tmp_path / "many_workers.csv"
        path.write_text(_boundary_file({7}, 40))
        monkeypatch.setattr(_fork, "usable_cpus", lambda: 10**6)
        self._assert_split_as_one_reader(path, 10**6, 4)
        monkeypatch.setattr(_fork, "usable_cpus", lambda: 3)
        self._assert_split_as_one_reader(path, 10**6, 2)
        monkeypatch.setattr(_fork, "usable_cpus", lambda: 1)
        self._assert_split_as_one_reader(path, 10**6, 0)

    def test_without_fork_one_reader_reads(self, tmp_path, monkeypatch):
        path = tmp_path / "no_fork.csv"
        path.write_text(_boundary_file({7}, 40))
        monkeypatch.delattr(os, "fork")
        one, _ = self._read(path, 1)
        assert self._read(path, 3) == (one, 0)


_COORDS = st.one_of(st.floats(-200, 200), st.sampled_from(
    [float("nan"), float("inf"), -0.0, 90.0, 180.0, 90.0 + 1e-10]))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abcdef"), st.sampled_from("abcdef"),
                          st.integers(2010, 2014), _COORDS, _COORDS,
                          _COORDS, _COORDS), max_size=25))
def test_build_network_from_records_matches_record_loop(rows):
    # Columns from library callers are not range-checked on the way in:
    # the first node out of range raises the same DataError.
    records = [make_record(*row) for row in rows]
    _assert_build_matches_loop(records, report_of(records))


# --- packed-key deduplication keeps np.unique's order ------------------------

@st.composite
def _edge_sets(draw):
    n = draw(st.sampled_from([2, 7, 1000, 2**20 - 3, 2**20]))
    years = draw(st.sampled_from([(2015, 2015), (1900, 2100),
                                  (-10**15, 10**15)]))
    m = draw(st.integers(1, 60))
    index = st.integers(0, n - 1)
    # Few distinct values per column, so duplicates are common.
    src = draw(st.lists(st.sampled_from(draw(st.lists(index, min_size=1,
                                                       max_size=5))),
                        min_size=m, max_size=m))
    dst = draw(st.lists(index, min_size=m, max_size=m))
    year = draw(st.lists(st.sampled_from(
        [years[0], years[1], (years[0] + years[1]) // 2]), min_size=m,
        max_size=m))
    return (np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64),
            np.array(year, dtype=np.int64))


@settings(max_examples=200, deadline=None)
@given(_edge_sets())
def test_edge_dedup_keeps_np_unique_order(edges):
    src, dst, year = edges
    net = graphs._from_edge_arrays(NodeRegistry([], [], []), src, dst,
                                    year)
    triples = np.unique(np.stack([year, src, dst], axis=1), axis=0)
    assert np.array_equal(net.edge_year, triples[:, 0])
    assert np.array_equal(net.edge_src, triples[:, 1])
    assert np.array_equal(net.edge_dst, triples[:, 2])
    links = np.unique(np.stack([src, dst], axis=1), axis=0)
    assert net.links.dtype == np.int64
    assert np.array_equal(net.links, links)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.lists(st.integers(int(graphs._INT64.min),
                                      int(graphs._INT64.max)), max_size=40),
                 st.lists(st.integers(-3, 3), max_size=40)))
def test_sorted_distinct_equals_np_unique(values):
    values = np.array(values, dtype=np.int64)
    got = graphs._distinct(values)
    want = np.unique(values)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
