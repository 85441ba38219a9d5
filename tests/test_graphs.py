"""Ingestion, network assembly, temporal splits and pair universes."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_record, simple_network
from geokatz.errors import (DataError, EmptyNetworkError, EmptySplitError,
                            RowError, SchemaError)
from geokatz.graphs import (SplitSpec, build_adjacency, build_network,
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
    assert report.records[0].source_id == "a"
    assert report.records[0].year == 2015
    assert report.records[1].dest_lat == 52.0


def test_ingest_remaps_schema():
    stream = io.StringIO(
        "von,nach,jahr,vlat,vlon,nlat,nlon\n"
        "a,b,2015,50.0,0.0,51.0,1.0\n")
    schema = {"source_id": "von", "dest_id": "nach", "year": "jahr",
              "source_lat": "vlat", "source_lon": "vlon",
              "dest_lat": "nlat", "dest_lon": "nlon"}
    report = ingest_movements(stream, schema=schema)
    assert report.accepted == 1
    assert report.records[0].dest_id == "b"


def test_ingest_missing_column_raises_schema_error():
    stream = io.StringIO("source_id,dest_id,year\na,b,2015\n")
    with pytest.raises(SchemaError):
        ingest_movements(stream)


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
    assert report.records[0].species == "trout"


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
    assert report.records[0].source_id == "a"


@pytest.mark.parametrize("header", [CSV_HEADER,
                                    '"source_id"' + CSV_HEADER[9:]])
def test_ingest_from_stream_skips_byte_order_mark(header):
    # A caller-opened stream keeps the mark as the header's first char.
    report = ingest_movements(io.StringIO(
        "\ufeff" + header + "a,b,2015,50.0,0.0,51.0,1.0\n"))
    assert report.accepted == 1
    assert report.records[0].source_id == "a"


def test_build_network_drops_self_loops_and_duplicates():
    records = [
        make_record("a", "b", 2015),
        make_record("a", "b", 2015),   # duplicate triple
        make_record("a", "a", 2015),   # self-loop
        make_record("b", "a", 2016),
    ]
    net = build_network(records)
    assert net.n_edges == 2
    assert net.n_links == 2
    assert net.n_nodes == 2


def test_build_network_all_self_loops_is_empty():
    with pytest.raises(EmptyNetworkError):
        build_network([make_record("a", "a", 2015)])


def test_build_network_no_records_is_empty():
    with pytest.raises(EmptyNetworkError):
        build_network([])


def test_build_network_first_seen_coordinates_win():
    records = [
        make_record("a", "b", 2015, s_lat=50.0, s_lon=0.0),
        make_record("a", "c", 2016, s_lat=59.0, s_lon=9.0),  # conflict
    ]
    net = build_network(records)
    idx = net.registry.index("a")
    assert net.registry.coord(idx) == (50.0, 0.0)


def test_registry_rejects_out_of_range_coordinates():
    with pytest.raises(DataError):
        build_network([make_record("a", "b", 2015, s_lat=95.0)])
    with pytest.raises(DataError):
        build_network([make_record("a", "b", 2015, d_lon=200.0)])
    with pytest.raises(DataError):
        build_network([make_record("a", "b", 2015, s_lat=float("nan"))])


def test_links_collapse_years():
    net = simple_network([("a", "b", 2015), ("a", "b", 2016),
                          ("b", "c", 2016)])
    assert net.n_edges == 3
    assert net.n_links == 2
    assert net.years().tolist() == [2015, 2016]


def test_restrict_and_merge_round_trip():
    net = simple_network([("a", "b", 2015), ("b", "c", 2016),
                          ("c", "a", 2017)])
    early = net.restrict(2015, 2016)
    late = net.restrict(2017, 2017)
    assert early.n_edges == 2
    assert late.n_edges == 1
    merged = early.merged_with(late)
    assert merged.n_edges == net.n_edges
    assert merged.link_set == net.link_set


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
    net = simple_network([("a", "b", 2015), ("b", "c", 2015),
                          ("c", "a", 2016)])
    universe = candidate_pairs(net)
    assert universe.k == 3
    assert universe.n_pairs == 6
    assert universe.n_positives == 3
    src, dst = universe.pair_index_arrays()
    labels = universe.label_vector
    link_set = net.link_set
    for s, d, y in zip(src, dst, labels):
        assert bool(y) == ((int(universe.node_indices[s]),
                            int(universe.node_indices[d])) in link_set)


def test_candidate_pairs_flatten_is_row_major_offdiagonal():
    net = simple_network([("a", "b", 2015), ("b", "c", 2015)])
    universe = candidate_pairs(net)
    k = universe.k
    matrix = np.arange(k * k, dtype=np.float64).reshape(k, k)
    flat = universe.flatten(matrix)
    expected = matrix[~np.eye(k, dtype=bool)]
    assert np.array_equal(flat, expected)


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
