"""Great-circle distances and distance-to-weight transforms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from geokatz import geo

LAT = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)
LON = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False)


def test_haversine_matches_reference_table():
    for _, lat1, lon1, lat2, lon2, expected in oracles.HAVERSINE_TABLE:
        assert geo.haversine_km(lat1, lon1, lat2, lon2) == pytest.approx(
            expected, abs=1e-6)


def test_haversine_coincident_is_exactly_zero():
    assert geo.haversine_km(12.34, -56.78, 12.34, -56.78) == 0.0


def test_pair_distances_zero_for_identical_indices():
    lat = np.array([51.5, -33.9])
    lon = np.array([-0.1, 151.2])
    idx = np.array([0, 1], dtype=np.int64)
    out = geo.pair_distances(lat, lon, idx, idx)
    assert np.array_equal(out, np.zeros(2))


def test_haversine_antipodes_half_circumference():
    expected = np.pi * geo.EARTH_RADIUS_KM
    assert geo.haversine_km(0.0, 0.0, 0.0, 180.0) == pytest.approx(
        expected, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(LAT, LON, LAT, LON)
def test_haversine_symmetric_and_bounded(lat1, lon1, lat2, lon2):
    forward = geo.haversine_km(lat1, lon1, lat2, lon2)
    backward = geo.haversine_km(lat2, lon2, lat1, lon1)
    assert forward == backward
    assert 0.0 <= forward <= np.pi * geo.EARTH_RADIUS_KM + 1e-9


def test_pair_distances_matches_scalar_calls():
    lat = np.array([51.5074, 48.8566, 35.6762, 34.6937])
    lon = np.array([-0.1278, 2.3522, 139.6503, 135.5023])
    src = np.array([0, 2, 1])
    dst = np.array([1, 3, 0])
    out = geo.pair_distances(lat, lon, src, dst)
    for i, (u, v) in enumerate(zip(src, dst)):
        assert out[i] == pytest.approx(
            geo.haversine_km(lat[u], lon[u], lat[v], lon[v]), abs=1e-9)


def test_decay_weights_zero_gamma_is_exactly_one():
    dist = np.array([0.0, 1.0, 250.0, 20000.0])
    weights = geo.decay_weights(dist, 0.0)
    assert np.array_equal(weights, np.ones(4))


def test_decay_weights_monotone_decreasing():
    dist = np.array([0.0, 10.0, 100.0, 1000.0])
    weights = geo.decay_weights(dist, 0.01)
    assert np.all(np.diff(weights) < 0)
    assert weights[0] == 1.0
    assert weights[2] == pytest.approx(np.exp(-1.0))


def test_decay_weights_rejects_negative_gamma():
    with pytest.raises(ValueError):
        geo.decay_weights(np.array([1.0]), -0.5)


@pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf])
def test_decay_weights_rejects_non_finite_gamma(gamma):
    with pytest.raises(ValueError, match="finite"):
        geo.decay_weights(np.array([0.0, 1.0]), gamma)


def test_transform_raw_returns_a_copy():
    dist = np.array([3.0, 5.0])
    out = geo.transform_weights(dist, "raw")
    assert np.array_equal(out, dist)
    out[0] = 99.0
    assert dist[0] == 3.0


def test_transform_inverse_handles_zero_distance():
    out = geo.transform_weights(np.array([0.0, 1.0, 9.0]), "inverse")
    assert np.array_equal(out, np.array([1.0, 0.5, 0.1]))


def test_transform_minmax_rescales_to_unit_interval():
    out = geo.transform_weights(np.array([10.0, 30.0, 20.0]), "minmax")
    assert np.array_equal(out, np.array([0.0, 1.0, 0.5]))


def test_transform_minmax_constant_distances_become_one():
    out = geo.transform_weights(np.array([7.0, 7.0, 7.0]), "minmax")
    assert np.array_equal(out, np.ones(3))


def test_transform_unknown_name_rejected():
    with pytest.raises(ValueError):
        geo.transform_weights(np.array([1.0]), "sigmoid")


def test_weighted_adjacency_preserves_sparsity_pattern():
    import scipy.sparse as sp
    lat = np.array([50.0, 50.0, 51.0])
    lon = np.array([0.0, 0.0, 1.0])
    adj = sp.csr_matrix(np.array([[0.0, 1.0, 1.0],
                                  [0.0, 0.0, 1.0],
                                  [1.0, 0.0, 0.0]]))
    weighted = geo.weighted_adjacency(adj, lat, lon, transform="raw")
    assert np.array_equal(weighted.indices, adj.indices)
    assert np.array_equal(weighted.indptr, adj.indptr)
    # Nodes 0 and 1 are coincident: the raw transform stores an explicit
    # zero rather than dropping the edge.
    assert weighted[0, 1] == 0.0
    assert weighted.nnz == adj.nnz
    d02 = geo.haversine_km(lat[0], lon[0], lat[2], lon[2])
    assert weighted[0, 2] == pytest.approx(d02, abs=1e-9)


def test_weighted_adjacency_decay_values():
    import scipy.sparse as sp
    lat = np.array([50.0, 52.0])
    lon = np.array([0.0, 0.5])
    adj = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    weighted = geo.weighted_adjacency(adj, lat, lon, transform="decay",
                                      gamma=0.004)
    d = geo.haversine_km(lat[0], lon[0], lat[1], lon[1])
    assert weighted[0, 1] == pytest.approx(np.exp(-0.004 * d), rel=1e-12)
    assert weighted[1, 0] == weighted[0, 1]


def test_haversine_from_is_bitwise_pair_distances():
    rng = np.random.default_rng(4)
    lat_deg = rng.uniform(-89.0, 89.0, 300)
    lon_deg = rng.uniform(-180.0, 180.0, 300)
    lat = np.radians(lat_deg)
    lon = np.radians(lon_deg)
    cos_lat = np.cos(lat)
    nodes = np.arange(300, dtype=np.int64)
    for u in (0, 17, 299):
        want = geo.pair_distances(lat_deg, lon_deg, np.full(300, u), nodes)
        got = geo.haversine_from(lat, lon, cos_lat, u)
        assert got.tobytes() == want.tobytes()


def test_haversine_from_is_bitwise_loop_gather_row():
    rng = np.random.default_rng(5)
    lat_deg = rng.uniform(-90.0, 90.0, 120)
    lon_deg = rng.uniform(-180.0, 180.0, 120)
    lat_deg[7] = lat_deg[3]
    lon_deg[7] = lon_deg[3]
    lat = np.radians(lat_deg)
    lon = np.radians(lon_deg)
    cos_lat = np.cos(lat)
    mat = oracles.loop_distance_matrix(lat_deg, lon_deg)
    for u in range(120):
        got = geo.haversine_from(lat, lon, cos_lat, u)
        assert got.tobytes() == mat[u].tobytes()


# Coordinates that stress the kernel: the poles, the date line from both
# sides, and a signed zero.
EDGE_LAT = st.sampled_from([90.0, -90.0, 0.0, -0.0])
EDGE_LON = st.sampled_from([180.0, -180.0, 0.0, -0.0])
POINTS = st.lists(st.tuples(st.one_of(EDGE_LAT, LAT), st.one_of(EDGE_LON, LON)),
                  min_size=1, max_size=60)


@settings(max_examples=200, deadline=None)
@given(POINTS, st.lists(st.integers(0, 59), max_size=60))
def test_pair_distances_is_bitwise_loop_gather(pool, picks):
    # Picking from a pool with repeats makes coincident points common.
    # Every ordered pair, in row-major order: the (k, k) matrix that the
    # dense oracles take holds these distances.
    points = [pool[i % len(pool)] for i in picks]
    lat = np.array([p[0] for p in points], dtype=np.float64)
    lon = np.array([p[1] for p in points], dtype=np.float64)
    k = len(points)
    src, dst = np.divmod(np.arange(k * k, dtype=np.int64), k)
    got = geo.pair_distances(lat, lon, src, dst)
    want = oracles.loop_distance_matrix(lat, lon)
    assert want.shape == (k, k)
    assert got.tobytes() == want.tobytes()
