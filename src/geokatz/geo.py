"""Great-circle geometry and distance-based edge weighting.

All distances are haversine great-circle lengths in kilometers on a
sphere of radius 6371.0 km. Latitudes and longitudes are accepted in
degrees and converted once at the boundary.
"""

import math

import numpy as np
import scipy.sparse as sp

from .errors import DataError

EARTH_RADIUS_KM = 6371.0

WEIGHT_TRANSFORMS = ("raw", "inverse", "decay", "minmax")

# Dense k*k distance matrices above this node count are refused rather
# than silently allocating gigabytes.
DEFAULT_DENSE_LIMIT = 5000


def haversine_from(lat_rad, lon_rad, cos_lat, u):
    """Great-circle distances in km from node ``u`` to every node.

    ``cos_lat`` is ``np.cos(lat_rad)``, computed once by the caller; the
    result is bitwise row ``u`` of ``distance_matrix``.
    """
    return _haversine(lat_rad - lat_rad[u], lon_rad - lon_rad[u],
                      cos_lat[u] * cos_lat)


def _haversine(dlat, dlon, cos_cos):
    """Haversine km from latitude and longitude differences (radians)
    and the product of the endpoints' latitude cosines."""
    sin_dlat = np.sin(dlat * 0.5)
    sin_dlon = np.sin(dlon * 0.5)
    a = sin_dlat * sin_dlat + cos_cos * sin_dlon * sin_dlon
    return EARTH_RADIUS_KM * (2.0 * np.arctan2(np.sqrt(a), np.sqrt(1.0 - a)))


def haversine_km(lat1, lon1, lat2, lon2):
    """Great-circle distance in km between two points given in degrees."""
    out = pair_distances([lat1, lat2], [lon1, lon2], [0], [1])
    return float(out[0])


def pair_distances(lat_deg, lon_deg, src, dst):
    """Distances in km for node index pairs (src[i], dst[i]).

    ``lat_deg``/``lon_deg`` are per-node coordinate arrays in degrees.
    """
    lat = np.radians(np.asarray(lat_deg, dtype=np.float64))
    lon = np.radians(np.asarray(lon_deg, dtype=np.float64))
    lat1 = lat[src]
    lat2 = lat[dst]
    return _haversine(lat2 - lat1, lon[dst] - lon[src],
                      np.cos(lat1) * np.cos(lat2))


def distance_matrix(lat_deg, lon_deg, max_nodes=DEFAULT_DENSE_LIMIT):
    """Dense (k, k) matrix of pairwise great-circle distances in km.

    Coincident points produce an exact 0.0. Refuses to build matrices
    for more than ``max_nodes`` nodes; pairwise scoring only ever needs
    this for the (much smaller) evaluation node set.
    """
    lat = np.radians(np.asarray(lat_deg, dtype=np.float64))
    k = lat.shape[0]
    if k > max_nodes:
        raise DataError(
            f"dense distance matrix for {k} nodes exceeds the "
            f"{max_nodes}-node limit")
    lon = np.radians(np.asarray(lon_deg, dtype=np.float64))
    cos_lat = np.cos(lat)
    return _haversine(lat - lat[:, None], lon - lon[:, None],
                      cos_lat[:, None] * cos_lat)


def decay_weights(dist, gamma):
    """Exponential distance decay exp(-gamma * dist).

    ``gamma`` is in 1/km and must be finite (exp(-inf * 0.0) is NaN)
    and >= 0. At gamma == 0 every weight is exactly 1.0 (IEEE
    exp(-0.0)), so decay-weighted scores reduce bitwise to their
    unweighted counterparts.
    """
    if not (gamma >= 0 and math.isfinite(gamma)):
        raise ValueError(f"decay rate must be finite and >= 0, got {gamma}")
    return np.exp(-gamma * np.asarray(dist, dtype=np.float64))


def transform_weights(dist, transform="raw", gamma=0.01):
    """Map edge distances (km) to edge weights.

    Transforms:
      raw      the distance itself
      inverse  1 / (1 + dist)
      decay    exp(-gamma * dist)
      minmax   rescale to [0, 1] over the given distances; if all
               distances are equal every weight is 1.0
    """
    dist = np.asarray(dist, dtype=np.float64)
    if transform == "raw":
        return dist.copy()
    if transform == "inverse":
        return 1.0 / (1.0 + dist)
    if transform == "decay":
        return decay_weights(dist, gamma)
    if transform == "minmax":
        if dist.size == 0:
            return dist.copy()
        lo = dist.min()
        span = dist.max() - lo
        if span == 0.0:
            return np.ones_like(dist)
        return (dist - lo) / span
    raise ValueError(
        f"unknown weight transform {transform!r}; "
        f"expected one of {WEIGHT_TRANSFORMS}")


def weighted_adjacency(adj, lat_deg, lon_deg, transform="raw", gamma=0.01):
    """Replace adjacency values with distance-derived edge weights.

    ``adj`` is a CSR adjacency matrix indexed by node position in the
    coordinate arrays. The sparsity pattern is preserved exactly: a
    stored entry whose weight comes out 0.0 (e.g. the raw transform on
    coincident endpoints) stays stored, so walk enumeration over the
    weighted matrix visits the same edges as over the binary one.
    """
    adj = sp.csr_matrix(adj)
    rows = np.repeat(np.arange(adj.shape[0], dtype=np.int64),
                     np.diff(adj.indptr))
    dist = pair_distances(lat_deg, lon_deg, rows,
                          adj.indices.astype(np.int64))
    weights = transform_weights(dist, transform, gamma)
    return sp.csr_matrix((weights, adj.indices.copy(), adj.indptr.copy()),
                         shape=adj.shape)
