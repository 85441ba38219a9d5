"""Independent reference implementations used to check the package.

Everything here is deliberately naive: explicit walk enumeration,
O(P*N) pair counting, exhaustive threshold scans, dense linear algebra.
None of it shares code with the package under test, so agreement is
meaningful. The haversine table was computed offline with mpmath at 50
significant digits via the spherical law of cosines, a formula distinct
from the haversine implementation it checks. The artifact writers are
the row-at-a-time loops that the package's chunked writers must match
byte for byte, and the truncated series is the per-source dense walk
that the package's blocked sparse frontier must match bit for bit.
"""

import csv

import numpy as np
import scipy.sparse as sp

EARTH_RADIUS_KM = 6371.0


def brute_force_katz(n, edges, beta, max_len, weights=None):
    """Sum of beta^l * (walk weight) over all directed walks of length
    1..max_len, enumerated one walk at a time by depth-first extension.

    ``edges`` is a list of (u, v) pairs; ``weights`` optionally gives a
    weight per edge (default 1.0, i.e. plain walk counting). Returns a
    dense (n, n) array whose [u, v] entry sums over walks from u to v.
    Exponential in max_len; intended for n <= 6, max_len <= 5.
    """
    out_edges = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        w = 1.0 if weights is None else float(weights[i])
        out_edges[u].append((v, w))
    scores = np.zeros((n, n), dtype=np.float64)

    def extend(start, node, length, prod):
        for nxt, w in out_edges[node]:
            contrib = prod * w
            scores[start, nxt] += beta ** length * contrib
            if length < max_len:
                extend(start, nxt, length + 1, contrib)

    for s in range(n):
        extend(s, s, 1, 1.0)
    return scores


def dense_katz_closed_form(adj_dense, beta):
    """(I - beta*A)^-1 - I via dense numpy inversion."""
    a = np.asarray(adj_dense, dtype=np.float64)
    n = a.shape[0]
    eye = np.eye(n)
    return np.linalg.inv(eye - beta * a) - eye


def dense_spectral_radius(adj_dense):
    """Largest eigenvalue magnitude via dense eigendecomposition."""
    eigs = np.linalg.eigvals(np.asarray(adj_dense, dtype=np.float64))
    return float(np.max(np.abs(eigs))) if eigs.size else 0.0


def pair_count_auroc(scores, labels):
    """Tie-aware probability that a positive outscores a negative.

    Counts every (positive, negative) pair: 1 when the positive scores
    strictly higher, 0.5 on a tie. Quadratic on purpose.
    """
    scores = [float(s) for s in scores]
    labels = [bool(y) for y in labels]
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    if not pos or not neg:
        raise ValueError("need both classes")
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def exhaustive_f1_scan(scores, labels):
    """F1 at every distinct score plus one value above the maximum.

    Returns (best_f1, thresholds_achieving_best) computed by direct
    counting at each candidate with the rule predict := score >= t.
    """
    scores = [float(s) for s in scores]
    labels = [bool(y) for y in labels]
    n_pos = sum(labels)
    if n_pos == 0:
        raise ValueError("need at least one positive")
    candidates = sorted(set(scores))
    candidates.append(max(scores) + 1.0)
    best = -1.0
    achievers = []
    for t in candidates:
        tp = sum(1 for s, y in zip(scores, labels) if y and s >= t)
        fp = sum(1 for s, y in zip(scores, labels) if not y and s >= t)
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / n_pos
        f = 2.0 * p * r / (p + r) if p + r else 0.0
        if f > best:
            best = f
            achievers = [t]
        elif f == best:
            achievers.append(t)
    return best, achievers


def loop_write_score_table(table, registry, fh):
    """Score-table export with one csv.writer row and two f-strings
    per ordered pair, sources and destinations in sorted-id order."""
    ids = [registry.ids[i] for i in table.universe.node_indices]
    order = sorted(range(len(ids)), key=ids.__getitem__)
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["source_id", "dest_id", "model", "score",
                     "score_norm"])
    raw = table.raw_values
    norm = table.values
    for i in order:
        for j in order:
            if i == j:
                continue
            writer.writerow([ids[i], ids[j], table.model,
                             f"{raw[i, j]:.6g}", f"{norm[i, j]:.6g}"])


def loop_write_curve(curve, fh):
    """Curve export with one f-string line per point."""
    fh.write("threshold,x,y\n")
    for t, x, y in zip(curve.thresholds, curve.x, curve.y):
        fh.write(f"{t:.6g},{x:.6g},{y:.6g}\n")


def loop_series_rows(adj, beta, sources, max_len, tol):
    """Truncated Katz series with one dense power walk per source: the
    current term is accumulated at the sources, then the walk stops
    once its max-norm is below ``tol``."""
    n = adj.shape[0]
    at = adj.T.tocsr()
    at.sort_indices()
    at_beta = sp.csr_matrix((at.data * beta, at.indices, at.indptr),
                            shape=(n, n))
    values = np.zeros((len(sources), len(sources)), dtype=np.float64)
    for i, u in enumerate(sources):
        term = np.zeros(n, dtype=np.float64)
        term[u] = 1.0
        acc = values[i]
        for _ in range(max_len):
            term = at_beta.dot(term)
            acc += term[sources]
            if np.max(np.abs(term), initial=0.0) < tol:
                break
    np.fill_diagonal(values, 0.0)
    return values


# (label, lat1, lon1, lat2, lon2, km) with km from a 50-digit mpmath
# spherical law of cosines evaluation on a 6371.0 km sphere, rounded to
# 12 significant digits. Coordinates in degrees.
HAVERSINE_TABLE = (
    ("london_paris", 51.5074, -0.1278, 48.8566, 2.3522, 343.556060341),
    ("equator_antipodes", 0.0, 0.0, 0.0, 180.0, 20015.086796),
    ("greenwich_newyork", 51.4779, 0.0, 40.7128, -74.0060, 5579.65294668),
    ("sydney_auckland", -33.8688, 151.2093, -36.8509, 174.7645,
     2156.01349903),
    ("tokyo_osaka", 35.6762, 139.6503, 34.6937, 135.5023, 392.441229952),
    ("oslo_bergen", 59.9139, 10.7522, 60.3913, 5.3221, 305.06671343),
    ("capetown_cairo", -33.9249, 18.4241, 30.0444, 31.2357, 7239.24694459),
    ("anchorage_reykjavik", 61.2181, -149.9003, 64.1466, -21.9426,
     5418.63369641),
    ("lima_bogota", -12.0464, -77.0428, 4.7110, -74.0721, 1892.06547588),
    ("perth_darwin", -31.9523, 115.8613, -12.4634, 130.8456, 2653.14146831),
    ("weymouth_poole", 50.6105, -2.4593, 50.7150, -1.9872, 35.2462135216),
    ("dateline_crossing", 10.0, 179.5, 10.0, -179.5, 109.505583944),
)
