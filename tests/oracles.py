"""Independent reference implementations used to check the package.

Everything here is deliberately naive: explicit walk enumeration,
O(P*N) pair counting, exhaustive threshold scans, dense linear algebra.
None of it shares code with the package under test, so agreement is
meaningful. The haversine table was computed offline with mpmath at 50
significant digits via the spherical law of cosines, a formula distinct
from the haversine implementation it checks. The artifact writers are
the row-at-a-time loops that the package's chunked writers must match
byte for byte, the truncated series is the per-source dense walk
that the package's blocked sparse frontier must match bit for bit, and
movement ingestion and network assembly are the record-at-a-time loops
that the package's columnar versions must match exactly, and the
threshold sweep is the stable sort of every score, with the confusion
counted by masks, that the package's floor-split sweep must match. The
synthetic generator is the record-at-a-time loop whose PRNG draws,
records, ground truth and CSV bytes the columnar generator must match.
Run-config parsing is the parser that checked each YAML value by its
key; the config dataclasses now check their own fields, and the YAML
mapping in ``geokatz.config`` must accept, refuse and build the same
configs. Both end in the same dataclasses, so the two parsers are
compared on their YAML handling. The dense distance matrix is the
pair-by-pair gather that the package's pair distances, and each row
from ``haversine_from``, must match bit for bit; the dense oracles
below take it as their (k, k) distances. Decay, normalization, fusion,
the model tables and the score table export are the (k, k) versions
over every pair that the package's tables on their nonzero-pair
support must match bit for bit, and the gamma search is the dense loop
over them that must match candidate by candidate; unlike the rest, the
search sweeps with the package's public threshold search, which other
oracles check. The column conversion of
movement ingest is the loop that re-converts a whole column text by
text after its first bad text, and the evaluation writer is the one
that formats all four float columns of each model's curves on their
own; the count-table writer must match them exactly. The closed-form
Katz rows are the transposed dense block of the solved columns, clipped
and with its diagonal cleared, whose off-diagonal cells that are not
+0.0 the package's support extraction must match bit for bit. Score
tables that tests write as (k, k) matrices are built by ``table_of``,
and ``dense``, ``dense_raw`` and ``dense_vector`` give a table's
columns back as matrices over every pair.
"""

import csv
import dataclasses
import math
from itertools import chain, islice
from typing import Optional

import numpy as np
import scipy.sparse as sp
import yaml
from scipy.sparse.linalg import splu

from geokatz.config import ALL_MODELS, RunConfig
from geokatz.errors import (ConfigError, DataError, EmptyNetworkError,
                            RowError, SchemaError)
from geokatz.graphs import SplitSpec, delimiter_problem
from geokatz.katz import KatzConfig
from geokatz.synth import SynthConfig

EARTH_RADIUS_KM = 6371.0


@dataclasses.dataclass(frozen=True)
class MovementRecord:
    """One directed, geolocated movement in a calendar year: the row
    the record-at-a-time loops below read and write."""
    source_id: str
    dest_id: str
    year: int
    source_lat: float
    source_lon: float
    dest_lat: float
    dest_lon: float
    species: Optional[str] = None


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


def solved_block(solved, sources):
    """The (k, k) block of the solved columns at the source rows,
    transposed into score orientation (pair (i, j) is
    ``solved[sources[j], i]``), with the diagonal at 0 and round-off
    negatives clipped by ``np.maximum``: the dense block whose
    off-diagonal cells that are not +0.0 the package's support
    extraction must match bit for bit."""
    values = solved[sources, :].T.copy()
    np.fill_diagonal(values, 0.0)
    np.maximum(values, 0.0, out=values)
    return values


def solved_columns(adj, beta, source_sets):
    """For each source set, the SuperLU solutions x of
    (I - beta*A^T) x = e_u, one column per source u: one factorization,
    one solve per set, and no residual check."""
    n = adj.shape[0]
    system = (sp.identity(n, format="csc", dtype=np.float64)
              - beta * adj.T.tocsc()).tocsc()
    lu = splu(system)
    solved = []
    for sources in source_sets:
        rhs = np.zeros((n, len(sources)), dtype=np.float64)
        rhs[sources, np.arange(len(sources))] = 1.0
        solved.append(lu.solve(rhs))
    return solved


def block_solve_rows(adj, beta, source_sets):
    """Closed-form Katz rows of each source set as ``solved_block``
    blocks of its ``solved_columns``."""
    return [solved_block(solved, sources) for solved, sources in
            zip(solved_columns(adj, beta, source_sets), source_sets)]


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


def stable_sweep(s, y):
    """Cumulative counts at every distinct-score threshold, from a
    stable sort of all scores: (thresholds, tp, fp, n_pos, n_neg)."""
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    y_sorted = y[order].astype(np.int64)
    tp_cum = np.cumsum(y_sorted)
    fp_cum = np.cumsum(1 - y_sorted)
    ends = np.nonzero(np.diff(s_sorted) != 0.0)[0]
    ends = np.append(ends, len(s_sorted) - 1)
    return (s_sorted[ends], tp_cum[ends], fp_cum[ends],
            int(tp_cum[-1]), int(fp_cum[-1]))


def mask_confusion(s, y, threshold):
    """(tp, fp, fn, tn) of the rule score >= threshold, by masks."""
    pred = s >= threshold
    tp = int(np.count_nonzero(pred & y))
    fp = int(np.count_nonzero(pred & ~y))
    fn = int(np.count_nonzero(~pred & y))
    tn = int(np.count_nonzero(~pred & ~y))
    return tp, fp, fn, tn


def loop_write_score_table(table, registry, fh):
    """Score-table export with one csv.writer row and two f-strings
    per ordered pair, sources and destinations in sorted-id order."""
    ids = [registry.ids[i] for i in table.universe.node_indices]
    order = sorted(range(len(ids)), key=ids.__getitem__)
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["source_id", "dest_id", "model", "score",
                     "score_norm"])
    raw = dense_raw(table)
    norm = dense(table)
    for i in order:
        for j in order:
            if i == j:
                continue
            writer.writerow([ids[i], ids[j], table.model,
                             f"{raw[i, j]:.6g}", f"{norm[i, j]:.6g}"])


def loop_convert(texts, kind, dtype):
    """Column conversion in one pass, or, after any text fails, a second
    pass over the whole column with one conversion and one array write
    per text: (values, failed mask or False)."""
    try:
        return np.fromiter(map(kind, texts), dtype, len(texts)), False
    except (ValueError, OverflowError):
        pass
    values = np.zeros(len(texts), dtype=dtype)
    failed = np.zeros(len(texts), dtype=bool)
    for i, text in enumerate(texts):
        try:
            values[i] = kind(text)
        except (ValueError, OverflowError):
            failed[i] = True
    return values, failed


def _format_column(values):
    """The .6g text of each float, as an object array."""
    return np.array([f"{v:.6g}" for v in np.ravel(values)], dtype=object)


def one_report_write_evaluation(report, out_dir, name):
    """A report's JSON and curve files, each curve column formatted on
    its own: the ROC curve is the PR thresholds and recall behind an
    (inf, 0, 0) anchor. Returns (the thresholds ascending, their text),
    the ``known`` text of the evaluated table's normalized scores."""
    from geokatz.metrics import write_report

    write_report(report, out_dir / f"report_{name}.json")
    roc, pr = report.roc, report.pr
    t, fpr, r, p = (_format_column(c).tolist()
                    for c in (pr.thresholds, roc.x[1:], pr.x, pr.y))
    for kind, columns in (("roc", (["inf", *t], ["0", *fpr], ["0", *r])),
                          ("pr", (t, r, p))):
        with open(out_dir / f"curve_{kind}_{name}.csv", "w",
                  encoding="utf-8", newline="\n") as fh:
            fh.write("threshold,x,y\n")
            for row in zip(*columns):
                fh.write(",".join(row) + "\n")
    return (np.ascontiguousarray(pr.thresholds[::-1], dtype=np.float64),
            _format_column(pr.thresholds)[::-1])


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


LOOP_REQUIRED_COLUMNS = ("source_id", "dest_id", "year",
                         "source_lat", "source_lon", "dest_lat", "dest_lon")
LOOP_OPTIONAL_COLUMNS = ("species",)
LOOP_COORD_CONFLICT_TOL = 1e-9


def _loop_parse_row(fields, line_no, year_range):
    sid = fields["source_id"].strip()
    did = fields["dest_id"].strip()
    if not sid or not did:
        raise RowError(f"row {line_no}: empty source or destination id")
    try:
        year = int(fields["year"].strip())
    except ValueError:
        raise RowError(
            f"row {line_no}: year {fields['year']!r} is not an integer")
    if not (year_range[0] <= year <= year_range[1]):
        raise RowError(
            f"row {line_no}: year {year} outside valid range {year_range}")
    coords = {}
    for key in ("source_lat", "source_lon", "dest_lat", "dest_lon"):
        try:
            value = float(fields[key].strip())
        except ValueError:
            raise RowError(
                f"row {line_no}: {key} {fields[key]!r} is not numeric")
        if not math.isfinite(value):
            raise RowError(f"row {line_no}: {key} {value} is not finite")
        bound = 90.0 if key.endswith("lat") else 180.0
        if not -bound <= value <= bound:
            raise RowError(
                f"row {line_no}: {key} {value} outside [-{bound}, {bound}]")
        coords[key] = value
    species = fields.get("species")
    if species is not None:
        species = species.strip() or None
    return MovementRecord(sid, did, year, coords["source_lat"],
                          coords["source_lon"], coords["dest_lat"],
                          coords["dest_lon"], species)


def loop_ingest_stream(stream, schema=None, on_bad_rows="abort",
                       delimiter=",", year_range=(1900, 2100)):
    """Movement ingestion one CSV record at a time: a field dict and a
    ``MovementRecord`` per row. Returns (records, accepted, rejected,
    diagnostics); raises the first bad row's RowError under "abort"."""
    schema = dict(schema or {})
    lines = iter(stream)
    first = [line.removeprefix("\ufeff") for line in islice(lines, 1)]
    reader = csv.reader(chain(first, lines), delimiter=delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("input has no header row")
    positions = {name.strip(): i for i, name in enumerate(header)}

    column_pos = {}
    missing = []
    for canonical in LOOP_REQUIRED_COLUMNS + LOOP_OPTIONAL_COLUMNS:
        actual = schema.get(canonical, canonical)
        if actual in positions:
            column_pos[canonical] = positions[actual]
        elif canonical in LOOP_REQUIRED_COLUMNS:
            missing.append(actual)
    if missing:
        raise SchemaError(
            f"input is missing required column(s): {', '.join(missing)}")

    records, accepted, rejected, diagnostics = [], 0, 0, []
    width = max(column_pos.values()) + 1
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        try:
            if len(row) < width:
                raise RowError(
                    f"row {line_no}: expected at least {width} fields, "
                    f"got {len(row)}")
            fields = {name: row[pos] for name, pos in column_pos.items()}
            record = _loop_parse_row(fields, line_no, year_range)
        except RowError as exc:
            if on_bad_rows == "abort":
                raise
            rejected += 1
            if len(diagnostics) < 50:
                diagnostics.append(str(exc))
            continue
        records.append(record)
        accepted += 1
    return records, accepted, rejected, diagnostics


def loop_build_network(records):
    """Network assembly one record at a time: each endpoint registered
    with its first-seen coordinates (checked on first sight), conflicts
    and self-loops counted per record, edges deduplicated with
    ``np.unique(axis=0)``. Returns a dict of the registry's ids, lat and
    lon, the (year, source, dest)-sorted edge arrays and the counts."""
    if not records:
        raise EmptyNetworkError("no movement records to build a network from")
    index, ids, lats, lons = {}, [], [], []

    def add(node_id, lat, lon):
        idx = index.get(node_id)
        if idx is not None:
            return idx
        if not (math.isfinite(lat) and -90.0 <= lat <= 90.0):
            raise DataError(f"node {node_id!r}: latitude {lat} out of range")
        if not (math.isfinite(lon) and -180.0 <= lon <= 180.0):
            raise DataError(f"node {node_id!r}: longitude {lon} out of range")
        index[node_id] = len(ids)
        ids.append(node_id)
        lats.append(lat)
        lons.append(lon)
        return index[node_id]

    def conflict(idx, lat, lon):
        return int(abs(lats[idx] - lat) > LOOP_COORD_CONFLICT_TOL
                   or abs(lons[idx] - lon) > LOOP_COORD_CONFLICT_TOL)

    src = np.empty(len(records), dtype=np.int64)
    dst = np.empty(len(records), dtype=np.int64)
    year = np.empty(len(records), dtype=np.int64)
    conflicts = 0
    self_loops = 0
    n = 0
    for rec in records:
        u = add(rec.source_id, rec.source_lat, rec.source_lon)
        conflicts += conflict(u, rec.source_lat, rec.source_lon)
        v = add(rec.dest_id, rec.dest_lat, rec.dest_lon)
        conflicts += conflict(v, rec.dest_lat, rec.dest_lon)
        if u == v:
            self_loops += 1
            continue
        src[n] = u
        dst[n] = v
        year[n] = rec.year
        n += 1
    if n == 0:
        raise EmptyNetworkError("all movements were self-loops")
    triples = np.unique(np.stack([year[:n], src[:n], dst[:n]], axis=1),
                        axis=0)
    return {"ids": ids, "lat": lats, "lon": lons,
            "edge_year": triples[:, 0], "edge_src": triples[:, 1],
            "edge_dst": triples[:, 2], "conflicts": conflicts,
            "self_loops": self_loops, "duplicates": n - len(triples)}


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


def _loop_pair_distances(lat_deg, lon_deg, src, dst):
    """Haversine km for index pairs, converting degrees on every call."""
    lat_rad = np.radians(np.asarray(lat_deg, dtype=np.float64))
    lon_rad = np.radians(np.asarray(lon_deg, dtype=np.float64))
    lat1 = lat_rad[src]
    lat2 = lat_rad[dst]
    sin_dlat = np.sin((lat2 - lat1) * 0.5)
    sin_dlon = np.sin((lon_rad[dst] - lon_rad[src]) * 0.5)
    a = sin_dlat * sin_dlat + np.cos(lat1) * np.cos(lat2) * sin_dlon * sin_dlon
    return EARTH_RADIUS_KM * (2.0 * np.arctan2(np.sqrt(a), np.sqrt(1.0 - a)))


def loop_distance_matrix(lat_deg, lon_deg):
    """Dense (k, k) haversine km gathered pair by pair: every ordered
    pair's index in two k*k arrays (row-major), then the pair
    distances reshaped."""
    k = len(lat_deg)
    src = np.repeat(np.arange(k, dtype=np.int64), k)
    dst = np.tile(np.arange(k, dtype=np.int64), k)
    return _loop_pair_distances(lat_deg, lon_deg, src, dst).reshape(k, k)


def loop_generate(cfg):
    """Synthetic movements one ``MovementRecord`` at a time: the source
    weights and their cumulative sum rebuilt for every fresh draw, one
    destination row per new source, links in a set of tuples. Returns
    (records, truth) with truth from ``loop_truth_summary``."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_nodes
    lat_min, lat_max, lon_min, lon_max = cfg.bbox
    lat = rng.uniform(lat_min, lat_max, n)
    lon = rng.uniform(lon_min, lon_max, n)
    width = max(4, len(str(n - 1)))
    ids = [f"farm-{i:0{width}d}" for i in range(n)]
    species = [cfg.species[int(rng.integers(len(cfg.species)))]
               for _ in range(n)]

    dest_cum = {}

    def draw_dest(u):
        cum = dest_cum.get(u)
        if cum is None:
            dist = _loop_pair_distances(lat, lon,
                                        np.full(n, u, dtype=np.int64),
                                        np.arange(n, dtype=np.int64))
            weights = np.exp(-cfg.decay_rate * dist)
            weights[u] = 0.0
            cum = dest_cum[u] = np.cumsum(weights)
        return int(np.searchsorted(cum, rng.random() * cum[-1],
                                   side="right"))

    out_degree = np.zeros(n, dtype=np.float64)
    links = []
    link_set = set()
    records = []
    year_counts = {}
    years = range(cfg.years[0], cfg.years[1] + 1)
    for year, count in zip(years, cfg.yearly_counts()):
        for _ in range(count):
            if links and rng.random() < cfg.repeat_edge_prob:
                u, v = links[int(rng.integers(len(links)))]
            else:
                source_w = 1.0 + cfg.hub_bias * out_degree
                cum = np.cumsum(source_w)
                u = int(np.searchsorted(cum, rng.random() * cum[-1],
                                        side="right"))
                v = draw_dest(u)
                if (u, v) not in link_set:
                    link_set.add((u, v))
                    links.append((u, v))
                    out_degree[u] += 1.0
            records.append(MovementRecord(
                source_id=ids[u], dest_id=ids[v], year=year,
                source_lat=float(lat[u]), source_lon=float(lon[u]),
                dest_lat=float(lat[v]), dest_lon=float(lon[v]),
                species=species[u]))
        year_counts[year] = count
    return records, loop_truth_summary(cfg, records, year_counts)


def _loop_edge_stats(records):
    triples = {(r.source_id, r.dest_id, r.year) for r in records}
    nodes = {r.source_id for r in records} | {r.dest_id for r in records}
    links = {(r.source_id, r.dest_id) for r in records}
    return {"movements": len(records), "edges": len(triples),
            "links": len(links), "nodes": len(nodes)}


def loop_truth_summary(cfg, records, year_counts):
    """Ground-truth sidecar counted over sets of record fields."""
    truth = {
        "config": dataclasses.asdict(cfg),
        "totals": _loop_edge_stats(records),
        "per_year_movements": {str(y): c for y, c in year_counts.items()},
    }
    first, last = cfg.years
    if last - first >= 2:
        splits = {"train": (first, last - 2), "val": (last - 1, last - 1),
                  "test": (last, last)}
        truth["canonical_split"] = {
            name: dict(_loop_edge_stats([r for r in records
                                         if lo <= r.year <= hi]),
                       years=[lo, hi])
            for name, (lo, hi) in splits.items()
        }
    return truth


def loop_write_movements(records, fh):
    """Movement export with one csv.writer row per record."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["source_id", "dest_id", "year", "source_lat",
                     "source_lon", "dest_lat", "dest_lon", "species"])
    for r in records:
        writer.writerow([
            r.source_id, r.dest_id, r.year,
            f"{r.source_lat:.6f}", f"{r.source_lon:.6f}",
            f"{r.dest_lat:.6f}", f"{r.dest_lon:.6f}",
            r.species or ""])


# Run-config parsing that checks each YAML value by its key before
# building the config dataclasses, which then check the values again.
_KEYED_TOP_KEYS = {"input", "synth", "schema", "ingest", "split", "katz",
                   "models", "score_basis", "tune_on", "combine_rule",
                   "combine_on", "directed", "workers", "output_dir"}
_KEYED_INGEST_KEYS = {"on_bad_rows", "delimiter", "year_range"}
_KEYED_KATZ_KEYS = {"beta_mode", "alpha", "beta", "method",
                    "max_walk_length", "series_tolerance", "gamma",
                    "wki_transform", "spectral_tol", "spectral_max_iter",
                    "solve_max_nodes"}
_KEYED_SYNTH_KEYS = {"seed", "n_nodes", "years", "bbox",
                     "movements_per_year", "decay_rate", "hub_bias",
                     "repeat_edge_prob", "species"}


def _keyed_mapping(value, name):
    if not isinstance(value, dict):
        raise ConfigError(f"'{name}' must be a mapping, got {value!r}")
    return value


def _keyed_reject_unknown(mapping, allowed, name):
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in '{name}': {', '.join(unknown)}")


def _keyed_float(value, key):
    if isinstance(value, bool):
        raise ConfigError(f"'{key}' must be a number, got {value!r}")
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"'{key}' must be a number, got {value!r}")
    if not math.isfinite(number):
        raise ConfigError(f"'{key}' must be finite, got {value!r}")
    return number


def _keyed_int(value, key):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{key}' must be an integer, got {value!r}")
    return value


def _keyed_bool(value, key):
    if not isinstance(value, bool):
        raise ConfigError(f"'{key}' must be true or false, got {value!r}")
    return value


def _keyed_interval(value, key):
    if isinstance(value, int) and not isinstance(value, bool):
        return (value, value)
    if (isinstance(value, (list, tuple)) and len(value) == 2
            and all(isinstance(v, int) and not isinstance(v, bool)
                    for v in value)):
        return (value[0], value[1])
    raise ConfigError(
        f"'{key}' must be a year or a [first, last] pair, got {value!r}")


def _keyed_split(block):
    block = _keyed_mapping(block, "split")
    _keyed_reject_unknown(block, {"train", "val", "test"}, "split")
    missing = [k for k in ("train", "val", "test") if k not in block]
    if missing:
        raise ConfigError(f"split block is missing: {', '.join(missing)}")
    return SplitSpec(
        train_years=_keyed_interval(block["train"], "split.train"),
        val_years=_keyed_interval(block["val"], "split.val"),
        test_years=_keyed_interval(block["test"], "split.test"))


def _keyed_katz(block):
    block = _keyed_mapping(block, "katz") if block else {}
    _keyed_reject_unknown(block, _KEYED_KATZ_KEYS, "katz")
    kwargs = dict(block)
    for key in ("alpha", "beta", "series_tolerance", "spectral_tol"):
        if kwargs.get(key) is not None:
            kwargs[key] = _keyed_float(kwargs[key], f"katz.{key}")
    for key in ("max_walk_length", "spectral_max_iter", "solve_max_nodes"):
        if key in kwargs:
            kwargs[key] = _keyed_int(kwargs[key], f"katz.{key}")
    if "gamma" in kwargs and kwargs["gamma"] != "tune":
        kwargs["gamma"] = _keyed_float(kwargs["gamma"], "katz.gamma")
    return KatzConfig(**kwargs)


def _keyed_synth(block):
    block = _keyed_mapping(block, "synth")
    _keyed_reject_unknown(block, _KEYED_SYNTH_KEYS, "synth")
    kwargs = dict(block)
    for key in ("seed", "n_nodes"):
        if key not in kwargs:
            raise ConfigError(f"synth block requires '{key}'")
        kwargs[key] = _keyed_int(kwargs[key], f"synth.{key}")
    if "years" not in kwargs or "bbox" not in kwargs:
        raise ConfigError("synth block requires 'years' and 'bbox'")
    kwargs["years"] = _keyed_interval(kwargs["years"], "synth.years")
    bbox = kwargs["bbox"]
    if not (isinstance(bbox, (list, tuple)) and len(bbox) == 4):
        raise ConfigError(
            "synth.bbox must be [lat_min, lat_max, lon_min, lon_max]")
    kwargs["bbox"] = tuple(_keyed_float(v, "synth.bbox") for v in bbox)
    if "movements_per_year" not in kwargs:
        raise ConfigError("synth block requires 'movements_per_year'")
    mpy = kwargs["movements_per_year"]
    if isinstance(mpy, list):
        kwargs["movements_per_year"] = [_keyed_int(v, "movements_per_year")
                                        for v in mpy]
    else:
        kwargs["movements_per_year"] = _keyed_int(mpy, "movements_per_year")
    for key in ("decay_rate", "hub_bias", "repeat_edge_prob"):
        if key in kwargs:
            kwargs[key] = _keyed_float(kwargs[key], f"synth.{key}")
    if "species" in kwargs:
        species = kwargs["species"]
        if isinstance(species, str):
            species = [species]
        if not (isinstance(species, list)
                and all(isinstance(s, str) for s in species)):
            raise ConfigError(
                f"synth.species must be a list of names, got {species!r}")
        kwargs["species"] = tuple(species)
    return SynthConfig(**kwargs)


def keyed_parse_run_config(text):
    """Run-config YAML text to a RunConfig, each value checked by key."""
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}")
    raw = _keyed_mapping(raw if raw is not None else {}, "config")
    _keyed_reject_unknown(raw, _KEYED_TOP_KEYS, "config")
    if "split" not in raw:
        raise ConfigError("config requires a 'split' block")

    ingest = _keyed_mapping(raw.get("ingest") or {}, "ingest")
    _keyed_reject_unknown(ingest, _KEYED_INGEST_KEYS, "ingest")
    year_range = ingest.get("year_range", (1900, 2100))
    if not isinstance(year_range, tuple):
        if not (isinstance(year_range, list) and len(year_range) == 2):
            raise ConfigError("ingest.year_range must be [first, last]")
        year_range = (
            _keyed_int(year_range[0], "year_range"),
            _keyed_int(year_range[1], "year_range"))

    delimiter = ingest.get("delimiter", ",")
    problem = delimiter_problem(delimiter, "ingest.delimiter")
    if problem is not None:
        raise ConfigError(problem)
    for key in ("input", "output_dir"):
        if raw.get(key) is not None and not isinstance(raw[key], str):
            raise ConfigError(f"'{key}' must be a path, got {raw[key]!r}")

    schema = raw.get("schema")
    if schema is not None:
        schema = {str(k): str(v)
                  for k, v in _keyed_mapping(schema, "schema").items()}

    models = raw.get("models", list(ALL_MODELS))
    if isinstance(models, str):
        models = [models]
    if not isinstance(models, list):
        raise ConfigError(f"'models' must be a list, got {models!r}")

    synth = _keyed_synth(raw["synth"]) if "synth" in raw else None
    if synth is not None and not (year_range[0] <= synth.years[0]
                                  and synth.years[1] <= year_range[1]):
        raise ConfigError(
            f"synth.years {list(synth.years)} are not inside "
            f"ingest.year_range {list(year_range)}")

    return RunConfig(
        split=_keyed_split(raw["split"]),
        katz=_keyed_katz(raw.get("katz")),
        input=raw.get("input"),
        synth=synth,
        schema=schema,
        on_bad_rows=ingest.get("on_bad_rows", "abort"),
        delimiter=delimiter,
        year_range=year_range,
        models=tuple(str(m) for m in models),
        score_basis=raw.get("score_basis", "train"),
        tune_on=raw.get("tune_on", "val"),
        combine_rule=raw.get("combine_rule", "mean"),
        combine_on=raw.get("combine_on", "normalized"),
        directed=_keyed_bool(raw.get("directed", True), "directed"),
        workers=_keyed_int(raw.get("workers", 1), "workers"),
        output_dir=raw.get("output_dir"),
        source_text=text)


def dense_tune_gamma(ki_table, distances):
    """The gamma search over dense tables: for each grid gamma the full
    (k, k) EWKI table, normalized by the dense oracles below and swept
    over its score vector by the package's public threshold search,
    ties keeping the smaller gamma. Returns the chosen gamma and each
    candidate's (threshold, F1), in grid order."""
    from geokatz.metrics import optimal_threshold
    from geokatz.pipeline import GAMMA_GRID

    best_gamma, best_f1 = None, -1.0
    cuts = []
    for gamma in GAMMA_GRID:
        candidate = dense_normalize(dense_edge_weighted_katz_scores(
            ki_table, distances, float(gamma)))
        cuts.append(optimal_threshold(dense_vector(candidate),
                                      candidate.universe.label_vector))
        if cuts[-1][1] > best_f1:
            best_gamma, best_f1 = float(gamma), cuts[-1][1]
    return best_gamma, cuts


def table_of(model, universe, values, normalized=False, raw_values=None,
             info=None):
    """A ScoreTable from (k, k) matrices, ignoring their diagonals: its
    support is the pairs at which either matrix is not +0.0, bit for
    bit, and both floors are 0.0. Matrices of another shape than the
    universe's are a UniverseMismatchError."""
    from geokatz.errors import UniverseMismatchError
    from geokatz.katz import ScoreTable, _Column

    matrices = [values] if raw_values is None else [values, raw_values]
    matrices = [np.asarray(m, dtype=np.float64) for m in matrices]
    k = universe.k
    if any(m.shape != (k, k) for m in matrices):
        raise UniverseMismatchError(
            f"score matrices of shapes {[m.shape for m in matrices]} "
            f"do not match universe size {k}")
    keep = np.zeros((k, k), dtype=bool)
    for m in matrices:
        keep |= np.ascontiguousarray(m).view(np.int64) != 0
    np.fill_diagonal(keep, False)
    support = np.flatnonzero(keep)
    scores, *raw = [_Column(m.ravel()[support], 0.0) for m in matrices]
    return ScoreTable(model, universe, support, scores, normalized,
                      raw[0] if raw else None, {} if info is None else info)


def _dense_column(table, column):
    k = table.universe.k
    values = np.full(k * k, column.floor)
    values[table.support] = column.on_support
    values[::k + 1] = 0.0
    return values.reshape(k, k)


def dense(table):
    """A ScoreTable's scores as a (k, k) matrix: its support pairs hold
    their scores, every other off-diagonal pair the floor, and the
    diagonal 0. A DenseTable's own matrix."""
    if isinstance(table, DenseTable):
        return table.values
    return _dense_column(table, table.scores)


def dense_raw(table):
    """``dense`` of a table's pre-normalization scores, or None."""
    if isinstance(table, DenseTable):
        return table.raw_values
    return None if table.raw is None else _dense_column(table, table.raw)


def dense_vector(table):
    """``dense(table)`` in the universe's pair flattening order."""
    return table.universe.flatten(dense(table))


@dataclasses.dataclass
class DenseTable:
    """A score table held as (k, k) matrices whose diagonal is fixed at
    0 and excluded from every pair-level view: the table the dense
    oracles below take and return."""
    model: str
    universe: object
    values: np.ndarray
    normalized: bool = False
    raw_values: Optional[np.ndarray] = None
    info: dict = dataclasses.field(default_factory=dict)


def dense_edge_weighted_katz_scores(ki_table, distances, gamma,
                                    model="EWKI"):
    """Every pair of a KI table (a ScoreTable or a DenseTable) times
    exp(-gamma * d), ``distances`` the universe's (k, k) matrix."""
    values = dense(ki_table) * np.exp(
        -gamma * np.asarray(distances, dtype=np.float64))
    np.fill_diagonal(values, 0.0)
    return DenseTable(model, ki_table.universe, values,
                      info=dict(ki_table.info, gamma=gamma))


def dense_normalize(table):
    """Min-max of every off-diagonal pair of a dense table: all zeros,
    with a DegenerateScoreTableWarning, when the pairs are constant."""
    import warnings

    from geokatz.errors import DegenerateScoreTableWarning

    mask = table.universe.offdiag_mask
    pair_scores = table.values[mask]
    lo = pair_scores.min()
    span = pair_scores.max() - lo
    out = np.zeros_like(table.values)
    if span == 0.0:
        warnings.warn(f"score table {table.model!r} is constant",
                      DegenerateScoreTableWarning)
    else:
        out[mask] = (pair_scores - lo) / span + 0.0
    return DenseTable(table.model, table.universe, out, True, table.values,
                      dict(table.info))


def dense_combine(a, b, rule="mean", on="normalized"):
    """Two normalized dense tables fused over every pair, then
    normalized."""
    info = {"rule": rule, "components": (a.model, b.model)}
    if on == "normalized":
        a_values, b_values = a.values, b.values
    else:
        a_values, b_values = a.raw_values, b.raw_values
        info["combined_on"] = "raw"
    fused = {"mean": lambda: (a_values + b_values) / 2.0,
             "product": lambda: a_values * b_values,
             "max": lambda: np.maximum(a_values, b_values)}[rule]()
    np.fill_diagonal(fused, 0.0)
    return dense_normalize(DenseTable(a.model + b.model, a.universe, fused,
                                      info=info))


def dense_model_tables(raw, distances, gamma, models, rule, on):
    """The normalized dense table of each of ``models`` from the
    unnormalized base tables ``raw`` (KI and WKI, as they are needed):
    EWKI decays KI by the (k, k) ``distances``."""
    from geokatz.pipeline import MODEL_PARTS

    raw = dict(raw)
    bases = list(dict.fromkeys(
        base for model in models for base in MODEL_PARTS[model]))
    if "EWKI" in bases:
        raw["EWKI"] = dense_edge_weighted_katz_scores(raw["KI"], distances,
                                                      gamma)
    norm = {base: dense_normalize(raw[base]) for base in bases}
    return {model: norm[model] if len(MODEL_PARTS[model]) == 1
            else dense_combine(*(norm[part] for part in MODEL_PARTS[model]),
                               rule=rule, on=on)
            for model in models}


def dense_write_score_table(table, registry, dest, known=None):
    """Score-table export from a dense table's two (k, k) matrices in
    the export's id order: each column's floor is the bit pattern of
    its first minimum, a pair on both floors takes its row from one
    floor row per destination, and only the pairs off either floor are
    formatted."""
    from geokatz.katz import SCORE_COLUMNS, _csv_fields
    from geokatz.metrics import _format6, _write_text

    ids = [registry.ids[i] for i in table.universe.node_indices]
    order = sorted(range(len(ids)), key=ids.__getitem__)
    k = len(order)
    cells = np.ix_(order, order)
    raw, norm = (np.ascontiguousarray(values[cells], dtype=np.float64).ravel()
                 for values in (table.raw_values, table.values))
    quoted = _csv_fields([ids[i] for i in order] + [table.model])
    model = quoted.pop()
    middle = [f",{dest_id},{model}," for dest_id in quoted]
    lines = [",".join(SCORE_COLUMNS) + "\n"]
    if k > 1:
        low_raw, low_norm = raw.argmin(), norm.argmin()
        raw_bits, norm_bits = raw.view(np.int64), norm.view(np.int64)
        off = np.flatnonzero((raw_bits != raw_bits[low_raw])
                             | (norm_bits != norm_bits[low_norm]))
        raw_floor, *raw_text = _format6(
            raw[np.append(low_raw, off)]).tolist()
        norm_floor, *norm_text = _format6(
            norm[np.append(low_norm, off)], known).tolist()
        text = {int(p): f"{middle[p % k]}{r},{n}\n"
                for p, r, n in zip(off, raw_text, norm_text)}
        for a in range(k):
            rows = [text.get(a * k + b, f"{middle[b]}{raw_floor},"
                             f"{norm_floor}\n") for b in range(k) if b != a]
            lines.append(quoted[a] + quoted[a].join(rows))
    return _write_text(lines, dest)
