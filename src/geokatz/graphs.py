"""Movement ingestion, temporal networks, splits and pair universes.

The data model is a directed temporal graph: nodes are geolocated
facilities, edges are year-stamped directed movements between them.
Node ids map to dense integer indices through a registry shared by a
network and everything derived from it (splits, adjacency matrices,
candidate-pair universes), so indices stay comparable across splits.
"""

import csv
import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import (DataError, EmptyNetworkError, EmptySplitError, RowError,
                     SchemaError)

log = logging.getLogger(__name__)

REQUIRED_COLUMNS = ("source_id", "dest_id", "year",
                    "source_lat", "source_lon", "dest_lat", "dest_lon")
OPTIONAL_COLUMNS = ("species",)
BAD_ROW_POLICIES = ("abort", "skip")

DEFAULT_YEAR_RANGE = (1900, 2100)

# Coordinate discrepancies beyond this (degrees) between records of the
# same node count as a conflict; the first-seen coordinate wins.
COORD_CONFLICT_TOL = 1e-9


@dataclass(frozen=True)
class MovementRecord:
    """One directed, geolocated movement in a calendar year."""
    source_id: str
    dest_id: str
    year: int
    source_lat: float
    source_lon: float
    dest_lat: float
    dest_lon: float
    species: Optional[str] = None


class NodeRegistry:
    """Bijective mapping between opaque node ids and dense indices.

    Indices are assigned contiguously from 0 in first-seen order and
    each node carries one (lat, lon) coordinate in decimal degrees; the
    first-seen coordinate wins on re-registration.
    """

    def __init__(self):
        self._index = {}
        self.ids = []
        self._lat = []
        self._lon = []

    def __len__(self):
        return len(self.ids)

    def __contains__(self, node_id):
        return node_id in self._index

    def add(self, node_id, lat, lon):
        """Register a node (or return its existing index)."""
        idx = self._index.get(node_id)
        if idx is not None:
            return idx
        if not (math.isfinite(lat) and -90.0 <= lat <= 90.0):
            raise DataError(f"node {node_id!r}: latitude {lat} out of range")
        if not (math.isfinite(lon) and -180.0 <= lon <= 180.0):
            raise DataError(f"node {node_id!r}: longitude {lon} out of range")
        idx = len(self.ids)
        self._index[node_id] = idx
        self.ids.append(node_id)
        self._lat.append(lat)
        self._lon.append(lon)
        return idx

    def index(self, node_id):
        return self._index[node_id]

    def coord(self, idx):
        return self._lat[idx], self._lon[idx]

    def lat_array(self):
        return np.asarray(self._lat, dtype=np.float64)

    def lon_array(self):
        return np.asarray(self._lon, dtype=np.float64)


@dataclass(frozen=True)
class TemporalNetwork:
    """Directed year-stamped edges over a shared node registry.

    Edge arrays are parallel, deduplicated on (year, source, dest) and
    sorted in that order. The registry may cover more nodes than occur
    here (it is shared across temporal splits); ``node_indices`` lists
    the nodes actually incident to these edges.
    """
    registry: NodeRegistry
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_year: np.ndarray

    @property
    def n_edges(self):
        """Distinct (source, dest, year) triples."""
        return len(self.edge_src)

    @cached_property
    def node_indices(self):
        """Sorted global indices of nodes incident to at least one edge."""
        return np.unique(np.concatenate([self.edge_src, self.edge_dst]))

    @property
    def n_nodes(self):
        return len(self.node_indices)

    @cached_property
    def links(self):
        """Distinct ordered (source, dest) pairs, years collapsed.

        Returned as an (m, 2) array sorted lexicographically.
        """
        if self.n_edges == 0:
            return np.empty((0, 2), dtype=np.int64)
        return np.unique(np.stack([self.edge_src, self.edge_dst], axis=1),
                         axis=0)

    @property
    def n_links(self):
        return len(self.links)

    @cached_property
    def link_set(self):
        return frozenset((int(u), int(v)) for u, v in self.links)

    def years(self):
        """Sorted distinct calendar years present."""
        return np.unique(self.edge_year)

    def restrict(self, first_year, last_year):
        """Sub-network of edges with year in [first_year, last_year]."""
        keep = (self.edge_year >= first_year) & (self.edge_year <= last_year)
        return TemporalNetwork(self.registry, self.edge_src[keep],
                               self.edge_dst[keep], self.edge_year[keep])

    def merged_with(self, other):
        """Union of this network's edges with another on the same registry."""
        if other.registry is not self.registry:
            raise DataError("cannot merge networks with different registries")
        return _from_edge_arrays(
            self.registry,
            np.concatenate([self.edge_src, other.edge_src]),
            np.concatenate([self.edge_dst, other.edge_dst]),
            np.concatenate([self.edge_year, other.edge_year]))


def _from_edge_arrays(registry, src, dst, year):
    """Build a network from raw parallel arrays: dedup and sort edges."""
    if len(src) == 0:
        return TemporalNetwork(registry,
                               np.empty(0, dtype=np.int64),
                               np.empty(0, dtype=np.int64),
                               np.empty(0, dtype=np.int64))
    triples = np.stack([np.asarray(year, dtype=np.int64),
                        np.asarray(src, dtype=np.int64),
                        np.asarray(dst, dtype=np.int64)], axis=1)
    triples = np.unique(triples, axis=0)
    return TemporalNetwork(registry, triples[:, 1].copy(),
                           triples[:, 2].copy(), triples[:, 0].copy())


@dataclass(frozen=True)
class SplitSpec:
    """Inclusive year intervals for train/validation/test.

    Intervals must be internally ordered, chronological and disjoint:
    train before validation before test.
    """
    train_years: tuple
    val_years: tuple
    test_years: tuple

    def __post_init__(self):
        for name, (lo, hi) in zip(("train", "val", "test"), self.intervals):
            if lo > hi:
                raise DataError(
                    f"{name} year interval [{lo}, {hi}] is reversed")
        if not (self.train_years[1] < self.val_years[0]
                and self.val_years[1] < self.test_years[0]):
            raise DataError(
                "split intervals must be chronological and non-overlapping: "
                f"train {self.train_years}, val {self.val_years}, "
                f"test {self.test_years}")

    @property
    def intervals(self):
        return (tuple(self.train_years), tuple(self.val_years),
                tuple(self.test_years))


@dataclass
class IngestReport:
    """Outcome of one ingestion pass."""
    records: list
    accepted: int = 0
    rejected: int = 0
    diagnostics: list = field(default_factory=list)


def _parse_row(fields, line_no, year_range):
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


def ingest_movements(source, schema=None, on_bad_rows="abort",
                     delimiter=",", year_range=DEFAULT_YEAR_RANGE):
    """Parse delimited movement records from a path or text stream.

    ``schema`` maps canonical column names (``source_id``, ``dest_id``,
    ``year``, ``source_lat``, ``source_lon``, ``dest_lat``, ``dest_lon``
    and optionally ``species``) to the file's actual header names;
    unmapped canonical names are looked up verbatim. Malformed rows
    either abort ingestion (``on_bad_rows="abort"``) or are skipped and
    counted (``"skip"``), with row-numbered diagnostics in the report.
    """
    if on_bad_rows not in BAD_ROW_POLICIES:
        raise DataError(
            f"on_bad_rows must be one of {BAD_ROW_POLICIES}, "
            f"got {on_bad_rows!r}")
    if hasattr(source, "read"):
        return _ingest_stream(source, schema, on_bad_rows, delimiter,
                              year_range)
    with open(source, "r", newline="", encoding="utf-8") as fh:
        return _ingest_stream(fh, schema, on_bad_rows, delimiter, year_range)


def _ingest_stream(stream, schema, on_bad_rows, delimiter, year_range):
    schema = dict(schema or {})
    lines = iter(stream)
    # Spreadsheet exports put a byte-order mark before the header; it
    # goes before parsing so a quoted first cell still parses.
    first = [line.removeprefix("\ufeff") for line in islice(lines, 1)]
    reader = csv.reader(chain(first, lines), delimiter=delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("input has no header row")
    positions = {name.strip(): i for i, name in enumerate(header)}

    column_pos = {}
    missing = []
    for canonical in REQUIRED_COLUMNS + OPTIONAL_COLUMNS:
        actual = schema.get(canonical, canonical)
        if actual in positions:
            column_pos[canonical] = positions[actual]
        elif canonical in REQUIRED_COLUMNS:
            missing.append(actual)
    if missing:
        raise SchemaError(
            f"input is missing required column(s): {', '.join(missing)}")

    report = IngestReport(records=[])
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
            record = _parse_row(fields, line_no, year_range)
        except RowError as exc:
            if on_bad_rows == "abort":
                raise
            report.rejected += 1
            if len(report.diagnostics) < 50:
                report.diagnostics.append(str(exc))
            continue
        report.records.append(record)
        report.accepted += 1
    log.info("ingested %d records (%d rejected)",
             report.accepted, report.rejected)
    if report.rejected and report.diagnostics:
        log.warning("first rejected row: %s", report.diagnostics[0])
    return report


def build_network(records):
    """Assemble a temporal network from movement records.

    Registers every id with its first-seen coordinates (conflicting
    re-registrations are counted and reported in one warning), drops
    self-loops, and collapses duplicate (source, dest, year) triples.
    """
    if not records:
        raise EmptyNetworkError("no movement records to build a network from")
    registry = NodeRegistry()
    src = np.empty(len(records), dtype=np.int64)
    dst = np.empty(len(records), dtype=np.int64)
    year = np.empty(len(records), dtype=np.int64)
    conflicts = 0
    self_loops = 0
    n = 0
    for rec in records:
        u = registry.add(rec.source_id, rec.source_lat, rec.source_lon)
        conflicts += _coord_conflict(registry, u, rec.source_lat,
                                     rec.source_lon)
        v = registry.add(rec.dest_id, rec.dest_lat, rec.dest_lon)
        conflicts += _coord_conflict(registry, v, rec.dest_lat, rec.dest_lon)
        if u == v:
            self_loops += 1
            continue
        src[n] = u
        dst[n] = v
        year[n] = rec.year
        n += 1
    if conflicts:
        log.warning(
            "%d record(s) carried coordinates conflicting with a node's "
            "first-seen position; first-seen coordinates kept", conflicts)
    if self_loops:
        log.info("dropped %d self-loop movement(s)", self_loops)
    if n == 0:
        raise EmptyNetworkError("all movements were self-loops")
    net = _from_edge_arrays(registry, src[:n], dst[:n], year[:n])
    log.info("network: %d nodes, %d edges (%d duplicate movement(s) "
             "collapsed)", net.n_nodes, net.n_edges, n - net.n_edges)
    return net


def _coord_conflict(registry, idx, lat, lon):
    known_lat, known_lon = registry.coord(idx)
    return int(abs(known_lat - lat) > COORD_CONFLICT_TOL
               or abs(known_lon - lon) > COORD_CONFLICT_TOL)


def temporal_split(net, spec):
    """Chronological train/validation/test sub-networks.

    Each sub-network keeps the parent registry (indices comparable
    across splits) and contains exactly the edges whose year falls in
    its inclusive interval. An interval capturing zero edges is a hard
    error: every downstream step needs all three populations.
    """
    parts = []
    for name, (lo, hi) in zip(("train", "val", "test"), spec.intervals):
        sub = net.restrict(lo, hi)
        if sub.n_edges == 0:
            raise EmptySplitError(
                f"{name} interval [{lo}, {hi}] captures no edges")
        parts.append(sub)
    return tuple(parts)


def build_adjacency(net, mode="binary-directed"):
    """Binary adjacency over the full parent registry.

    The matrix dimension is the registry size, so rows/columns of nodes
    absent from this network are all-zero and indices line up across
    splits. ``binary-undirected`` symmetrizes by placing 1 in both
    directions.
    """
    n = len(net.registry)
    links = net.links
    if mode == "binary-directed":
        rows, cols = links[:, 0], links[:, 1]
    elif mode == "binary-undirected":
        rows = np.concatenate([links[:, 0], links[:, 1]])
        cols = np.concatenate([links[:, 1], links[:, 0]])
    else:
        raise DataError(f"unknown adjacency mode {mode!r}")
    data = np.ones(len(rows), dtype=np.float64)
    adj = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    adj.sum_duplicates()
    adj.data[:] = 1.0
    return adj


@dataclass(frozen=True, eq=False)
class PairUniverse:
    """All ordered pairs (u, v), u != v, over a fixed node set.

    ``node_indices`` holds the k participating global node indices in
    sorted order; pair data lives in (k, k) matrices whose diagonal is
    excluded everywhere. ``labels[i, j]`` is 1 when the ordered pair is
    a known link. Flattening is row-major over off-diagonal cells, a
    fixed order shared by scores, labels and exports.
    """
    node_indices: np.ndarray
    labels: np.ndarray

    @property
    def k(self):
        return len(self.node_indices)

    @property
    def n_pairs(self):
        return self.k * (self.k - 1)

    @cached_property
    def offdiag_mask(self):
        return ~np.eye(self.k, dtype=bool)

    @cached_property
    def label_vector(self):
        return self.flatten(self.labels)

    @property
    def n_positives(self):
        return int(self.label_vector.sum())

    def flatten(self, matrix):
        """Off-diagonal cells of a (k, k) matrix in row-major order."""
        return matrix[self.offdiag_mask]

    def pair_index_arrays(self):
        """Global (source, dest) node indices in flattening order."""
        k = self.k
        src = np.repeat(self.node_indices, k - 1)
        dst = np.empty((k, k - 1), dtype=self.node_indices.dtype)
        for i in range(k):
            dst[i, :i] = self.node_indices[:i]
            dst[i, i:] = self.node_indices[i + 1:]
        return src, dst.ravel()

    def same_universe(self, other):
        return self is other or (
            np.array_equal(self.node_indices, other.node_indices)
            and np.array_equal(self.labels, other.labels))


def candidate_pairs(eval_net):
    """Labeled ordered-pair universe over an evaluation network.

    Pairs cover exactly the nodes incident to the network's edges, so a
    k-node network yields k(k-1) pairs; a pair is positive iff it is a
    (year-collapsed) link of the network.
    """
    nodes = eval_net.node_indices
    if len(nodes) == 0:
        raise EmptyNetworkError("evaluation network has no edges")
    links = eval_net.links
    k = len(nodes)
    labels = np.zeros((k, k), dtype=np.uint8)
    rows = np.searchsorted(nodes, links[:, 0])
    cols = np.searchsorted(nodes, links[:, 1])
    labels[rows, cols] = 1
    return PairUniverse(node_indices=nodes, labels=labels)
