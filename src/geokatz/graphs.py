"""Movement ingestion, temporal networks, splits and pair universes.

The data model is a directed temporal graph: nodes are geolocated
facilities, edges are year-stamped directed movements between them.
Node ids map to dense integer indices through a registry shared by a
network and everything derived from it (splits, adjacency matrices,
candidate-pair universes), so indices stay comparable across splits.
"""

import codecs
import csv
import logging
import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain, compress, islice, repeat, zip_longest
from operator import attrgetter
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import (DataError, EmptyNetworkError, EmptySplitError, RowError,
                     SchemaError, as_interval)

log = logging.getLogger(__name__)

REQUIRED_COLUMNS = ("source_id", "dest_id", "year",
                    "source_lat", "source_lon", "dest_lat", "dest_lon")
OPTIONAL_COLUMNS = ("species",)
BAD_ROW_POLICIES = ("abort", "skip")

DEFAULT_YEAR_RANGE = (1900, 2100)

# Coordinate discrepancies beyond this (degrees) between records of the
# same node count as a conflict; the first-seen coordinate wins.
COORD_CONFLICT_TOL = 1e-9

_COORD_COLUMNS = ("source_lat", "source_lon", "dest_lat", "dest_lon")
_COORD_BOUNDS = np.array([[90.0], [180.0], [90.0], [180.0]])

# Records ingested together: enough to amortize the per-column NumPy
# calls, few enough that a block's fields stay a small share of the
# run's memory (the whole file as fields costs more than the parsed
# columns do). On the 80k-row benchmark register, blocks of 256 to 4096
# lines ingest within 6% of each other, and 4096 holds 5 MB more.
_INGEST_BLOCK = 512
_INT64 = np.iinfo(np.int64)
# Maps a blank species cell to None, any other to itself (``get(s, s)``).
_NO_SPECIES = {"": None}


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


def _coordinate_error(node_id, lat, lon):
    """The DataError for a node first seen at (lat, lon), or None."""
    if not (math.isfinite(lat) and -90.0 <= lat <= 90.0):
        return DataError(f"node {node_id!r}: latitude {lat} out of range")
    if not (math.isfinite(lon) and -180.0 <= lon <= 180.0):
        return DataError(f"node {node_id!r}: longitude {lon} out of range")
    return None


def _distinct(values):
    """The sorted distinct values of a 1-d array, as ``np.unique`` gives
    them. NumPy 2 finds distinct integers with a hash table, which is
    many times slower than this sort for many distinct keys."""
    values = np.sort(values)
    keep = np.empty(len(values), dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _read_only(values):
    values = np.asarray(values, dtype=np.float64)
    values.flags.writeable = False
    return values


class NodeRegistry:
    """Bijective mapping between opaque node ids and dense indices.

    Indices are assigned contiguously from 0 in first-seen order and
    each node carries one (lat, lon) coordinate in decimal degrees; the
    first-seen coordinate wins on re-registration.
    """

    def __init__(self):
        self._index = {}
        self.ids = []
        self._lat = _read_only(())
        self._lon = _read_only(())

    @classmethod
    def _from_columns(cls, ids, lat, lon):
        """Registry of distinct ``ids`` in index order, each at its
        (lat, lon); the first node out of range raises its DataError."""
        bad = ~((np.abs(lat) <= 90.0) & (np.abs(lon) <= 180.0))
        if bad.any():
            i = int(np.argmax(bad))
            raise _coordinate_error(ids[i], float(lat[i]), float(lon[i]))
        registry = cls()
        registry.ids = ids
        registry._index = dict(zip(ids, range(len(ids))))
        registry._lat = _read_only(lat)
        registry._lon = _read_only(lon)
        return registry

    def __len__(self):
        return len(self.ids)

    def __contains__(self, node_id):
        return node_id in self._index

    def add(self, node_id, lat, lon):
        """Register a node (or return its existing index)."""
        idx = self._index.get(node_id)
        if idx is not None:
            return idx
        error = _coordinate_error(node_id, lat, lon)
        if error is not None:
            raise error
        idx = len(self.ids)
        self._index[node_id] = idx
        self.ids.append(node_id)
        self._lat = _read_only(np.append(self._lat, lat))
        self._lon = _read_only(np.append(self._lon, lon))
        return idx

    def index(self, node_id):
        return self._index[node_id]

    def coord(self, idx):
        return float(self._lat[idx]), float(self._lon[idx])

    def lat_array(self):
        """Latitudes in index order (read-only; not a copy)."""
        return self._lat

    def lon_array(self):
        """Longitudes in index order (read-only; not a copy)."""
        return self._lon


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
        return _distinct(np.concatenate([self.edge_src, self.edge_dst]))

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
        src = np.asarray(self.edge_src, dtype=np.int64)
        dst = np.asarray(self.edge_dst, dtype=np.int64)
        # src * n + dst orders pairs as (src, dst) does.
        n = int(max(src.max(), dst.max())) + 1
        key = _distinct(src * n + dst)
        return np.stack([key // n, key % n], axis=1)

    @property
    def n_links(self):
        return len(self.links)

    @cached_property
    def link_set(self):
        return frozenset((int(u), int(v)) for u, v in self.links)

    def years(self):
        """Sorted distinct calendar years present."""
        return _distinct(self.edge_year)

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
    """Build a network from raw parallel arrays: dedup and sort edges.

    Each (year, source, dest) triple is packed into one int64,
    ``((year - y0) * n + src) * n + dst``, whose order is the triples'
    lexicographic order; only years too far apart for that to fit are
    deduplicated as rows instead.
    """
    if len(src) == 0:
        return TemporalNetwork(registry,
                               np.empty(0, dtype=np.int64),
                               np.empty(0, dtype=np.int64),
                               np.empty(0, dtype=np.int64))
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    year = np.asarray(year, dtype=np.int64)
    n = int(max(src.max(), dst.max())) + 1
    y0 = int(year.min())
    if (int(year.max()) - y0 + 1) * n * n > _INT64.max:
        triples = np.unique(np.stack([year, src, dst], axis=1), axis=0)
        return TemporalNetwork(registry, triples[:, 1].copy(),
                               triples[:, 2].copy(), triples[:, 0].copy())
    key = _distinct(((year - y0) * n + src) * n + dst)
    edge_dst = key % n
    key //= n
    edge_src = key % n
    return TemporalNetwork(registry, edge_src, edge_dst, key // n + y0)


@dataclass(frozen=True)
class SplitSpec:
    """Inclusive year intervals for train/validation/test.

    Each interval is a [first, last] pair or a single year. Intervals
    must be internally ordered, chronological and disjoint: train before
    validation before test.
    """
    train_years: tuple
    val_years: tuple
    test_years: tuple

    def __post_init__(self):
        for name in ("train", "val", "test"):
            lo, hi = as_interval(getattr(self, f"{name}_years"),
                                 f"split.{name}")
            if lo > hi:
                raise DataError(
                    f"{name} year interval [{lo}, {hi}] is reversed")
            object.__setattr__(self, f"{name}_years", (lo, hi))
        if not (self.train_years[1] < self.val_years[0]
                and self.val_years[1] < self.test_years[0]):
            raise DataError(
                "split intervals must be chronological and non-overlapping: "
                f"train {self.train_years}, val {self.val_years}, "
                f"test {self.test_years}")

    @property
    def intervals(self):
        return (self.train_years, self.val_years, self.test_years)


@dataclass(eq=False)
class IngestReport:
    """Outcome of one ingestion pass: the accepted rows as columns.

    Accepted row i is ``source_ids[i]``, ``dest_ids[i]``, ``year[i]``,
    the four coordinate arrays at i and ``species[i]`` (None when the
    column is absent or the cell blank), in file order.
    """
    source_ids: list = field(default_factory=list)
    dest_ids: list = field(default_factory=list)
    year: np.ndarray = field(default_factory=partial(np.empty, 0, np.int64))
    source_lat: np.ndarray = field(default_factory=partial(np.empty, 0))
    source_lon: np.ndarray = field(default_factory=partial(np.empty, 0))
    dest_lat: np.ndarray = field(default_factory=partial(np.empty, 0))
    dest_lon: np.ndarray = field(default_factory=partial(np.empty, 0))
    species: list = field(default_factory=list)
    accepted: int = 0
    rejected: int = 0
    diagnostics: list = field(default_factory=list)

    @cached_property
    def records(self):
        """The accepted rows as ``MovementRecord``s, built on first use."""
        return list(map(MovementRecord, self.source_ids, self.dest_ids,
                        self.year.tolist(), self.source_lat.tolist(),
                        self.source_lon.tolist(), self.dest_lat.tolist(),
                        self.dest_lon.tolist(), self.species))


def _columns_of(records):
    """An IngestReport whose columns hold ``records``."""
    def column(name):
        return list(map(attrgetter(name), records))

    return IngestReport(
        column("source_id"), column("dest_id"),
        np.array(column("year"), dtype=np.int64),
        *(np.array(column(name), dtype=np.float64)
          for name in _COORD_COLUMNS),
        column("species"), accepted=len(records))


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


def delimiter_problem(delimiter, name):
    """Why ``delimiter`` cannot separate the fields of a movement file,
    as a message naming it ``name``, or None when it can: it must be
    one character other than a quote or a line break."""
    if (isinstance(delimiter, str) and len(delimiter) == 1
            and delimiter not in '"\r\n'):
        return None
    return (f"{name} must be one character other than a quote or a line "
            f"break, got {delimiter!r}")


def ingest_movements(source, schema=None, on_bad_rows="abort",
                     delimiter=",", year_range=DEFAULT_YEAR_RANGE):
    """Parse delimited movement records from a path or text stream.

    ``schema`` maps canonical column names (``source_id``, ``dest_id``,
    ``year``, ``source_lat``, ``source_lon``, ``dest_lat``, ``dest_lon``
    and optionally ``species``) to the file's actual header names;
    unmapped canonical names are looked up verbatim. Malformed rows
    either abort ingestion (``on_bad_rows="abort"``) or are skipped and
    counted (``"skip"``), with row-numbered diagnostics in the report.
    ``delimiter`` is one character other than a quote or a line break.
    """
    if on_bad_rows not in BAD_ROW_POLICIES:
        raise DataError(
            f"on_bad_rows must be one of {BAD_ROW_POLICIES}, "
            f"got {on_bad_rows!r}")
    problem = delimiter_problem(delimiter, "delimiter")
    if problem is not None:
        raise DataError(problem)
    try:
        if hasattr(source, "read"):
            return _ingest_stream(source, schema, on_bad_rows, delimiter,
                                  year_range)
        with _open_input(source, "movement file") as fh:
            return _ingest_stream(fh, schema, on_bad_rows, delimiter,
                                  year_range)
    except UnicodeDecodeError as exc:
        raise _decode_error(source, exc) from exc


def _open_input(path, what):
    """``path`` opened as UTF-8 text for reading; a path that cannot be
    opened (missing, a directory, no permission) is a DataError naming
    it as ``what``."""
    try:
        return open(path, "r", newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {what} {path}: "
                        f"{exc.strerror or exc}") from exc


def _decode_error(source, exc):
    """The DataError for the byte of ``source`` that ``exc`` could not
    decode: a path names the file and the byte's offset, a stream its
    ``name`` if it has one."""
    byte = f"0x{exc.object[exc.start]:02x}"
    if hasattr(source, "read"):
        name = getattr(source, "name", None)
        where = name if isinstance(name, str) else "input stream"
        return DataError(f"{where}: byte {byte} is not valid {exc.encoding}; "
                         "movement files must be encoded as UTF-8")
    return DataError(f"{source}: byte {_utf8_error_offset(source)} ({byte}) "
                     "is not valid UTF-8; movement files must be encoded "
                     "as UTF-8")


def _utf8_error_offset(path):
    """Offset of the first byte of the file at ``path`` that does not
    decode as UTF-8, or None."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    offset = 0
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(1 << 20)
            pending = len(decoder.getstate()[0])
            try:
                decoder.decode(chunk, final=not chunk)
            except UnicodeDecodeError as exc:
                return offset - pending + exc.start
            if not chunk:
                return None
            offset += len(chunk)


def _ingest_stream(stream, schema, on_bad_rows, delimiter, year_range):
    schema = dict(schema or {})
    lines = iter(stream)
    # Spreadsheet exports put a byte-order mark before the header; it
    # goes before parsing so a quoted first cell still parses.
    first = [line.removeprefix("\ufeff") for line in islice(lines, 1)]
    # The reader takes just the header record's lines from ``lines``.
    try:
        header = next(csv.reader(chain(first, lines), delimiter=delimiter))
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

    report = IngestReport()
    width = max(column_pos.values()) + 1
    # One string object per distinct id or species: the report holds
    # fewer objects, and their hashes are cached for build_network.
    seen = {}
    blocks = []
    first_line = 2
    for block in _blocks(lines, delimiter, width):
        blocks.append(_ingest_block(block, first_line, column_pos, width,
                                    year_range, on_bad_rows, report, seen))
        first_line += len(block[0])
    if blocks:
        sid, did, species, year, coords = zip(*blocks)
        report.source_ids = list(chain.from_iterable(sid))
        report.dest_ids = list(chain.from_iterable(did))
        report.species = list(chain.from_iterable(species))
        report.year = np.concatenate(year)
        (report.source_lat, report.source_lon, report.dest_lat,
         report.dest_lon) = np.concatenate(coords, axis=1)
    report.accepted = len(report.source_ids)
    log.info("ingested %d records (%d rejected)",
             report.accepted, report.rejected)
    if report.rejected and report.diagnostics:
        log.warning("first rejected row: %s", report.diagnostics[0])
    return report


def _blocks(lines, delimiter, width):
    """The records after the header, in blocks of up to ``_INGEST_BLOCK``.

    Each block is (odd, columns, row): ``columns[j]`` holds field j of
    every row (j < ``width``) except the rows ``odd`` flags, and
    ``row(i)`` is row i's list of fields, empty for a blank record.
    Blocks are split directly while ``_split_block`` can show that the
    csv module reads them alike; from the first block it cannot, the
    csv module reads the rest of the stream, as a quoted field may run
    past a block's end. An undecodable byte ends the last block, which
    is handed out before the error is raised: the rows read before it
    are judged first, so an ``abort`` on one of them wins as it would
    reading row by row.
    """
    while True:
        block, error = [], None
        try:
            # extend keeps the lines read before a decoding error.
            block.extend(islice(lines, _INGEST_BLOCK))
        except UnicodeDecodeError as exc:
            error = exc
        if block:
            split = _split_block(block, delimiter, width)
            if split is None:
                rest = lines if error is None else _raising(error)
                yield from _csv_blocks(
                    csv.reader(chain(block, rest), delimiter=delimiter),
                    width)
                return
            yield split
        if error is not None:
            raise error
        if len(block) < _INGEST_BLOCK:
            return


def _raising(error):
    """An iterator that raises ``error`` when asked for its first item."""
    raise error
    yield


def _split_block(lines, delimiter, width):
    """``lines`` as a block of records split on ``delimiter``, or None
    when the csv module might read them differently.

    Lines from a text stream with no quote, CR or NUL, none longer than
    the csv module's field size limit, are one record each, whose fields
    are the line split on the delimiter. The columns take the rows with
    the block's most common field count (at least ``width``), not the
    header's, so rows that all end in an extra delimiter stay in them;
    every other row, blank ones included, is odd and holds a placeholder
    that converts cleanly in every column.
    """
    text = "".join(lines)
    n = len(lines)
    # Each line of a text stream ends in its only LF; the last may lack it.
    if ('"' in text or "\r" in text or "\0" in text
            or text.count("\n") != n - (not text.endswith("\n"))):
        return None
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, lines)) > limit:
        return None
    counts = np.fromiter(map(str.count, lines, repeat(delimiter)),
                         np.intp, n)
    k = max(int(np.bincount(counts).argmax()) + 1, width)
    odd = counts != k - 1
    if text.startswith("\n") or "\n\n" in text:
        odd |= np.fromiter(map("\n".__eq__, lines), bool, n)
    if odd.any():
        patched = lines.copy()
        placeholder = delimiter.join("0" * k) + "\n"
        for i in np.flatnonzero(odd).tolist():
            patched[i] = placeholder
        text = "".join(patched)
    fields = text.replace("\n", delimiter).split(delimiter)

    def row(i):
        line = lines[i]
        if line == "\n":
            return []
        return line.removesuffix("\n").split(delimiter)

    return odd, [fields[j:n * k:k] for j in range(width)], row


def _csv_blocks(reader, width):
    """The reader's records in blocks of up to ``_INGEST_BLOCK``, each as
    ``_blocks`` hands them out; rows shorter than ``width`` are odd.

    A reader error ends the last block, which is handed out before the
    error is raised.
    """
    def block(rows):
        n = len(rows)
        columns = list(zip_longest(*rows, fillvalue=""))
        columns += [("",) * n] * (width - len(columns))
        odd = np.fromiter(map(len, rows), np.intp, n) < width
        return odd, columns, rows.__getitem__

    rows = []
    try:
        for row in reader:
            rows.append(row)
            if len(rows) == _INGEST_BLOCK:
                yield block(rows)
                rows = []
    except (csv.Error, UnicodeDecodeError):
        if rows:
            yield block(rows)
        raise
    if rows:
        yield block(rows)


def _convert(texts, kind, dtype):
    """``texts`` converted by ``kind`` into a ``dtype`` array, and a
    mask of the texts that did not convert (False when all did)."""
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


def _stripped(texts, seen):
    """``texts`` stripped, each as the first equal string ``seen``
    holds (and added to it when new)."""
    texts = list(map(str.strip, texts))
    return list(map(seen.setdefault, texts, texts))


def _ingest_block(block, first_line, column_pos, width, year_range,
                  on_bad_rows, report, seen):
    """Accepted columns of one block of records (see ``_blocks``), in
    row order.

    Each column is converted and range-checked at once. Only the odd
    rows and the rows the checks flag go through ``_parse_row``, one at
    a time, so that a rejected row gets its row-numbered diagnostic (or
    aborts) exactly as it would alone; blank records are skipped but
    keep their number. Returns (source ids, dest ids, species, years,
    (4, k) coordinates).
    """
    odd, columns, row = block
    n = len(odd)
    sid = _stripped(columns[column_pos["source_id"]], seen)
    did = _stripped(columns[column_pos["dest_id"]], seen)
    bad = odd | ~np.fromiter(map(bool, sid), bool, n)
    bad |= ~np.fromiter(map(bool, did), bool, n)
    year, failed = _convert(columns[column_pos["year"]], int, np.int64)
    bad |= failed | (year < year_range[0]) | (year > year_range[1])
    coords = np.empty((len(_COORD_COLUMNS), n), dtype=np.float64)
    for i, key in enumerate(_COORD_COLUMNS):
        coords[i], failed = _convert(columns[column_pos[key]], float,
                                     np.float64)
        bad |= failed
    bad |= ~np.all(np.abs(coords) <= _COORD_BOUNDS, axis=0)
    if "species" in column_pos:
        species = _stripped(columns[column_pos["species"]], seen)
        species = list(map(_NO_SPECIES.get, species, species))
    else:
        species = [None] * n

    for i in np.flatnonzero(bad).tolist():
        fields = row(i)
        if not fields:
            continue
        line_no = first_line + i
        try:
            if len(fields) < width:
                raise RowError(
                    f"row {line_no}: expected at least {width} fields, "
                    f"got {len(fields)}")
            record = _parse_row(
                {name: fields[pos] for name, pos in column_pos.items()},
                line_no, year_range)
        except RowError as exc:
            if on_bad_rows == "abort":
                raise
            report.rejected += 1
            if len(report.diagnostics) < 50:
                report.diagnostics.append(str(exc))
            continue
        # The column conversions leave the stripping to int() and
        # float(), which refuse the separators U+001C-U+001F that
        # str.strip removes; such a row is kept as _parse_row reads it.
        if not _INT64.min <= record.year <= _INT64.max:
            raise DataError(f"row {line_no}: year {record.year} does not "
                            "fit in a 64-bit integer")
        sid[i] = record.source_id
        did[i] = record.dest_id
        species[i] = record.species
        year[i] = record.year
        coords[:, i] = (record.source_lat, record.source_lon,
                        record.dest_lat, record.dest_lon)
        bad[i] = False
    if bad.any():
        keep = ~bad
        mask = keep.tolist()
        sid = list(compress(sid, mask))
        did = list(compress(did, mask))
        species = list(compress(species, mask))
        year = year[keep]
        coords = coords[:, keep]
    return sid, did, species, year, coords


def build_network(movements):
    """Assemble a temporal network from an IngestReport or records.

    Registers every id with its first-seen coordinates (conflicting
    re-registrations are counted and reported in one warning), drops
    self-loops, and collapses duplicate (source, dest, year) triples.
    A sequence of ``MovementRecord``s is first turned into columns.
    """
    if not isinstance(movements, IngestReport):
        movements = _columns_of(movements)
    m = len(movements.source_ids)
    if m == 0:
        raise EmptyNetworkError("no movement records to build a network from")
    # Endpoints in the order a record-at-a-time build meets them:
    # source then dest, record after record.
    ends = [None] * (2 * m)
    ends[0::2] = movements.source_ids
    ends[1::2] = movements.dest_ids
    ids = list(dict.fromkeys(ends))
    index = dict(zip(ids, range(len(ids))))
    codes = np.fromiter(map(index.__getitem__, ends), np.int64, 2 * m)
    lat = np.empty(2 * m, dtype=np.float64)
    lat[0::2] = movements.source_lat
    lat[1::2] = movements.dest_lat
    lon = np.empty(2 * m, dtype=np.float64)
    lon[0::2] = movements.source_lon
    lon[1::2] = movements.dest_lon
    # Indices are handed out in first-seen order, so an endpoint is a
    # node's first sighting exactly where the running maximum rises.
    first = np.flatnonzero(np.diff(np.maximum.accumulate(codes), prepend=-1))
    registry = NodeRegistry._from_columns(ids, lat[first], lon[first])
    conflicts = int(np.count_nonzero(
        (np.abs(registry.lat_array()[codes] - lat) > COORD_CONFLICT_TOL)
        | (np.abs(registry.lon_array()[codes] - lon) > COORD_CONFLICT_TOL)))
    src = codes[0::2]
    dst = codes[1::2]
    edge = src != dst
    self_loops = m - int(np.count_nonzero(edge))
    if conflicts:
        log.warning(
            "%d record(s) carried coordinates conflicting with a node's "
            "first-seen position; first-seen coordinates kept", conflicts)
    if self_loops:
        log.info("dropped %d self-loop movement(s)", self_loops)
    if self_loops == m:
        raise EmptyNetworkError("all movements were self-loops")
    net = _from_edge_arrays(registry, src[edge], dst[edge],
                            movements.year[edge])
    log.info("network: %d nodes, %d edges (%d duplicate movement(s) "
             "collapsed)", net.n_nodes, net.n_edges,
             m - self_loops - net.n_edges)
    return net


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
