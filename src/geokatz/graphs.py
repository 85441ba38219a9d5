"""Movement ingestion, temporal networks, splits and pair universes.

The data model is a directed temporal graph: nodes are geolocated
facilities, edges are year-stamped directed movements between them.
Node ids map to dense integer indices through a registry shared by a
network and everything derived from it (splits, adjacency matrices,
candidate-pair universes), so indices stay comparable across splits.
"""

import codecs
import csv
import io
import logging
import math
import os
import stat
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain, islice, repeat, zip_longest

import numpy as np
import scipy.sparse as sp

from . import _fork
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

# Records ingested together, whether the csv module reads them or lines
# are split directly: enough to amortize the per-block NumPy calls, few
# enough that a block's fields stay a small share of the run's memory
# (the whole file as fields costs more than the parsed columns do). A
# file split directly is cut into parts of whole blocks. On the 80k-row
# benchmark register split directly by one reader (2-core shared host,
# CPU time), blocks of 4096 lines ingest about 5% faster than blocks of
# 512 and 8192 no faster; one block's fields live at a time, so the
# process peaks at 86-89 MB with either (89-91 MB with 8192). The csv
# module reads 512- and 4096-line blocks alike.
_INGEST_BLOCK = 4096
# The fewest blocks worth a forked ingest process of their own (see
# _ingest_split). Two parts of a 20k-24k-row file take 20-30 ms more
# than half of one reader's time: the fork, exit and reaping of the
# child, copy-on-write faults, the child's ids and code arrays pickled
# and loaded, and the merge of the parts (4-8 ms per 80k rows). In a
# warm 125 MB process on a 2-core host, two halves of a 16k-row file
# ingested within 4% of one reader, of a 20k-row file 6% faster and of
# a 24k-row file 9-14% faster; so two parts take 6 blocks, over 20,480
# rows.
_MIN_PART_BLOCKS = 3
# Bytes of a file scanned for line ends and delimiters at once: a few
# bool masks as large as the chunk and the chunk's delimiter offsets
# are the scan's only transients beyond the offsets and counts found.
_SCAN_CHUNK = 1 << 20
# Diagnostics kept in an IngestReport; rows rejected past them are
# counted only.
_MAX_DIAGNOSTICS = 50
_INT64 = np.iinfo(np.int64)
# The code of the empty text in a part's id and species codes: an empty
# id rejects its row, and an empty species cell is no species.
_BLANK = 0


def _distinct(values):
    """The sorted distinct values of a 1-d array, as ``np.unique`` gives
    them. NumPy 2 finds distinct integers with a hash table, which is
    many times slower than this sort for many distinct keys."""
    values = np.sort(values)
    keep = np.empty(len(values), dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


class NodeRegistry:
    """Bijective mapping between opaque node ids and dense indices.

    ``ids`` lists distinct node ids in index order; ``lat[i]`` and
    ``lon[i]`` place node i in decimal degrees. A repeated id, a
    coordinate array whose length is not that of ``ids``, or a
    coordinate that is NaN or out of range is a DataError; the first
    node out of range is the one named.
    """

    def __init__(self, ids, lat, lon):
        self.ids = list(ids)
        n = len(self.ids)
        self._index = dict(zip(self.ids, range(n)))
        if len(self._index) != n:
            # The index keeps each id's last position.
            repeated = next(node_id for i, node_id in enumerate(self.ids)
                            if self._index[node_id] != i)
            raise DataError(f"node {repeated!r} is listed more than once")
        self._lat = np.array(lat, dtype=np.float64)
        self._lon = np.array(lon, dtype=np.float64)
        if self._lat.shape != (n,) or self._lon.shape != (n,):
            raise DataError(
                f"{n} node ids need {n} latitudes and longitudes, got "
                f"{self._lat.size} and {self._lon.size}")
        bad = ~((np.abs(self._lat) <= 90.0) & (np.abs(self._lon) <= 180.0))
        if bad.any():
            i = int(np.argmax(bad))
            lat_i = float(self._lat[i])
            which, value = (("latitude", lat_i) if not abs(lat_i) <= 90.0
                            else ("longitude", float(self._lon[i])))
            raise DataError(f"node {self.ids[i]!r}: {which} {value} "
                            "out of range")
        self._lat.flags.writeable = False
        self._lon.flags.writeable = False

    def __len__(self):
        return len(self.ids)

    def index(self, node_id):
        return self._index[node_id]

    def lat_array(self):
        """Latitudes in index order (read-only; not a copy)."""
        return self._lat

    def lon_array(self):
        """Longitudes in index order (read-only; not a copy)."""
        return self._lon


@dataclass(frozen=True, eq=False)
class TemporalNetwork:
    """Directed year-stamped edges over a shared node registry.

    Edge arrays are parallel, deduplicated on (year, source, dest) and
    sorted in that order. The registry may cover more nodes than occur
    here (it is shared across temporal splits); ``node_indices`` lists
    the nodes actually incident to these edges. Networks compare and
    hash by identity.
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
    """Movements as columns: the accepted rows of one ingestion pass,
    and the one form in which movements reach ``build_network``.

    Node ids are held once each: accepted row i moves from node
    ``ids[source[i]]`` to node ``ids[dest[i]]`` in ``year[i]``, placed
    by the four coordinate arrays at i, with species
    ``species_names[species[i]]`` (code -1 when the column is absent or
    the cell blank), in file order. ``source``, ``dest`` and
    ``species`` are int64 code arrays. An ingested report lists
    ``ids`` and ``species_names`` in the order the accepted rows first
    name them (source, then dest, row by row), which is the order of
    the registry ``build_network`` makes; a report built by hand may
    list them in any order, unused ones included.
    """
    ids: list = field(default_factory=list)
    source: np.ndarray = field(default_factory=partial(np.empty, 0, np.int64))
    dest: np.ndarray = field(default_factory=partial(np.empty, 0, np.int64))
    year: np.ndarray = field(default_factory=partial(np.empty, 0, np.int64))
    source_lat: np.ndarray = field(default_factory=partial(np.empty, 0))
    source_lon: np.ndarray = field(default_factory=partial(np.empty, 0))
    dest_lat: np.ndarray = field(default_factory=partial(np.empty, 0))
    dest_lon: np.ndarray = field(default_factory=partial(np.empty, 0))
    species: np.ndarray = field(
        default_factory=partial(np.empty, 0, np.int64))
    species_names: list = field(default_factory=list)
    accepted: int = 0
    rejected: int = 0
    diagnostics: list = field(default_factory=list)


def _parse_row(fields, line_no, year_range):
    """The (source id, dest id, year, [source lat, source lon, dest lat,
    dest lon], species) of one row's fields, the species "" when the
    column is absent or the cell blank; a bad field raises its
    RowError."""
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
    coords = []
    for key in _COORD_COLUMNS:
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
        coords.append(value)
    return sid, did, year, coords, fields.get("species", "").strip()


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
                     delimiter=",", year_range=DEFAULT_YEAR_RANGE,
                     workers=1):
    """Parse delimited movement records from a path or text stream.

    ``schema`` maps canonical column names (``source_id``, ``dest_id``,
    ``year``, ``source_lat``, ``source_lon``, ``dest_lat``, ``dest_lon``
    and optionally ``species``) to the file's actual header names;
    unmapped canonical names are looked up verbatim. Malformed rows
    either abort ingestion (``on_bad_rows="abort"``) or are skipped and
    counted (``"skip"``), with row-numbered diagnostics in the report.
    ``delimiter`` is one character other than a quote or a line break.

    A path is opened once. A regular file that decodes as UTF-8 and
    holds no quote, CR, NUL or over-long line is split on the delimiter
    directly, in parts read by up to ``workers`` processes; the csv
    module reads anything else, streams included, from its first
    record (see ``_ingest_split``). The report depends on neither the
    rule nor ``workers``.
    """
    if on_bad_rows not in BAD_ROW_POLICIES:
        raise DataError(
            f"on_bad_rows must be one of {BAD_ROW_POLICIES}, "
            f"got {on_bad_rows!r}")
    problem = delimiter_problem(delimiter, "delimiter")
    if problem is not None:
        raise DataError(problem)
    if not hasattr(source, "read"):
        return _ingest_split(source, schema, on_bad_rows, delimiter,
                             year_range, workers)
    try:
        return _ingest_stream(source, schema, on_bad_rows, delimiter,
                              year_range)
    except UnicodeDecodeError as exc:
        raise _decode_error(source, exc, "movement file") from exc


def _open_input(path, what):
    """``path`` opened for reading bytes; a path that cannot be opened
    (missing, a directory, no permission) is a DataError naming it as
    ``what``."""
    try:
        return open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot open {what} {path}: "
                        f"{exc.strerror or exc}") from exc


def _decode_error(source, exc, what, offset=None):
    """The DataError for the byte of ``source``, a ``what`` such as a
    movement file, that ``exc`` could not decode: a path names the file,
    a stream its ``name`` if it has one, and the byte's ``offset`` is
    named when it is known."""
    byte = f"0x{exc.object[exc.start]:02x}"
    if hasattr(source, "read"):
        name = getattr(source, "name", None)
        source = (name if isinstance(name, (str, os.PathLike))
                  else "input stream")
    where = (f"byte {byte} is not valid {exc.encoding}" if offset is None
             else f"byte {offset} ({byte}) is not valid UTF-8")
    return DataError(f"{source}: {where}; {what}s must be encoded as UTF-8")


def _read_decoded(fh, path, what, read):
    """``read`` of ``fh``, the bytes of the file at ``path``, decoded as
    UTF-8 text as it is read. A byte that is not UTF-8 is a DataError
    naming the file as a ``what`` and, when ``fh`` can seek back (a
    regular file, not a pipe), the byte's offset. Closes ``fh``."""
    with io.TextIOWrapper(fh, encoding="utf-8", newline="") as text:
        try:
            return read(text)
        except UnicodeDecodeError as exc:
            raise _decode_error(path, exc, what,
                                _utf8_error_offset(fh)) from exc


def _utf8_error_offset(fh):
    """Offset of the first byte of ``fh``, a binary file, that does not
    decode as UTF-8, found by reading it again from its start; None
    when every byte decodes or ``fh`` cannot seek (a pipe)."""
    if not fh.seekable():
        return None
    fh.seek(0)
    decoder = codecs.getincrementaldecoder("utf-8")()
    offset = 0
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


def _read_header(lines, delimiter):
    """The header record at the start of ``lines``, an iterator over a
    text stream's lines, and a csv reader of the records after it.

    The header's names are stripped, or None when there is no record.
    Spreadsheet exports put a byte-order mark before the header; it
    goes before parsing so a quoted first cell still parses. The reader
    has taken just the header record's lines from ``lines``, and its
    ``line_num`` counts them.
    """
    first = [line.removeprefix("\ufeff") for line in islice(lines, 1)]
    reader = csv.reader(chain(first, lines), delimiter=delimiter)
    header = next(reader, None)
    return None if header is None else list(map(str.strip, header)), reader


def _column_positions(header, schema):
    """Each canonical column's position in ``header``, the stripped
    header names or None; a missing required column is a SchemaError."""
    if header is None:
        raise SchemaError("input has no header row")
    schema = dict(schema or {})
    positions = {name: i for i, name in enumerate(header)}
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
    return column_pos


class _Codes(dict):
    """Texts to int codes, each new text taking the next code."""

    def __missing__(self, text):
        self[text] = code = len(self)
        return code


@dataclass
class _Part:
    """The accepted rows of a run of records and the part's rejected
    rows.

    ``columns`` holds the (source, dest, species, year, (4, k)
    coordinates) of the accepted rows, or None when the part had no
    records. Source and dest are codes into ``ids``, species codes into
    ``species`` (-1 for none); each list holds the texts the part's
    accepted rows name, in the order they first name them.
    ``lookups["ids"]`` and ``lookups["species"]`` pair the ``_Codes``
    of every text the part read with the array taking each code to the
    text's index in that list, or -1 (see ``_merged``).
    """
    ids: list = field(default_factory=list)
    species: list = field(default_factory=list)
    columns: list = None
    rejected: int = 0
    diagnostics: list = field(default_factory=list)
    lookups: dict = None


def _ingest_blocks(blocks, first_line, column_pos, width, year_range,
                   on_bad_rows):
    """The ``_Part`` of ``blocks``, an iterator over blocks of records
    (see ``_split_block``) whose first record is row ``first_line``.

    The blocks code the texts of every row they read, so the codes are
    then put in the order the accepted rows first name the texts: which
    rows are read as they are, and which as a placeholder, depends on
    the rule that split the file.
    """
    part = _Part()
    ids, species_codes = _Codes({"": _BLANK}), _Codes({"": _BLANK})
    blocks_read = []
    for block in blocks:
        blocks_read.append(_ingest_block(
            block, first_line, column_pos, width, year_range, on_bad_rows,
            part, ids, species_codes))
        first_line += len(block[0])
        # A block's fields go before the next block is split.
        block = None
    if blocks_read:
        # Each column's blocks go once it is joined.
        columns = list(zip(*blocks_read))
        blocks_read.clear()
        src, dst, species, year, coords = (
            np.concatenate(columns.pop(0), axis=-1) for _ in range(5))
        part.ids, renumber, _ = _first_seen(list(ids),
                                            _interleaved(src, dst))
        part.species, renumber_species, _ = _first_seen(
            list(species_codes), species[species != _BLANK])
        # No accepted row names the blank text: its code takes -1.
        part.columns = [renumber[src], renumber[dst],
                        renumber_species[species], year, coords]
        part.lookups = {"ids": (ids, renumber),
                        "species": (species_codes, renumber_species)}
    return part


def _ingest_stream(stream, schema, on_bad_rows, delimiter, year_range):
    """The report of a text stream, read by the csv module from its
    first record."""
    header, reader = _read_header(iter(stream), delimiter)
    column_pos = _column_positions(header, schema)
    width = max(column_pos.values()) + 1
    return _report([_ingest_blocks(_csv_blocks(reader, width), 2,
                                   column_pos, width, year_range,
                                   on_bad_rows)])


def _report(parts):
    """The IngestReport of consecutive ``_Part``s of one file: their
    rows joined in file order, and their ids and species names merged
    (``_merged``) in the order the file's accepted rows first name
    them."""
    report = IngestReport()
    parts_with_rows = [part for part in parts if part.columns is not None]
    if parts_with_rows:
        report.ids, report.source, report.dest = _merged(
            parts_with_rows, "ids", 0, 1)
        report.species_names, report.species = _merged(
            parts_with_rows, "species", 2)
        _, _, _, year, coords = zip(*(part.columns
                                      for part in parts_with_rows))
        report.year = np.concatenate(year)
        (report.source_lat, report.source_lon, report.dest_lat,
         report.dest_lon) = np.concatenate(coords, axis=1)
    report.accepted = len(report.source)
    report.rejected = sum(part.rejected for part in parts)
    report.diagnostics = list(islice(chain.from_iterable(
        part.diagnostics for part in parts), _MAX_DIAGNOSTICS))
    log.info("ingested %d records (%d rejected)",
             report.accepted, report.rejected)
    if report.rejected and report.diagnostics:
        log.warning("first rejected row: %s", report.diagnostics[0])
    return report


def _merged(parts, texts, *columns):
    """The ``texts`` lists of consecutive ``parts`` merged, and each of
    ``columns`` (positions in ``_Part.columns``) joined over the parts
    as codes into the merged list, -1 kept.

    Each part lists its texts in the order its rows first name them, so
    the merged list, the first part's texts and then each later part's
    new ones in its order, is in the order the whole file first names
    them. Merging takes one dict lookup per text per later part, in the
    first part's ``lookups``.
    """
    if len(parts) == 1:
        return (getattr(parts[0], texts),
                *(parts[0].columns[column] for column in columns))
    # The first part's list and lookup are extended in place, the
    # renumbering with room for every later text the index lacks.
    merged = getattr(parts[0], texts)
    index, renumber = parts[0].lookups[texts]
    renumber = np.append(renumber, np.full(
        sum(len(getattr(part, texts)) for part in parts[1:]), -1))
    tables = [np.arange(len(merged))]
    for part in parts[1:]:
        names = getattr(part, texts)
        # A text missing from the index takes the blank text's code, -1.
        codes = renumber[np.fromiter(map(index.get, names, repeat(_BLANK)),
                                     np.int64, len(names))]
        # A text new here takes the next code, in the part's order; the
        # index gives a text it lacks a code of its own.
        new = np.flatnonzero(codes < 0)
        codes[new] = np.arange(len(merged), len(merged) + len(new))
        added = list(map(names.__getitem__, new.tolist()))
        renumber[np.fromiter(map(index.__getitem__, added), np.int64,
                             len(added))] = codes[new]
        merged += added
        tables.append(codes)
    # Code -1 picks the -1 appended to each table, so it stays -1.
    return (merged, *(
        np.concatenate([np.append(table, -1)[part.columns[column]]
                        for table, part in zip(tables, parts)])
        for column in columns))


def _interleaved(first, second, dtype=np.int64):
    """``first[0], second[0], first[1], second[1], ...`` as one array:
    the endpoints of movements in the order a record-at-a-time reader
    meets them, source then dest, row after row."""
    both = np.empty(2 * len(first), dtype=dtype)
    both[0::2] = first
    both[1::2] = second
    return both


def _first_seen(texts, codes):
    """``texts`` in the order ``codes``, int64 indices into them, first
    name them, the texts never named left out; the array that maps each
    named text's code to its index in that order; and the position in
    ``codes`` where each text in that order is first named.

    A text never named maps to -1. One vectorized pass with no sort and
    no per-code Python call: each text's first position in ``codes``;
    when those rise with the codes and every text is named (as in an
    ingested report), the codes are in that order already, and
    otherwise the named texts are gathered in the order of those
    positions.
    """
    n = len(codes)
    first = np.full(len(texts), n, dtype=np.int64)
    np.minimum.at(first, codes, np.arange(n))
    if np.all(np.diff(first, append=n) > 0):
        return list(texts), np.arange(len(texts)), first
    # Every text never named lands on the spare last slot.
    at = np.full(n + 1, -1, dtype=np.int64)
    at[first] = np.arange(len(texts))
    first = np.flatnonzero(at[:n] >= 0)
    order = at[first]
    renumber = np.full(len(texts), -1, dtype=np.int64)
    renumber[order] = np.arange(len(order))
    return list(map(texts.__getitem__, order.tolist())), renumber, first


def _ingest_split(path, schema, on_bad_rows, delimiter, year_range, workers):
    """The report of the movement file at ``path``, opened once and split
    by one rule chosen from its bytes.

    A file that is not regular (a pipe, a device) is read as a text
    stream (``_ingest_stream``). A regular file is read whole. If it is
    not UTF-8, or holds a quote, CR or NUL or a line of more bytes than
    the csv field size limit, the csv module reads its bytes from the
    first record; the rows before an undecodable byte are judged before
    the DataError naming the byte's offset is raised. Otherwise each
    line is one record, and the file is cut into ``max(1,
    _fork.processes(workers, blocks // _MIN_PART_BLOCKS))`` parts of
    whole ``_INGEST_BLOCK`` blocks, each starting on a block's first
    line. One scan of the bytes (``_scan_lines``) finds every line's
    end and delimiter count, and ``_split_block`` cuts every block from
    the bytes by them, so each part's blocks and line numbers are those
    of one reader of the whole file. The caller reads the first part
    and one forked child each other part (``_fork.run_parts``; one part
    is read without a fork), and the parts are joined in file order:
    the report equals one reader's, field for field, and under
    ``abort`` the first bad row in file order raises.
    """
    ingest_stream = partial(_ingest_stream, schema=schema,
                            on_bad_rows=on_bad_rows, delimiter=delimiter,
                            year_range=year_range)
    with _open_input(path, "movement file") as fh:
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            data = fh.read()
        else:
            return _read_decoded(fh, path, "movement file", ingest_stream)
    next_line, counts = _scan_lines(data, delimiter)
    if (b'"' in data or b"\r" in data or b"\0" in data
            or np.diff(next_line, prepend=0).max() > csv.field_size_limit()
            or (not data.isascii()
                and _utf8_error_offset(io.BytesIO(data)) is not None)):
        return _read_decoded(io.BytesIO(data), path, "movement file",
                             ingest_stream)
    header, _ = _read_header(io.StringIO(
        data[:next_line[0]].decode("utf-8"), newline=""), delimiter)
    column_pos = _column_positions(header, schema)
    width = max(column_pos.values()) + 1
    n_lines = len(next_line) - (data[-1:] in (b"", b"\n"))
    n_blocks = -(-max(n_lines - 1, 0) // _INGEST_BLOCK)
    n_parts = max(1, _fork.processes(workers, n_blocks // _MIN_PART_BLOCKS))
    starts = [1 + p * n_blocks // n_parts * _INGEST_BLOCK
              for p in range(n_parts)]
    stops = starts[1:] + [n_lines]

    def read(p):
        # Line i starts at byte next_line[i - 1]. The caller reads its
        # part after every child is forked, so the whole file's bytes
        # can go once that part is sliced. The first part keeps the
        # header's bytes, so one part is the file's bytes, not a copy.
        nonlocal data
        bounds = next_line[starts[p] - 1:stops[p]]
        begin = bounds[0] if p else 0
        part, data = data[begin:bounds[-1]], None
        bounds = bounds - begin
        part_counts = counts[starts[p]:stops[p]]
        part = _ingest_blocks(
            (_split_block(part, bounds[b:b + _INGEST_BLOCK + 1],
                          part_counts[b:b + _INGEST_BLOCK], delimiter, width)
             for b in range(0, len(part_counts), _INGEST_BLOCK)),
            starts[p] + 1, column_pos, width, year_range, on_bad_rows)
        if p:
            # Only the first part's lookups serve the merge; a forked
            # child's would only be pickled.
            part.lookups = None
        return part

    return _report(_fork.run_parts([
        (partial(read, p), f"the ingest worker reading lines "
                           f"{starts[p] + 1}-{stops[p]} of {path}")
        for p in range(n_parts)]))


def _scan_lines(data, delimiter):
    """Where the lines of ``data``, a file's bytes, end, and how many
    delimiters each holds, found ``_SCAN_CHUNK`` bytes at a time.

    Returns (next_line, counts), int64 arrays: line i (from 0, the
    header) ends before byte ``next_line[i]``, a last line without an
    LF with the data, and holds ``counts[i]`` copies of the delimiter's
    UTF-8 bytes, which in UTF-8 text occur only where it does.
    """
    view = np.frombuffer(data, np.uint8)
    code = np.frombuffer(delimiter.encode("utf-8"), np.uint8)
    ends, before, seen = [np.empty(0, np.int64)], [], 0
    for start in range(0, len(view), _SCAN_CHUNK):
        chunk = view[start:start + _SCAN_CHUNK]
        ends.append(np.flatnonzero(chunk == ord("\n")))
        found = chunk == code[0]
        for j in range(1, len(code)):
            rest = view[start + j:start + j + len(chunk)]
            found[len(rest):] = False
            found[:len(rest)] &= rest == code[j]
        found = np.flatnonzero(found)
        # Delimiters before each line end, counted from the file's start.
        before.append(seen + np.searchsorted(found, ends[-1]))
        ends[-1] += start
        seen += len(found)
    next_line = np.append(np.concatenate(ends) + 1, len(data))
    return next_line, np.diff(np.concatenate(before + [[seen]]), prepend=0)


def _split_block(data, bounds, counts, delimiter, width):
    """A block of lines of ``data``, the bytes of a file that
    ``_ingest_split`` splits directly, as records split on
    ``delimiter``.

    Line i of the block is ``data[bounds[i]:bounds[i + 1]]``, holding
    ``counts[i]`` delimiters; each line is one record, whose fields are
    the line split on the delimiter. Returns (odd, columns, row):
    ``columns[j]`` holds field j of every row (j < ``width``) except the
    rows ``odd`` flags, and ``row(i)`` is row i's list of fields, empty
    for a blank record. The columns take the rows with the block's most
    common field count (at least ``width``), not the header's, so rows
    that all end in an extra delimiter stay in them; every other row,
    blank ones included, is odd and holds a placeholder that converts
    cleanly in every column. The block is decoded and split once; only
    ``row`` decodes a line on its own.
    """
    n = len(counts)
    k = max(int(np.bincount(counts).argmax()) + 1, width)
    # A blank line holds no delimiter, so it is odd unless k is 1: a
    # line of one byte is odd whatever k is.
    odd = (counts != k - 1) | (np.diff(bounds) == 1)
    # The bytes between the odd lines, joined by the placeholder.
    cuts = [bounds[0], *bounds[np.flatnonzero(odd)[:, None] + [0, 1]].flat,
            bounds[-1]]
    placeholder = (delimiter.join("0" * k) + "\n").encode("utf-8")
    text = placeholder.join([data[a:b] for a, b in zip(cuts[0::2],
                                                         cuts[1::2])])
    fields = text.decode("utf-8").replace("\n", delimiter).split(delimiter)

    def row(i):
        line = data[bounds[i]:bounds[i + 1]].decode("utf-8")
        if line == "\n":
            return []
        return line.removesuffix("\n").split(delimiter)

    return odd, [fields[j:n * k:k] for j in range(width)], row


def _csv_blocks(reader, width):
    """The reader's records in blocks of up to ``_INGEST_BLOCK``, each as
    ``_split_block`` returns one; rows shorter than ``width`` are odd.

    A reader error, a decoding one included, ends the last block, which
    is handed out before the error is raised: the rows read before it
    are judged first, so an ``abort`` on one of them wins as it would
    reading row by row.
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
    mask of the texts that did not convert (False when all did).

    A text that fails takes a 0 and conversion resumes after it:
    ``list.extend`` keeps what it took from the iterator before the
    error. A value the dtype cannot hold (an int past int64) fails too.
    """
    values, failed, rest = [], False, iter(texts)
    while True:
        try:
            values.extend(map(kind, rest))
            break
        except (ValueError, OverflowError):
            if failed is False:
                failed = np.zeros(len(texts), dtype=bool)
            failed[len(values)] = True
            values.append(0)
    try:
        return np.array(values, dtype=dtype), failed
    except OverflowError:
        pass
    array = np.zeros(len(values), dtype=dtype)
    failed = np.zeros(len(values), dtype=bool) | failed
    for i, value in enumerate(values):
        try:
            array[i] = value
        except OverflowError:
            failed[i] = True
    return array, failed


def _coded(texts, codes):
    """The int64 codes of ``texts`` stripped, from ``codes``, a
    ``_Codes``."""
    return np.fromiter(map(codes.__getitem__, map(str.strip, texts)),
                       np.int64, len(texts))


def _ingest_block(block, first_line, column_pos, width, year_range,
                  on_bad_rows, part, ids, species_codes):
    """Accepted columns of one block of records (see ``_split_block``),
    in row order.

    Each column is converted and range-checked at once. Only the odd
    rows and the rows the checks flag go through ``_parse_row``, one at
    a time, so that a rejected row gets its row-numbered diagnostic (or
    aborts) exactly as it would alone; blank records are skipped but
    keep their number. A rejected row is counted in ``part``, a
    ``_Part``. Ids and species are coded by the part's ``_Codes``
    ``ids`` and ``species_codes``, every row's before any is judged, so
    the codes also name texts of rejected rows; an empty id or species
    has the code ``_BLANK``. Returns (source codes, dest codes, species
    codes, years, (4, k) coordinates).
    """
    odd, columns, row = block
    n = len(odd)
    sid = _coded(columns[column_pos["source_id"]], ids)
    did = _coded(columns[column_pos["dest_id"]], ids)
    bad = odd | (sid == _BLANK) | (did == _BLANK)
    year, failed = _convert(columns[column_pos["year"]], int, np.int64)
    bad |= failed | (year < year_range[0]) | (year > year_range[1])
    coords = np.empty((len(_COORD_COLUMNS), n), dtype=np.float64)
    for i, key in enumerate(_COORD_COLUMNS):
        coords[i], failed = _convert(columns[column_pos[key]], float,
                                     np.float64)
        bad |= failed
    bad |= ~np.all(np.abs(coords) <= _COORD_BOUNDS, axis=0)
    if "species" in column_pos:
        species = _coded(columns[column_pos["species"]], species_codes)
    else:
        species = np.full(n, _BLANK, dtype=np.int64)

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
            source, dest, row_year, coords[:, i], name = _parse_row(
                {name: fields[pos] for name, pos in column_pos.items()},
                line_no, year_range)
        except RowError as exc:
            if on_bad_rows == "abort":
                raise
            part.rejected += 1
            if len(part.diagnostics) < _MAX_DIAGNOSTICS:
                part.diagnostics.append(str(exc))
            continue
        # The column conversions leave the stripping to int() and
        # float(), which refuse the separators U+001C-U+001F that
        # str.strip removes; such a row is kept as _parse_row reads it.
        if not _INT64.min <= row_year <= _INT64.max:
            raise DataError(f"row {line_no}: year {row_year} does not "
                            "fit in a 64-bit integer")
        sid[i], did[i] = ids[source], ids[dest]
        species[i] = species_codes[name]
        year[i] = row_year
        bad[i] = False
    if bad.any():
        keep = ~bad
        sid, did, species = sid[keep], did[keep], species[keep]
        year, coords = year[keep], coords[:, keep]
    return sid, did, species, year, coords


def build_network(movements):
    """Assemble a temporal network from an IngestReport's columns.

    Registers every node the movements name with its first-seen
    coordinates (conflicting re-registrations are counted and reported
    in one warning), in the order the movements first name the nodes
    (source, then dest, row by row), whatever the order of the report's
    ``ids``; ids no movement names are left out. Drops self-loops and
    collapses duplicate (source, dest, year) triples. A column that is
    not one entry per source code, or a source or dest code that is not
    an index into ``ids``, is a DataError naming its column.
    """
    m = len(movements.source)
    for name in ("dest", "year", "source_lat", "source_lon", "dest_lat",
                 "dest_lon"):
        n = len(getattr(movements, name))
        if n != m:
            raise DataError(f"movement column {name!r} has {n} entries "
                            f"for {m} source codes")
    if m == 0:
        raise EmptyNetworkError("no movement records to build a network from")
    n_ids = len(movements.ids)
    for name in ("source", "dest"):
        column = np.asarray(getattr(movements, name))
        outside = (column < 0) | (column >= n_ids)
        if outside.any():
            i = int(np.argmax(outside))
            raise DataError(f"movement column {name!r} holds code "
                            f"{column[i]} at row {i}, outside the {n_ids} "
                            "ids")
    ends = _interleaved(movements.source, movements.dest)
    ids, renumber, first = _first_seen(movements.ids, ends)
    codes = renumber[ends]
    lat = _interleaved(movements.source_lat, movements.dest_lat, np.float64)
    lon = _interleaved(movements.source_lon, movements.dest_lon, np.float64)
    registry = NodeRegistry(ids, lat[first], lon[first])
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

    ``node_indices`` holds the k participating global node indices,
    non-negative and strictly ascending; pair (i, j) is the cell of a
    (k, k) matrix whose diagonal is excluded everywhere, at flat
    row-major position i * k + j, which is how a score table's support
    lists its pairs.
    ``positives`` holds the flat positions of the pairs that are known
    links, strictly ascending. Anything else is a ValueError.
    """
    node_indices: np.ndarray
    positives: np.ndarray

    def __post_init__(self):
        for name in ("node_indices", "positives"):
            values = getattr(self, name)
            if (np.ndim(values) != 1 or np.any(np.diff(values) <= 0)
                    or np.any(np.less(values[:1], 0))):
                raise ValueError(f"{name} must be a strictly ascending "
                                 "1-d array of non-negative values")
        k, positives = self.k, self.positives
        if np.any((positives < 0) | (positives >= k * k)
                  | (positives % (k + 1) == 0)):
            raise ValueError(f"positives must be off-diagonal positions "
                             f"in [0, {k * k})")

    @property
    def k(self):
        return len(self.node_indices)

    @property
    def n_pairs(self):
        return self.k * (self.k - 1)

    @property
    def n_positives(self):
        return self.positives.size

    def same_universe(self, other):
        return self is other or (
            np.array_equal(self.node_indices, other.node_indices)
            and np.array_equal(self.positives, other.positives))


def candidate_pairs(eval_net):
    """Labeled ordered-pair universe over an evaluation network.

    Pairs cover exactly the nodes incident to the network's edges, so a
    k-node network yields k(k-1) pairs; a pair is positive iff it is a
    (year-collapsed) link of the network. The links are sorted by
    (source, dest), so their flat positions come out ascending.
    """
    nodes = eval_net.node_indices
    if len(nodes) == 0:
        raise EmptyNetworkError("evaluation network has no edges")
    links = eval_net.links
    positives = (np.searchsorted(nodes, links[:, 0]) * len(nodes)
                 + np.searchsorted(nodes, links[:, 1]))
    return PairUniverse(node_indices=nodes, positives=positives)
