"""Seeded generator of synthetic spatial-temporal movement networks.

Nodes are placed uniformly in a bounding box; movements are drawn year
by year from a single explicit PRNG stream: each movement either reuses
an existing directed link or draws a fresh one with a hub-biased source
and a distance-decayed destination. The movement draws are computed
from the stream's raw 64-bit PCG64 words, bit for bit as NumPy's
``Generator.random()`` and ``Generator.integers(m)`` would draw them.
The generator emits the same delimited format the ingestion layer
reads, plus a ground-truth sidecar with the generating parameters and
exact count structure, so pipeline tests can check ingestion and
splitting against known numbers.
"""

import json
import logging
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, as_int, as_interval, as_real
from .geo import decay_weights, haversine_from
from .graphs import (OPTIONAL_COLUMNS, REQUIRED_COLUMNS, IngestReport,
                     _distinct)
from .katz import _csv_fields
from .metrics import _write_text

log = logging.getLogger(__name__)

DEFAULT_SPECIES = ("rainbow trout", "atlantic salmon", "common carp",
                   "brown trout", "arctic char")


@dataclass(frozen=True)
class SynthConfig:
    """Shape parameters for one synthetic network.

    ``movements_per_year`` is either one integer applied to every year
    or a per-year sequence (kept as a tuple); a ``species`` string is
    one name. ``decay_rate`` (per km) controls how strongly destination
    choice prefers nearby nodes (0 = distance independent); ``hub_bias``
    controls how strongly source choice prefers nodes that already have
    outgoing links; and ``repeat_edge_prob`` is the chance a movement
    reuses an existing link instead of drawing a fresh one.
    """
    seed: int
    n_nodes: int
    years: tuple
    bbox: tuple  # (lat_min, lat_max, lon_min, lon_max)
    movements_per_year: object
    decay_rate: float = 0.02
    hub_bias: float = 1.0
    repeat_edge_prob: float = 0.5
    species: tuple = DEFAULT_SPECIES

    def __post_init__(self):
        def put(name, value):
            object.__setattr__(self, name, value)

        put("seed", as_int(self.seed, "synth.seed"))
        if self.seed < 0:
            raise ConfigError(f"'synth.seed' must be >= 0, got {self.seed}")
        put("n_nodes", as_int(self.n_nodes, "synth.n_nodes"))
        lo, hi = as_interval(self.years, "synth.years")
        if lo > hi:
            raise ConfigError(f"year interval [{lo}, {hi}] is reversed")
        put("years", (lo, hi))
        if not (isinstance(self.bbox, (list, tuple)) and len(self.bbox) == 4):
            raise ConfigError(
                "synth.bbox must be [lat_min, lat_max, lon_min, lon_max]")
        put("bbox", tuple(as_real(v, "synth.bbox") for v in self.bbox))
        lat_min, lat_max, lon_min, lon_max = self.bbox
        if not (-90.0 <= lat_min < lat_max <= 90.0
                and -180.0 <= lon_min < lon_max <= 180.0):
            raise ConfigError(f"bounding box {self.bbox} is degenerate or "
                              "out of range")
        mpy = self.movements_per_year
        listed = isinstance(mpy, (list, tuple))
        counts = tuple(as_int(c, "synth.movements_per_year")
                       for c in (mpy if listed else (mpy,)))
        put("movements_per_year", counts if listed else counts[0])
        if listed and len(counts) != hi - lo + 1:
            raise ConfigError(
                f"movements_per_year lists {len(counts)} years, the "
                f"interval {self.years} spans {hi - lo + 1}")
        if any(c < 0 for c in counts):
            raise ConfigError("movements_per_year must be non-negative")
        if any(counts) and self.n_nodes < 2:
            raise ConfigError(
                "generating movements requires at least 2 nodes "
                f"(got {self.n_nodes})")
        for name in ("decay_rate", "hub_bias", "repeat_edge_prob"):
            put(name, as_real(getattr(self, name), f"synth.{name}"))
        species = ((self.species,) if isinstance(self.species, str)
                   else self.species)
        if not (isinstance(species, (list, tuple))
                and all(isinstance(s, str) for s in species)):
            raise ConfigError(
                f"synth.species must be a list of names, got {species!r}")
        put("species", tuple(species))
        if self.n_nodes < 1:
            raise ConfigError("n_nodes must be >= 1")
        if not 0.0 <= self.repeat_edge_prob <= 1.0:
            raise ConfigError("repeat_edge_prob must be in [0, 1]")
        if self.decay_rate < 0 or self.hub_bias < 0:
            raise ConfigError("decay_rate and hub_bias must be >= 0")
        if not self.species:
            raise ConfigError("species list must be non-empty")

    def yearly_counts(self):
        """Movement count per year, expanded to one entry per year."""
        if isinstance(self.movements_per_year, int):
            return [self.movements_per_year] * (self.years[1]
                                                - self.years[0] + 1)
        return list(self.movements_per_year)


class _DestinationSampler:
    """Distance-decayed destination choice with per-source caching.

    For source u the (unnormalized) choice weight of node v != u is
    exp(-decay_rate * d(u, v)). Cumulative-sum rows are built on first
    use per source; the node set is immutable so they never go stale.
    A row whose total is not a normal positive float is a ConfigError:
    its weights underflowed, and a scaled draw could land past the
    last node.
    """

    def __init__(self, lat, lon, decay_rate):
        self._lat = np.radians(lat)
        self._lon = np.radians(lon)
        self._cos_lat = np.cos(self._lat)
        self._decay = decay_rate
        self._cum = {}

    def draw(self, u, uniform):
        cum = self._cum.get(u)
        if cum is None:
            dist = haversine_from(self._lat, self._lon, self._cos_lat, u)
            weights = decay_weights(dist, self._decay)
            weights[u] = 0.0
            cum = self._cum[u] = weights.cumsum()
            if not cum[-1] >= sys.float_info.min:
                raise ConfigError(
                    f"'synth.decay_rate' {self._decay!r} is too large: "
                    f"every destination weight of node {u} underflows")
        return int(cum.searchsorted(uniform * cum[-1], "right"))


def generate(cfg):
    """Generate synthetic movements and their ground-truth summary.

    Returns (report, truth): ``report`` is the columnar
    :class:`~geokatz.graphs.IngestReport` that ``ingest_movements``
    returns, one accepted row per movement in generation order, whose
    ``ids`` are every node's name in node order (the source and dest
    codes are the node indices) and whose ``species_names`` are the
    config's species; and
    truth is a JSON-ready dictionary holding the config, totals,
    per-year counts, and (when the year span allows) the canonical
    chronological split: last year = test, second-to-last = val,
    everything earlier = train.

    Draw order (fixtures stay byte-stable only while it holds): node
    latitudes, then longitudes, then one species per node; then per
    movement, when a link exists, the repeat draw, followed by either
    the index of the reused link or a source and a destination draw.
    Source weights change only when a fresh draw makes a new link.
    Each uniform of the movement loop takes one 64-bit word ``w`` of
    the PCG64 stream as ``(w >> 11) * 2**-53``, and each link index a
    32-bit half word by NumPy's Lemire rule (see ``_RawDraws``); an
    index takes the high half of a word the previous index split, and
    the first index takes the half the species draw may have left.
    Nothing draws from the stream after the movement loop.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_nodes
    lat_min, lat_max, lon_min, lon_max = cfg.bbox
    lat = rng.uniform(lat_min, lat_max, n)
    lon = rng.uniform(lon_min, lon_max, n)
    width = max(4, len(str(n - 1)))
    ids = [f"farm-{i:0{width}d}" for i in range(n)]
    # One bounded draw per node, as n scalar rng.integers calls make.
    species = rng.integers(len(cfg.species), size=n)
    counts = cfg.yearly_counts()
    src, dst, n_links = _draw_links(cfg, rng, lat, lon, sum(counts))
    years = range(cfg.years[0], cfg.years[1] + 1)
    year = np.repeat(np.array(years, dtype=np.int64), counts)
    src = np.array(src, dtype=np.int64)
    dst = np.array(dst, dtype=np.int64)
    report = IngestReport(
        ids, src, dst, year, lat[src], lon[src], lat[dst], lon[dst],
        species[src], list(cfg.species), accepted=len(src))
    truth = _truth_summary(cfg, src, dst, year, dict(zip(years, counts)))
    log.info("generated %d movements over %d nodes (%d distinct links)",
             len(src), n, n_links)
    return report, truth


def _draw_links(cfg, rng, lat, lon, total):
    """Source and destination node lists of ``total`` movements, and
    the number of distinct links among them.

    A movement reuses a uniformly drawn earlier link with probability
    ``repeat_edge_prob``; otherwise its source is drawn with weight
    1 + hub_bias * (links out of it so far) and its destination from
    ``_DestinationSampler``. The weights' cumulative sum is rebuilt
    only when a new link changes them; ``cumsum`` adds in sequence, so
    it is bitwise the sum a rebuild on every draw would give. A sum
    that overflows is a ConfigError naming ``hub_bias``.

    Every uniform and every link index comes from ``_RawDraws``, which
    reads ``rng``'s 64-bit words in blocks. Words read past the last
    movement are discarded; nothing draws from ``rng`` after this loop.
    """
    n = cfg.n_nodes
    draws = _RawDraws(rng.bit_generator)
    uniform = draws.uniform
    index = draws.index
    repeat_prob = cfg.repeat_edge_prob
    hub_bias = cfg.hub_bias
    destinations = _DestinationSampler(lat, lon, cfg.decay_rate)
    out_degree = [0.0] * n
    source_w = 1.0 + hub_bias * np.zeros(n)
    cum = source_w.cumsum()
    links = []
    seen = set()
    src = []
    dst = []
    for _ in range(total):
        if links and uniform() < repeat_prob:
            u, v = links[index(len(links))]
        else:
            u = int(cum.searchsorted(uniform() * cum[-1], "right"))
            v = destinations.draw(u, uniform())
            if u * n + v not in seen:
                seen.add(u * n + v)
                links.append((u, v))
                out_degree[u] += 1.0
                source_w[u] = 1.0 + hub_bias * out_degree[u]
                cum = source_w.cumsum()
                if not math.isfinite(cum[-1]):
                    raise ConfigError(
                        f"'synth.hub_bias' {hub_bias!r} is too large: the "
                        "source weights overflow")
        src.append(u)
        dst.append(v)
    return src, dst, len(links)


class _RawDraws:
    """``Generator.random()`` and ``Generator.integers(m)`` of a PCG64
    stream, bit for bit, computed from its raw 64-bit words.

    The words are read ``_WORD_BLOCK`` at a time with ``random_raw``,
    so a draw makes no NumPy call. A word ``w`` gives the uniform
    ``(w >> 11) * 2**-53``. An index in ``[0, m)``, for
    ``1 <= m <= 2**32``, is NumPy's 32-bit Lemire draw on a 32-bit half
    word ``h``: with ``x = h * m``, the index is ``x >> 32`` unless the
    low 32 bits of ``x`` are below ``(2**32 - m) % m``, and then it
    draws again; ``m == 1`` takes no bits, and ``m == 2**32``
    (threshold 0) gives ``h`` itself. Half words follow PCG64's 32-bit
    buffer (``has_uint32``/``uinteger``): an index takes the low half of
    a fresh word and keeps the high half for the next index, and a half
    the generator holds when this object is made is taken first.
    Uniforms always take a fresh word.

    Words are read ahead of the draws, so nothing may draw from the
    generator while this object is in use.
    """

    def __init__(self, bit_generator):
        state = bit_generator.state
        self._half = state["uinteger"] if state["has_uint32"] else None
        self._words = _raw_words(bit_generator)

    def uniform(self):
        return (next(self._words) >> 11) * _UNIT

    def index(self, m):
        if m == 1:
            return 0
        while True:
            half = self._half
            if half is None:
                word = next(self._words)
                half, self._half = word & _LOW32, word >> 32
            else:
                self._half = None
            x = half * m
            # The threshold is below m, so most draws skip the modulo.
            if x & _LOW32 >= m or x & _LOW32 >= (_TWO32 - m) % m:
                return x >> 32


def _raw_words(bit_generator):
    while True:
        yield from bit_generator.random_raw(_WORD_BLOCK).tolist()


_WORD_BLOCK = 1024
_UNIT = 2.0 ** -53
_TWO32 = 1 << 32
_LOW32 = _TWO32 - 1


def _edge_stats(n, first_year, src, dst, year):
    """Movement, distinct-edge, link and incident-node counts of the
    movements (src[i], dst[i], year[i]) over ``n`` nodes, each edge and
    link counted by its packed int64 key."""
    link = src * n + dst
    edge = (year - first_year) * (n * n) + link
    return {"movements": len(src), "edges": len(_distinct(edge)),
            "links": len(_distinct(link)),
            "nodes": len(_distinct(np.concatenate([src, dst])))}


def _truth_summary(cfg, src, dst, year, year_counts):
    n = cfg.n_nodes
    first, last = cfg.years
    truth = {
        "config": asdict(cfg),
        "totals": _edge_stats(n, first, src, dst, year),
        "per_year_movements": {str(y): c for y, c in year_counts.items()},
    }
    if last - first >= 2:
        splits = {
            "train": (first, last - 2),
            "val": (last - 1, last - 1),
            "test": (last, last),
        }
        truth["canonical_split"] = {}
        for name, (lo, hi) in splits.items():
            keep = (year >= lo) & (year <= hi)
            truth["canonical_split"][name] = dict(
                _edge_stats(n, first, src[keep], dst[keep], year[keep]),
                years=[lo, hi])
    return truth


def write_movements(movements, dest):
    """Write movements in the delimited format the ingestion layer reads.

    ``movements`` is an :class:`~geokatz.graphs.IngestReport`, such as
    :func:`generate` returns. Coordinates carry 6 decimal places (about
    0.1 m), so output is byte-stable across reruns of the same config.
    Fields are quoted as ``csv.writer`` quotes them; each node id and
    species name is quoted once, and each distinct coordinate
    formatted once.
    """
    m = len(movements.source)
    ids = _csv_fields(movements.ids)
    # Species code -1 (none) takes the last entry: an empty field, as
    # csv.writer writes None.
    species = _csv_fields(movements.species_names) + [""]
    # Equal bit patterns format alike; -0.0 and 0.0 do not.
    coords = np.concatenate([movements.source_lat, movements.source_lon,
                             movements.dest_lat, movements.dest_lon])
    bits, where = np.unique(coords.view(np.int64), return_inverse=True)
    text = [f"{x:.6f}" for x in bits.view(np.float64).tolist()]
    cells = list(map(text.__getitem__, where.tolist()))
    columns = zip(map(ids.__getitem__, movements.source.tolist()),
                  map(ids.__getitem__, movements.dest.tolist()),
                  movements.year.tolist(), cells[:m], cells[m:2 * m],
                  cells[2 * m:3 * m], cells[3 * m:],
                  map(species.__getitem__, movements.species.tolist()))
    lines = [f"{a},{b},{y},{c},{d},{e},{f},{s}\n"
             for a, b, y, c, d, e, f, s in columns]
    header = ",".join(REQUIRED_COLUMNS + OPTIONAL_COLUMNS) + "\n"
    return _write_text(header + "".join(lines), dest)


def write_truth(truth, dest):
    """Write the ground-truth sidecar as deterministic JSON."""
    return _write_text(json.dumps(truth, indent=2, sort_keys=True) + "\n",
                       dest)
