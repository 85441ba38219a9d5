"""Seeded generator of synthetic spatial-temporal movement networks.

Nodes are placed uniformly in a bounding box; movements are drawn year
by year from a single explicit PRNG stream: each movement either reuses
an existing directed link or draws a fresh one with a hub-biased source
and a distance-decayed destination. The generator emits the same
delimited format the ingestion layer reads, plus a ground-truth sidecar
with the generating parameters and exact count structure, so pipeline
tests can check ingestion and splitting against known numbers.
"""

import json
import logging
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, as_int, as_interval, as_real
from .geo import haversine_from
from .graphs import IngestReport, _columns_of, _distinct
from .katz import _csv_fields

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
    """

    def __init__(self, lat, lon, decay_rate):
        self._lat = np.radians(lat)
        self._lon = np.radians(lon)
        self._cos_lat = np.cos(self._lat)
        self._decay = decay_rate
        self._cum = {}

    def draw(self, u, random):
        cum = self._cum.get(u)
        if cum is None:
            dist = haversine_from(self._lat, self._lon, self._cos_lat, u)
            weights = np.exp(-self._decay * dist)
            weights[u] = 0.0
            cum = self._cum[u] = weights.cumsum()
        return int(cum.searchsorted(random() * cum[-1], "right"))


def generate(cfg):
    """Generate synthetic movements and their ground-truth summary.

    Returns (report, truth): ``report`` is the columnar
    :class:`~geokatz.graphs.IngestReport` that ``ingest_movements``
    returns, one accepted row per movement in generation order, and
    truth is a JSON-ready dictionary holding the config, totals,
    per-year counts, and (when the year span allows) the canonical
    chronological split: last year = test, second-to-last = val,
    everything earlier = train.

    Draw order (fixtures stay byte-stable only while it holds): node
    latitudes, then longitudes, then one species per node; then per
    movement, when a link exists, the repeat draw, followed by either
    the index of the reused link or a source and a destination draw.
    Source weights change only when a fresh draw makes a new link.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_nodes
    lat_min, lat_max, lon_min, lon_max = cfg.bbox
    lat = rng.uniform(lat_min, lat_max, n)
    lon = rng.uniform(lon_min, lon_max, n)
    width = max(4, len(str(n - 1)))
    ids = [f"farm-{i:0{width}d}" for i in range(n)]
    # One bounded draw per node, as n scalar rng.integers calls make.
    species = [cfg.species[i]
               for i in rng.integers(len(cfg.species), size=n).tolist()]
    counts = cfg.yearly_counts()
    src, dst, n_links = _draw_links(cfg, rng, lat, lon, sum(counts))
    years = range(cfg.years[0], cfg.years[1] + 1)
    year = np.repeat(np.array(years, dtype=np.int64), counts)
    src_at = np.array(src, dtype=np.int64)
    dst_at = np.array(dst, dtype=np.int64)
    report = IngestReport(
        list(map(ids.__getitem__, src)), list(map(ids.__getitem__, dst)),
        year, lat[src_at], lon[src_at], lat[dst_at], lon[dst_at],
        list(map(species.__getitem__, src)), accepted=len(src))
    truth = _truth_summary(cfg, src_at, dst_at, year,
                           dict(zip(years, counts)))
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
    it is bitwise the sum a rebuild on every draw would give.
    """
    n = cfg.n_nodes
    random = rng.random
    integers = rng.integers
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
        if links and random() < repeat_prob:
            u, v = links[integers(len(links))]
        else:
            u = int(cum.searchsorted(random() * cum[-1], "right"))
            v = destinations.draw(u, random)
            if u * n + v not in seen:
                seen.add(u * n + v)
                links.append((u, v))
                out_degree[u] += 1.0
                source_w[u] = 1.0 + hub_bias * out_degree[u]
                cum = source_w.cumsum()
        src.append(u)
        dst.append(v)
    return src, dst, len(links)


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

    ``movements`` is an :class:`~geokatz.graphs.IngestReport` (what
    :func:`generate` returns) or a sequence of ``MovementRecord``s.
    Coordinates carry 6 decimal places (about 0.1 m), so output is
    byte-stable across reruns of the same config. Fields are quoted as
    ``csv.writer`` quotes them; each distinct id, species and
    coordinate is quoted or formatted once.
    """
    if not isinstance(movements, IngestReport):
        movements = _columns_of(movements)
    m = len(movements.source_ids)
    # csv.writer writes a missing species (None) as an empty field.
    names = list(set(movements.source_ids).union(movements.dest_ids,
                                                 movements.species))
    quoted = dict(zip(names, _csv_fields(names)))
    # Equal bit patterns format alike; -0.0 and 0.0 do not.
    coords = np.concatenate([movements.source_lat, movements.source_lon,
                             movements.dest_lat, movements.dest_lon])
    bits, where = np.unique(coords.view(np.int64), return_inverse=True)
    text = [f"{x:.6f}" for x in bits.view(np.float64).tolist()]
    cells = list(map(text.__getitem__, where.tolist()))
    columns = zip(map(quoted.__getitem__, movements.source_ids),
                  map(quoted.__getitem__, movements.dest_ids),
                  movements.year.tolist(), cells[:m], cells[m:2 * m],
                  cells[2 * m:3 * m], cells[3 * m:],
                  map(quoted.__getitem__, movements.species))
    lines = [f"{a},{b},{y},{c},{d},{e},{f},{s}\n"
             for a, b, y, c, d, e, f, s in columns]
    payload = ("source_id,dest_id,year,source_lat,source_lon,dest_lat,"
               "dest_lon,species\n" + "".join(lines))
    if hasattr(dest, "write"):
        dest.write(payload)
    else:
        with open(dest, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
    return dest


def write_truth(truth, dest):
    """Write the ground-truth sidecar as deterministic JSON."""
    payload = json.dumps(truth, indent=2, sort_keys=True)
    if hasattr(dest, "write"):
        dest.write(payload + "\n")
    else:
        with open(dest, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload + "\n")
    return dest
