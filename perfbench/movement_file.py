"""Seeded movement-register CSV for the registry-file workload.

The file imitates a national movement register exported from another
system: 80,000 rows over 25,000 sites, of which about 21,100 appear in
well-formed rows (above the program's ``solve_max_nodes`` of 20000, so
Katz scoring takes the truncated series). Source activity is Zipf
distributed; nine in ten destinations are drawn among the source's
nearest sites and the rest among the busiest sites. The header names
need the workload's schema remap, and 1% of the rows are malformed.
The validation and test years are light, so their pair universes stay
near 490 nodes, far below the dense distance-matrix limit.

The destinations are chosen so that the spectral power iteration
converges: a ring-offset draw, and local draws without the hub share
on a few seeds in forty, left it unconverged after 1000 iterations,
and the workload would then measure the fallback estimate.
"""

import json
import os
import time

import numpy as np
from scipy.spatial import cKDTree

N_SITES = 25_000
N_ROWS = 80_000
BAD_ROWS = N_ROWS // 100
BBOX = (50.0, 55.5, -5.5, 1.5)
TRAIN_YEARS = range(2010, 2022)
LIGHT_YEAR_ROWS = {2022: 350, 2023: 350}
NEIGHBOURS = 24
ZIPF_EXPONENT = 1.0
N_HUBS = 20
HUB_SHARE = 0.1
SPECIES = ("rainbow trout", "atlantic salmon", "brown trout")

HEADER = ("move_year,origin,origin_lat,origin_lon,destination,"
          "destination_lat,destination_lon,species")


def _bad_row(kind, year, src, dst, species):
    """One row that ingest must reject, in one of five ways."""
    if kind == 0:
        return f"n/a,{src},{dst},{species}"
    if kind == 1:
        return f"{year},,{src.split(',', 1)[1]},{dst},{species}"
    if kind == 2:
        return f"{year},{src.split(',')[0]},91.5,0.0,{dst},{species}"
    if kind == 3:
        return f"{year},{src},{dst.rsplit(',', 1)[0]},,{species}"
    return f"{year},{src}"


def _draw(seed):
    """Site coordinates and the (year, source, destination) of each row."""
    rng = np.random.default_rng(seed)
    lat = rng.uniform(BBOX[0], BBOX[1], N_SITES)
    lon = rng.uniform(BBOX[2], BBOX[3], N_SITES)
    scale = np.cos(np.radians(lat.mean()))
    _, nearest = cKDTree(np.column_stack([lat, lon * scale])).query(
        np.column_stack([lat, lon * scale]), k=NEIGHBOURS + 1)
    # Zipf activity over a random ranking of the sites: the shape of the
    # tail is the same for every seed, so universe sizes barely move.
    activity = np.arange(1, N_SITES + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    activity = activity[rng.permutation(N_SITES)] / activity.sum()

    n_light = sum(LIGHT_YEAR_ROWS.values())
    per_train_year = (N_ROWS - n_light) // len(TRAIN_YEARS)
    years = np.concatenate(
        [np.repeat(np.array(TRAIN_YEARS), per_train_year),
         np.repeat(list(LIGHT_YEAR_ROWS), list(LIGHT_YEAR_ROWS.values()))])
    years = np.concatenate(
        [np.full(N_ROWS - len(years), TRAIN_YEARS[0]), years])
    src = rng.choice(N_SITES, size=N_ROWS, p=activity)
    rank = np.minimum(rng.geometric(0.25, N_ROWS), NEIGHBOURS)
    dst = nearest[src, rank]
    # A share of the movements goes to one of the busiest sites wherever
    # it is, as trade to markets does. This ties the local clusters into
    # one core with a clear leading eigenvalue.
    hubs = np.argsort(activity)[-N_HUBS:]
    to_hub = rng.random(N_ROWS) < HUB_SHARE
    dst[to_hub] = rng.choice(hubs, size=int(to_hub.sum()))
    dst[dst == src] = nearest[src[dst == src], 1]
    return rng, lat, lon, years, src, dst


def generate(seed, dest):
    """Write the register for ``seed`` to ``dest``; return its counts.

    The counts are what the benchmark checks the run against: rows
    written, rows made malformed on purpose, and distinct sites among
    the well-formed rows.
    """
    rng, lat, lon, years, src, dst = _draw(seed)
    sites = [f"{i:05d}-UK,{lat[i]:.6f},{lon[i]:.6f}"
             for i in range(N_SITES)]
    site_species = rng.integers(len(SPECIES), size=N_SITES)
    bad = np.zeros(N_ROWS, dtype=bool)
    bad[rng.choice(N_ROWS, size=BAD_ROWS, replace=False)] = True

    lines = [HEADER]
    n_bad = 0
    for y, u, v, is_bad in zip(years.tolist(), src.tolist(), dst.tolist(),
                               bad.tolist()):
        species = SPECIES[site_species[u]]
        if is_bad:
            lines.append(_bad_row(n_bad % 5, y, sites[u], sites[v], species))
            n_bad += 1
        else:
            lines.append(f"{y},{sites[u]},{sites[v]},{species}")
    tmp = f"{dest}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, dest)
    good = ~bad
    return {"rows": N_ROWS, "bad_rows": n_bad,
            "sites": int(len(np.union1d(src[good], dst[good])))}


def cached(seed, directory):
    """Path and counts of the register for ``seed``, made on first use.

    The counts also carry ``generate_s``, the seconds this call spent
    generating (0.0 when the file was already cached).
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"movements-{seed}.csv")
    meta_path = path + ".json"
    if os.path.exists(meta_path) and os.path.exists(path):
        with open(meta_path, encoding="utf-8") as fh:
            meta = json.load(fh)
        meta["generate_s"] = 0.0
        return path, meta
    start = time.perf_counter()
    meta = generate(seed, path)
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh)
    meta["generate_s"] = time.perf_counter() - start
    return path, meta
