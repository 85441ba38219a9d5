"""Unit tests for the seeded synthetic movement-network generator."""

import hashlib
import io
import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import oracles
from conftest import report_of, rows_of
from geokatz.config import load_run_config
from geokatz.errors import ConfigError
from geokatz.geo import haversine_km
from geokatz.graphs import build_network, ingest_movements
from geokatz.synth import (SynthConfig, _RawDraws, generate, write_movements,
                           write_truth)

CONFIGS = Path(__file__).parents[1] / "configs"


def _cfg(**overrides):
    base = dict(seed=11, n_nodes=25, years=(2018, 2021),
                bbox=(50.0, 52.0, -3.0, 0.0), movements_per_year=40)
    base.update(overrides)
    return SynthConfig(**base)


def _csv_bytes(report):
    buf = io.StringIO()
    write_movements(report, buf)
    return buf.getvalue().encode()


class TestConfigValidation:

    def test_reversed_years_rejected(self):
        with pytest.raises(ConfigError, match="reversed"):
            _cfg(years=(2021, 2018))

    @pytest.mark.parametrize("bbox", [
        (52.0, 50.0, -3.0, 0.0),   # lat interval reversed
        (50.0, 52.0, 0.0, -3.0),   # lon interval reversed
        (50.0, 50.0, -3.0, 0.0),   # degenerate lat interval
        (-95.0, 52.0, -3.0, 0.0),  # lat out of range
        (50.0, 52.0, -3.0, 181.0), # lon out of range
    ])
    def test_bad_bbox_rejected(self, bbox):
        with pytest.raises(ConfigError, match="bounding box"):
            _cfg(bbox=bbox)

    def test_negative_seed_rejected(self):
        # NumPy's seed sequence refuses it with a ValueError at generate.
        with pytest.raises(ConfigError, match="'synth.seed' must be >= 0"):
            _cfg(seed=-1)

    def test_negative_counts_rejected(self):
        with pytest.raises(ConfigError, match="non-negative"):
            _cfg(movements_per_year=-1)

    def test_movements_need_two_nodes(self):
        with pytest.raises(ConfigError, match="at least 2 nodes"):
            _cfg(n_nodes=1, movements_per_year=5)

    def test_single_idle_node_allowed(self):
        cfg = _cfg(n_nodes=1, movements_per_year=0)
        report, truth = generate(cfg)
        assert rows_of(report) == []
        assert truth["totals"]["movements"] == 0

    def test_repeat_prob_bounds(self):
        with pytest.raises(ConfigError, match="repeat_edge_prob"):
            _cfg(repeat_edge_prob=1.5)

    @pytest.mark.parametrize("field", ["decay_rate", "hub_bias"])
    def test_negative_rates_rejected(self, field):
        with pytest.raises(ConfigError, match=">= 0"):
            _cfg(**{field: -0.1})

    @pytest.mark.parametrize("field,value", [("decay_rate", 1e4),
                                             ("hub_bias", 1e308)])
    def test_extreme_finite_rates_are_config_errors(self, field, value):
        # Every destination weight underflows to 0, or the source
        # weights' sum overflows; a draw would then index one past the
        # last node.
        cfg = _cfg(n_nodes=10, **{field: value})
        with pytest.raises(ConfigError, match=f"'synth.{field}'"):
            generate(cfg)

    def test_empty_species_rejected(self):
        with pytest.raises(ConfigError, match="species"):
            _cfg(species=())

    def test_per_year_list_length_must_match(self):
        with pytest.raises(ConfigError, match="lists 2 years"):
            _cfg(movements_per_year=[10, 10]).yearly_counts()

    def test_per_year_list_expands_in_order(self):
        cfg = _cfg(movements_per_year=[5, 6, 7, 8])
        assert cfg.yearly_counts() == [5, 6, 7, 8]

    def test_scalar_count_applies_to_every_year(self):
        assert _cfg(movements_per_year=9).yearly_counts() == [9, 9, 9, 9]


class TestDeterminism:

    def test_same_seed_same_bytes(self):
        a, _ = generate(_cfg())
        b, _ = generate(_cfg())
        assert _csv_bytes(a) == _csv_bytes(b)

    def test_different_seed_different_bytes(self):
        a, _ = generate(_cfg(seed=11))
        b, _ = generate(_cfg(seed=12))
        assert _csv_bytes(a) != _csv_bytes(b)

    def test_truth_json_stable(self):
        _, t1 = generate(_cfg())
        _, t2 = generate(_cfg())
        b1, b2 = io.StringIO(), io.StringIO()
        write_truth(t1, b1)
        write_truth(t2, b2)
        assert b1.getvalue() == b2.getvalue()
        assert b1.getvalue().endswith("\n")

    # sha256 of movements.csv and truth.json as `geokatz synth` writes
    # them for each shipped config: a change of the draws, or of how a
    # NumPy version draws them, changes these bytes.
    @pytest.mark.parametrize("name,movements,truth", [
        ("quickstart.yaml",
         "cbebd45c395be5cf133522af03990b2b3f268f243c28216ca8604719866c72f8",
         "fc857c3a88c6667fe53665b699d075777e71fe7ed661aa279e81c4c96a84a7f0"),
        ("national_scale_synthetic.yaml",
         "0272a18fb455d6293d02c4dfdab746784a5bac504e88544da59e0de168e1368e",
         "dc2cde9ae57bc30c6d281103f37934f923fc42f3cc2803a9036d73ec8554a70b"),
    ], ids=["quickstart", "national"])
    def test_shipped_configs_write_pinned_bytes(self, tmp_path, name,
                                                movements, truth):
        report, truth_doc = generate(load_run_config(CONFIGS / name).synth)
        written = (write_movements(report, tmp_path / "movements.csv"),
                   write_truth(truth_doc, tmp_path / "truth.json"))
        assert [hashlib.sha256(path.read_bytes()).hexdigest()
                for path in written] == [movements, truth]


@pytest.fixture(scope="module")
def shape_run():
    cfg = _cfg()
    report, truth = generate(cfg)
    return cfg, rows_of(report), truth


@pytest.fixture(scope="module")
def truth_run():
    cfg = _cfg(movements_per_year=[30, 31, 32, 33])
    report, truth = generate(cfg)
    return cfg, rows_of(report), truth


class TestRecordShape:

    def test_movement_counts_match_config(self, shape_run):
        cfg, records, _ = shape_run
        per_year = {}
        for r in records:
            per_year[r.year] = per_year.get(r.year, 0) + 1
        assert per_year == {y: 40 for y in range(2018, 2022)}

    def test_ids_zero_padded_to_four(self, shape_run):
        _, records, _ = shape_run
        ids = {r.source_id for r in records} | {r.dest_id for r in records}
        assert all(i.startswith("farm-") and len(i) == len("farm-0000")
                   for i in ids)

    def test_id_width_grows_with_node_count(self):
        records = rows_of(generate(_cfg(n_nodes=12000, movements_per_year=3,
                                        years=(2020, 2020)))[0])
        ids = {r.source_id for r in records}
        assert all(len(i) == len("farm-00000") for i in ids)

    def test_no_self_loops(self, shape_run):
        _, records, _ = shape_run
        assert all(r.source_id != r.dest_id for r in records)

    def test_coordinates_inside_bbox(self, shape_run):
        cfg, records, _ = shape_run
        lat_min, lat_max, lon_min, lon_max = cfg.bbox
        for r in records:
            for lat in (r.source_lat, r.dest_lat):
                assert lat_min <= lat <= lat_max
            for lon in (r.source_lon, r.dest_lon):
                assert lon_min <= lon <= lon_max

    def test_species_assigned_per_source(self, shape_run):
        cfg, records, _ = shape_run
        by_source = {}
        for r in records:
            by_source.setdefault(r.source_id, set()).add(r.species)
        assert all(len(s) == 1 for s in by_source.values())
        assert {r.species for r in records} <= set(cfg.species)


class TestTruthSidecar:

    def test_totals_consistent(self, truth_run):
        _, records, truth = truth_run
        totals = truth["totals"]
        assert totals["movements"] == len(records)
        assert totals["links"] == len({(r.source_id, r.dest_id)
                                       for r in records})
        assert totals["edges"] == len({(r.source_id, r.dest_id, r.year)
                                       for r in records})
        assert totals["nodes"] == len({r.source_id for r in records}
                                      | {r.dest_id for r in records})

    def test_per_year_counts(self, truth_run):
        _, _, truth = truth_run
        assert truth["per_year_movements"] == {
            "2018": 30, "2019": 31, "2020": 32, "2021": 33}

    def test_canonical_split_partitions_years(self, truth_run):
        _, records, truth = truth_run
        split = truth["canonical_split"]
        assert split["train"]["years"] == [2018, 2019]
        assert split["val"]["years"] == [2020, 2020]
        assert split["test"]["years"] == [2021, 2021]
        total = sum(split[p]["movements"] for p in ("train", "val", "test"))
        assert total == len(records)

    def test_short_span_has_no_canonical_split(self):
        _, truth = generate(_cfg(years=(2020, 2021),
                                 movements_per_year=10))
        assert "canonical_split" not in truth

    def test_config_embedded(self, truth_run):
        cfg, _, truth = truth_run
        assert truth["config"]["seed"] == cfg.seed
        assert truth["config"]["n_nodes"] == cfg.n_nodes

    def test_truth_is_json_ready(self, truth_run):
        _, _, truth = truth_run
        json.dumps(truth)


class TestGenerationDynamics:

    def test_unbiased_destinations_are_uniform(self):
        # With decay, hub bias, and edge reuse all off, every movement
        # picks its destination uniformly among the other nodes, so the
        # destination counts must pass a chi-square uniformity check.
        cfg = _cfg(seed=5, n_nodes=30, years=(2000, 2002),
                   movements_per_year=2000, decay_rate=0.0,
                   hub_bias=0.0, repeat_edge_prob=0.0)
        records = rows_of(generate(cfg)[0])
        counts = np.zeros(cfg.n_nodes)
        for r in records:
            counts[int(r.dest_id.split("-")[1])] += 1
        statistic = ((counts - counts.mean()) ** 2 / counts.mean()).sum()
        assert statistic < stats.chi2.ppf(0.99, cfg.n_nodes - 1)

    def test_decay_shortens_movements(self):
        common = dict(seed=7, n_nodes=60, years=(2000, 2001),
                      movements_per_year=1500, hub_bias=0.0,
                      repeat_edge_prob=0.0,
                      bbox=(45.0, 55.0, -10.0, 5.0))
        flat = rows_of(generate(_cfg(decay_rate=0.0, **common))[0])
        decayed = rows_of(generate(_cfg(decay_rate=0.05, **common))[0])

        def mean_km(records):
            return np.mean([haversine_km(r.source_lat, r.source_lon,
                                         r.dest_lat, r.dest_lon)
                            for r in records])

        assert mean_km(decayed) < mean_km(flat)

    def test_hub_bias_concentrates_sources(self):
        common = dict(seed=13, n_nodes=80, years=(2000, 2001),
                      movements_per_year=1500, decay_rate=0.0,
                      repeat_edge_prob=0.0)
        flat = rows_of(generate(_cfg(hub_bias=0.0, **common))[0])
        hubby = rows_of(generate(_cfg(hub_bias=25.0, **common))[0])

        def top_source_share(records):
            counts = {}
            for r in records:
                counts[r.source_id] = counts.get(r.source_id, 0) + 1
            ranked = sorted(counts.values(), reverse=True)
            return sum(ranked[:8]) / len(records)

        assert top_source_share(hubby) > top_source_share(flat) + 0.05

    def test_repeat_prob_caps_distinct_links(self):
        common = dict(seed=3, n_nodes=50, years=(2000, 2001),
                      movements_per_year=800)
        fresh, t_fresh = generate(_cfg(repeat_edge_prob=0.0, **common))
        sticky, t_sticky = generate(_cfg(repeat_edge_prob=0.9, **common))
        fresh, sticky = rows_of(fresh), rows_of(sticky)
        assert t_sticky["totals"]["links"] < t_fresh["totals"]["links"]
        assert len(sticky) == len(fresh)


class TestRoundTrip:

    def test_written_records_reingest_identically(self, tmp_path):
        cfg = _cfg(seed=21, movements_per_year=[25, 25, 25, 25])
        report, truth = generate(cfg)
        records = rows_of(report)
        path = tmp_path / "movements.csv"
        write_movements(report, path)

        report = ingest_movements(path)
        assert report.accepted == len(records)
        assert report.rejected == 0
        net = build_network(report)
        assert net.n_nodes == truth["totals"]["nodes"]
        assert net.n_edges == truth["totals"]["edges"]
        assert net.n_links == truth["totals"]["links"]
        got = {(r.source_id, r.dest_id, r.year) for r in rows_of(report)}
        want = {(r.source_id, r.dest_id, r.year) for r in records}
        assert got == want

    def test_write_movements_to_path_and_stream_agree(self, tmp_path):
        report, _ = generate(_cfg(movements_per_year=5))
        path = tmp_path / "m.csv"
        write_movements(report, path)
        assert path.read_bytes() == _csv_bytes(report)

    def test_write_truth_to_path(self, tmp_path):
        _, truth = generate(_cfg(movements_per_year=5))
        path = tmp_path / "truth.json"
        write_truth(truth, path)
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(truth, sort_keys=True))


class TestMatchesRecordLoop:
    """The columnar generator against the record-at-a-time loop it
    replaced (``oracles.loop_generate``): the same PRNG draws give the
    same records, the same ground truth and the same CSV bytes."""

    @pytest.mark.parametrize("overrides", [
        dict(hub_bias=0.0),
        dict(hub_bias=1.3),
        dict(hub_bias=25.0),
        dict(decay_rate=0.0),
        dict(repeat_edge_prob=0.0),
        dict(repeat_edge_prob=1.0),
        dict(movements_per_year=[30, 0, 25, 40]),
        dict(n_nodes=2, movements_per_year=12),
        dict(n_nodes=1, movements_per_year=0),
        dict(species=("koi, ornamental", 'the "blue" trout', "carp")),
    ], ids=["hub0", "hub1.3", "hub25", "decay0", "repeat0", "repeat1",
            "idle_year", "two_nodes", "idle_node", "quoted_species"])
    def test_same_records_truth_and_bytes(self, overrides):
        cfg = _cfg(**{"hub_bias": 1.3, **overrides})
        report, truth = generate(cfg)
        records, want_truth = oracles.loop_generate(cfg)
        assert _first_difference(map(repr, rows_of(report)),
                                 map(repr, records)) is None
        assert report.accepted == len(records)
        assert report.rejected == 0
        assert truth == want_truth
        expected = _loop_csv_lines(records)
        assert _first_difference(_csv_lines(report), expected) is None

    # Odd and even node counts, with one or several species: the species
    # draw may leave half a PCG64 word for the first link index. Totals
    # reach a few thousand movements, several blocks of raw words.
    @settings(max_examples=40, deadline=None)
    @given(n_nodes=st.integers(1, 700), seed=st.integers(0, 2**64),
           counts=st.lists(st.integers(0, 1200), min_size=1, max_size=4),
           repeat=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)),
           hub_bias=st.one_of(st.just(0.0), st.floats(0, 30)),
           decay_rate=st.one_of(st.just(0.0), st.floats(0, 0.05)),
           n_species=st.integers(1, 5))
    @example(n_nodes=301, seed=7, counts=[1100, 1100], repeat=0.7,
             hub_bias=2.5, decay_rate=0.0, n_species=5)
    @example(n_nodes=300, seed=7, counts=[1100, 1100], repeat=0.7,
             hub_bias=2.5, decay_rate=0.02, n_species=5)
    def test_drawn_configs_match_the_loop(self, n_nodes, seed, counts, repeat,
                                          hub_bias, decay_rate, n_species):
        cfg = SynthConfig(
            seed=seed, n_nodes=n_nodes,
            years=(2010, 2009 + len(counts)), bbox=(50.0, 53.0, -4.0, 0.0),
            movements_per_year=counts if n_nodes > 1 else 0,
            decay_rate=decay_rate, hub_bias=hub_bias,
            repeat_edge_prob=repeat,
            species=tuple(f"fish {i}" for i in range(n_species)))
        report, truth = generate(cfg)
        records, want_truth = oracles.loop_generate(cfg)
        assert _first_difference(map(repr, rows_of(report)),
                                 map(repr, records)) is None
        assert truth == want_truth

    def test_records_needing_quotes_write_as_csv_writer_does(self):
        records = [oracles.MovementRecord("a,1", 'b"2', 2020, -0.0, 0.0,
                                          1.0000005, -179.9999995, None),
                   oracles.MovementRecord("c\n3", "d", 2021, 0.0, -0.0,
                                          90.0, 180.0, "")]
        assert _csv_lines(report_of(records)) == _loop_csv_lines(records)


class TestRawDraws:
    """Uniforms and link indices computed from PCG64's raw words against
    ``Generator.random()`` and ``Generator.integers(m)``."""

    # 2**31 + 1 rejects about half its draws; 2**32 takes the half word
    # as it is. 0-6 prior draws of a 5-way index leave PCG64's 32-bit
    # buffer full or empty.
    @pytest.mark.parametrize("m", [1, 2, 3, 1000, 2**31 + 1,
                                   3 * 2**30 + 7, 2**32 - 1, 2**32])
    @pytest.mark.parametrize("prior", range(7))
    def test_draws_match_the_generator(self, m, prior):
        want = np.random.default_rng(prior + 100)
        got = np.random.default_rng(prior + 100)
        want.integers(5, size=prior)
        got.integers(5, size=prior)
        draws = _RawDraws(got.bit_generator)
        for op in random.Random(m + prior).choices("iiu", k=600):
            if op == "i":
                assert draws.index(m) == want.integers(m)
            else:
                assert draws.uniform() == want.random()


def _csv_lines(movements):
    return _csv_bytes(movements).decode().splitlines(keepends=True)


def _loop_csv_lines(records):
    buf = io.StringIO()
    oracles.loop_write_movements(records, buf)
    return buf.getvalue().splitlines(keepends=True)


def _first_difference(got, want):
    """None when the sequences are equal, else the first position and
    the two items there (a short failure message for long outputs)."""
    got, want = list(got), list(want)
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return i, a, b
    if len(got) != len(want):
        return min(len(got), len(want)), len(got), len(want)
    return None
