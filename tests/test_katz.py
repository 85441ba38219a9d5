"""Damping resolution, walk-count scoring, normalization, combination."""

import io
import math

import numpy as np
import pytest
import scipy.sparse as sp
from pathlib import Path
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from geokatz import katz
from geokatz.errors import (BetaDomainError, ConfigError,
                            DegenerateScoreTableWarning, NumericError,
                            UniverseMismatchError)
from geokatz.graphs import NodeRegistry, PairUniverse
from geokatz.katz import (KatzConfig, combine, edge_weighted_katz_scores,
                          katz_scores, normalize, resolve_beta,
                          spectral_radius, write_score_table)


QUICKSTART = Path(__file__).parents[1] / "configs" / "quickstart.yaml"


def _universe(n, nodes=None):
    idx = np.arange(n) if nodes is None else np.asarray(nodes)
    k = len(idx)
    return PairUniverse(node_indices=idx.astype(np.int64),
                        labels=np.zeros((k, k), dtype=np.uint8))


def _two_cycle():
    return sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))


# --- config validation -------------------------------------------------------

def test_config_rejects_unknown_method_and_mode():
    with pytest.raises(ConfigError):
        KatzConfig(method="monte-carlo")
    with pytest.raises(ConfigError):
        KatzConfig(beta_mode="half")


def test_config_accepts_aliases():
    assert KatzConfig(method="series").method == "truncated-series"
    assert KatzConfig(method="solve").method == "closed-form-solve"
    assert (KatzConfig(beta_mode="fraction").beta_mode
            == "fraction-of-spectral-bound")


def test_config_explicit_mode_requires_positive_beta():
    with pytest.raises(ConfigError):
        KatzConfig(beta_mode="explicit")
    with pytest.raises(ConfigError):
        KatzConfig(beta_mode="explicit", beta=-0.2)
    assert KatzConfig(beta_mode="explicit", beta=0.1).beta == 0.1


def test_config_alpha_bounds():
    with pytest.raises(ConfigError):
        KatzConfig(alpha=0.0)
    with pytest.raises(ConfigError):
        KatzConfig(alpha=1.0)


def test_config_gamma_validation():
    with pytest.raises(ConfigError):
        KatzConfig(gamma=-0.01)
    with pytest.raises(ConfigError):
        KatzConfig(gamma="auto")
    assert KatzConfig(gamma="tune").gamma == "tune"
    with pytest.raises(ConfigError):
        KatzConfig(gamma="tune").resolved_gamma()
    assert KatzConfig(gamma=0.02).resolved_gamma() == 0.02


@pytest.mark.parametrize("name,kwargs", [
    ("gamma", {"gamma": math.inf}), ("gamma", {"gamma": math.nan}),
    ("series_tolerance", {"series_tolerance": math.inf}),
    ("spectral_tol", {"spectral_tol": math.inf}),
    ("beta", {"beta_mode": "explicit", "beta": math.inf}),
    ("alpha", {"beta_mode": "explicit", "beta": 0.1, "alpha": math.nan}),
])
def test_config_rejects_non_finite_values(name, kwargs):
    # exp(-inf * 0) is NaN, so an infinite gamma would poison the decay
    # scores of coincident sites.
    with pytest.raises(ConfigError, match=f"katz.{name}' must be finite"):
        KatzConfig(**kwargs)


@pytest.mark.parametrize("name,kwargs,kind", [
    ("alpha", {"alpha": "0.5"}, "a real number"),
    ("alpha", {"alpha": True}, "a real number"),
    ("beta", {"beta_mode": "explicit", "beta": "0.1"}, "a real number"),
    ("series_tolerance", {"series_tolerance": "1e-9"}, "a real number"),
    ("spectral_tol", {"spectral_tol": "1e-8"}, "a real number"),
    ("gamma", {"gamma": True}, "a real number"),
    ("max_walk_length", {"max_walk_length": 2.5}, "an integer"),
    ("max_walk_length", {"max_walk_length": True}, "an integer"),
    ("spectral_max_iter", {"spectral_max_iter": 2.5}, "an integer"),
    ("solve_max_nodes", {"solve_max_nodes": "10"}, "an integer"),
])
def test_config_rejects_wrong_types(name, kwargs, kind):
    with pytest.raises(ConfigError, match=f"katz.{name}' must be {kind}"):
        KatzConfig(**kwargs)


def test_config_accepts_numpy_and_int_numbers():
    cfg = KatzConfig(alpha=np.float64(0.25), gamma=0,
                     max_walk_length=np.int64(3))
    assert cfg.alpha == 0.25 and cfg.max_walk_length == 3


# --- spectral radius ----------------------------------------------------------

def test_spectral_radius_complete_digraph():
    # All ordered pairs of 4 nodes: spectral radius n - 1 = 3.
    dense = np.ones((4, 4)) - np.eye(4)
    sr = spectral_radius(sp.csr_matrix(dense))
    assert sr.converged
    assert sr.value == pytest.approx(3.0, abs=1e-8)


def test_spectral_radius_directed_cycle():
    # A pure cycle has eigenvalues on the unit circle: radius exactly 1.
    dense = np.zeros((4, 4))
    for i in range(4):
        dense[i, (i + 1) % 4] = 1.0
    sr = spectral_radius(sp.csr_matrix(dense))
    assert sr.converged
    assert sr.value == pytest.approx(1.0, abs=1e-8)


def test_spectral_radius_mixed_parity_cycles():
    # Two 2-cycles sharing a node plus a feeder; unshifted norm-ratio
    # iteration oscillates between walk parities on this graph.
    edges = [(0, 1), (1, 0), (0, 2), (2, 0), (3, 0)]
    dense = np.zeros((4, 4))
    for u, v in edges:
        dense[u, v] = 1.0
    sr = spectral_radius(sp.csr_matrix(dense))
    assert sr.converged
    assert sr.value == pytest.approx(np.sqrt(2.0), abs=1e-6)


def test_spectral_radius_zero_and_acyclic_exactly_zero():
    empty = sp.csr_matrix((3, 3))
    assert spectral_radius(empty).value == 0.0
    chain = sp.csr_matrix(np.array([[0.0, 1.0, 0.0],
                                    [0.0, 0.0, 1.0],
                                    [0.0, 0.0, 0.0]]))
    sr = spectral_radius(chain)
    assert sr.value == 0.0
    assert sr.converged
    assert sr.iterations == 0


def test_spectral_radius_self_loop_not_acyclic():
    loop = sp.csr_matrix(np.array([[1.0]]))
    assert spectral_radius(loop).value == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_spectral_radius_matches_dense_eig(seed):
    rng = np.random.default_rng(seed)
    dense = ((rng.random((8, 8)) < 0.35)
             & ~np.eye(8, dtype=bool)).astype(np.float64)
    sr = spectral_radius(sp.csr_matrix(dense), tol=1e-12, max_iter=10000)
    assert sr.converged
    assert sr.value == pytest.approx(oracles.dense_spectral_radius(dense),
                                     abs=1e-6)


def test_spectral_radius_rejects_non_square():
    with pytest.raises(ValueError):
        spectral_radius(sp.csr_matrix((2, 3)))


# --- beta resolution ----------------------------------------------------------

def test_resolve_beta_fraction_of_bound():
    cfg = KatzConfig(alpha=0.5)
    beta, sr = resolve_beta(cfg, _two_cycle())
    assert sr.value == pytest.approx(1.0, abs=1e-8)
    assert beta == pytest.approx(0.5, abs=1e-6)


def test_resolve_beta_nilpotent_uses_alpha():
    chain = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    beta, sr = resolve_beta(KatzConfig(alpha=0.25), chain)
    assert sr.value == 0.0
    assert beta == 0.25


def test_resolve_beta_explicit_domain_check():
    cfg = KatzConfig(beta_mode="explicit", beta=1.5)
    with pytest.raises(BetaDomainError):
        resolve_beta(cfg, _two_cycle())
    beta, _ = resolve_beta(KatzConfig(beta_mode="explicit", beta=0.3),
                           _two_cycle())
    assert beta == 0.3


def _triangle_among_isolated_nodes():
    # Complete digraph on nodes 0-2 (spectral radius 2, every row and
    # column sum 2) among 97 isolated nodes: one power iteration from
    # the all-ones direction estimates the radius at about 0.11.
    adj = np.zeros((100, 100))
    adj[:3, :3] = 1.0 - np.eye(3)
    return sp.csr_matrix(adj)


def test_resolve_beta_explicit_unconverged_checks_certified_bound():
    adj = _triangle_among_isolated_nodes()
    cfg = KatzConfig(beta_mode="explicit", beta=1.0, spectral_max_iter=1)
    assert not spectral_radius(adj, max_iter=1).converged
    assert spectral_radius(adj, max_iter=1).value * cfg.beta < 1.0
    # beta = 1 diverges on this graph (radius 2) although it passes the
    # unconverged estimate; min(max row sum, max column sum) = 2 says so.
    with pytest.raises(BetaDomainError, match="spectral_max_iter"):
        resolve_beta(cfg, adj)
    beta, sr = resolve_beta(
        KatzConfig(beta_mode="explicit", beta=0.4, spectral_max_iter=1), adj)
    assert beta == 0.4
    assert sr.bound == pytest.approx(2.0)


def test_fraction_beta_unconverged_uses_certified_bound():
    # One iteration estimates the triangle's radius 2 at about 0.11, so
    # alpha / estimate is about 4.4, far outside the convergence region;
    # alpha / bound (bound 2) is 0.25, inside it.
    adj = _triangle_among_isolated_nodes()
    universe = _universe(100)
    expected = oracles.dense_katz_closed_form(adj.toarray(), 0.25)
    np.fill_diagonal(expected, 0.0)
    for method in ("closed-form-solve", "truncated-series"):
        cfg = KatzConfig(alpha=0.5, spectral_max_iter=1, method=method,
                         max_walk_length=200, series_tolerance=1e-15)
        beta, sr = resolve_beta(cfg, adj)
        assert not sr.converged
        assert beta == pytest.approx(0.25)
        table = katz_scores(adj, cfg, universe)
        assert table.info["spectral_bound"] == pytest.approx(2.0)
        np.testing.assert_allclose(oracles.dense(table), expected,
                                   rtol=1e-9, atol=1e-12)


def test_converged_table_info_has_no_spectral_bound():
    cfg = KatzConfig(alpha=0.5)
    table = katz_scores(_two_cycle(), cfg, _universe(2))
    assert table.info["spectral_converged"]
    assert "spectral_bound" not in table.info


def test_resolve_beta_explicit_unconverged_bound_uses_last_iterate():
    # Two self-loops joined by one edge: radius 1 with a defective
    # eigenvalue, so the estimate approaches 1 only like 1/iterations.
    # The row and column sums bound the radius by 2; the last iterate
    # bounds it just above 1, so beta = 0.6 is accepted.
    adj = sp.csr_matrix(np.array([[1.0, 1.0], [0.0, 1.0]]))
    beta, sr = resolve_beta(KatzConfig(beta_mode="explicit", beta=0.6),
                            adj)
    assert not sr.converged
    assert beta == 0.6
    assert 1.0 <= sr.bound < 1.01


# --- scoring ------------------------------------------------------------------

def test_two_cycle_closed_form_analytic():
    # Walks 0 -> 1 have odd lengths 1, 3, 5, ...: sum = b / (1 - b^2).
    beta = 0.1
    cfg = KatzConfig(beta_mode="explicit", beta=beta)
    table = katz_scores(_two_cycle(), cfg, _universe(2))
    expected = beta / (1.0 - beta * beta)
    values = oracles.dense(table)
    assert values[0, 1] == pytest.approx(expected, rel=1e-12)
    assert values[1, 0] == pytest.approx(expected, rel=1e-12)
    assert values[0, 0] == 0.0


def test_series_matches_solve_on_random_graph():
    rng = np.random.default_rng(5)
    dense = ((rng.random((15, 15)) < 0.2)
             & ~np.eye(15, dtype=bool)).astype(np.float64)
    adj = sp.csr_matrix(dense)
    universe = _universe(15)
    solve_cfg = KatzConfig(alpha=0.4)
    series_cfg = KatzConfig(alpha=0.4, method="truncated-series",
                            max_walk_length=200, series_tolerance=1e-16)
    solved = katz_scores(adj, solve_cfg, universe)
    series = katz_scores(adj, series_cfg, universe)
    assert solved.info["method"] == "closed-form-solve"
    assert series.info["method"] == "truncated-series"
    gap = oracles.dense(solved) - oracles.dense(series)
    assert np.max(np.abs(gap)) < 1e-10


def _random_series_case(seed, n=40, density=0.1):
    rng = np.random.default_rng(seed)
    adj = sp.random(n, n, density=density, random_state=rng,
                    format="csr", dtype=np.float64)
    adj.setdiag(0)
    adj.eliminate_zeros()
    sources = np.sort(rng.choice(n, size=n // 2, replace=False)
                      ).astype(np.int64)
    return adj, sources


def test_series_rows_match_scipy_power_sum():
    adj, sources = _random_series_case(seed=11)
    beta = 0.05
    got = katz._series_rows(katz._scaled_transpose(adj, beta), sources, 8,
                            1e-300)
    # Reference: accumulate beta^l * (A^l)[u, :] == ((beta*A)^T)^l e_u.
    n = adj.shape[0]
    scaled = (adj.T * beta).toarray()
    expected = np.zeros((len(sources), n))
    for i, u in enumerate(sources):
        vec = np.zeros(n)
        vec[u] = 1.0
        for _ in range(8):
            vec = scaled @ vec
            expected[i] += vec
    expected = expected[:, sources]
    np.fill_diagonal(expected, 0.0)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_series_rows_early_stop_includes_final_term():
    adj, sources = _random_series_case(seed=12)
    # A tolerance above every term magnitude stops after the first
    # multiplication, with that term already accumulated.
    at_beta = katz._scaled_transpose(adj, 0.05)
    got = katz._series_rows(at_beta, sources, 50, 1e9)
    one_term = katz._series_rows(at_beta, sources, 1, 1e-300)
    assert np.array_equal(got, one_term)
    assert np.count_nonzero(one_term) > 0


def _mixed_stop_case():
    # Node 0 -> 1 is a DAG whose second term is exactly zero, node 2 has
    # no out-edges, 3 <-> 4 is a cycle of weight 1 (terms 0.5^l fall
    # below the tolerance at l = 10) and 5 <-> 6 one of weight 0.1
    # (0.05^l, at l = 3), with a stored zero weight 6 -> 2 beside it.
    rows = [0, 3, 4, 5, 6, 6]
    cols = [1, 4, 3, 6, 5, 2]
    weights = [1.0, 1.0, 1.0, 0.1, 0.1, 0.0]
    adj = sp.csr_matrix((weights, (rows, cols)), shape=(7, 7))
    return adj, np.array([6, 0, 3, 2, 5, 4, 1]), 0.5, 20, 1e-3


def _two_block_case():
    # k = 300 sources run as two blocks; the weights spread the term
    # magnitudes so that sources stop at different lengths.
    rng = np.random.default_rng(3)
    n = 300
    ring = np.arange(n)
    rows = np.concatenate([ring, rng.integers(0, n, 200)])
    cols = np.concatenate([(ring + 1) % n, rng.integers(0, n, 200)])
    weights = rng.uniform(0.0, 2.0, len(rows))
    weights[::7] = 0.0
    adj = sp.csr_matrix((weights, (rows, cols)), shape=(n, n))
    return adj, rng.permutation(n), 0.4, 8, 1e-2


@st.composite
def _series_cases(draw):
    """Random graphs with stored zero weights, sinks, DAGs, and sources
    in random order, sometimes more of them than one block holds."""
    n = draw(st.one_of(st.integers(1, 30),
                       st.integers(katz._SERIES_BLOCK + 1, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((n, n)) < draw(st.floats(0.0, min(0.4, 4.0 / n)))
    if draw(st.booleans()):
        mask = np.triu(mask, 1)
    mask[rng.random(n) < draw(st.sampled_from([0.0, 0.3]))] = False
    weights = rng.uniform(0.0, 3.0, (n, n))
    weights[rng.random((n, n)) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    rows, cols = np.nonzero(mask)
    adj = sp.csr_matrix((weights[rows, cols], (rows, cols)), shape=(n, n))
    k = draw(st.integers(1, n))
    sources = rng.permutation(n)[:k]
    beta = draw(st.floats(0.01, 1.0))
    max_len = draw(st.integers(1, 8))
    tol = draw(st.sampled_from([1e-300, 1e-6, 1e-3, 0.05, 0.5, 1e9]))
    return adj, sources, beta, max_len, tol


@settings(max_examples=80, deadline=None)
@given(case=_series_cases())
@example(case=_mixed_stop_case())
@example(case=_two_block_case())
@example(case=_two_block_case()[:3] + (1, 1e-300))
def test_series_rows_bitwise_equal_to_per_source_loop(case):
    adj, sources, beta, max_len, tol = case
    expected = oracles.loop_series_rows(adj, beta, sources, max_len, tol)
    got = katz._series_rows(katz._scaled_transpose(adj, beta), sources,
                            max_len, tol)
    assert np.array_equal(got, expected)
    assert got.tobytes() == expected.tobytes()


def _block_columns(block):
    """A dense score block as the (support, scores) of its table."""
    support = np.flatnonzero(block.view(np.int64) != 0)
    return support, block.ravel()[support]


def _assert_same_columns(got, want):
    assert got[0].dtype == np.int64
    assert np.array_equal(got[0], want[0])
    assert got[1].tobytes() == want[1].tobytes()


# Cells a solve may leave: exact and signed zeros, round-off negatives,
# scores of every size.
_SOLVED_CELLS = st.sampled_from([0.0, -0.0, -1e-17, -2.5e-300, 1e-300,
                                 3e-17, 0.25, 1.0, 7.5])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7), st.integers(0, 4), st.data(), st.booleans())
def test_solved_support_matches_the_dense_block(k, extra, data, fortran):
    n = k + extra
    cells = data.draw(st.lists(_SOLVED_CELLS, min_size=n * k,
                               max_size=n * k))
    solved = np.array(cells).reshape(n, k)
    if fortran:
        # SuperLU hands its solutions back column-major.
        solved = np.asfortranarray(solved)
    sources = np.array(data.draw(st.permutations(range(n)))[:k],
                       dtype=np.int64)
    _assert_same_columns(katz._solved_support(solved, sources),
                         _block_columns(oracles.solved_block(solved,
                                                             sources)))


# Adjacencies whose SuperLU solve leaves round-off negatives or a -0.0
# on pairs without a walk, at these fractions of the spectral bound.
_ROUND_OFF_CASES = (
    ([[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 0], [1, 1, 1, 0]], 0.75),
    ([[0, 0, 0, 1, 0, 0, 1, 1], [1, 0, 0, 0, 0, 1, 1, 1],
      [0, 1, 0, 1, 0, 0, 0, 1], [0, 1, 0, 0, 0, 0, 0, 1],
      [0, 0, 0, 0, 0, 0, 1, 0], [1, 1, 0, 0, 1, 0, 0, 0],
      [0, 0, 0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 0, 0, 0]], 0.9),
    ([[0, 1, 1, 0, 1, 1], [1, 0, 0, 1, 1, 1], [0, 1, 0, 0, 0, 1],
      [0, 0, 0, 0, 0, 0], [1, 1, 0, 1, 0, 1], [0, 0, 1, 0, 0, 0]], 0.9),
)


def test_solve_rows_clip_round_off_negatives_as_the_dense_block():
    clipped = 0
    for dense, alpha in _ROUND_OFF_CASES:
        dense = np.array(dense, dtype=np.float64)
        n = len(dense)
        adj = sp.csr_matrix(dense)
        beta = alpha / oracles.dense_spectral_radius(dense)
        source_sets = [np.arange(n), np.arange(n)[::-1].copy(),
                       np.arange(1, n, 2)]
        got = katz._solve_rows(adj, beta, source_sets)
        for columns, sources, solved in zip(
                got, source_sets,
                oracles.solved_columns(adj, beta, source_sets)):
            _assert_same_columns(columns, _block_columns(
                oracles.solved_block(solved, sources)))
            raw = solved[sources].T.copy()
            np.fill_diagonal(raw, 1.0)
            clipped += int(np.count_nonzero(np.signbit(raw)))
    # The cases are here for the cells that np.maximum clips.
    assert clipped > 0


def test_quickstart_solve_matches_the_dense_block():
    from geokatz import pipeline
    from geokatz.config import load_run_config
    from geokatz.graphs import build_adjacency, candidate_pairs

    cfg = load_run_config(QUICKSTART)
    _, train, val, test = pipeline._build_data(cfg, None)
    adj = build_adjacency(train)
    universes = [candidate_pairs(test), candidate_pairs(val)]
    tables = katz_scores(adj, cfg.katz, universes)
    assert tables[0].info["method"] == "closed-form-solve"
    blocks = oracles.block_solve_rows(
        adj, tables[0].info["beta"], [u.node_indices for u in universes])
    for table, block in zip(tables, blocks):
        _assert_same_columns((table.support, table.scores.on_support),
                             _block_columns(block))


def test_solve_matches_dense_inverse_oracle():
    rng = np.random.default_rng(23)
    dense = ((rng.random((12, 12)) < 0.3)
             & ~np.eye(12, dtype=bool)).astype(np.float64)
    lam = oracles.dense_spectral_radius(dense)
    beta = 0.4 / lam
    cfg = KatzConfig(beta_mode="explicit", beta=beta)
    table = katz_scores(sp.csr_matrix(dense), cfg, _universe(12))
    reference = oracles.dense_katz_closed_form(dense, beta)
    np.fill_diagonal(reference, 0.0)
    assert np.max(np.abs(oracles.dense(table) - reference)) < 1e-10


def test_scores_restricted_to_universe_nodes():
    rng = np.random.default_rng(41)
    dense = ((rng.random((10, 10)) < 0.3)
             & ~np.eye(10, dtype=bool)).astype(np.float64)
    adj = sp.csr_matrix(dense)
    nodes = np.array([1, 4, 7, 9])
    sub = katz_scores(adj, KatzConfig(), _universe(10, nodes))
    full = katz_scores(adj, KatzConfig(), _universe(10))
    expected = oracles.dense(full)[np.ix_(nodes, nodes)].copy()
    np.fill_diagonal(expected, 0.0)
    assert np.allclose(oracles.dense(sub), expected, atol=1e-12)
    assert oracles.dense(sub).shape == (4, 4)


def test_solve_falls_back_to_series_above_node_limit():
    adj = _two_cycle()
    cfg = KatzConfig(solve_max_nodes=1, max_walk_length=400,
                     series_tolerance=1e-16)
    table = katz_scores(adj, cfg, _universe(2))
    assert table.info["method"] == "truncated-series"
    assert oracles.dense(table)[0, 1] == pytest.approx(0.5 / (1 - 0.25),
                                                       rel=1e-8)


@st.composite
def _shared_scoring_cases(draw):
    """An adjacency (sometimes empty or nilpotent) and two universes on
    its nodes that may overlap, be disjoint or be empty."""
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["random", "nilpotent", "empty"]))
    mask = rng.random((n, n)) < draw(st.floats(0.05, 0.5))
    np.fill_diagonal(mask, False)
    if shape == "nilpotent":
        mask = np.triu(mask, 1)
    elif shape == "empty":
        mask[:] = False
    weights = rng.uniform(0.1, 3.0, (n, n))
    if draw(st.booleans()):
        weights[:] = 1.0
    rows, cols = np.nonzero(mask)
    adj = sp.csr_matrix((weights[rows, cols], (rows, cols)), shape=(n, n))
    order = rng.permutation(n)
    if draw(st.booleans()):
        cut = draw(st.integers(0, n))
        first, second = order[:cut], order[cut:]
    else:
        first = order[:draw(st.integers(1, n))]
        second = rng.permutation(n)[:draw(st.integers(1, n))]
    return (adj, _universe(n, np.sort(first)), _universe(n, np.sort(second)),
            draw(st.sampled_from(katz.METHODS)))


@settings(max_examples=60, deadline=None)
@given(case=_shared_scoring_cases())
def test_shared_scoring_bitwise_equal_to_separate(case):
    adj, first, second, method = case
    cfg = KatzConfig(method=method)
    together = katz_scores(adj, cfg, [first, second], model="WKI")
    assert len(together) == 2
    for table, universe in zip(together, (first, second)):
        alone = katz_scores(adj, cfg, universe, model="WKI")
        assert table.universe is universe
        assert table.model == "WKI"
        assert table.info == alone.info
        assert table.support.tobytes() == alone.support.tobytes()
        assert table.scores.on_support.tobytes() == \
            alone.scores.on_support.tobytes()
        assert table.scores.floor == alone.scores.floor == 0.0
        assert table.raw is alone.raw is None


class _PerturbedSolve:
    """A factorization whose solves come back slightly wrong."""

    def __init__(self, lu, perturb):
        self.lu = lu
        self.perturb = perturb

    def solve(self, rhs):
        return self.perturb(self.lu.solve(rhs))


@pytest.mark.parametrize("perturb", [
    lambda x: x * (1.0 + 1e-4),
    lambda x: x + 1e-5,
    lambda x: x + 1e-4 * (np.arange(x.shape[1]) == 3),
    lambda x: np.where(x == x.max(), np.nan, x),
])
def test_solve_residual_check_rejects_a_wrong_solve(monkeypatch, perturb):
    rng = np.random.default_rng(29)
    dense = ((rng.random((15, 15)) < 0.3)
             & ~np.eye(15, dtype=bool)).astype(np.float64)
    adj = sp.csr_matrix(dense)
    splu = katz.splu
    monkeypatch.setattr(katz, "splu",
                        lambda m: _PerturbedSolve(splu(m), perturb))
    with pytest.raises(NumericError, match="residual"):
        katz_scores(adj, KatzConfig(), _universe(15))


def test_solve_residual_check_passes_near_the_spectral_bound():
    rng = np.random.default_rng(31)
    dense = ((rng.random((30, 30)) < 0.2)
             & ~np.eye(30, dtype=bool)).astype(np.float64)
    lam = oracles.dense_spectral_radius(dense)
    cfg = KatzConfig(beta_mode="explicit", beta=0.999 / lam)
    table = katz_scores(sp.csr_matrix(dense), cfg, _universe(30))
    assert np.all(np.isfinite(oracles.dense(table)))


def test_scores_are_non_negative_with_zero_diagonal():
    rng = np.random.default_rng(77)
    dense = ((rng.random((20, 20)) < 0.25)
             & ~np.eye(20, dtype=bool)).astype(np.float64)
    table = katz_scores(sp.csr_matrix(dense), KatzConfig(), _universe(20))
    assert np.all(oracles.dense(table) >= 0.0)
    assert not (table.support % 21 == 0).any()


def test_weighted_scores_match_dense_oracle():
    rng = np.random.default_rng(13)
    n = 8
    dense = np.zeros((n, n))
    mask = (rng.random((n, n)) < 0.4) & ~np.eye(n, dtype=bool)
    dense[mask] = rng.uniform(0.2, 2.0, mask.sum())
    lam = oracles.dense_spectral_radius(dense)
    beta = 0.5 / lam
    cfg = KatzConfig(beta_mode="explicit", beta=beta)
    table = katz_scores(sp.csr_matrix(dense), cfg, _universe(n), model="WKI")
    reference = oracles.dense_katz_closed_form(dense, beta)
    np.fill_diagonal(reference, 0.0)
    assert np.max(np.abs(oracles.dense(table) - reference)) < 1e-10


def test_edge_weighted_is_pairwise_decay_of_base():
    rng = np.random.default_rng(3)
    n = 6
    dense = ((rng.random((n, n)) < 0.4)
             & ~np.eye(n, dtype=bool)).astype(np.float64)
    distances = rng.uniform(0.0, 400.0, (n, n))
    distances = (distances + distances.T) / 2.0
    np.fill_diagonal(distances, 0.0)
    cfg = KatzConfig(gamma=0.005)
    base = katz_scores(sp.csr_matrix(dense), cfg, _universe(n))
    table = edge_weighted_katz_scores(base, distances.ravel()[base.support],
                                      cfg.resolved_gamma())
    expected = oracles.dense(base) * np.exp(-0.005 * distances)
    np.fill_diagonal(expected, 0.0)
    assert table.support is base.support
    assert np.array_equal(oracles.dense(table), expected)
    assert table.info["gamma"] == 0.005


def test_edge_weighted_reuses_provided_base_table():
    n = 2
    adj = _two_cycle()
    cfg = KatzConfig(gamma=0.01)
    universe = _universe(n)
    base = katz_scores(adj, cfg, universe)
    assert base.support.tolist() == [1, 2]
    table = edge_weighted_katz_scores(base, [100.0, 100.0],
                                      cfg.resolved_gamma())
    assert oracles.dense(table)[0, 1] == \
        oracles.dense(base)[0, 1] * np.exp(-1.0)


def test_edge_weighted_rejects_mismatched_inputs():
    adj = _two_cycle()
    cfg = KatzConfig()
    universe = _universe(2)
    with pytest.raises(UniverseMismatchError, match="3 distances"):
        edge_weighted_katz_scores(katz_scores(adj, cfg, universe),
                                  np.zeros(3), cfg.resolved_gamma())
    # Distances are those of the support pairs: a (k, k) matrix is not.
    with pytest.raises(UniverseMismatchError, match="4 distances"):
        edge_weighted_katz_scores(katz_scores(adj, cfg, universe),
                                  np.zeros((2, 2)), cfg.resolved_gamma())
    # The 2-cycle's symmetric table is constant off-diagonal, so the
    # normalization legitimately warns before the mismatch check.
    with pytest.warns(DegenerateScoreTableWarning):
        base = normalize(katz_scores(adj, cfg, universe))
    with pytest.raises(UniverseMismatchError):
        edge_weighted_katz_scores(base, np.zeros(2), cfg.resolved_gamma())


# --- normalization and combination -------------------------------------------

def _table(values, model="KI", universe=None):
    values = np.asarray(values, dtype=np.float64)
    uni = universe or _universe(values.shape[0])
    return oracles.table_of(model, uni, values)


def test_normalize_rescales_offdiagonal_to_unit_interval():
    table = _table([[0.0, 2.0, 4.0],
                    [6.0, 0.0, 8.0],
                    [10.0, 12.0, 0.0]])
    normed = normalize(table)
    assert normed.normalized
    assert oracles.dense(normed).min() == 0.0
    assert oracles.dense(normed)[2, 1] == 1.0
    assert oracles.dense(normed)[1, 0] == pytest.approx(0.4)
    assert normed.raw is table.scores


def test_normalize_constant_table_warns_and_zeroes():
    table = _table([[0.0, 5.0], [5.0, 0.0]])
    with pytest.warns(DegenerateScoreTableWarning):
        normed = normalize(table)
    assert np.array_equal(oracles.dense(normed), np.zeros((2, 2)))


def test_normalize_twice_is_rejected():
    normed = normalize(_table([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        normalize(normed)


def test_combine_rules():
    a = normalize(_table([[0.0, 1.0, 2.0],
                          [3.0, 0.0, 4.0],
                          [5.0, 6.0, 0.0]], model="KI"))
    b = normalize(_table([[0.0, 6.0, 5.0],
                          [4.0, 0.0, 3.0],
                          [1.0, 2.0, 0.0]], model="WKI"))
    combined = combine(a, b, rule="mean")
    assert combined.model == "KIWKI"
    assert combined.normalized
    fused = (oracles.dense(a) + oracles.dense(b)) / 2.0
    lo = fused[~np.eye(3, dtype=bool)].min()
    span = fused[~np.eye(3, dtype=bool)].max() - lo
    expected = np.zeros((3, 3))
    mask = ~np.eye(3, dtype=bool)
    expected[mask] = (fused[mask] - lo) / span
    assert np.allclose(oracles.dense(combined), expected, atol=1e-15)

    product = combine(a, b, rule="product")
    assert product.model == "KIWKI"
    biggest = combine(a, b, rule="max")
    assert np.all(oracles.dense_raw(biggest) >= oracles.dense(a) - 1e-15)


def test_combine_on_raw_fuses_pre_normalization_scores():
    a = normalize(_table([[0.0, 1.0, 2.0],
                          [3.0, 0.0, 4.0],
                          [5.0, 6.0, 0.0]], model="KI"))
    b = normalize(_table([[0.0, 60.0, 50.0],
                          [40.0, 0.0, 30.0],
                          [10.0, 20.0, 0.0]], model="EWKI"))
    combined = combine(a, b, rule="mean", on="raw")
    assert combined.model == "KIEWKI"
    assert np.array_equal(oracles.dense_raw(combined),
                          (oracles.dense_raw(a) + oracles.dense_raw(b)) / 2.0)
    assert combined.info == {"rule": "mean", "components": ("KI", "EWKI"),
                             "combined_on": "raw"}
    assert "combined_on" not in combine(a, b).info
    with pytest.raises(ConfigError):
        combine(a, b, on="scores")


def test_combine_requires_normalized_same_universe():
    raw = _table([[0.0, 1.0], [2.0, 0.0]])
    normed = normalize(_table([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        combine(raw, normed)
    other = normalize(_table([[0.0, 1.0, 2.0],
                              [3.0, 0.0, 4.0],
                              [5.0, 6.0, 0.0]], universe=_universe(3)))
    with pytest.raises(UniverseMismatchError):
        combine(normed, other)


def test_combine_unknown_rule():
    a = normalize(_table([[0.0, 1.0], [2.0, 0.0]]))
    b = normalize(_table([[0.0, 2.0], [1.0, 0.0]]))
    with pytest.raises(ConfigError):
        combine(a, b, rule="median")


# --- export -------------------------------------------------------------------

def test_write_score_table_sorted_six_significant_digits():
    registry = NodeRegistry(["site-b", "site-a"], [50.0, 51.0], [0.0, 1.0])
    universe = _universe(2, [0, 1])
    table = normalize(_table([[0.0, 1.0 / 3.0], [2.0 / 3.0, 0.0]],
                             model="KI", universe=universe))
    buf = io.StringIO()
    write_score_table(table, registry, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "source_id,dest_id,model,score,score_norm"
    # site-a sorts before site-b even though it was registered second;
    # site-a is node 1, so its outgoing raw score is values[1, 0].
    assert lines[1] == "site-a,site-b,KI,0.666667,1"
    assert lines[2] == "site-b,site-a,KI,0.333333,0"


def test_write_score_table_requires_normalized():
    registry = NodeRegistry(["a", "b"], [50.0, 51.0], [0.0, 0.0])
    table = _table([[0.0, 1.0], [2.0, 0.0]], universe=_universe(2))
    with pytest.raises(ValueError):
        write_score_table(table, registry, io.StringIO())


def test_write_score_table_quotes_awkward_ids():
    registry = NodeRegistry(["farm, east", "farm-west"], [50.0, 51.0],
                            [0.0, 0.0])
    universe = _universe(2)
    table = normalize(_table([[0.0, 1.0], [2.0, 0.0]], universe=universe))
    buf = io.StringIO()
    write_score_table(table, registry, buf)
    import csv as csv_mod
    rows = list(csv_mod.reader(io.StringIO(buf.getvalue())))
    assert rows[1][0] == "farm, east"
    assert len(rows[1]) == 5
