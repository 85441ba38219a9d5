"""Walk-counting similarity scores over sparse directed adjacency.

The base score for an ordered pair (u, v) is the damped walk count
sum_{l>=1} beta^l (A^l)[u, v], computed either in closed form as
((I - beta*A)^{-1} - I)[u, v] via one sparse factorization and one
solve per source node, or as an explicitly truncated series. Variants
swap in a distance-weighted adjacency or multiply each pair's score by
an exponential distance decay. A table holds its scores on its support,
the pairs with a nonzero walk score, and one floor for every other
pair; it is min-max normalized over its pair universe, fused pairwise
into combined models, and written to and read back from delimited text
(``SCORE_COLUMNS``) on that support.
"""

import csv
import io
import logging
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
from scipy.sparse.linalg import splu

from .errors import (BetaDomainError, ConfigError, DataError,
                     DegenerateScoreTableWarning, NumericError,
                     UniverseMismatchError, as_int, as_real, one_of)
from .geo import WEIGHT_TRANSFORMS, decay_weights
from .graphs import _decode_error, _open_input, _read_header
from .metrics import _format6, _write_text

log = logging.getLogger(__name__)

BETA_MODES = ("fraction-of-spectral-bound", "explicit")
METHODS = ("closed-form-solve", "truncated-series")
COMBINE_RULES = ("mean", "product", "max")
COMBINE_INPUTS = ("normalized", "raw")

# The columns of an exported score table, in the order they are written.
SCORE_COLUMNS = ("source_id", "dest_id", "model", "score", "score_norm")

_BETA_MODE_ALIASES = {"fraction": "fraction-of-spectral-bound"}
_METHOD_ALIASES = {"solve": "closed-form-solve", "series": "truncated-series"}

# Sources whose truncated series advance together in one sparse product.
_SERIES_BLOCK = 256

# Largest accepted residual of a closed-form solve, relative to
# ||I - beta*A^T||_inf * ||x||_inf + 1. A backward-stable LU solve
# leaves about n * 1e-16; a result this far off is not a Katz score.
_SOLVE_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class KatzConfig:
    """Parameters controlling walk-count scoring.

    ``beta_mode`` picks the damping factor: ``explicit`` uses ``beta``
    as given (validated against the spectral bound), while
    ``fraction-of-spectral-bound`` sets beta = alpha / spectral_radius,
    which keeps the series convergent on any input graph (a graph with
    spectral radius 0 has a finite series for every beta, and alpha
    itself is used). ``gamma`` is the decay rate per km for the
    pairwise-decay variant and may be the string ``"tune"`` to request
    validation-split tuning upstream.
    """
    beta_mode: str = "fraction-of-spectral-bound"
    alpha: float = 0.5
    beta: Optional[float] = None
    method: str = "closed-form-solve"
    max_walk_length: int = 6
    series_tolerance: float = 1e-10
    gamma: object = 0.01
    wki_transform: str = "raw"
    spectral_tol: float = 1e-8
    spectral_max_iter: int = 1000
    solve_max_nodes: int = 20000

    def __post_init__(self):
        def put(name, value):
            object.__setattr__(self, name, value)

        for name, aliases, choices in (
                ("beta_mode", _BETA_MODE_ALIASES, BETA_MODES),
                ("method", _METHOD_ALIASES, METHODS)):
            value = getattr(self, name)
            if isinstance(value, str):
                value = aliases.get(value, value)
            put(name, one_of(value, choices, f"katz.{name}"))
        for name in ("alpha", "series_tolerance", "spectral_tol"):
            put(name, as_real(getattr(self, name), f"katz.{name}"))
        if self.beta is not None:
            put("beta", as_real(self.beta, "katz.beta"))
        if self.gamma != "tune":
            put("gamma", as_real(self.gamma, "katz.gamma"))
        for name in ("max_walk_length", "spectral_max_iter",
                     "solve_max_nodes"):
            put(name, as_int(getattr(self, name), f"katz.{name}"))
        one_of(self.wki_transform, WEIGHT_TRANSFORMS, "katz.wki_transform")
        if self.beta_mode == "explicit":
            if self.beta is None or not self.beta > 0:
                raise ConfigError(
                    "explicit beta_mode requires beta > 0, "
                    f"got {self.beta!r}")
        elif not 0 < self.alpha < 1:
            raise ConfigError(
                f"alpha must be in (0, 1), got {self.alpha!r}")
        if self.max_walk_length < 1:
            raise ConfigError("max_walk_length must be >= 1")
        if not self.series_tolerance > 0:
            raise ConfigError("series_tolerance must be > 0")
        if self.gamma != "tune" and self.gamma < 0:
            raise ConfigError(
                f"gamma must be >= 0 or 'tune', got {self.gamma!r}")
        if not self.spectral_tol > 0 or self.spectral_max_iter < 1:
            raise ConfigError("invalid spectral iteration parameters")

    def resolved_gamma(self):
        if self.gamma == "tune":
            raise ConfigError("gamma is 'tune' but was never resolved")
        return self.gamma


@dataclass(frozen=True)
class SpectralRadius:
    """Power-iteration estimate of a matrix's spectral radius.

    ``bound`` is set when the estimate did not converge: an upper bound
    on the radius that holds regardless (see :func:`_radius_bound`).
    """
    value: float
    converged: bool
    iterations: int
    bound: Optional[float] = None


def _structurally_acyclic(adj):
    """True when no directed cycle can carry a nonzero walk product."""
    if np.any(adj.diagonal() != 0):
        return False
    n_comp, _ = csgraph.connected_components(adj, directed=True,
                                             connection="strong")
    return n_comp == adj.shape[0]


def spectral_radius(adj, tol=1e-8, max_iter=1000):
    """Estimate the spectral radius of a non-negative sparse matrix.

    Power iteration from the all-ones direction, run on the shifted
    matrix A + I: for non-negative A the shift adds exactly 1 to the
    spectral radius while making every recurrent class aperiodic, so
    the norm-growth estimate cannot oscillate between walk parities.
    Zero and structurally acyclic (nilpotent) matrices return exactly
    0.0. The result reports whether the estimate change fell below
    ``tol`` (relative, floored at 1) within ``max_iter`` iterations.
    """
    adj = sp.csr_matrix(adj)
    if adj.shape[0] != adj.shape[1]:
        raise ValueError(f"matrix is not square: {adj.shape}")
    n = adj.shape[0]
    if n == 0 or adj.nnz == 0 or _structurally_acyclic(adj):
        return SpectralRadius(0.0, True, 0)
    x = np.full(n, 1.0 / np.sqrt(n))
    prev = np.inf
    estimate = 0.0
    for iteration in range(1, max_iter + 1):
        y = adj.dot(x) + x
        norm = float(np.linalg.norm(y))
        estimate = norm - 1.0
        x = y / norm
        if abs(estimate - prev) <= tol * max(estimate, 1.0):
            return SpectralRadius(estimate, True, iteration)
        prev = estimate
    return SpectralRadius(estimate, False, max_iter, _radius_bound(adj, x))


def _radius_bound(adj, x):
    """Upper bound on the spectral radius that needs no convergence.

    The smaller of the max absolute row sum and the max absolute column
    sum bounds the radius of every matrix. For a non-negative matrix
    and a positive vector x, A x <= c x entrywise gives radius <= c
    (Collatz-Wielandt), so the last power iterate tightens the bound
    to max_i (A x)_i / x_i.
    """
    magnitudes = abs(adj)
    bound = min(magnitudes.sum(axis=1).max(), magnitudes.sum(axis=0).max())
    if adj.data.min() >= 0.0 and np.all(x > 0.0):
        bound = min(bound, np.max(adj.dot(x) / x))
    return float(bound)


def resolve_beta(cfg, adj):
    """Effective damping factor for a matrix, with its spectral estimate.

    Explicit beta is validated against the bound 1/radius; violation is
    a hard error because the walk series diverges there. When the
    estimate did not converge, the certified bound on the radius stands
    in for it: explicit beta is validated against it, and the fraction
    mode takes beta = alpha / bound.
    """
    sr = spectral_radius(adj, cfg.spectral_tol, cfg.spectral_max_iter)
    if cfg.beta_mode == "explicit":
        beta = float(cfg.beta)
        if sr.converged:
            if sr.value > 0.0 and beta * sr.value >= 1.0:
                raise BetaDomainError(
                    f"beta {beta:.6g} is not below 1/spectral_radius "
                    f"({1.0 / sr.value:.6g}); the walk series diverges")
        elif beta * sr.bound >= 1.0:
            raise BetaDomainError(
                f"spectral radius estimate {sr.value:.6g} did not converge "
                f"in {sr.iterations} iterations, and beta {beta:.6g} is "
                f"not below 1/{sr.bound:.6g}, where {sr.bound:.6g} is a "
                "certified bound on the radius; raise spectral_max_iter "
                "to check beta against a converged estimate")
        return beta, sr
    if not sr.converged:
        # An unconverged estimate may lie far below the radius, and a
        # fraction of its inverse outside the convergence region; a
        # fraction of the certified bound's inverse cannot.
        log.warning(
            "spectral radius estimate %.6g did not converge in %d "
            "iterations; damping factor uses the certified bound %.6g",
            sr.value, sr.iterations, sr.bound)
        beta = float(cfg.alpha) / sr.bound
    elif sr.value == 0.0:
        # Nilpotent adjacency: the series is a finite sum for every
        # beta, so the fraction collapses to alpha itself.
        beta = float(cfg.alpha)
    else:
        beta = float(cfg.alpha) / sr.value
    return beta, sr


@dataclass(eq=False)
class _Column:
    """One score column of a table: its scores at the table's support
    positions and the floor that every other pair holds."""
    on_support: np.ndarray
    floor: float


def _support_of(*matrices):
    """The flat row-major positions i * k + j of the off-diagonal cells
    at which any of the (k, k) ``matrices`` is not +0.0, bit for bit (a
    -0.0 is on the support)."""
    keep, *others = [
        np.ascontiguousarray(matrix, dtype=np.float64).view(np.int64) != 0
        for matrix in matrices]
    for other in others:
        keep |= other
    np.fill_diagonal(keep, False)
    return np.flatnonzero(keep)


@dataclass(eq=False)
class ScoreTable:
    """Per-ordered-pair scores for one model over a pair universe.

    The scores live on ``support``, a sorted int64 vector of the flat
    row-major positions i * k + j of off-diagonal pairs (i, j); every
    other off-diagonal pair, ``n_floor`` of them, holds the floor.
    ``scores`` holds the table's scores and, for a normalized table,
    ``raw`` the pre-normalization ones, each as an ``on_support`` vector
    and a ``floor``. The pipeline scores all tables of a universe on one
    support, the union of its base tables' nonzero pairs; an
    unnormalized table's floor is a zero.
    """
    model: str
    universe: object
    support: np.ndarray
    scores: _Column
    normalized: bool = False
    raw: Optional[_Column] = None
    info: dict = field(default_factory=dict)

    def __repr__(self):
        return (f"ScoreTable(model={self.model!r}, k={self.universe.k}, "
                f"support={self.support.size}, n_floor={self.n_floor}, "
                f"normalized={self.normalized})")

    @property
    def n_floor(self):
        """The number of off-diagonal pairs off the support."""
        return self.universe.n_pairs - self.support.size

    def _on(self, support):
        """This table on ``support``, a superset of its own: a pair
        added holds its column's floor."""
        if support is self.support:
            return self
        if np.array_equal(support, self.support):
            def moved(column):
                return column
        else:
            at = np.searchsorted(support, self.support)

            def moved(column):
                values = np.full(support.size, column.floor)
                values[at] = column.on_support
                return _Column(values, column.floor)
        return ScoreTable(
            self.model, self.universe, support, moved(self.scores),
            self.normalized, None if self.raw is None else moved(self.raw),
            dict(self.info))


def _common_support(tables):
    """The tables on the union of their supports, which is the first
    table's support object when every support equals it."""
    support = tables[0].support
    for table in tables[1:]:
        if not np.array_equal(table.support, support):
            support = np.union1d(support, table.support)
    return [table._on(support) for table in tables]


def _solve_rows(adj, beta, source_sets):
    """Rows of (I - beta*A)^{-1} - I for each set of source nodes, as
    the (support, scores on it) of the set's score table.

    One sparse LU factorization of (I - beta*A^T) serves every set; each
    set is then one solve of (I - beta*A^T) x = e_u per source u, and x
    is row u of the inverse. A set whose summed residual exceeds
    ``_SOLVE_RESIDUAL_TOL`` (relative to the system and solution scale)
    is a NumericError rather than a silently wrong table.
    """
    n = adj.shape[0]
    system = (sp.identity(n, format="csc", dtype=np.float64)
              - beta * adj.T.tocsc()).tocsc()
    try:
        lu = splu(system)
    except RuntimeError as exc:
        raise NumericError(
            f"closed-form factorization failed ({exc}); this indicates "
            "a damping factor at or beyond the spectral bound") from exc
    system_norm = abs(system).sum(axis=1).max()
    tables = []
    for sources in source_sets:
        rhs = np.zeros((n, len(sources)), dtype=np.float64)
        rhs[sources, np.arange(len(sources))] = 1.0
        solved = lu.solve(rhs)
        # The residual of the solves summed over the sources: one
        # matrix-vector product instead of one per source, and a NaN or
        # an error in any one column still shows in it.
        total = solved.sum(axis=1)
        residual = system @ total
        residual[sources] -= 1.0
        ratio = np.abs(residual).max(initial=0.0) / (
            system_norm * np.abs(total).max(initial=0.0) + 1.0)
        # Written as a negated <= so that a NaN ratio fails too.
        if not ratio <= _SOLVE_RESIDUAL_TOL:
            raise NumericError(
                f"closed-form solve residual {ratio:.3g} exceeds "
                f"{_SOLVE_RESIDUAL_TOL:g} of the system scale; the "
                "factorization of I - beta*A^T is unreliable")
        tables.append(_solved_support(solved, sources))
    return tables


def _solved_support(solved, sources):
    """The support and its scores of the table whose pair (i, j) scores
    ``solved[sources[j], i]``, with the diagonal at 0.

    One gather along the rows of ``solved.T`` (C-ordered, as SuperLU's
    column-major solutions are) builds the (k, k) block in score order.
    The exact inverse is entrywise non-negative below the spectral
    bound; round-off may leave tiny negatives on zero entries, which
    ``np.maximum`` clips to 0 as it would clip the whole block. Only
    the cells that are not +0.0 are clipped, and those clipped to +0.0
    leave the support.
    """
    values = np.take(solved.T, sources, axis=1)
    support = _support_of(values)
    scores = values.ravel()[support]
    np.maximum(scores, 0.0, out=scores)
    kept = scores.view(np.int64) != 0
    if kept.all():
        return support, scores
    return support[kept], scores[kept]


def _scaled_transpose(adj, beta):
    """beta * A^T as CSR with sorted indices: the step of the series."""
    at = adj.T.tocsr()
    at.sort_indices()
    return sp.csr_matrix((at.data * beta, at.indices, at.indptr),
                         shape=adj.shape)


def _series_rows(at_beta, sources, max_len, tol):
    """Truncated series sum_{l=1..L} beta^l (A^l)[u, v] over the sources.

    Sources advance in blocks of ``_SERIES_BLOCK``. A block's frontier
    is a sparse (n, b) matrix whose column c holds source c's current
    term ((beta*A)^T)^l e_u, starting one-hot; each step is one sparse
    product with the scaled transposed adjacency (rows of A^T are
    columns of A), and only the entries at the source nodes are
    accumulated, into the (k, k) block. After that accumulation a
    column whose max-norm fell below ``tol`` is dropped, so each
    source's final term is still included, and an exactly-zero term
    always stops since no longer walk can exist. The frontier never
    stores more than n * ``_SERIES_BLOCK`` entries. Each entry of a
    product is summed in the row order of the scaled adjacency from 0,
    as a dense matrix-vector product sums it, so the result equals the
    per-source dense walk bit for bit.

    ``at_beta`` is the scaled transposed adjacency beta * A^T from
    :func:`_scaled_transpose`.
    """
    n = at_beta.shape[0]
    values = np.zeros((len(sources), len(sources)), dtype=np.float64)
    for start in range(0, len(sources), _SERIES_BLOCK):
        rows = np.arange(start, min(start + _SERIES_BLOCK, len(sources)))
        b = len(rows)
        term = sp.csr_matrix((np.ones(b), (sources[rows], np.arange(b))),
                             shape=(n, b))
        for _ in range(max_len):
            term = at_beta @ term
            values[rows] += term[sources].toarray().T
            peak = np.zeros(len(rows))
            np.maximum.at(peak, term.indices[:term.nnz],
                          np.abs(term.data[:term.nnz]))
            # Written as a negated < so that a NaN peak keeps walking.
            keep = ~(peak < tol)
            if not keep.all():
                rows = rows[keep]
                if not rows.size:
                    break
                term = term[:, keep]
    np.fill_diagonal(values, 0.0)
    return values


def katz_scores(adj, cfg, universe, model="KI"):
    """Damped walk-count score table over a pair universe.

    ``adj`` is indexed by the universe's global node indices (absent
    nodes have zero rows/columns and score 0 everywhere). The method is
    the closed form by default, falling back to the truncated series
    above ``cfg.solve_max_nodes``. ``universe`` may also be a list of
    universes: all of them are then scored from one spectral estimate
    and one factorization (or one scaled adjacency), and the result is
    the list of their tables, each equal bit for bit to the table of
    that universe scored alone.
    """
    single = not isinstance(universe, list)
    universes = [universe] if single else universe
    adj = sp.csr_matrix(adj)
    if adj.dtype != np.float64:
        adj = adj.astype(np.float64)
    beta, sr = resolve_beta(cfg, adj)
    source_sets = [np.ascontiguousarray(u.node_indices, dtype=np.int64)
                   for u in universes]
    method = cfg.method
    if method == "closed-form-solve" and adj.shape[0] > cfg.solve_max_nodes:
        log.info("%d nodes exceed solve_max_nodes=%d; using the "
                 "truncated series", adj.shape[0], cfg.solve_max_nodes)
        method = "truncated-series"
    if method == "closed-form-solve":
        columns = _solve_rows(adj, beta, source_sets)
    else:
        at_beta = _scaled_transpose(adj, beta)
        columns = []
        for sources in source_sets:
            values = _series_rows(at_beta, sources, cfg.max_walk_length,
                                  cfg.series_tolerance)
            support = _support_of(values)
            columns.append((support, values.ravel()[support]))
    info = {"beta": beta, "spectral_radius": sr.value,
            "spectral_converged": sr.converged, "method": method}
    if sr.bound is not None:
        info["spectral_bound"] = sr.bound
    tables = [ScoreTable(model, u, support, _Column(scores, 0.0),
                         info=dict(info))
              for u, (support, scores) in zip(universes, columns)]
    return tables[0] if single else tables


def edge_weighted_katz_scores(ki_table, distances, gamma, model="EWKI"):
    """Walk-count scores decayed pairwise by endpoint distance.

    score(u, v) = exp(-gamma * d(u, v)) * ki(u, v), where ``ki_table``
    is an unnormalized KI table and ``distances`` holds the great-circle
    km of its support pairs, in support order (``geo.pair_distances`` of
    the pairs ``divmod(support, k)`` in universe node order). Only the
    support decays: every other pair holds KI's floor, a zero, which any
    weight keeps. At gamma = 0 every weight is exactly 1.0 and the table
    equals the KI table bitwise.
    """
    if ki_table.normalized:
        raise UniverseMismatchError("ki_table must be an unnormalized table")
    support = ki_table.support
    distances = np.asarray(distances, dtype=np.float64)
    if distances.shape != support.shape:
        raise UniverseMismatchError(
            f"{distances.size} distances do not match the table's "
            f"{support.size} support pairs")
    ki = ki_table.scores
    decayed = _Column(ki.on_support * decay_weights(distances, gamma),
                      ki.floor)
    return ScoreTable(model, ki_table.universe, support, decayed,
                      info=dict(ki_table.info, gamma=gamma))


def normalize(table):
    """Min-max rescale a table's universe scores to [0, 1].

    The minimum and range are taken over the support's scores and,
    when some pair is off the support, the floor. A constant table maps
    to all zeros and raises :class:`DegenerateScoreTableWarning`, since
    a single value carries no ranking information. The input's scores
    are kept as the normalized table's ``raw`` column.
    """
    if table.normalized:
        raise ValueError(f"table {table.model!r} is already normalized")
    column = table.scores
    scores = np.append(column.on_support, column.floor)
    pairs = scores if table.n_floor else scores[:-1]
    lo = pairs.min()
    span = pairs.max() - lo
    if span == 0.0:
        warnings.warn(
            f"score table {table.model!r} is constant ({lo:.6g} "
            "everywhere); normalizing to all zeros",
            DegenerateScoreTableWarning, stacklevel=2)
        scores = np.zeros_like(scores)
    else:
        # + 0.0 turns a -0.0 (a -0.0 score over a +0.0 minimum) into
        # +0.0 and leaves every other value as it is.
        scores = (scores - lo) / span + 0.0
    return ScoreTable(table.model, table.universe, table.support,
                      _Column(scores[:-1], float(scores[-1])),
                      normalized=True, raw=column, info=dict(table.info))


def combine(a, b, rule="mean", on="normalized"):
    """Fuse two normalized tables pairwise into a combined model.

    The rule is applied to the normalized scores (``on="normalized"``)
    or to the inputs' pre-normalization ``raw`` scores (``on="raw"``,
    recorded as ``combined_on`` in the output's info), and the result
    is re-normalized; the model name is the concatenation of the
    inputs' names. The rule fuses the two tables' scores on the union
    of their supports, and their floors into the output's floor. The
    pre-renormalization combination is kept as the output's ``raw``.
    """
    if not (a.normalized and b.normalized):
        raise ValueError("combine requires two normalized tables")
    if not a.universe.same_universe(b.universe):
        raise UniverseMismatchError(
            f"tables {a.model!r} and {b.model!r} cover different universes")
    info = {"rule": rule, "components": (a.model, b.model)}
    if on not in COMBINE_INPUTS:
        raise ConfigError(f"combine input must be one of {COMBINE_INPUTS}, "
                          f"got {on!r}")
    if on == "raw":
        info["combined_on"] = "raw"
    if rule not in COMBINE_RULES:
        raise ConfigError(f"combine rule must be one of {COMBINE_RULES}, "
                          f"got {rule!r}")
    a, b = _common_support([a, b])
    a_values, b_values = (
        np.append(column.on_support, column.floor) for column in
        ((a.raw, b.raw) if on == "raw" else (a.scores, b.scores)))
    if rule == "mean":
        fused = (a_values + b_values) / 2.0
    elif rule == "product":
        fused = a_values * b_values
    else:
        fused = np.maximum(a_values, b_values)
    return normalize(ScoreTable(
        a.model + b.model, a.universe, a.support,
        _Column(fused[:-1], float(fused[-1])), info=info))


def _csv_fields(values):
    """Each of ``values`` as csv.writer writes it inside a row: minimal
    quoting."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    # A row of one empty field is written as "", so a second (empty)
    # field keeps the in-row quoting of every value; writerow returns
    # the length written, which ends in ",\n".
    lengths = [writer.writerow([value, ""]) for value in values]
    text = buf.getvalue()
    fields = []
    start = 0
    for length in lengths:
        fields.append(text[start:start + length - 2])
        start += length
    return fields


def write_score_table(table, registry, dest, known=None):
    """Export a normalized table as delimited text.

    Columns are source_id, dest_id, model, score (pre-normalization)
    and score_norm; rows are ordered lexicographically by source id
    then dest id, and floats use 6 significant digits, so identical
    tables export byte-identically. ``known`` is a (floats ascending,
    their text) pair, such as the thresholds and their text that
    ``metrics._write_evaluation`` returns for the table's report: when
    every support score_norm value is bitwise one of the floats, the
    column takes its text from there (see ``_format6``).

    A pair off the table's support takes its row from one floor row
    per destination; only the support's pairs are formatted.
    """
    if not table.normalized or table.raw is None:
        raise ValueError("score export requires a normalized table")
    ids = [registry.ids[i] for i in table.universe.node_indices]
    order = sorted(range(len(ids)), key=ids.__getitem__)
    k = len(order)
    quoted = _csv_fields([ids[i] for i in order] + [table.model])
    model = quoted.pop()
    middle = [f",{dest_id},{model}," for dest_id in quoted]
    if k > 1:
        # Each support pair's position in the export's id order.
        rank = np.empty(k, dtype=np.int64)
        rank[order] = np.arange(k)
        rows, cols = np.divmod(table.support, k)
        at = rank[rows] * k + rank[cols]
        by = np.argsort(at)
        raw, norm = table.raw, table.scores
        raw_text = _format6(raw.on_support[by]).tolist()
        norm_text = _format6(norm.on_support[by], known).tolist()
        raw_floor, norm_floor = _format6([raw.floor, norm.floor]).tolist()
        floor_rows = [f"{m}{raw_floor},{norm_floor}\n" for m in middle]
        sources, dests = np.divmod(at[by], k)
        dests = dests.tolist()
        off_rows = [f"{middle[b]}{r},{n}\n"
                    for b, r, n in zip(dests, raw_text, norm_text)]
        ends = np.cumsum(np.bincount(sources, minlength=k)).tolist()

    def texts():
        yield ",".join(SCORE_COLUMNS) + "\n"
        if k < 2:
            return
        start = 0
        for a, (source, end) in enumerate(zip(quoted, ends)):
            rows = floor_rows.copy()
            for b, row in zip(dests[start:end], off_rows[start:end]):
                rows[b] = row
            del rows[a]
            start = end
            # rows holds k - 1 >= 1 texts, each of which takes the
            # source in front of it.
            yield source + source.join(rows)

    return _write_text(texts(), dest)


def read_score_table(path, universe, registry):
    """Load an exported score table back onto a pair universe.

    The file must be UTF-8 and cover exactly the universe's off-diagonal
    pairs, each once, with ids resolvable in the registry. Its header
    is read as a movement file's is. Returns a normalized ScoreTable
    whose ``scores`` are the file's ``score_norm`` column and ``raw`` its
    ``score`` column, on the pairs at which either is not +0.0; both
    floors are 0.0.
    """
    try:
        with _open_input(path, "score table") as fh:
            return _read_scores(fh, path, universe, registry)
    except UnicodeDecodeError as exc:
        raise _decode_error(path, exc, "score table") from exc


def _read_scores(fh, path, universe, registry):
    k = universe.k
    position = {int(node): i for i, node in enumerate(universe.node_indices)}
    norm = np.zeros((k, k), dtype=np.float64)
    raw = np.zeros((k, k), dtype=np.float64)
    seen = np.zeros((k, k), dtype=bool)
    model = None
    header, reader = _read_header(fh, ",")
    if header is None or not set(SCORE_COLUMNS).issubset(header):
        raise DataError(f"score table {path} lacks required columns "
                        f"{sorted(SCORE_COLUMNS)}")
    at = {name: i for i, name in enumerate(header)}
    columns = [at[name] for name in SCORE_COLUMNS]
    for row in reader:
        if not row:
            continue
        # The reader counts physical lines, blank ones included.
        line_no = reader.line_num
        if len(row) < len(header):
            raise DataError(f"line {line_no}: fewer fields than the header")
        source, dest, row_model, score, score_norm = map(row.__getitem__,
                                                         columns)
        if model is None:
            model = row_model
        elif row_model != model:
            raise DataError(
                f"score table mixes models {model!r} and "
                f"{row_model!r} (line {line_no})")
        try:
            u = registry.index(source)
            v = registry.index(dest)
            i, j = position[u], position[v]
        except KeyError:
            raise UniverseMismatchError(
                f"line {line_no}: pair ({source}, {dest}) is not in the "
                "evaluation universe")
        if i == j or seen[i, j]:
            raise UniverseMismatchError(
                f"line {line_no}: duplicate or diagonal pair")
        seen[i, j] = True
        try:
            raw[i, j] = float(score)
            norm[i, j] = float(score_norm)
        except ValueError:
            raise DataError(f"line {line_no}: non-numeric score")
        if not (np.isfinite(raw[i, j]) and np.isfinite(norm[i, j])):
            raise DataError(f"line {line_no}: non-finite score")
    expected = k * (k - 1)
    got = int(seen.sum())
    if got != expected:
        raise UniverseMismatchError(
            f"score table covers {got} pairs; the universe has {expected}")
    support = _support_of(norm, raw)
    return ScoreTable(model or "", universe, support,
                      _Column(norm.ravel()[support], 0.0), normalized=True,
                      raw=_Column(raw.ravel()[support], 0.0))
