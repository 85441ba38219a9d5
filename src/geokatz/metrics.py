"""Binary-classification evaluation of pair score tables.

Scores become predictions via an inclusive threshold (predict positive
iff score >= threshold). Threshold sweeps visit every distinct score
once (ties form a single step), which makes the swept optimum exact
rather than grid-approximate. ``evaluate`` builds the ROC and PR
curves, their trapezoidal areas, average precision and the confusion at
its threshold from one sweep, whose counts its report keeps; tuning on
the evaluated table itself shares it; ``optimal_threshold`` sweeps on
its own. A ScoreTable is swept from its support, with the pairs off it
counted in its floor's step.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateLabelsError

ABOVE_MAX_STEP = 1.0


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts of a binary decision against ground-truth labels."""
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self):
        return self.tp + self.fp + self.fn + self.tn

    @property
    def positives(self):
        return self.tp + self.fn


@dataclass(frozen=True)
class Curve:
    """Threshold-parameterized curve points, threshold descending."""
    kind: str
    thresholds: np.ndarray
    x: np.ndarray
    y: np.ndarray


@dataclass
class EvaluationReport:
    """Everything measured about one model on one labeled universe;
    ``counts`` is its sweep's (tp, fp, n_pos, n_neg), tp and fp int64
    at each PR point, from which the curve files are written."""
    model: str
    threshold: float
    confusion: ConfusionMatrix
    precision: float
    recall: float
    f1: float
    auroc: float
    aupr: float
    average_precision: float
    roc: Curve
    pr: Curve
    info: dict = field(default_factory=dict)
    counts: tuple = field(default=None, repr=False, compare=False)


def _vectors(scores, labels):
    """Aligned 1-D score and boolean label arrays from a plain score
    array and its labels."""
    if labels is None:
        raise ValueError("labels are required when scores is a plain array")
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if scores.shape != labels.shape:
        raise ValueError(
            f"scores and labels differ in length: {scores.shape} "
            f"vs {labels.shape}")
    if scores.size == 0:
        raise ValueError("empty score vector")
    _check_finite(scores)
    return scores, (labels != 0)


def _check_finite(scores):
    """Refuse a score array holding NaN or an infinity."""
    if not np.isfinite(scores).all():
        raise ValueError("scores contain non-finite values")


def precision(cm):
    """tp / (tp + fp); 0 when nothing is predicted positive."""
    denom = cm.tp + cm.fp
    return cm.tp / denom if denom else 0.0


def recall(cm):
    """tp / (tp + fn); 0 when there are no positives."""
    denom = cm.tp + cm.fn
    return cm.tp / denom if denom else 0.0


def f1(cm):
    """Harmonic mean of precision and recall; 0 when both are 0."""
    p = precision(cm)
    r = recall(cm)
    denom = p + r
    return 2.0 * p * r / denom if denom else 0.0


def confusion_at(scores, labels=None, threshold=0.0):
    """Confusion counts for the decision rule score >= threshold, read
    off the sweep of ``scores``: a ScoreTable (labels default to its
    universe's) or a plain array with its labels."""
    return _confusion_from_sweep(*_sweep_of(scores, labels), threshold)


def _sweep(s, y):
    """Cumulative counts at every distinct-score threshold.

    Returns (thresholds, tp, fp, n_pos, n_neg) with thresholds strictly
    descending; entry i counts predictions at threshold thresholds[i]
    (everything scoring >= it is positive). Tied scores collapse into
    one step, so the order inside a tie cannot change any entry.

    Only the scores above the minimum are sorted: most candidate pairs
    have no training walk and share the table's floor, whose group is
    always the last step (everything positive). A group of zeros is
    reported as +0.0 whatever mix of signed zeros it holds.
    """
    n_pos = int(np.count_nonzero(y))
    return _sweep_above(s, y, s.min(), n_pos, len(y) - n_pos)


def _sweep_above(s, y, floor, n_pos, n_neg):
    """The sweep of a universe given only some of its scores: ``s``
    with labels ``y`` holds every score other than ``floor`` and may
    hold some at it. Every pair left out scores ``floor``; ``n_pos``
    and ``n_neg`` count the universe's labels, and some pair scores
    ``floor``. Returns what :func:`_sweep` returns for the whole
    universe. Only the scores above ``floor`` are sorted, unless some
    score is below it: those are swept after the floor's step.
    """
    above = np.flatnonzero(s > floor)
    order = above[np.argsort(-s[above])]
    ranked = s[order]
    tp = np.cumsum(y[order], dtype=np.int64)
    ends = np.flatnonzero(ranked[1:] != ranked[:-1])
    if ranked.size:
        ends = np.append(ends, ranked.size - 1)
    below = np.flatnonzero(s < floor)
    # Everything at or above the floor is positive at its step.
    floor_tp = n_pos - int(np.count_nonzero(y[below]))
    floor_fp = n_neg - (below.size - (n_pos - floor_tp))
    hit = tp[ends]
    thresholds = np.append(ranked[ends], floor) + 0.0
    tp = np.append(hit, floor_tp)
    fp = np.append(ends + 1 - hit, floor_fp)
    if below.size:
        low_thresholds, low_tp, low_fp, _, _ = _sweep(s[below], y[below])
        thresholds = np.append(thresholds, low_thresholds)
        tp = np.append(tp, floor_tp + low_tp)
        fp = np.append(fp, floor_fp + low_fp)
    return thresholds, tp, fp, n_pos, n_neg


def _table_sweep(table, labels=None):
    """The sweep of a ScoreTable over its universe, from its support:
    every pair off the support scores the table's floor. ``labels``,
    when given, label the universe's pairs in flattening order;
    by default they are the universe's own."""
    universe = table.universe
    if universe.n_pairs == 0:
        raise ValueError("empty score vector")
    support = table.support
    if labels is None:
        y = universe.labels.ravel()[support] != 0
        n_pos = universe.n_positives
    else:
        labels = np.asarray(labels).ravel()
        if labels.shape != (universe.n_pairs,):
            raise ValueError(
                f"scores and labels differ in length: "
                f"({universe.n_pairs},) vs {labels.shape}")
        # Pair (i, j) is entry i * (k - 1) + j - (j > i) of the order.
        rows, cols = np.divmod(support, universe.k)
        y = labels[support - rows - (cols > rows)] != 0
        n_pos = int(np.count_nonzero(labels))
    s = table.scores.on_support
    _check_finite(s)
    if table.n_floor:
        floor = table.scores.floor
        _check_finite(np.array([floor]))
    else:
        floor = s.min()
    return _sweep_above(s, y, floor, n_pos, universe.n_pairs - n_pos)


def _sweep_of(scores, labels):
    """The sweep of a ScoreTable, from its support, or of a plain score
    array with its labels."""
    if hasattr(scores, "support"):
        return _table_sweep(scores, labels)
    return _sweep(*_vectors(scores, labels))


def _confusion_from_sweep(thresholds, tp, fp, n_pos, n_neg, threshold):
    """The confusion at ``threshold`` of a sweep: the groups scoring at
    least ``threshold`` are a prefix of the descending thresholds. A NaN
    threshold sorts above every score, so nothing is predicted."""
    k = len(thresholds) - int(np.searchsorted(thresholds[::-1], threshold))
    hit_tp = int(tp[k - 1]) if k else 0
    hit_fp = int(fp[k - 1]) if k else 0
    return ConfusionMatrix(tp=hit_tp, fp=hit_fp, fn=n_pos - hit_tp,
                           tn=n_neg - hit_fp)


def _trapezoid(y, x):
    """Trapezoidal area under y(x), in SciPy's order of operations."""
    return np.sum((x[1:] - x[:-1]) * (y[1:] + y[:-1]) / 2.0)


def _f1_vector(tp, fp, n_pos):
    """Per-threshold F1 using the same formula chain as f1(cm)."""
    predicted = tp + fp
    p = np.divide(tp, predicted, out=np.zeros(len(tp)),
                  where=predicted > 0)
    r = tp / n_pos
    denom = p + r
    return np.divide(2.0 * p * r, denom, out=np.zeros(len(tp)),
                     where=denom > 0)


def _best_cut(thresholds, tp, fp, n_pos, n_neg):
    """(threshold, F1) of ``optimal_threshold`` from a sweep."""
    if n_pos == 0:
        raise DegenerateLabelsError(
            "threshold tuning needs at least one positive label")
    thresholds = np.concatenate(
        [[thresholds[0] + ABOVE_MAX_STEP], thresholds])
    tp = np.concatenate([[0], tp])
    fp = np.concatenate([[0], fp])
    f1s = _f1_vector(tp, fp, n_pos)
    best = int(np.argmax(f1s))
    return float(thresholds[best]), float(f1s[best])


def optimal_threshold(scores, labels=None):
    """Threshold maximizing F1, swept over every distinct score.

    Candidates are all distinct score values plus one value above the
    maximum (predict nothing); ties go to the larger threshold, i.e.
    the more conservative decision rule. Returns (threshold, f1).
    """
    return _best_cut(*_sweep_of(scores, labels))


def _report(sweep, threshold, model, info):
    """The ``evaluate`` report of one sweep at ``threshold``."""
    thresholds, tp, fp, n_pos, n_neg = sweep
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError(
            "evaluation needs at least one positive and one negative label")
    cm = _confusion_from_sweep(*sweep, threshold)
    roc = Curve(kind="roc",
                thresholds=np.concatenate([[math.inf], thresholds]),
                x=np.concatenate([[0.0], fp / n_neg]),
                y=np.concatenate([[0.0], tp / n_pos]))
    pr = Curve(kind="pr", thresholds=thresholds, x=tp / n_pos,
               y=tp / (tp + fp))
    return EvaluationReport(
        model=model,
        threshold=float(threshold),
        confusion=cm,
        precision=precision(cm),
        recall=recall(cm),
        f1=f1(cm),
        auroc=float(_trapezoid(roc.y, roc.x)),
        aupr=float(_trapezoid(pr.y, pr.x)),
        average_precision=float(np.sum(pr.y * np.diff(pr.x, prepend=0.0))),
        roc=roc,
        pr=pr,
        info=dict(info or {}),
        counts=(tp, fp, n_pos, n_neg))


def evaluate(scores, labels=None, threshold=0.0, model="", info=None):
    """Assemble the full evaluation report at a fixed threshold.

    One sweep over the distinct scores yields the confusion at
    ``threshold``, both curves and all three areas:

    - ``roc``: (FPR, TPR) points, anchored at (0, 0) with an infinite
      threshold; the lowest threshold predicts everything positive, so
      the curve ends at (1, 1). ``auroc`` is its trapezoidal area.
    - ``pr``: (recall, precision) points, starting at the lowest-recall
      point actually achieved (the highest threshold); no synthetic
      recall-0 anchor is added. ``aupr`` is its trapezoidal area,
      integrated over recall.
    - ``average_precision``: the step sum of precision times recall
      increments, the standard alternative to trapezoidal AUPR; the
      two differ off tie plateaus.

    Raises DegenerateLabelsError unless both classes are present.
    """
    if hasattr(scores, "model") and not model:
        model = scores.model
    return _report(_sweep_of(scores, labels), threshold, model, info)


def _tune_and_evaluate(table, model, info):
    """``optimal_threshold(table)``, then ``evaluate`` of the same table
    at that threshold, from one sweep. Returns (threshold, f1, report).
    """
    sweep = _table_sweep(table)
    threshold, best = _best_cut(*sweep)
    return threshold, best, _report(sweep, threshold, model, info)


def _texts(values):
    """The ``f"{v:.6g}"`` text of each float of ``values``, flattened,
    as a list of str from one %-format call: -0.0 gives "-0" and NaN
    gives "nan", as the f-string does."""
    flat = np.asarray(values, dtype=np.float64).ravel()
    lines = ("%.6g\n" * flat.size % tuple(flat.tolist())).split("\n")
    lines.pop()
    return lines


def _format6(values, known=None):
    """The ``f"{v:.6g}"`` text of every entry of a float array (see
    ``_texts``).

    ``known`` is a (floats, their text) pair with the floats ascending:
    when every entry is bitwise one of them, its text is taken from
    there and nothing is formatted. Returns an object array of str with
    the input's shape.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    flat = values.ravel()
    if known is not None and len(known[0]):
        keys, text = known
        at = np.minimum(np.searchsorted(keys, flat), len(keys) - 1)
        if np.array_equal(keys[at].view(np.int64), flat.view(np.int64)):
            return text[at].reshape(values.shape)
    return np.array(_texts(flat), dtype=object).reshape(values.shape)


def _round6(value):
    """Round floats to 6 significant digits for stable artifacts."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return value
    if isinstance(value, int):
        return value
    return float(f"{value:.6g}")


def report_dict(report):
    """JSON-ready dictionary form of an evaluation report."""
    cm = report.confusion
    return {
        "model": report.model,
        "threshold": _round6(report.threshold),
        "confusion": {"tp": cm.tp, "fp": cm.fp, "fn": cm.fn, "tn": cm.tn},
        "metrics": {
            "precision": _round6(report.precision),
            "recall": _round6(report.recall),
            "f1": _round6(report.f1),
            "auroc": _round6(report.auroc),
            "aupr": _round6(report.aupr),
            "average_precision": _round6(report.average_precision),
        },
        "info": {key: _round6(val) for key, val in sorted(report.info.items())},
    }


def _write_text(text, dest):
    """Write ``text``, a str or an iterable of str, to an open stream,
    or to a path as UTF-8 with ``\\n`` line ends; returns ``dest``."""
    parts = (text,) if isinstance(text, str) else text
    if hasattr(dest, "write"):
        dest.writelines(parts)
    else:
        with open(dest, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(parts)
    return dest


def write_report(report, dest):
    """Write one model's evaluation report as deterministic JSON."""
    payload = json.dumps(report_dict(report), indent=2, sort_keys=True)
    return _write_text(payload + "\n", dest)


def _curve_text(thresholds, x, y, anchor=""):
    """Curve CSV text from the text of its three columns, with the
    ``anchor`` row, if any, first."""
    return "threshold,x,y\n" + anchor + "".join(
        [f"{t},{x},{y}\n" for t, x, y in zip(thresholds, x, y)])


def write_curve(curve, dest):
    """Write curve points as CSV with columns threshold, x, y."""
    columns = map(_texts, (curve.thresholds, curve.x, curve.y))
    return _write_text(_curve_text(*columns), dest)


def _sweep_counts(report):
    """A report's ``counts``; a ValueError when it holds none."""
    if report.counts is None:
        raise ValueError(f"report {report.model!r} holds no sweep counts")
    return report.counts


def _ratio_text(reports):
    """The recall and FPR text of the curves of one universe's
    ``evaluate`` reports, each distinct ratio formatted once.

    ``evaluate`` makes each recall tp / n_pos and each FPR fp / n_neg
    over the universe's label counts, so a curve's recall takes one of
    n_pos + 1 values, and the models of a universe reach many of the
    same FPRs. Returns (n_pos, n_neg, recall text by tp, FPR text by
    fp, the fp counts reached), the texts as object arrays; FPR text is
    formatted only at the fp counts some report reaches. A ValueError
    when the reports' label counts differ or one holds no counts.
    """
    counts = [_sweep_counts(report) for report in reports]
    sizes = {(n_pos, n_neg) for _, _, n_pos, n_neg in counts}
    if len(sizes) != 1:
        raise ValueError(
            f"reports of one universe must share their label counts, "
            f"not {sorted(sizes)}")
    (n_pos, n_neg), = sizes
    reached = np.zeros(n_neg + 1, dtype=bool)
    for _, fp, _, _ in counts:
        reached[fp] = True
    recall = np.array(_texts(np.arange(n_pos + 1) / n_pos), dtype=object)
    fp = np.flatnonzero(reached)
    fpr = np.empty(n_neg + 1, dtype=object)
    fpr[fp] = _texts(fp / n_neg)
    return n_pos, n_neg, recall, fpr, reached


def _write_evaluation(report, out_dir, name, ratios=None):
    """Write an ``evaluate`` report's files into the ``pathlib.Path``
    ``out_dir``: ``report_{name}.json`` as ``write_report`` writes it,
    and ``curve_roc_{name}.csv`` and ``curve_pr_{name}.csv`` with the
    bytes ``write_curve`` gives each curve.

    ``ratios`` is the ``_ratio_text`` of reports of the same universe,
    this one among them (by default of this one alone): the recall and
    FPR columns are looked up there by the report's tp and fp counts,
    so only the thresholds and precision are formatted here.
    ``evaluate`` builds the ROC curve as the PR thresholds and recall
    behind an (inf, 0, 0) anchor, so the two curves share the text of
    those columns. A ValueError, before any file is written, when the
    report holds no counts, counts other labels than ``ratios`` was
    built for, or reaches an fp count ``ratios`` has no text for.

    Returns (the thresholds ascending, their text), the ``known`` text
    of the evaluated table's normalized scores (see ``_format6``).
    """
    tp, fp, *labels = _sweep_counts(report)
    n_pos, n_neg, recall, fpr, reached = (
        _ratio_text([report]) if ratios is None else ratios)
    if labels != [n_pos, n_neg]:
        raise ValueError(
            f"report {name!r} counts {tuple(labels)} labels, not the "
            f"{(n_pos, n_neg)} its recall and FPR text was built for")
    if not reached[fp].all():
        raise ValueError(f"report {name!r} reaches an FPR its text lacks")
    pr = report.pr
    r = recall[tp].tolist()
    write_report(report, out_dir / f"report_{name}.json")
    t = _texts(pr.thresholds)
    _write_text(_curve_text(t, fpr[fp].tolist(), r, anchor="inf,0,0\n"),
                out_dir / f"curve_roc_{name}.csv")
    _write_text(_curve_text(t, r, _texts(pr.y)),
                out_dir / f"curve_pr_{name}.csv")
    return (np.ascontiguousarray(pr.thresholds[::-1], dtype=np.float64),
            np.array(t[::-1], dtype=object))
