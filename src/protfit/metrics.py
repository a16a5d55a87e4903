"""Assay evaluation metrics and report emission.

Rank metrics compare model scores against measured DMS values; the
classification metrics binarize against assay bins when present and a
median split of the DMS scores otherwise. Degenerate inputs return the
documented sentinels instead of raising, so batch evaluation over many
assays never aborts: all-equal gains give NDCG 1.0, and MCC is 0 when a
confusion-matrix marginal is empty.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .io import AssayTable, read_csv_rows, write_csv

METRIC_COLUMNS = ("spearman", "auc", "mcc", "ndcg", "recall10")


def _as_vector(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DataError(f"{name} must be a 1-D vector")
    if not np.isfinite(x).all():
        raise DataError(f"{name} contains non-finite values")
    return x


def midranks(x) -> np.ndarray:
    """1-based ranks with ties assigned their group's average rank."""
    x = np.asarray(x, dtype=np.float64)
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    mean_rank = ends - (counts - 1) / 2.0
    return mean_rank[inverse]


def spearman(x, y) -> float:
    """Pearson correlation of midranks."""
    x, y = _as_vector(x, "x"), _as_vector(y, "y")
    if len(x) != len(y):
        raise DataError("length mismatch")
    if len(x) < 2:
        raise DataError("need at least 2 observations")
    rx, ry = midranks(x), midranks(y)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    denom = np.sqrt((rx * rx).sum() * (ry * ry).sum())
    if denom < 1e-300:
        raise DataError("zero rank variance")
    return float((rx * ry).sum() / denom)


def auc(scores, labels) -> float:
    """Mann-Whitney AUC: P(score_pos > score_neg) + 0.5 P(equal), exact."""
    scores = _as_vector(scores, "scores")
    labels = np.asarray(labels, dtype=np.int64)
    if set(np.unique(labels)) - {0, 1}:
        raise DataError("labels must be 0/1")
    pos = scores[labels == 1]
    neg = np.sort(scores[labels == 0])
    if len(pos) == 0 or len(neg) == 0:
        raise DataError("both classes must be present")
    left = np.searchsorted(neg, pos, side="left")
    right = np.searchsorted(neg, pos, side="right")
    wins = left.sum() + 0.5 * (right - left).sum()
    return float(wins / (len(pos) * len(neg)))


def mcc(scores, labels, threshold="median") -> float:
    """Matthews correlation after binarizing scores at the assay median
    (or a given value); 0 when any confusion-matrix marginal is empty."""
    scores = _as_vector(scores, "scores")
    labels = np.asarray(labels, dtype=np.int64)
    if set(np.unique(labels)) - {0, 1}:
        raise DataError("labels must be 0/1")
    if len(set(labels.tolist())) < 2:
        raise DataError("both classes must be present")
    cut = float(np.median(scores)) if threshold == "median" else float(threshold)
    pred = scores > cut
    actual = labels == 1
    tp = float(np.sum(pred & actual))
    tn = float(np.sum(~pred & ~actual))
    fp = float(np.sum(pred & ~actual))
    fn = float(np.sum(~pred & actual))
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom == 0:
        return 0.0
    return float((tp * tn - fp * fn) / math.sqrt(denom))


def ndcg(scores, gains) -> float:
    """Discounted cumulative gain of the score ordering over min-max
    normalized gains, relative to the ideal ordering. Score ties break by
    original index; all-equal gains define 1.0."""
    scores = _as_vector(scores, "scores")
    gains = _as_vector(gains, "gains")
    if len(scores) != len(gains):
        raise DataError("length mismatch")
    if len(scores) == 0:
        raise DataError("empty input")
    lo, hi = gains.min(), gains.max()
    if hi - lo < 1e-300:
        return 1.0
    g = (gains - lo) / (hi - lo)
    discount = 1.0 / np.log2(np.arange(len(g)) + 2.0)
    by_score = np.lexsort((np.arange(len(g)), -scores))
    by_gain = np.lexsort((np.arange(len(g)), -g))
    dcg = float((g[by_score] * discount).sum())
    ideal = float((g[by_gain] * discount).sum())
    return dcg / ideal


def top_fraction_recall(scores, gains, frac: float = 0.10) -> float:
    """Overlap of the top-k sets by score and by gain, k = max(1, floor
    (frac * n)), ties broken by index."""
    scores = _as_vector(scores, "scores")
    gains = _as_vector(gains, "gains")
    if len(scores) != len(gains):
        raise DataError("length mismatch")
    n = len(scores)
    if n == 0:
        raise DataError("empty input")
    k = max(1, int(math.floor(frac * n)))
    idx = np.arange(n)
    top_score = set(np.lexsort((idx, -scores))[:k].tolist())
    top_gain = set(np.lexsort((idx, -gains))[:k].tolist())
    return len(top_score & top_gain) / k


_BOOT_BLOCK = 512


def bootstrap_diff_stderr(metric_a, metric_b, n_boot: int = 10000,
                          seed: int = 0) -> float:
    """Std of the resampled difference of per-assay metric means: resample
    assay indices with replacement, take mean(a) - mean(b) per resample.
    The indices come from one draw; the means are taken ``_BOOT_BLOCK``
    resamples at a time, so no float array of the whole (n_boot, n) shape
    is built."""
    a = _as_vector(metric_a, "metric_a")
    b = _as_vector(metric_b, "metric_b")
    if len(a) != len(b):
        raise DataError("paired metric lists must have equal length")
    if len(a) < 2:
        raise DataError("need at least 2 assays")
    if n_boot < 1:
        raise DataError(f"bootstrap resamples must be >= 1, got {n_boot}")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(a), size=(n_boot, len(a)))
    diffs = np.empty(n_boot)
    for start in range(0, n_boot, _BOOT_BLOCK):
        block = idx[start:start + _BOOT_BLOCK]
        diffs[start:start + _BOOT_BLOCK] = a[block].mean(axis=1) - b[block].mean(axis=1)
    return float(diffs.std())


# ---------------------------------------------------------------------------
# assay evaluation and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssayResult:
    assay_id: str
    n_variants: int
    spearman: float
    auc: float
    mcc: float
    ndcg: float
    recall10: float

    def row(self) -> list:
        return [self.assay_id, self.n_variants, self.spearman, self.auc,
                self.mcc, self.ndcg, self.recall10]


def binarize_assay(assay: AssayTable) -> np.ndarray:
    """Assay bins when present, else a median split of the DMS scores."""
    if assay.has_bins:
        return assay.bins()
    dms = assay.scores()
    return (dms > np.median(dms)).astype(np.int64)


def evaluate_assay(assay_id: str, scores, assay: AssayTable) -> AssayResult:
    scores = _as_vector(scores, "scores")
    dms = assay.scores()
    if len(scores) != len(dms):
        raise DataError(f"{assay_id}: score/assay length mismatch")
    if len(scores) < 2:
        raise DataError(f"{assay_id}: need at least 2 variants")
    labels = binarize_assay(assay)
    return AssayResult(
        assay_id=assay_id,
        n_variants=len(scores),
        spearman=spearman(scores, dms),
        auc=auc(scores, labels),
        mcc=mcc(scores, labels),
        ndcg=ndcg(scores, dms),
        recall10=top_fraction_recall(scores, dms),
    )


def aggregate_results(results: list) -> dict:
    """Unweighted means over assays."""
    if not results:
        raise DataError("no assay results to aggregate")
    agg = {"assay_id": "AGGREGATE",
           "n_variants": int(sum(r.n_variants for r in results))}
    for name in METRIC_COLUMNS:
        agg[name] = float(np.mean([getattr(r, name) for r in results]))
    return agg


def emit_report(path, results: list, fmt: str = "csv", aggregate: dict = None,
                groups: dict = None, significance: dict = None,
                header_lines=()) -> None:
    """Write per-assay rows plus the aggregate (and optional group rows and
    significance block) as CSV or JSON with identical fields."""
    if not results:
        raise DataError("cannot emit an empty report")
    if aggregate is None:
        aggregate = aggregate_results(results)
    if fmt == "csv":
        rows = [[r.assay_id, r.n_variants] +
                [repr(getattr(r, m)) for m in METRIC_COLUMNS] for r in results]
        rows.append([aggregate["assay_id"], aggregate["n_variants"]] +
                    [repr(aggregate[m]) for m in METRIC_COLUMNS])
        for key in sorted(groups or {}):
            g = groups[key]
            rows.append([f"GROUP:{key}", g["n_variants"]] +
                        [repr(g[m]) for m in METRIC_COLUMNS])
        for key in sorted(significance or {}):
            rows.append([f"SIGNIFICANCE:{key}", repr(significance[key])])
        write_csv(path, ["assay_id", "n_variants", *METRIC_COLUMNS], rows,
                  header_lines)
    elif fmt == "json":
        payload = {
            "assays": [dict(zip(["assay_id", "n_variants", *METRIC_COLUMNS],
                                r.row())) for r in results],
            "aggregate": aggregate,
        }
        if groups:
            payload["groups"] = groups
        if significance:
            payload["significance"] = significance
        if header_lines:
            payload["meta"] = list(header_lines)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        raise DataError(f"unknown report format {fmt!r}")


def read_report_csv(path) -> dict:
    """Parse an emitted CSV report back into assays/aggregate/groups."""
    rows = read_csv_rows(path)
    if not rows or rows[0][:2] != ["assay_id", "n_variants"]:
        raise DataError(f"{path}: unexpected report header")
    out = {"assays": [], "aggregate": None, "groups": {}, "significance": {}}
    for row in rows[1:]:
        key, *cells = row
        try:
            if key.startswith("SIGNIFICANCE:"):
                (value,) = cells
                out["significance"][key.split(":", 1)[1]] = float(value)
                continue
            count, *values = cells
            record = {"assay_id": key, "n_variants": int(count),
                      **dict(zip(METRIC_COLUMNS, map(float, values), strict=True))}
        except ValueError:
            raise DataError(f"{path}: malformed report row {row!r}") from None
        if key == "AGGREGATE":
            out["aggregate"] = record
        elif key.startswith("GROUP:"):
            out["groups"][key.split(":", 1)[1]] = record
        else:
            out["assays"].append(record)
    return out
