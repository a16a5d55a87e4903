import json
import math

import numpy as np
import pytest

from oracle import (naive_auc, naive_mcc, naive_ndcg, naive_spearman,
                    read_report_csv)
from protfit.errors import DataError
from protfit.io import AssayTable, AssayVariant
from protfit.metrics import (AssayResult, aggregate_results, auc,
                             binarize_assay, bootstrap_diff_stderr,
                             emit_report, evaluate_assay, mcc, midranks, ndcg,
                             spearman, top_fraction_recall)


# ---------------------------------------------------------------------------
# spearman
# ---------------------------------------------------------------------------

def test_spearman_perfect_and_reversed():
    assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
    assert spearman([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)


def test_spearman_ties_match_naive_oracle(rng):
    assert spearman([1, 2, 2, 3], [1, 3, 2, 4]) == pytest.approx(
        naive_spearman([1, 2, 2, 3], [1, 3, 2, 4]), abs=1e-12)
    for _ in range(50):
        n = int(rng.integers(3, 25))
        x = rng.integers(0, 6, n).astype(float)
        y = rng.integers(0, 6, n).astype(float)
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        assert spearman(x, y) == pytest.approx(naive_spearman(x, y), abs=1e-12)


def test_spearman_symmetric_and_self(rng):
    x = rng.standard_normal(20)
    y = rng.standard_normal(20)
    assert spearman(x, y) == pytest.approx(spearman(y, x), abs=1e-12)
    assert spearman(x, x) == pytest.approx(1.0, abs=1e-12)


def test_spearman_zero_variance_rejected():
    with pytest.raises(DataError):
        spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_midranks_average_ties():
    assert midranks([10.0, 20.0, 20.0, 30.0]).tolist() == [1.0, 2.5, 2.5, 4.0]


# ---------------------------------------------------------------------------
# auc
# ---------------------------------------------------------------------------

def test_auc_separated_and_ties():
    assert auc([1, 2, 3, 10, 11], [0, 0, 0, 1, 1]) == 1.0
    assert auc([5, 5, 5, 5], [0, 1, 0, 1]) == 0.5


def test_auc_matches_pairwise_oracle(rng):
    for _ in range(50):
        n = 30
        scores = rng.integers(0, 8, n).astype(float)
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            continue
        assert auc(scores, labels) == pytest.approx(
            naive_auc(scores, labels), abs=1e-12)


def test_auc_complement_identity(rng):
    scores = rng.standard_normal(25)  # continuous, tie-free
    labels = rng.integers(0, 2, 25)
    if labels.sum() in (0, 25):
        labels[0] = 1 - labels[0]
    assert auc(scores, labels) + auc(-scores, labels) == pytest.approx(1.0, abs=1e-12)


def test_auc_single_class_rejected():
    with pytest.raises(DataError):
        auc([1.0, 2.0], [1, 1])


# ---------------------------------------------------------------------------
# mcc
# ---------------------------------------------------------------------------

def test_mcc_perfect_and_complement():
    scores = np.array([0.1, 0.2, 0.8, 0.9])
    labels = np.array([0, 0, 1, 1])
    assert mcc(scores, labels) == pytest.approx(1.0)
    assert mcc(-scores, labels) == pytest.approx(-1.0)


def test_mcc_matches_confusion_formula(rng):
    for _ in range(50):
        scores = rng.standard_normal(40)
        labels = rng.integers(0, 2, 40)
        if labels.sum() in (0, 40):
            continue
        cut = float(np.median(scores))
        assert mcc(scores, labels) == pytest.approx(
            naive_mcc(scores, labels, cut), abs=1e-12)


def test_mcc_zero_marginal_sentinel():
    assert mcc([1.0, 1.0, 1.0, 1.0], [0, 1, 0, 1]) == 0.0


# ---------------------------------------------------------------------------
# ndcg
# ---------------------------------------------------------------------------

def test_ndcg_single_and_aligned():
    assert ndcg([5.0], [2.0]) == 1.0
    assert ndcg([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert ndcg([1, 2], [7.0, 7.0]) == 1.0


def test_ndcg_matches_naive_oracle(rng):
    for _ in range(100):
        n = 10
        scores = rng.integers(0, 6, n).astype(float)
        gains = rng.standard_normal(n)
        assert ndcg(scores, gains) == pytest.approx(
            naive_ndcg(scores, gains), abs=1e-12)


# ---------------------------------------------------------------------------
# top-fraction recall
# ---------------------------------------------------------------------------

def test_recall_equal_and_opposite(rng):
    x = rng.standard_normal(40)
    assert top_fraction_recall(x, x) == 1.0
    y = np.arange(50, dtype=float)
    assert top_fraction_recall(-y, y) == 0.0


def test_recall_matches_brute_force(rng):
    for _ in range(50):
        n = 37
        scores = rng.standard_normal(n)
        gains = rng.standard_normal(n)
        k = max(1, int(math.floor(0.1 * n)))
        top_s = set(sorted(range(n), key=lambda i: (-scores[i], i))[:k])
        top_g = set(sorted(range(n), key=lambda i: (-gains[i], i))[:k])
        assert top_fraction_recall(scores, gains) == len(top_s & top_g) / k


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------

def test_bootstrap_identical_lists_zero():
    a = [0.4, 0.5, 0.6, 0.7]
    for seed in (0, 1, 99):
        assert bootstrap_diff_stderr(a, a, n_boot=1000, seed=seed) == 0.0


def test_bootstrap_deterministic():
    a = [0.4, 0.5, 0.6, 0.1]
    b = [0.3, 0.2, 0.9, 0.4]
    x = bootstrap_diff_stderr(a, b, n_boot=2000, seed=7)
    assert x == bootstrap_diff_stderr(a, b, n_boot=2000, seed=7)
    assert x != bootstrap_diff_stderr(a, b, n_boot=2000, seed=8)


@pytest.mark.parametrize("n_boot", [0, -5])
def test_bootstrap_needs_a_resample(n_boot):
    with pytest.raises(DataError, match="bootstrap resamples"):
        bootstrap_diff_stderr([0.4, 0.5, 0.6], [0.3, 0.2, 0.9], n_boot=n_boot)


def test_bootstrap_matches_analytic_paired_oracle():
    a = np.array([0.42, 0.55, 0.61, 0.35, 0.50])
    b = np.array([0.40, 0.49, 0.66, 0.30, 0.44])
    d = a - b
    analytic = d.std() / math.sqrt(len(d))
    got = bootstrap_diff_stderr(a, b, n_boot=100_000, seed=3)
    assert abs(got - analytic) / analytic < 0.05


def _one_shot_bootstrap(a, b, n_boot, seed):
    """The whole-array formula: every resample's means in one (n_boot, n)
    float array."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    idx = np.random.default_rng(seed).integers(0, len(a), size=(n_boot, len(a)))
    return float((a[idx].mean(axis=1) - b[idx].mean(axis=1)).std())


@pytest.mark.parametrize("n_boot", [1, 511, 512, 513, 10000])
def test_bootstrap_blocks_equal_one_shot(n_boot):
    rng = np.random.default_rng(n_boot)
    for n in (2, 3, 5, 7, 16, 33, 100, 400):
        for seed in range(3):
            a, b = rng.standard_normal(n), rng.standard_normal(n)
            assert bootstrap_diff_stderr(a, b, n_boot=n_boot, seed=seed) == \
                _one_shot_bootstrap(a, b, n_boot, seed)


# ---------------------------------------------------------------------------
# monotone-transform invariance
# ---------------------------------------------------------------------------

def test_metrics_invariant_under_monotone_transforms(rng):
    scores = rng.standard_normal(60)
    gains = rng.standard_normal(60)
    labels = rng.integers(0, 2, 60)
    if labels.sum() in (0, 60):
        labels[0] = 1 - labels[0]
    for transform in (lambda s: 3.0 * s + 2.0, np.arctan,
                      lambda s: np.exp(s / 4.0)):
        t = transform(scores)
        assert spearman(t, gains) == pytest.approx(spearman(scores, gains), abs=1e-12)
        assert auc(t, labels) == pytest.approx(auc(scores, labels), abs=1e-12)
        assert mcc(t, labels) == pytest.approx(mcc(scores, labels), abs=1e-12)
        assert ndcg(t, gains) == pytest.approx(ndcg(scores, gains), abs=1e-12)
        assert top_fraction_recall(t, gains) == pytest.approx(
            top_fraction_recall(scores, gains), abs=1e-12)


# ---------------------------------------------------------------------------
# assay evaluation and reports
# ---------------------------------------------------------------------------

def _assay(scores, bins=None):
    variants = tuple(
        AssayVariant(f"A{i + 1}G", s, None if bins is None else bins[i])
        for i, s in enumerate(scores))
    return AssayTable(protein_id="toy", variants=variants)


def test_binarize_prefers_bins():
    assay = _assay([1.0, 2.0, 3.0, 4.0], bins=[1, 1, 0, 0])
    assert binarize_assay(assay).tolist() == [1, 1, 0, 0]
    no_bins = _assay([1.0, 2.0, 3.0, 4.0])
    assert binarize_assay(no_bins).tolist() == [0, 0, 1, 1]


def test_report_single_assay_aggregate_equals_row(tmp_path):
    assay = _assay([1.0, 2.0, 3.0, 4.0])
    result = evaluate_assay("a", np.array([1.0, 2.0, 3.0, 4.0]), assay)
    agg = aggregate_results([result])
    for m in ("spearman", "auc", "mcc", "ndcg", "recall10"):
        assert agg[m] == getattr(result, m)


def test_report_two_assay_mean(tmp_path):
    rows = [AssayResult("a", 10, 0.4, 0.6, 0.1, 0.8, 0.2),
            AssayResult("b", 20, 0.6, 0.8, 0.3, 0.9, 0.4)]
    agg = aggregate_results(rows)
    assert agg["spearman"] == pytest.approx(0.5)
    assert agg["n_variants"] == 30


def test_rank_sufficiency_through_evaluation(rng):
    # a strictly increasing transform of the scores leaves every per-assay
    # metric unchanged
    dms = rng.standard_normal(30)
    scores = rng.standard_normal(30)
    assay = _assay(dms.tolist())
    base = evaluate_assay("a", scores, assay)
    transformed = evaluate_assay("a", np.exp(0.5 * scores) + 3.0, assay)
    for m in ("spearman", "auc", "mcc", "ndcg", "recall10"):
        assert getattr(transformed, m) == pytest.approx(getattr(base, m),
                                                        abs=1e-12)


def test_report_csv_json_round_trip(tmp_path):
    rows = [AssayResult("a", 10, 0.4, 0.6, 0.1, 0.8, 0.2),
            AssayResult("b", 20, 0.65, 0.8, 0.3, 0.9, 0.4)]
    groups = {"1": {"spearman": 0.3, "auc": 0.5, "mcc": 0.0, "ndcg": 0.7,
                    "recall10": 0.1, "n_variants": 12}}
    sig = {"spearman_diff_stderr": 0.0123}
    csv_path = tmp_path / "r.csv"
    emit_report(csv_path, rows, fmt="csv", groups=groups, significance=sig,
                header_lines=["config_hash=h"])
    parsed = read_report_csv(csv_path)
    json_path = tmp_path / "r.json"
    emit_report(json_path, rows, fmt="json", groups=groups, significance=sig)
    payload = json.loads(json_path.read_text())
    assert parsed["aggregate"]["spearman"] == pytest.approx(
        payload["aggregate"]["spearman"])
    for got, want in zip(parsed["assays"], payload["assays"]):
        for key in ("spearman", "auc", "mcc", "ndcg", "recall10"):
            assert got[key] == pytest.approx(want[key], abs=1e-15)
    assert parsed["groups"]["1"]["ndcg"] == pytest.approx(0.7)
    assert parsed["significance"]["spearman_diff_stderr"] == pytest.approx(0.0123)
    assert csv_path.read_text().startswith("# config_hash=h")


def test_report_csv_skips_blank_rows(tmp_path):
    path = tmp_path / "r.csv"
    emit_report(path, [AssayResult("a", 10, 0.4, 0.6, 0.1, 0.8, 0.2)],
                significance={"n_boot": 10})
    lines = path.read_text().splitlines(keepends=True)
    spaced = tmp_path / "spaced.csv"
    spaced.write_text("\n".join(lines) + "\n")
    assert read_report_csv(spaced) == read_report_csv(path)


@pytest.mark.parametrize("row", [
    ",", "a", "a,1", "a,x,0.1,0.2,0.3,0.4,0.5", "a,1,0.1,0.2,0.3,0.4",
    "a,1,0.1,0.2,0.3,0.4,0.5,0.6", "a,1,0.1,0.2,0.3,0.4,zz",
    "SIGNIFICANCE:n_boot", "SIGNIFICANCE:n_boot,1,2", "SIGNIFICANCE:x,y"])
def test_report_csv_garbage_row_is_data_error(tmp_path, row):
    path = tmp_path / "r.csv"
    path.write_text("assay_id,n_variants,spearman,auc,mcc,ndcg,recall10\n"
                    f"b,2,0.1,0.2,0.3,0.4,0.5\n{row}\n")
    with pytest.raises(DataError, match="malformed report row"):
        read_report_csv(path)


def test_report_csv_garbage_row_names_its_file_line(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("# run\nassay_id,n_variants,spearman,auc,mcc,ndcg,recall10\n"
                    "\nb,x,0.1,0.2,0.3,0.4,0.5\n")
    with pytest.raises(DataError, match="row 4: malformed report row"):
        read_report_csv(path)


@pytest.mark.parametrize("body", [b"", b"# only\n", b"assay_id\n",
                                  b"assay_id,n_variants\xff\n"])
def test_report_csv_bad_header_or_encoding(tmp_path, body):
    path = tmp_path / "r.csv"
    path.write_bytes(body)
    with pytest.raises(DataError):
        read_report_csv(path)
