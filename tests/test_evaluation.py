import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcerad import evaluation
from dcerad.errors import EmptyInput, LengthMismatch, OneClassOnly, TooFewGroups
from dcerad.evaluation import (FEATURE_SETS, config_fingerprint, confusion_metrics,
                               cross_validate, fit_and_score_fold, roc_auc,
                               trapezoidal_auc)
from dcerad.folds import grouped_stratified_folds
from dcerad.kinetics import DYNAMIC_FEATURE_NAMES
from dcerad.selection import FeatureMatrix


def signal_matrix(rng, n=60, p_extra=8):
    names = DYNAMIC_FEATURE_NAMES + tuple(f"rad_{i}" for i in range(p_extra))
    labels = rng.integers(0, 2, n)
    values = rng.normal(size=(n, len(names)))
    values[:, 5] += labels * 3.0                 # washout_ratio column
    values[:, 12] += labels * 1.2
    groups = tuple(f"P{i}" for i in range(n))
    return FeatureMatrix(names, values, labels, groups,
                         tuple(f"L{i}" for i in range(n)))


# --- confusion metrics ---------------------------------------------------------


def test_metrics_perfect():
    m = confusion_metrics([1, 0, 1, 0], [1, 0, 1, 0])
    assert m == {"accuracy": 1.0, "recall": 1.0, "precision": 1.0, "f1": 1.0}


def test_metrics_all_benign_predictions():
    m = confusion_metrics([1, 0, 1, 0], [0, 0, 0, 0])
    assert m["accuracy"] == 0.5
    assert m["recall"] == 0.0
    assert m["precision"] == 0.0
    assert m["f1"] == 0.0


def test_metrics_hand_counted_table():
    # TP=3, FP=1, FN=1, TN=5
    labels = [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
    preds = [1, 1, 1, 0, 1, 0, 0, 0, 0, 0]
    m = confusion_metrics(labels, preds)
    assert m["precision"] == 0.75
    assert m["recall"] == 0.75
    assert m["accuracy"] == 0.8
    assert m["f1"] == 0.75


def test_metrics_errors():
    with pytest.raises(LengthMismatch):
        confusion_metrics([1, 0], [1])
    with pytest.raises(EmptyInput):
        confusion_metrics([], [])


# --- ROC / AUC ---------------------------------------------------------------------


def test_auc_perfect_separation():
    auc, points = roc_auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9])
    assert auc == 1.0
    assert points[0] == (0.0, 0.0, float("inf"))
    assert points[-1][:2] == (1.0, 1.0)


def test_auc_half_pairs():
    auc, _ = roc_auc([0, 0, 1, 1], [0.1, 0.9, 0.5, 0.8])
    assert auc == 0.5


def test_auc_all_ties():
    auc, _ = roc_auc([0, 1, 0, 1], [0.3, 0.3, 0.3, 0.3])
    assert auc == 0.5


def test_auc_one_class_only():
    with pytest.raises(OneClassOnly):
        roc_auc([1, 1], [0.1, 0.2])


@pytest.mark.parametrize("seed", range(20))
def test_trapezoid_equals_pair_statistic(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 60))
    labels = rng.integers(0, 2, n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    scores = np.round(rng.normal(size=n), 1)      # rounding forces ties
    auc, points = roc_auc(labels, scores)
    assert trapezoidal_auc(points) == pytest.approx(auc, abs=1e-12)


def pair_loop_auc(labels, scores) -> float:
    """Mann-Whitney AUC counted pair by pair, half credit for ties."""
    pos = [s for lab, s in zip(labels, scores) if lab == 1]
    neg = [s for lab, s in zip(labels, scores) if lab == 0]
    wins = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


@pytest.mark.parametrize("seed", range(30))
def test_auc_equals_pair_loop_with_heavy_ties(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 150))
    labels = rng.integers(0, 2, n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    levels = int(rng.choice([1, 2, 3, 5, 40]))          # one level: every pair ties
    scores = rng.integers(0, levels, n) * 0.1
    auc, _ = roc_auc(labels, scores)
    assert auc == pair_loop_auc(labels, scores)


@given(st.integers(0, 10_000), st.floats(0.1, 5.0), st.floats(-3.0, 3.0))
@settings(max_examples=40, deadline=None)
def test_auc_invariant_under_increasing_transform(seed, scale, shift):
    rng = np.random.default_rng(seed)
    n = 30
    labels = rng.integers(0, 2, n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    scores = rng.normal(size=n)
    auc1, _ = roc_auc(labels, scores)
    auc2, _ = roc_auc(labels, np.exp(scale * scores) + shift)
    assert auc1 == pytest.approx(auc2, abs=1e-12)


def test_roc_points_sorted_descending():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 2, 20)
    labels[0], labels[1] = 0, 1
    _, points = roc_auc(labels, rng.normal(size=20))
    thresholds = [p[2] for p in points]
    assert all(a >= b for a, b in zip(thresholds, thresholds[1:]))


# --- folds -----------------------------------------------------------------------


def test_folds_exact_balance():
    groups = [f"P{i}" for i in range(10)]
    labels = [0] * 5 + [1] * 5
    assign = grouped_stratified_folds(groups, labels, k=5, seed=1)
    for fold in range(5):
        members = [g for g, f in zip(groups, assign.fold) if f == fold]
        labs = [labels[groups.index(g)] for g in members]
        assert sorted(labs) == [0, 1]


def test_folds_group_lesions_together():
    groups = ["A", "A", "A", "B", "C", "D", "E", "F", "G", "H", "I", "J", "K"]
    labels = [1, 1, 0] + [0, 1] * 5
    assign = grouped_stratified_folds(groups, labels, k=2, seed=0)
    a_folds = {f for g, f in zip(groups, assign.fold) if g == "A"}
    assert len(a_folds) == 1


def test_folds_deterministic():
    groups = [f"P{i}" for i in range(20)]
    labels = [i % 2 for i in range(20)]
    a = grouped_stratified_folds(groups, labels, k=5, seed=7)
    b = grouped_stratified_folds(groups, labels, k=5, seed=7)
    np.testing.assert_array_equal(a.fold, b.fold)


def test_folds_too_few_groups():
    with pytest.raises(TooFewGroups):
        grouped_stratified_folds(["A", "B", "C"], [0, 1, 1], k=5, seed=0)


def test_folds_stratify_patient_level():
    # patient with any malignant lesion counts as malignant stratum
    groups = ["A", "A"] + [f"P{i}" for i in range(8)]
    labels = [0, 1] + [0, 1] * 4
    assign = grouped_stratified_folds(groups, labels, k=2, seed=0)
    assert assign.patient_label["A"] == 1


# --- cross_validate ------------------------------------------------------------------


def test_cross_validate_deterministic():
    rng = np.random.default_rng(11)
    m = signal_matrix(rng)
    a = cross_validate(m, ("dynamic",), cv_folds=3, seed=4, grid_size=30, inner_folds=3)
    b = cross_validate(m, ("dynamic",), cv_folds=3, seed=4, grid_size=30, inner_folds=3)
    assert a["dynamic"].to_dict() == b["dynamic"].to_dict()


def test_cross_validate_pooled_counts_match_folds():
    rng = np.random.default_rng(13)
    m = signal_matrix(rng)
    report = cross_validate(m, ("dynamic",), cv_folds=3, seed=1, grid_size=30,
                            inner_folds=3)["dynamic"]
    n_total = sum(f.n_test for f in report.folds)
    assert n_total == m.n_rows
    # pooled accuracy equals the weighted mean of per-fold accuracies
    weighted = sum(f.metrics["accuracy"] * f.n_test for f in report.folds) / n_total
    assert report.pooled["accuracy"] == pytest.approx(weighted, abs=1e-12)


def test_cross_validate_finds_signal():
    rng = np.random.default_rng(17)
    m = signal_matrix(rng, n=80)
    report = cross_validate(m, ("combined",), cv_folds=4, seed=2, grid_size=30,
                            inner_folds=3)["combined"]
    assert report.pooled["auc"] > 0.8
    assert any("washout_ratio" in f.selected.get("dynamic", []) for f in report.folds)


def test_no_leakage_from_test_labels():
    rng = np.random.default_rng(19)
    m = signal_matrix(rng)
    assign = grouped_stratified_folds(m.groups, m.labels, 3, seed=5)
    test_idx = np.flatnonzero(assign.fold == 0)
    train_idx = np.flatnonzero(assign.fold != 0)

    sets = tuple(FEATURE_SETS)
    scored1, sel1 = fit_and_score_fold(
        m, train_idx, test_idx, sets, 30, 3, 1e-6, fold_seed=(5, 0))

    # scramble the held-out labels; nothing downstream may change
    labels = m.labels.copy()
    labels[test_idx] = 1 - labels[test_idx]
    scrambled = FeatureMatrix(m.names, m.values, labels, m.groups, m.lesion_ids)
    scored2, sel2 = fit_and_score_fold(
        scrambled, train_idx, test_idx, sets, 30, 3, 1e-6, fold_seed=(5, 0))

    for fs in sets:
        scores1, pred1 = scored1[fs]
        scores2, pred2 = scored2[fs]
        np.testing.assert_array_equal(scores1, scores2)
        np.testing.assert_array_equal(pred1, pred2)
    assert sel1 == sel2


def test_one_selection_per_block_per_fold(monkeypatch):
    # three sets, two blocks: each fold selects each block once, its inner
    # seed keyed by the block (dynamic 0, radiomic 1), not by the set
    m = signal_matrix(np.random.default_rng(31))
    calls = []
    select_block = evaluation.select_block

    def counted(matrix, block, **kwargs):
        calls.append((block, kwargs["seed"]))
        return select_block(matrix, block, **kwargs)

    monkeypatch.setattr(evaluation, "select_block", counted)
    cross_validate(m, ("dynamic", "radiomic", "combined"), cv_folds=3, seed=4,
                   grid_size=20, inner_folds=3)
    assert len(calls) == 2 * 3
    assert sorted(calls) == sorted([("dynamic", (4, fold, 0)) for fold in range(3)]
                                   + [("radiomic", (4, fold, 1)) for fold in range(3)])


def weak_radiomic_matrix(n=60, p_rad=30, seed=37):
    """Many weakly informative radiomic columns, so which survive depends on
    the inner-CV split."""
    rng = np.random.default_rng(seed)
    names = DYNAMIC_FEATURE_NAMES + tuple(f"rad_{i}" for i in range(p_rad))
    labels = rng.integers(0, 2, n)
    values = rng.normal(size=(n, len(names)))
    values[:, 5] += labels * 1.5
    values[:, len(DYNAMIC_FEATURE_NAMES):] += labels[:, None] * 0.4
    return FeatureMatrix(names, values, labels, tuple(f"P{i}" for i in range(n)),
                         tuple(f"L{i}" for i in range(n)))


CV = dict(cv_folds=3, seed=4, grid_size=20, inner_folds=3)


def test_sets_share_each_blocks_selection():
    reports = cross_validate(weak_radiomic_matrix(), tuple(FEATURE_SETS), **CV)
    for dyn, rad, comb in zip(reports["dynamic"].folds, reports["radiomic"].folds,
                              reports["combined"].folds):
        assert rad.selected["radiomic"], "the test needs radiomic survivors"
        assert dyn.selected == {"dynamic": comb.selected["dynamic"]}
        assert rad.selected == {"radiomic": comb.selected["radiomic"]}


def test_multi_set_pass_equals_single_set_runs():
    m = weak_radiomic_matrix()
    together = cross_validate(m, tuple(FEATURE_SETS), **CV)
    assert list(together) == list(FEATURE_SETS)
    for fs, report in together.items():
        assert report.feature_set == fs
        assert report.to_dict() == cross_validate(m, (fs,), **CV)[fs].to_dict()


def test_cross_validate_rejects_unknown_sets():
    m = weak_radiomic_matrix()
    with pytest.raises(ValueError):
        cross_validate(m, "dynamic", **CV)          # a string, not a tuple of sets
    with pytest.raises(ValueError):
        cross_validate(m, ("dynamic", "everything"), **CV)


def test_permuted_labels_near_chance():
    rng = np.random.default_rng(23)
    m = signal_matrix(rng, n=80)
    aucs = []
    for perm_seed in range(3):
        perm = np.random.default_rng(perm_seed).permutation(m.n_rows)
        shuffled = FeatureMatrix(m.names, m.values, m.labels[perm], m.groups,
                                 m.lesion_ids)
        report = cross_validate(shuffled, ("dynamic",), cv_folds=4, seed=0,
                                grid_size=30, inner_folds=3)
        aucs.append(report["dynamic"].pooled["auc"])
    assert all(0.25 <= a <= 0.75 for a in aucs)


def test_empty_selection_falls_back_to_constant_scores():
    rng = np.random.default_rng(29)
    n = 40
    names = DYNAMIC_FEATURE_NAMES
    values = rng.normal(size=(n, len(names)))
    labels = rng.integers(0, 2, n)
    m = FeatureMatrix(names, values, labels, tuple(f"P{i}" for i in range(n)),
                      tuple(f"L{i}" for i in range(n)))
    report = cross_validate(m, ("dynamic",), cv_folds=4, seed=3, grid_size=20,
                            inner_folds=3)["dynamic"]
    assert 0.0 <= report.pooled["auc"] <= 1.0      # well-defined even if all-zero


def test_config_fingerprint_stable():
    a = config_fingerprint({"x": 1, "y": [1, 2]})
    b = config_fingerprint({"y": [1, 2], "x": 1})
    assert a == b and len(a) == 12
