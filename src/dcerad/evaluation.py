"""Metrics, ROC/AUC and patient-grouped stratified cross-validation.

A feature set is a view over feature blocks (FEATURE_SETS).  Per outer fold,
LASSO selection runs once for each block the requested sets need, on the
training rows only (never the held-out fold), with an inner-CV seed keyed by
the block, not by the set.  Each set then fits an LDA on the standardized
union of its blocks' survivors and scores the held-out rows, so every set of
one pass is scored on the same per-fold selections.  Headline metrics pool the
concatenated out-of-fold scores; per-fold mean and std are reported alongside.

AUC is the Mann-Whitney pair statistic with half credit for ties; the ROC
point list is swept over unique score thresholds (descending, with a (0,0)
anchor at threshold +inf) so its trapezoidal area equals the pair statistic.
"""

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInput, LengthMismatch, OneClassOnly
from .folds import grouped_stratified_folds
from .lda import lda_fit, lda_predict, lda_score
from .selection import BLOCKS, DYNAMIC_BLOCK, RADIOMIC_BLOCK, FeatureMatrix, select_block

# feature set -> the blocks whose selections it uses, in report order
FEATURE_SETS = {"dynamic": (DYNAMIC_BLOCK,), "radiomic": (RADIOMIC_BLOCK,), "combined": BLOCKS}

METRIC_NAMES = ("accuracy", "recall", "precision", "f1", "auc")


def confusion_metrics(labels, predictions) -> dict[str, float]:
    """Accuracy, recall, precision and F1 with malignant (1) as positive.

    Degenerate rules: precision 0 without positive predictions, recall 0
    without positive labels, F1 0 when precision + recall is 0.
    """
    labels = np.asarray(labels, dtype=int)
    predictions = np.asarray(predictions, dtype=int)
    if labels.shape != predictions.shape:
        raise LengthMismatch(f"{labels.shape[0]} labels vs {predictions.shape[0]} predictions")
    if labels.size == 0:
        raise EmptyInput("metrics need at least one sample")
    tp = int(((labels == 1) & (predictions == 1)).sum())
    fp = int(((labels == 0) & (predictions == 1)).sum())
    fn = int(((labels == 1) & (predictions == 0)).sum())
    tn = int(((labels == 0) & (predictions == 0)).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {
        "accuracy": (tp + tn) / labels.size,
        "recall": recall,
        "precision": precision,
        "f1": f1,
    }


def roc_auc(labels, scores):
    """(AUC, ROC points): pair-statistic AUC and (fpr, tpr, threshold) sweep."""
    labels = np.asarray(labels, dtype=int)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape:
        raise LengthMismatch(f"{labels.shape[0]} labels vs {scores.shape[0]} scores")
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if pos.size == 0 or neg.size == 0:
        raise OneClassOnly("AUC needs both classes present")

    pos_sorted = np.sort(pos)
    neg_sorted = np.sort(neg)
    # Mann-Whitney with half credit for ties: per positive, the negatives
    # below it and the negatives equal to it
    below = np.searchsorted(neg_sorted, pos, side="left")
    ties = np.searchsorted(neg_sorted, pos, side="right") - below
    auc = (float(below.sum()) + 0.5 * float(ties.sum())) / (pos.size * neg.size)

    thresholds = np.unique(scores)[::-1]
    tpr = (pos.size - np.searchsorted(pos_sorted, thresholds, side="left")) / pos.size
    fpr = (neg.size - np.searchsorted(neg_sorted, thresholds, side="left")) / neg.size
    points = [(0.0, 0.0, float("inf"))]
    points += [(float(f), float(t), float(th)) for f, t, th in zip(fpr, tpr, thresholds)]
    return auc, points


def trapezoidal_auc(points) -> float:
    """Area under the (fpr, tpr) polyline of a roc_auc point list."""
    fpr = np.array([p[0] for p in points])
    tpr = np.array([p[1] for p in points])
    return float(np.trapezoid(tpr, fpr))


@dataclass(frozen=True)
class FoldResult:
    fold: int
    n_test: int
    metrics: dict[str, float]
    selected: dict[str, list[str]]   # block -> selected feature names


@dataclass(frozen=True)
class EvalReport:
    feature_set: str
    seed: int
    cv_folds: int
    folds: tuple[FoldResult, ...]
    pooled: dict[str, float]
    fold_mean: dict[str, float]
    fold_std: dict[str, float]
    roc_points: tuple = field(default=())

    def to_dict(self, config: dict | None = None) -> dict:
        """The report document; given the run's configuration, it also records
        that configuration and its fingerprint."""
        doc = {
            "schema_version": 1,
            "feature_set": self.feature_set,
            "seed": self.seed,
            "cv_folds": self.cv_folds,
        }
        if config is not None:
            doc["config_fingerprint"] = config_fingerprint(config)
        doc.update({
            "pooled": self.pooled,
            "fold_mean": self.fold_mean,
            "fold_std": self.fold_std,
            "folds": [
                {"fold": f.fold, "n_test": f.n_test, "metrics": f.metrics,
                 "selected": f.selected}
                for f in self.folds
            ],
            "roc_points": [[p[0], p[1], "inf" if np.isinf(p[2]) else p[2]]
                           for p in self.roc_points],
        })
        if config is not None:
            doc["config"] = config
        return doc


def fit_and_score_fold(features: FeatureMatrix, train_idx, test_idx, feature_sets,
                       grid_size: int, inner_folds: int, lda_ridge: float, fold_seed):
    """Select each block the sets need once on the training rows, then per set
    fit an LDA on the standardized union of its blocks' survivors and score
    the held-out rows.  Test-fold labels are never read.

    A block's inner-CV seed is fold_seed + (BLOCKS.index(block),): dynamic is
    0 and radiomic is 1 whichever sets ask for it, so every set sees the same
    selection of a block.  Returns ({set: (scores, predictions)},
    {block: selected names}).
    """
    train = features.take_rows(train_idx)
    models = {block: select_block(train, block, grid_size=grid_size, cv_folds=inner_folds,
                                  seed=tuple(fold_seed) + (BLOCKS.index(block),))
              for block in BLOCKS if any(block in FEATURE_SETS[fs] for fs in feature_sets)}
    # block -> {survivor: (mean, std) of the block's standardization}
    survivors = {block: {n: (mean, std) for n, mean, std in zip(m.names, m.means, m.stds)
                         if n in m.selected}
                 for block, m in models.items()}
    test_values = features.values[np.asarray(test_idx)]
    n_test = test_values.shape[0]
    scored = {}
    for fs in feature_sets:
        stats = {n: ms for block in FEATURE_SETS[fs] for n, ms in survivors[block].items()}
        selected = [n for n in features.names if n in stats]
        if not selected:
            # LASSO killed every feature: constant score, all-benign predictions
            scored[fs] = (np.zeros(n_test), np.zeros(n_test, dtype=int))
            continue
        cols = features.column_index(selected)
        means, stds = np.array([stats[n] for n in selected]).T
        lda = lda_fit((train.values[:, cols] - means) / stds, train.labels, ridge=lda_ridge)
        z_test = (test_values[:, cols] - means) / stds
        scored[fs] = (lda_score(lda, z_test), lda_predict(lda, z_test))
    return scored, {block: list(m.selected) for block, m in models.items()}


def _report(feature_set: str, labels, folds, seed: int) -> EvalReport:
    """One set's report from the pass's per-fold (test rows, scored, selected)."""
    oof_scores = np.zeros(labels.shape[0])
    oof_pred = np.zeros(labels.shape[0], dtype=int)
    fold_results = []
    for fold, (test_idx, scored, selected) in enumerate(folds):
        scores, predictions = scored[feature_set]
        oof_scores[test_idx] = scores
        oof_pred[test_idx] = predictions
        test_labels = labels[test_idx]
        metrics = confusion_metrics(test_labels, predictions)
        metrics["auc"], _ = roc_auc(test_labels, scores)
        fold_results.append(FoldResult(
            fold=fold, n_test=test_idx.size, metrics=metrics,
            selected={block: selected[block] for block in FEATURE_SETS[feature_set]}))

    pooled = confusion_metrics(labels, oof_pred)
    pooled["auc"], roc_points = roc_auc(labels, oof_scores)
    fold_mean = {m: float(np.mean([f.metrics[m] for f in fold_results]))
                 for m in METRIC_NAMES}
    fold_std = {m: float(np.std([f.metrics[m] for f in fold_results]))
                for m in METRIC_NAMES}
    return EvalReport(feature_set=feature_set, seed=seed, cv_folds=len(folds),
                      folds=tuple(fold_results), pooled=pooled,
                      fold_mean=fold_mean, fold_std=fold_std,
                      roc_points=tuple(roc_points))


def cross_validate(features: FeatureMatrix, feature_sets=("combined",),
                   cv_folds: int = 5, seed: int = 0,
                   grid_size: int = 100, inner_folds: int = 5,
                   lda_ridge: float = 1e-6) -> dict[str, EvalReport]:
    """Patient-grouped stratified k-fold evaluation of the full select+classify
    pipeline for each named feature set, in one pass over the folds; returns
    {set: report} in the order asked.  Deterministic given the seed, and a
    set's report does not depend on which other sets share the pass."""
    if any(fs not in FEATURE_SETS for fs in feature_sets):
        raise ValueError(f"feature sets must be among {tuple(FEATURE_SETS)}, "
                         f"got {feature_sets!r}")
    assign = grouped_stratified_folds(features.groups, features.labels, cv_folds, seed)
    folds = []
    for fold in range(cv_folds):
        test_idx = np.flatnonzero(assign.fold == fold)
        train_idx = np.flatnonzero(assign.fold != fold)
        scored, selected = fit_and_score_fold(
            features, train_idx, test_idx, feature_sets,
            grid_size, inner_folds, lda_ridge, fold_seed=(seed, fold))
        folds.append((test_idx, scored, selected))
    return {fs: _report(fs, features.labels, folds, seed) for fs in feature_sets}


def config_fingerprint(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]
