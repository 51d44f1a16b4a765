"""LASSO feature selection per block (dynamic / radiomic).

The fit minimizes

    (1/2n) * sum_i (y_i - x_i . beta)^2 + lambda * sum_j |beta_j|

exactly, by the LARS-lasso homotopy (Efron, Hastie, Johnstone & Tibshirani
2004, Ann. Statist. 32:407; Osborne, Presnell & Turlach 2000, IMA J. Numer.
Anal. 20:389).  With G = x'x/n, the solution is piecewise linear in lambda:
while the active set A and its signs s_A stay fixed,
beta_A = G_AA^-1 (x_A'y/n - lambda s_A).  The walk starts at lambda_max, where
beta = 0, and goes down from breakpoint to breakpoint: an inactive column's
|x_j'r/n| reaches lambda (it joins A) or an active coefficient reaches zero
(it drops).  Coefficients at a requested penalty are read off its segment, so
the answer has no convergence tolerance and no iteration budget.

Each segment is solved with the lower Cholesky factor L of G_AA and its
inverse, kept together: beta_A = L^-T L^-1 (x_A'y/n - lambda s_A), two
matrix products.  A join borders both in O(|A|^2).  A drop at position k
keeps the rows above k and the first k columns of the rows below; only the
trailing block absorbs the dropped column and is factored again and inverted.

Degenerate designs are the rule here (duplicate feature columns, p > n), and
two rules keep the walk well defined.  When several columns reach lambda
together, the lowest column index joins.  A column joins only while G_AA
stays nonsingular; a column in the span of A keeps beta_j = 0 with
|x_j'r/n| = lambda, which satisfies the KKT conditions, and is looked at again
after the next drop.  Both rules compare against floating-point rounding,
not against a convergence criterion.

Columns are standardized to mean 0 and unit standard deviation (population
convention, divisor n) beforehand; zero-variance columns are dropped and
reported.  The penalty weight is chosen on a 100-point log grid from
lambda_max down to lambda_max/1000 by grouped, stratified cross-validation,
minimizing mean squared out-of-fold error with ties broken toward the smaller
(denser) lambda.
"""

from dataclasses import dataclass

import numpy as np

from .errors import TooFewRows
from .folds import grouped_stratified_folds
from .kinetics import DYNAMIC_FEATURE_NAMES

DYNAMIC_BLOCK = "dynamic"
RADIOMIC_BLOCK = "radiomic"
BLOCKS = (DYNAMIC_BLOCK, RADIOMIC_BLOCK)

DEFAULT_GRID_SIZE = 100
DEFAULT_CV_FOLDS = 5
# Breakpoints within this relative distance are one tie.  Duplicate columns
# reach lambda together; rounding separates their breakpoints by up to ~3e-12.
_TIE = 1e-9
# A joining column whose squared distance from span(A), relative to its squared
# norm, is at most this is in span(A).  Over a three-set crossval of the
# 200-lesion phantom (heterogeneity 0.2 and 0.48, seed 0) the values are
# <= 4.7e-15 for dependent columns and >= 1.9e-7 for the others.
_DEPENDENT = 1e-10


@dataclass(frozen=True)
class FeatureMatrix:
    """Lesion-by-feature values with labels (0 benign, 1 malignant) and
    per-row patient groups."""

    names: tuple[str, ...]
    values: np.ndarray           # (n_rows, n_cols) float64
    labels: np.ndarray           # (n_rows,) int, 0/1
    groups: tuple[str, ...]      # patient_id per row
    lesion_ids: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=int)
        if len(set(self.names)) != len(self.names):
            raise ValueError("feature names must be unique")
        if values.ndim != 2 or values.shape != (labels.shape[0], len(self.names)):
            raise ValueError(f"values shape {values.shape} inconsistent with "
                             f"{labels.shape[0]} rows x {len(self.names)} names")
        if not np.isfinite(values).all():
            raise ValueError("feature matrix contains non-finite values")
        if not np.isin(labels, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        if len(self.groups) != labels.shape[0] or len(self.lesion_ids) != labels.shape[0]:
            raise ValueError("groups/lesion_ids length must match rows")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "groups", tuple(self.groups))
        object.__setattr__(self, "lesion_ids", tuple(self.lesion_ids))

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    def column_index(self, names) -> np.ndarray:
        pos = {n: i for i, n in enumerate(self.names)}
        return np.array([pos[n] for n in names], dtype=int)

    def take_rows(self, idx) -> "FeatureMatrix":
        idx = np.asarray(idx)
        return FeatureMatrix(self.names, self.values[idx], self.labels[idx],
                             tuple(self.groups[i] for i in idx),
                             tuple(self.lesion_ids[i] for i in idx))

    def block_names(self, block: str) -> tuple[str, ...]:
        dynamic = set(DYNAMIC_FEATURE_NAMES)
        if block == DYNAMIC_BLOCK:
            return tuple(n for n in self.names if n in dynamic)
        if block == RADIOMIC_BLOCK:
            return tuple(n for n in self.names if n not in dynamic)
        raise ValueError(f"unknown block {block!r}")


@dataclass(frozen=True)
class SelectionModel:
    block: str
    names: tuple[str, ...]        # retained columns, in matrix order
    means: np.ndarray
    stds: np.ndarray
    dropped: tuple[str, ...]      # zero-variance columns removed before the fit
    lambda_: float
    coefficients: np.ndarray
    selected: tuple[str, ...]     # names with nonzero coefficients

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "block": self.block,
            "names": list(self.names),
            "means": [float(v) for v in self.means],
            "stds": [float(v) for v in self.stds],
            "dropped": list(self.dropped),
            "lambda": float(self.lambda_),
            "coefficients": [float(v) for v in self.coefficients],
            "selected": list(self.selected),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SelectionModel":
        return cls(block=d["block"], names=tuple(d["names"]),
                   means=np.array(d["means"], dtype=np.float64),
                   stds=np.array(d["stds"], dtype=np.float64),
                   dropped=tuple(d["dropped"]), lambda_=float(d["lambda"]),
                   coefficients=np.array(d["coefficients"], dtype=np.float64),
                   selected=tuple(d["selected"]))


def standardize(values: np.ndarray, names=None):
    """Column-wise (x - mean) / std with population std; zero-variance columns
    are dropped.  Returns (standardized, means, stds, kept_idx, dropped_names)."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape[0] < 2:
        raise TooFewRows(f"standardization needs >= 2 rows, got {values.shape[0]}")
    means = values.mean(axis=0)
    stds = values.std(axis=0)
    kept = np.flatnonzero(stds > 0)
    dropped_idx = np.flatnonzero(stds == 0)
    dropped = tuple(names[i] for i in dropped_idx) if names is not None else tuple(
        str(i) for i in dropped_idx)
    z = (values[:, kept] - means[kept]) / stds[kept]
    return z, means[kept], stds[kept], kept, dropped


def _border(m: np.ndarray, row: np.ndarray, diag: float) -> np.ndarray:
    """Lower-triangular m grown by one row and column: [[m, 0], [row, diag]]."""
    n = m.shape[0]
    grown = np.zeros((n + 1, n + 1))
    grown[:n, :n] = m
    grown[n, :n] = row
    grown[n, n] = diag
    return grown


def _drop_factor(chol: np.ndarray, linv: np.ndarray, k: int):
    """Cholesky factor of gram[A, A] and its inverse with active position k
    removed.  Rows above k keep their factor and rows below keep their first
    k columns; only the trailing block, which absorbs the removed column
    l = chol[k+1:, k], is factored again and inverted."""
    tail = chol[k + 1:, k + 1:]
    l = chol[k + 1:, k]
    m = np.linalg.cholesky(tail @ tail.T + np.outer(l, l))
    m_inv = np.tril(np.linalg.inv(m))
    size = chol.shape[0] - 1
    chol_out, linv_out = np.zeros((2, size, size))
    chol_out[:k, :k] = chol[:k, :k]
    chol_out[k:, :k] = chol[k + 1:, :k]
    chol_out[k:, k:] = m
    linv_out[:k, :k] = linv[:k, :k]
    linv_out[k:, :k] = -m_inv @ (chol_out[k:, :k] @ linv[:k, :k])
    linv_out[k:, k:] = m_inv
    return chol_out, linv_out


def _homotopy(x: np.ndarray, y: np.ndarray, lambdas) -> np.ndarray:
    """Exact LASSO coefficients at each of the non-increasing penalties, shape
    (len(lambdas), p), read off the piecewise-linear solution path."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    lambdas = np.asarray(lambdas, dtype=np.float64)
    if np.any(np.diff(lambdas) > 0) or np.any(lambdas < 0):
        raise ValueError("penalties must be non-negative and non-increasing")
    n, p = x.shape
    gram = x.T @ x / n
    xty = x.T @ y / n
    out = np.zeros((lambdas.shape[0], p))
    active, signs = [], []
    chol = linv = np.zeros((0, 0))   # lower Cholesky factor of gram[A, A], its inverse
    uw = np.zeros((2, 0))            # on this segment beta_A = u - lam * w
    g_a = np.empty_like(gram)        # rows gram[A] in the order of A, kept so
                                     # that no step gathers them again
    # side (+lam, -lam) of column j may join only at penalties below
    # barred[side, j]: -inf while j is in span(A), the drop penalty after j
    # leaves A from that side (so no join/drop pair repeats at one penalty)
    barred = np.full((2, p), np.inf)
    lam = np.abs(xty).max(initial=0.0)   # lambda_max: beta = 0 down to here
    i = 0
    while True:
        u, w = uw
        gu, a = uw @ g_a[:len(active)]
        e = xty - gu                 # correlations x'r/n = e + lam * a
        with np.errstate(divide="ignore", invalid="ignore"):
            # where c_j reaches +lam / -lam as lam falls; clipped to lam, so a
            # column already past the penalty by rounding joins at once
            roots = np.where([a < 1, a > -1], [e / (1 - a), -e / (1 + a)], -np.inf)
            shrink = np.where(np.array(signs) * w < 0, u / w, -np.inf)
        roots[:, active] = -np.inf
        roots[~(lam < barred)] = -np.inf
        join = np.minimum(roots.max(axis=0), lam)
        lam_join = join.max()
        j = int(np.argmax(join >= (1 - _TIE) * lam_join))
        drop = np.minimum(shrink, lam)
        k = int(np.argmax(drop)) if active else -1
        lam_drop = drop[k] if active else -np.inf
        lam_next = max(lam_join, lam_drop)
        while i < lambdas.shape[0] and lambdas[i] >= lam_next:
            out[i, active] = u - lambdas[i] * w
            i += 1
        if i == lambdas.shape[0]:
            return out
        lam = lam_next
        if lam_drop >= lam_join:     # an active coefficient reaches zero
            col = active.pop(k)
            barred[barred == -np.inf] = np.inf
            barred[int(signs.pop(k) < 0), col] = lam
            chol, linv = _drop_factor(chol, linv, k)
            g_a[k:len(active)] = g_a[k + 1:len(active) + 1]
        else:                        # column j reaches the penalty
            v = linv @ gram[active, j]
            d2 = gram[j, j] - v @ v
            if not d2 > _DEPENDENT * gram[j, j]:
                barred[:, j] = -np.inf
                continue
            d = np.sqrt(d2)
            chol = _border(chol, v, d)
            linv = _border(linv, -(v @ linv) / d, 1.0 / d)
            g_a[len(active)] = gram[j]
            active.append(j)
            signs.append(1.0 if roots[0, j] >= roots[1, j] else -1.0)
        uw = (linv.T @ (linv @ np.column_stack([xty[active], signs]))).T


def lasso_fit(x: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Exact LASSO coefficients at one penalty (the homotopy stopped at lam)."""
    return _homotopy(x, y, [lam])[0]


def lambda_max(x: np.ndarray, y: np.ndarray) -> float:
    """Smallest penalty with an all-zero solution: max_j |x_j . y| / n."""
    return float(np.abs(x.T @ y).max() / x.shape[0])


def lambda_grid(lam_max: float, grid_size: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    lam_max = max(lam_max, 1e-12)
    return np.logspace(np.log10(lam_max), np.log10(lam_max * 1e-3), grid_size)


def lasso_path(x: np.ndarray, y: np.ndarray, lambdas) -> np.ndarray:
    """Exact coefficients for a non-increasing penalty grid, shape (len, p)."""
    return _homotopy(x, y, lambdas)


def lambda_path_cv(x: np.ndarray, y: np.ndarray, groups,
                   grid_size: int = DEFAULT_GRID_SIZE,
                   cv_folds: int = DEFAULT_CV_FOLDS, seed=0):
    """Choose the penalty by grouped stratified CV on mean squared error.

    Returns (chosen_lambda, grid, cv_mse).  Folds are stratified by label and
    grouped by patient; each fold's fit centers its own training labels and
    predicts with that intercept.  Ties go to the smaller lambda.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    for lab in (0, 1):
        if int((y == lab).sum()) < cv_folds:
            raise TooFewRows(f"need >= {cv_folds} rows of class {lab} for CV")
    grid = lambda_grid(lambda_max(x, y - y.mean()), grid_size)
    assign = grouped_stratified_folds(groups, y.astype(int), cv_folds, seed)
    sq_err = np.zeros(grid.shape[0])
    for fold in range(cv_folds):
        test = assign.fold == fold
        train = ~test
        y_train = y[train]
        intercept = y_train.mean()
        betas = lasso_path(x[train], y_train - intercept, grid)
        pred = x[test] @ betas.T + intercept           # (n_test, n_lambda)
        sq_err += ((pred - y[test][:, None]) ** 2).sum(axis=0)
    cv_mse = sq_err / y.shape[0]
    best = 0
    for i in range(1, grid.shape[0]):
        if cv_mse[i] <= cv_mse[best]:
            best = i
    return float(grid[best]), grid, cv_mse


def select_block(matrix: FeatureMatrix, block: str,
                 grid_size: int = DEFAULT_GRID_SIZE,
                 cv_folds: int = DEFAULT_CV_FOLDS, seed=0) -> SelectionModel:
    """Standardize a feature block, pick lambda by CV, fit, record survivors."""
    names = matrix.block_names(block)
    if not names:
        raise TooFewRows(f"matrix has no {block} columns")
    cols = matrix.column_index(names)
    z, means, stds, kept, dropped = standardize(matrix.values[:, cols], names)
    kept_names = tuple(names[i] for i in kept)
    y = matrix.labels.astype(np.float64)
    lam, _, _ = lambda_path_cv(z, y, matrix.groups, grid_size, cv_folds, seed)
    beta = lasso_fit(z, y - y.mean(), lam)
    selected = tuple(n for n, b in zip(kept_names, beta) if b != 0.0)
    return SelectionModel(block=block, names=kept_names, means=means, stds=stds,
                          dropped=dropped, lambda_=lam, coefficients=beta,
                          selected=selected)
