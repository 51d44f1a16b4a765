import numpy as np
import pytest

from dcerad.errors import TooFewRows
from dcerad.kinetics import DYNAMIC_FEATURE_NAMES
from dcerad.selection import (FeatureMatrix, SelectionModel, lambda_grid, lambda_max,
                              lambda_path_cv, lasso_fit, lasso_objective, lasso_path,
                              select_block, standardize)


def orthonormal_design(rng, n, p):
    """Columns with x_j . x_k = n * delta_jk, so the closed form applies."""
    q, _ = np.linalg.qr(rng.normal(size=(n, p)))
    return q[:, :p] * np.sqrt(n)


def reference_cd(x, y, lam, tol=1e-7, max_sweeps=100_000):
    """Plain cyclic coordinate descent from zero with the soft-threshold update,
    stopped once a full sweep moves no coefficient by tol: an independent,
    slow reference for the homotopy."""
    n, p = x.shape
    gram = x.T @ x / n
    xty = x.T @ y / n
    beta = np.zeros(p)
    q = np.zeros(p)                          # gram @ beta
    for _ in range(max_sweeps):
        max_delta = 0.0
        for j in range(p):
            if gram[j, j] <= 0:
                continue
            c_j = xty[j] - q[j] + gram[j, j] * beta[j]
            b_new = np.sign(c_j) * max(abs(c_j) - lam, 0.0) / gram[j, j]
            delta = b_new - beta[j]
            if delta != 0.0:
                q += gram[j] * delta
                beta[j] = b_new
                max_delta = max(max_delta, abs(delta))
        if max_delta < tol:
            break
    return beta


def kkt_residual(x, y, lambdas, betas) -> float:
    """Largest KKT residual over columns and grid points, relative to lambda,
    with sign consistency: x_j'r/n = lambda * sign(beta_j) where beta_j != 0,
    |x_j'r/n| <= lambda where beta_j == 0."""
    lambdas = np.asarray(lambdas, dtype=np.float64)
    betas = np.atleast_2d(betas)
    grad = x.T @ (y[:, None] - x @ betas.T) / x.shape[0]
    resid = np.where(betas.T != 0.0, np.abs(grad - lambdas * np.sign(betas.T)),
                     np.maximum(np.abs(grad) - lambdas, 0.0))
    return float((resid / lambdas).max())


def degenerate_design(seed=0, n=20, p=60):
    """Standardized p > n design with a duplicate (column 31 is column 4 in
    other units, as TotalEnergy is Energy; equal up to rounding once
    standardized), a column that is the sum of two others (column 40 =
    columns 1 + 2) and an all-zero column (column 50)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    x[:, 31] = 3.0 * x[:, 4] + 1.0
    x[:, 40] = x[:, 1] + x[:, 2]
    x[:, 50] = 0.0
    std = x.std(axis=0)
    x = (x - x.mean(axis=0)) / np.where(std > 0, std, 1.0)
    y = 2.0 * x[:, 4] - 1.5 * x[:, 1] + rng.normal(size=n)
    return x, y - y.mean()


def make_matrix(rng, n=40, p_extra=6, signal_col="washout_ratio", effect=3.0):
    names = DYNAMIC_FEATURE_NAMES + tuple(f"rad_{i}" for i in range(p_extra))
    labels = rng.integers(0, 2, n)
    values = rng.normal(size=(n, len(names)))
    values[:, names.index(signal_col)] += labels * effect
    groups = tuple(f"P{i}" for i in range(n))
    return FeatureMatrix(names, values, labels, groups,
                         tuple(f"L{i}" for i in range(n)))


# --- standardize -------------------------------------------------------------------


def test_standardize_two_point_column():
    z, means, stds, kept, dropped = standardize(np.array([[1.0], [3.0]]))
    assert z[:, 0].tolist() == [-1.0, 1.0]
    assert means[0] == 2.0 and stds[0] == 1.0
    assert dropped == ()


def test_standardize_drops_constant_column():
    values = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    z, means, stds, kept, dropped = standardize(values, names=("a", "b"))
    assert kept.tolist() == [0]
    assert dropped == ("b",)
    assert z.shape == (3, 1)


def test_standardize_idempotent():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(50, 3))
    z1, *_ = standardize(x)
    z2, means, stds, *_ = standardize(z1)
    assert np.allclose(z1, z2, atol=1e-12)
    assert np.allclose(means, 0.0, atol=1e-12)
    assert np.allclose(stds, 1.0, atol=1e-12)


def test_standardize_too_few_rows():
    with pytest.raises(TooFewRows):
        standardize(np.array([[1.0, 2.0]]))


# --- lasso ------------------------------------------------------------------------


def test_all_zero_at_lambda_max():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(30, 8))
    x = (x - x.mean(0)) / x.std(0)
    y = rng.normal(size=30)
    y = y - y.mean()
    lam = lambda_max(x, y)
    assert np.all(lasso_fit(x, y, lam) == 0.0)
    assert np.all(lasso_fit(x, y, lam * 1.5) == 0.0)


@pytest.mark.parametrize("seed", range(6))
def test_orthonormal_closed_form(seed):
    rng = np.random.default_rng(seed)
    n, p = 32, 6
    x = orthonormal_design(rng, n, p)
    y = rng.normal(size=n)
    target = x.T @ y / n
    beta_ols = lasso_fit(x, y, 0.0)
    assert np.allclose(beta_ols, target, atol=1e-6)
    lam = 0.1
    beta = lasso_fit(x, y, lam)
    expected = np.sign(target) * np.maximum(np.abs(target) - lam, 0.0)
    assert np.allclose(beta, expected, atol=1e-6)


def test_fit_is_optimal_against_reference_cd():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(40, 12))
    y = rng.normal(size=40)
    beta = lasso_fit(x, y, 0.05)
    assert kkt_residual(x, y, [0.05], beta) <= 1e-9
    reference = reference_cd(x, y, 0.05)
    assert lasso_objective(x, y, beta, 0.05) <= lasso_objective(x, y, reference, 0.05) + 1e-12


def test_monotone_sparsity_orthonormal():
    rng = np.random.default_rng(3)
    x = orthonormal_design(rng, 64, 10)
    y = rng.normal(size=64)
    grid = lambda_grid(lambda_max(x, y), 60)
    betas = lasso_path(x, y, grid)
    nnz = (betas != 0).sum(axis=1)
    assert np.all(np.diff(nnz) >= 0)       # grid descends, support grows


def test_monotone_sparsity_fixed_general_design():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(50, 20))
    x = (x - x.mean(0)) / x.std(0)
    y = x[:, 0] * 2 + x[:, 3] - x[:, 7] * 0.5 + rng.normal(size=50)
    y = y - y.mean()
    grid = lambda_grid(lambda_max(x, y), 80)
    betas = lasso_path(x, y, grid)
    nnz = (betas != 0).sum(axis=1)
    assert np.all(np.diff(nnz) >= 0)


def test_path_optimal_on_degenerate_wide_design():
    x, y = degenerate_design()
    grid = lambda_grid(lambda_max(x, y), 25)
    betas = lasso_path(x, y, grid)
    assert kkt_residual(x, y, grid, betas) <= 1e-9
    for lam, beta in zip(grid, betas):
        reference = reference_cd(x, y, lam)
        assert lasso_objective(x, y, beta, lam) <= lasso_objective(x, y, reference, lam) + 1e-12


def test_path_tie_and_rank_rules():
    x, y = degenerate_design()
    betas = lasso_path(x, y, lambda_grid(lambda_max(x, y), 25))
    assert np.any(betas[:, 4] != 0.0)          # the lower index of the duplicate
    assert np.all(betas[:, 31] == 0.0)         # ... carries all of the weight
    assert np.all(betas[:, 50] == 0.0)         # the zero column never joins
    active = betas != 0.0
    assert not np.any(active[:, [1, 2, 40]].all(axis=1))   # column 40 = 1 + 2
    assert active.sum(axis=1).max() <= x.shape[0]


def test_path_rejects_increasing_grid():
    x, y = degenerate_design()
    with pytest.raises(ValueError):
        lasso_path(x, y, [0.1, 0.2])


# --- lambda path CV -----------------------------------------------------------------


def test_lambda_path_cv_deterministic():
    rng = np.random.default_rng(5)
    n = 40
    x = rng.normal(size=(n, 5))
    x = (x - x.mean(0)) / x.std(0)
    y = rng.integers(0, 2, n).astype(float)
    groups = [f"P{i}" for i in range(n)]
    lam1, grid1, mse1 = lambda_path_cv(x, y, groups, grid_size=40, seed=9)
    lam2, grid2, mse2 = lambda_path_cv(x, y, groups, grid_size=40, seed=9)
    assert lam1 == lam2
    np.testing.assert_array_equal(mse1, mse2)


def test_lambda_path_cv_keeps_predictive_feature():
    rng = np.random.default_rng(6)
    n = 60
    labels = rng.integers(0, 2, n)
    x = rng.normal(size=(n, 1))
    x[:, 0] = labels * 4.0 + rng.normal(scale=0.2, size=n)
    x = (x - x.mean(0)) / x.std(0)
    y = labels.astype(float)
    groups = [f"P{i}" for i in range(n)]
    lam, grid, _ = lambda_path_cv(x, y, groups, grid_size=50, seed=0)
    assert lam < lambda_max(x, y - y.mean())


def test_lambda_path_cv_pure_noise_selects_nearly_nothing():
    selected_counts = []
    for seed in range(8):
        rng = np.random.default_rng(1000 + seed)
        n = 40
        x = rng.normal(size=(n, 10))
        x = (x - x.mean(0)) / x.std(0)
        y = rng.integers(0, 2, n).astype(float)
        groups = [f"P{i}" for i in range(n)]
        lam, *_ = lambda_path_cv(x, y, groups, grid_size=50, seed=seed)
        beta = lasso_fit(x, y - y.mean(), lam)
        selected_counts.append(int((beta != 0).sum()))
    assert np.mean(selected_counts) <= 1.5


def test_lambda_path_cv_too_few_rows():
    x = np.zeros((6, 2))
    y = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.0])
    with pytest.raises(TooFewRows):
        lambda_path_cv(x, y, [f"P{i}" for i in range(6)], cv_folds=5)


# --- select_block -------------------------------------------------------------------


def test_select_block_finds_driver():
    rng = np.random.default_rng(42)
    m = make_matrix(rng, n=60, effect=4.0)
    model = select_block(m, "dynamic", grid_size=60, seed=0)
    assert "washout_ratio" in model.selected
    assert model.block == "dynamic"
    assert set(model.selected) == {n for n, c in zip(model.names, model.coefficients)
                                   if c != 0.0}


def test_select_block_duplicate_column_stable():
    rng = np.random.default_rng(43)
    m = make_matrix(rng, n=60, effect=4.0)
    base = select_block(m, "dynamic", grid_size=60, seed=0)

    dup_names = m.names + ("washout_ratio_copy",)
    dup_values = np.column_stack(
        [m.values, m.values[:, m.names.index("washout_ratio")]])
    dup = FeatureMatrix(dup_names, dup_values, m.labels, m.groups, m.lesion_ids)
    again = select_block(dup, "dynamic", grid_size=60, seed=0)

    assert abs(len(again.selected) - len(base.selected)) <= 1
    assert again.lambda_ == pytest.approx(base.lambda_, rel=1e-9)


def test_selection_model_roundtrip():
    model = SelectionModel(block="dynamic", names=("a", "b"),
                           means=np.array([0.5, 1.0]), stds=np.array([1.0, 2.0]),
                           dropped=("c",), lambda_=0.12,
                           coefficients=np.array([0.0, -0.3]), selected=("b",))
    again = SelectionModel.from_dict(model.to_dict())
    assert again.block == model.block
    assert again.names == model.names
    assert again.selected == model.selected
    np.testing.assert_array_equal(again.coefficients, model.coefficients)


def test_block_names_partition():
    rng = np.random.default_rng(2)
    m = make_matrix(rng)
    dynamic = m.block_names("dynamic")
    radiomic = m.block_names("radiomic")
    assert set(dynamic) == set(DYNAMIC_FEATURE_NAMES)
    assert set(dynamic) | set(radiomic) == set(m.names)
    assert not set(dynamic) & set(radiomic)
