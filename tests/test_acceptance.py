"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line
(run with `pytest -s tests/test_acceptance.py` to see them)."""

import json
import time

import numpy as np
import pytest

from dcerad import dataio, evaluation, kinetics, phantom, selection
from dcerad.cli import main as cli_main
from dcerad.filters import WAVELET_BANDS, log_filter, wavelet_bands
from dcerad.kinetics import (classify_delayed, classify_initial, compute_derm,
                             compute_ierm, select_peak_phase, type_ratios)
from dcerad.lda import lda_fit, lda_predict, lda_score
from dcerad.radiomics import (GLCM_NAMES, GLCM_OFFSETS, GLDM_NAMES, GLSZM_NAMES,
                              glcm_features, glcm_matrix, gldm_features, gldm_matrix,
                              glszm_features, glszm_matrix)
from dcerad.selection import FeatureMatrix, lambda_grid, lambda_max, lasso_fit, lasso_path
from dcerad.volume import voxel_count

from conftest import make_volume, random_series_and_mask
from test_dataio import build_nifti
from test_filters import naive_haar, naive_log
from test_kinetics import reference_kinetics
from test_radiomics import (glcm_features_oracle, glcm_oracle, gldm_features_oracle,
                            gldm_oracle, glszm_features_oracle, glszm_oracle,
                            level_grid, random_levels)
from test_selection import kkt_residual, lasso_objective, orthonormal_design, reference_cd


def report(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[criterion {num:2d}] {tag} {desc}{suffix}", flush=True)
    assert ok, f"criterion {num}: {desc}{suffix}"


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    """200-lesion default-spec corpus: seed 0, noise 5 (5% of baseline 100),
    heterogeneity 0.2."""
    out = tmp_path_factory.mktemp("acceptance_corpus")
    spec = phantom.PhantomSpec(seed=0)
    phantom.generate_corpus(spec, 200, 0.5, out)
    return out


@pytest.fixture(scope="session")
def pipeline_result(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_pipeline")
    start = time.monotonic()
    code = cli_main(["pipeline", "--manifest", str(corpus_dir / "manifest.txt"),
                     "--out", str(out), "--seed", "0", "--workers", "2"])
    elapsed = time.monotonic() - start
    assert code == 0
    return out, elapsed


def test_criterion_01_paper_context():
    report(1, "paper Table 1 (combined acc 0.8889, AUC 0.9476; radiomic 0.9080; "
              "dynamic 0.8253) is context only: the clinical dataset is "
              "unavailable, substitutes are phantom/property based", True)


def test_criterion_02_kinetic_oracle_equivalence():
    start = time.monotonic()
    worst = 0.0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        series, mask = random_series_and_mask(rng, max_dim=16)
        peak = select_peak_phase(series, mask)
        ierm = compute_ierm(series, mask, peak)
        derm = compute_derm(series, mask, peak)
        il = classify_initial(ierm)
        dl = classify_delayed(derm)
        ref_ierm, ref_derm, ref_il, ref_dl, ref_ir, ref_dr = reference_kinetics(
            series, mask, peak)
        assert list(il) == ref_il and list(dl) == ref_dl
        for i in range(voxel_count(mask)):
            if ref_ierm[i] is not None:
                worst = max(worst, abs(ierm.values[i] - ref_ierm[i]))
            if ref_derm[i] is not None:
                worst = max(worst, abs(derm.values[i] - ref_derm[i]))
        ir = type_ratios(il, mask)
        dr = type_ratios(dl, mask)
        worst = max(worst, max(abs(a - b) for a, b in zip(ir, ref_ir)))
        worst = max(worst, max(abs(a - b) for a, b in zip(dr, ref_dr)))
        assert abs(sum(ir) - 100.0) <= 1e-9 and abs(sum(dr) - 100.0) <= 1e-9
    elapsed = time.monotonic() - start
    report(2, "1000-seed kinetic maps/labels/ratios match the naive loop",
           worst < 1e-12 and elapsed < 30.0,
           f"worst |diff| {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_threshold_boundaries():
    from test_kinetics import _rate_map
    initial = {49.999: kinetics.SLOW, 50.0: kinetics.MEDIUM,
               100.0: kinetics.MEDIUM, 100.001: kinetics.FAST}
    delayed = {-10.001: kinetics.WASHOUT, -10.0: kinetics.PLATEAU,
               10.0: kinetics.PLATEAU, 10.001: kinetics.PERSISTENT}
    ok = all(classify_initial(_rate_map("initial", [v]))[0] == lab
             for v, lab in initial.items())
    ok &= all(classify_delayed(_rate_map("delayed", [v]))[0] == lab
              for v, lab in delayed.items())
    report(3, "IERM/DERM boundary values classify with the stated inclusivity", ok)


def test_criterion_04_texture_oracles():
    start = time.monotonic()
    worst = 0.0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        d = random_levels(rng, max_dim=5, ng=4)
        p = glcm_matrix(d)
        assert np.allclose(p, glcm_oracle(level_grid(d), d.ng, GLCM_OFFSETS), atol=1e-15)
        m_szm = glszm_matrix(d)
        assert np.array_equal(m_szm, glszm_oracle(level_grid(d), d.ng))
        m_dm = gldm_matrix(d, 0)
        assert np.array_equal(m_dm, gldm_oracle(level_grid(d), d.ng, 0))
        if seed % 10 == 0:
            n_vox = voxel_count(d.mask)
            if p.sum() > 0:
                ref = glcm_features_oracle(p)
                ours = glcm_features(p)
                worst = max(worst, max(abs(ours[n] - ref[n]) for n in GLCM_NAMES))
            ref = glszm_features_oracle(m_szm, n_vox)
            ours = glszm_features(m_szm, n_vox)
            worst = max(worst, max(abs(ours[n] - ref[n]) for n in GLSZM_NAMES))
            ref = gldm_features_oracle(m_dm)
            ours = gldm_features(m_dm)
            worst = max(worst, max(abs(ours[n] - ref[n]) for n in GLDM_NAMES))
    elapsed = time.monotonic() - start
    report(4, "1000-seed GLCM/GLSZM/GLDM matrices exact; features track "
              "direct-formula oracles", worst < 1e-12,
           f"worst feature |diff| {worst:.2e}, {elapsed:.1f}s")


def test_criterion_05_filter_oracles():
    worst_w = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        vol = make_volume(rng.normal(size=(5, 5, 5)))
        bands = wavelet_bands(vol)
        for band in WAVELET_BANDS:
            worst_w = max(worst_w, float(np.abs(
                bands[band].data - naive_haar(vol.data, band)).max()))
    worst_l = 0.0
    for seed, sigma, spacing in ((0, 1.0, (1.0, 1.0, 1.0)),
                                 (1, 0.7, (1.0, 1.0, 1.0)),
                                 (2, 1.2, (0.9, 1.1, 0.7))):
        rng = np.random.default_rng(seed)
        vol = make_volume(rng.normal(size=(5, 5, 5)), spacing)
        out = log_filter(vol, sigma)
        worst_l = max(worst_l, float(np.abs(
            out.data - naive_log(vol.data, spacing, sigma)).max()))

    const = make_volume(np.full((5, 5, 5), 3.25))
    bands = wavelet_bands(const)
    exact = np.array_equal(bands["LLL"].data, const.data)
    exact &= all(np.array_equal(bands[b].data, np.zeros((5, 5, 5)))
                 for b in WAVELET_BANDS if "H" in b)
    log_zero = float(np.abs(log_filter(const, 1.0).data).max()) < 1e-12

    report(5, "wavelet/LoG match naive convolution loops; constant-input "
              "identities hold",
           worst_w < 1e-10 and worst_l < 1e-10 and exact and log_zero,
           f"wavelet {worst_w:.2e}, LoG {worst_l:.2e}")


def test_criterion_06_lasso_properties():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n, p = 32, 6
        x = orthonormal_design(rng, n, p)
        y = rng.normal(size=n)
        target = x.T @ y / n
        lam = float(rng.uniform(0.01, 0.3))
        beta = lasso_fit(x, y, lam)
        closed = np.sign(target) * np.maximum(np.abs(target) - lam, 0.0)
        worst = max(worst, float(np.abs(beta - closed).max()))
        assert np.all(lasso_fit(x, y, lambda_max(x, y)) == 0.0)
    closed_ok = worst < 1e-6

    rng = np.random.default_rng(99)
    x = rng.normal(size=(40, 12))
    y = rng.normal(size=40)
    beta = lasso_fit(x, y, 0.05)
    optimal_ok = (kkt_residual(x, y, [0.05], beta) <= 1e-9
                  and lasso_objective(x, y, beta, 0.05)
                  <= lasso_objective(x, y, reference_cd(x, y, 0.05), 0.05) + 1e-12)

    x = orthonormal_design(np.random.default_rng(3), 64, 10)
    y = np.random.default_rng(3).normal(size=64)
    grid = lambda_grid(lambda_max(x, y), 80)
    nnz = (lasso_path(x, y, grid) != 0).sum(axis=1)
    monotone_ok = bool(np.all(np.diff(nnz) >= 0))

    report(6, "LASSO closed form (50 seeds), all-zero at lambda_max, exact "
              "optimality (KKT, objective <= reference CD), monotone support "
              "along the grid",
           closed_ok and optimal_ok and monotone_ok,
           f"closed-form worst {worst:.2e}")


def test_criterion_07_lda_closed_form():
    x = np.array([[0.0], [1.0], [4.0], [5.0]])
    y = np.array([0, 0, 1, 1])
    model = lda_fit(x, y, ridge=0.0)
    w_ok = abs(model.weights[0] - 8.0) < 1e-9
    boundary_ok = abs(lda_score(model, np.array([2.5]))) < 1e-9

    rng = np.random.default_rng(123)
    n = 50
    x0 = rng.normal(scale=0.3, size=(n, 2))
    x1 = rng.normal(scale=0.3, size=(n, 2)) + np.array([4.0, 4.0])
    clusters = np.vstack([x0, x1])
    labels = np.array([0] * n + [1] * n)
    model2 = lda_fit(clusters, labels)
    train_ok = bool((lda_predict(model2, clusters) == labels).all())

    report(7, "LDA 1-D closed form (w=8, boundary 2.5) and perfect training "
              "accuracy on separable clusters",
           w_ok and boundary_ok and train_ok)


def test_criterion_08_auc_agreement():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 80))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.normal(size=n), 1)
        auc, points = evaluation.roc_auc(labels, scores)
        worst = max(worst, abs(evaluation.trapezoidal_auc(points) - auc))
    perfect, _ = evaluation.roc_auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9])
    half, _ = evaluation.roc_auc([0, 0, 1, 1], [0.1, 0.9, 0.5, 0.8])
    ties, _ = evaluation.roc_auc([0, 1, 0, 1], [0.4, 0.4, 0.4, 0.4])
    report(8, "trapezoidal ROC area equals the Mann-Whitney pair statistic; "
              "constructed AUC cases hold",
           worst < 1e-12 and perfect == 1.0 and half == 0.5 and ties == 0.5,
           f"worst |diff| {worst:.2e}")


def test_criterion_09_end_to_end_phantom(pipeline_result):
    out, elapsed = pipeline_result
    reports = {fs: json.loads((out / f"report_{fs}.json").read_text())
               for fs in ("dynamic", "radiomic", "combined")}
    auc = {fs: r["pooled"]["auc"] for fs, r in reports.items()}
    ok = (auc["combined"] >= 0.95 and auc["dynamic"] >= 0.90
          and auc["combined"] >= auc["dynamic"] and elapsed < 600.0)
    report(9, "200-lesion phantom: combined AUC >= 0.95, dynamic >= 0.90, "
              "combined >= dynamic, pipeline under 10 minutes",
           ok, f"combined {auc['combined']:.4f}, dynamic {auc['dynamic']:.4f}, "
               f"radiomic {auc['radiomic']:.4f}, {elapsed:.0f}s")


def test_criterion_10_leakage_and_determinism(pipeline_result, tmp_path):
    out, _ = pipeline_result
    features = dataio.read_feature_table(out / "features.csv")

    aucs = []
    for seed in range(10):
        perm = np.random.default_rng(seed).permutation(features.n_rows)
        shuffled = FeatureMatrix(features.names, features.values,
                                 features.labels[perm], features.groups,
                                 features.lesion_ids)
        rep = evaluation.cross_validate(shuffled, ("dynamic",), cv_folds=5, seed=seed)
        aucs.append(rep["dynamic"].pooled["auc"])
    permutation_ok = all(0.4 <= a <= 0.6 for a in aucs)

    # one permutation through the full combined pipeline as well
    perm = np.random.default_rng(0).permutation(features.n_rows)
    shuffled = FeatureMatrix(features.names, features.values, features.labels[perm],
                             features.groups, features.lesion_ids)
    combined = evaluation.cross_validate(shuffled, ("combined",), cv_folds=5,
                                         seed=0)["combined"]
    combined_ok = 0.4 <= combined.pooled["auc"] <= 0.6

    # bit-reproducibility of each command given identical flags and seed
    spec = phantom.PhantomSpec(seed=5)
    phantom.generate_corpus(spec, 4, 0.5, tmp_path / "a")
    phantom.generate_corpus(spec, 4, 0.5, tmp_path / "b")
    phantom_ok = all(
        (tmp_path / "a" / p.name).read_bytes() == (tmp_path / "b" / p.name).read_bytes()
        for p in sorted((tmp_path / "a").iterdir()))

    f1, f2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
    assert cli_main(["extract", "--manifest", str(tmp_path / "a" / "manifest.txt"),
                     "--out", str(f1), "--workers", "1"]) == 0
    assert cli_main(["extract", "--manifest", str(tmp_path / "a" / "manifest.txt"),
                     "--out", str(f2), "--workers", "2"]) == 0
    extract_ok = f1.read_bytes() == f2.read_bytes()

    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    for r in (r1, r2):
        assert cli_main(["crossval", "--features", str(out / "features.csv"),
                         "--seed", "0", "--feature-set", "dynamic",
                         "--out", str(r)]) == 0
    crossval_ok = ((tmp_path / "r1.json").read_bytes()
                   == (tmp_path / "r2.json").read_bytes())

    report(10, "permuted labels stay at chance (10 seeds, plus combined); "
               "phantom/extract/crossval are bit-reproducible",
           permutation_ok and combined_ok and phantom_ok and extract_ok and crossval_ok,
           f"permutation AUC range [{min(aucs):.3f}, {max(aucs):.3f}], "
           f"combined permutation {combined.pooled['auc']:.3f}")


def test_criterion_11_io_golden_and_roundtrips(tmp_path):
    # golden files: three datatypes, both endiannesses, gzip and plain
    cases = [
        ((2, 2, 2), 16, np.arange(1.0, 9.0), False, False),     # f32 LE plain
        ((2, 1, 1), 4, [3, -7], True, True),                    # i16 BE gzip
        ((3, 2, 1), 64, [0.1, -2.5, 1e-9, 3.7e5, 0.0, 42.0], False, True),
        ((2, 2, 1), 16, [1.5, 2.5, -3.5, 4.0], True, False),    # f32 BE plain
        ((2, 1, 1), 4, [5, 6], False, False),                   # i16 LE plain
        ((2, 1, 1), 64, [1.25, -8.5], True, False),             # f64 BE plain
    ]
    golden_ok = True
    for i, (dims, dtype, values, big, gz) in enumerate(cases):
        path = tmp_path / f"g{i}.nii{'.gz' if gz else ''}"
        kwargs = dict(big_endian=big, gzipped=gz)
        if dtype == 4:
            kwargs.update(scl_slope=2.0, scl_inter=10.0)
        path.write_bytes(build_nifti(dims, (1.0, 1.0, 1.0), dtype, values, **kwargs))
        vol = dataio.load_nifti(path)
        expected = np.asarray(values, dtype=np.float64)
        if dtype == 4:
            expected = expected * 2.0 + 10.0
        golden_ok &= vol.flat().tolist() == expected.tolist()

    rng = np.random.default_rng(0)
    vol64 = make_volume(rng.normal(size=(4, 3, 2)), (0.93, 0.93, 0.5))
    dataio.write_raw(tmp_path / "v64.raw", vol64, "f64")
    raw64_ok = np.array_equal(dataio.load_raw(tmp_path / "v64.raw").data, vol64.data)

    vol32 = make_volume(rng.normal(size=(3, 3, 3)).astype(np.float32).astype(np.float64))
    dataio.write_raw(tmp_path / "v32.raw", vol32, "f32")
    raw32_ok = np.array_equal(dataio.load_raw(tmp_path / "v32.raw").data, vol32.data)

    names = tuple(f"f_{i}" for i in range(4))
    matrix = FeatureMatrix(names, rng.normal(size=(5, 4)) * 1e7,
                           rng.integers(0, 2, 5), tuple(f"P{i}" for i in range(5)),
                           tuple(f"L{i}" for i in range(5)))
    dataio.write_feature_table(tmp_path / "t.csv", matrix)
    table = dataio.read_feature_table(tmp_path / "t.csv")
    table_ok = (np.array_equal(table.values, matrix.values)
                and table.names == matrix.names)

    model = selection.SelectionModel(
        block="radiomic", names=("a", "b"), means=np.array([0.1, 0.2]),
        stds=np.array([1.0, 2.0]), dropped=(), lambda_=0.05,
        coefficients=np.array([0.0, 1.5]), selected=("b",))
    dataio.write_json_document(tmp_path / "m.json", model.to_dict())
    model_ok = (selection.SelectionModel.from_dict(
        dataio.read_json_document(tmp_path / "m.json")).to_dict() == model.to_dict())

    report(11, "golden NIfTI files load exactly (3 dtypes, both endiannesses, "
               "gzip and plain); writer/reader pairs roundtrip bit-exactly",
           golden_ok and raw64_ok and raw32_ok and table_ok and model_ok)
