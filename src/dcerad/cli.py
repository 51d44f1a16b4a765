"""Command-line pipeline: phantom generation, feature extraction,
cross-validated evaluation, and the end-to-end run.

Exit codes: 0 success, 1 runtime failure, 2 usage error.  Every command is
deterministic given its flags and seed; extraction parallelizes over lesions
with results assembled in manifest order, so worker count never changes the
output bytes.
"""

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import dataio, evaluation, phantom
from .config import RunConfig, load_config
from .errors import DceradError
from .filters import default_catalog
from .kinetics import DYNAMIC_FEATURE_NAMES, extract_dynamic_features
from .radiomics import extract_radiomic_features, radiomic_feature_names
from .selection import FeatureMatrix


def _effective_config(args) -> RunConfig:
    config = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    overrides = {}
    for key in ("seed", "cv_folds", "feature_set", "bin_count"):
        if getattr(args, key, None) is not None:
            overrides[key] = getattr(args, key)
    return config.replace(**overrides)


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _extract_one(task):
    """Worker: load one lesion and produce its full feature row."""
    record, config_dict = task
    config = RunConfig(**{**config_dict,
                          "log_sigmas_mm": tuple(config_dict["log_sigmas_mm"])})
    try:
        series, roi = dataio.load_lesion(record)
        dynamic = extract_dynamic_features(series, roi, config.ftv_threshold_pct)
        catalog = default_catalog(config.log_sigmas_mm)
        radiomic = extract_radiomic_features(series, roi, catalog, config.bin_count)
        row = np.concatenate([dynamic.as_array(), radiomic.values])
        return None, row
    except (DceradError, OSError) as exc:  # propagated with the lesion named
        return f"lesion {record.patient_id}/{record.lesion_id}: {exc}", None


def extract_features(manifest_path, config: RunConfig, workers: int = 1,
                     progress=None) -> FeatureMatrix:
    """Extract the 11 + 806 canonical features for every manifest lesion."""
    records = dataio.load_manifest(manifest_path)
    names = DYNAMIC_FEATURE_NAMES + radiomic_feature_names(
        default_catalog(config.log_sigmas_mm))
    tasks = [(r, config.to_dict()) for r in records]
    rows = [None] * len(records)
    if workers > 1 and len(records) > 1:
        # the workers fork from here: load the connected-components code that
        # every lesion needs once, rather than once in each worker
        import scipy.sparse.csgraph  # noqa: F401
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = pool.map(_extract_one, tasks, chunksize=1)
            for i, (err, row) in enumerate(results):
                if err:
                    raise DceradError(err)
                rows[i] = row
                if progress:
                    progress(i + 1, len(records), records[i])
    else:
        for i, task in enumerate(tasks):
            err, row = _extract_one(task)
            if err:
                raise DceradError(err)
            rows[i] = row
            if progress:
                progress(i + 1, len(records), records[i])
    return FeatureMatrix(
        names=names,
        values=np.vstack(rows) if rows else np.zeros((0, len(names))),
        labels=np.array([1 if r.label == "malignant" else 0 for r in records], dtype=int),
        groups=tuple(r.patient_id for r in records),
        lesion_ids=tuple(r.lesion_id for r in records),
    )


def run_crossval(features: FeatureMatrix, config: RunConfig,
                 feature_sets) -> dict[str, evaluation.EvalReport]:
    """One crossval pass that scores each of feature_sets with the run's settings."""
    return evaluation.cross_validate(
        features,
        feature_sets,
        cv_folds=config.cv_folds,
        seed=config.seed,
        grid_size=config.lasso_grid_size,
        inner_folds=config.lasso_cv_folds,
        lda_ridge=config.lda_ridge,
    )


def _write_report(out_prefix, report, config: RunConfig):
    """Write <out_prefix>.json, the report with the run's configuration set to
    the report's feature set, and <out_prefix>_roc.csv."""
    config = config.replace(feature_set=report.feature_set)
    dataio.write_json_document(f"{out_prefix}.json", report.to_dict(config.to_dict()))
    dataio.write_roc_csv(f"{out_prefix}_roc.csv", report.roc_points)


def _print_metrics(report, file=None):
    pooled = report.pooled
    print(f"feature_set={report.feature_set} "
          f"accuracy={pooled['accuracy']:.4f} recall={pooled['recall']:.4f} "
          f"precision={pooled['precision']:.4f} f1={pooled['f1']:.4f} "
          f"auc={pooled['auc']:.4f}", file=file or sys.stdout)


def _progress(i, n, record):
    print(f"[extract] {i}/{n} {record.patient_id}/{record.lesion_id}", file=sys.stderr)


def cmd_phantom(args) -> int:
    spec = phantom.PhantomSpec(seed=args.seed, noise_std=args.noise_std,
                               heterogeneity=args.heterogeneity)
    manifest = phantom.generate_corpus(spec, args.cases, args.balance, args.out)
    print(f"wrote {args.cases} cases to {manifest}")
    return 0


def cmd_extract(args) -> int:
    config = _effective_config(args)
    features = extract_features(args.manifest, config, workers=args.workers,
                                progress=_progress)
    dataio.write_feature_table(args.out, features)
    print(f"wrote {features.n_rows} x {len(features.names)} feature table to {args.out}")
    return 0


def cmd_crossval(args) -> int:
    config = _effective_config(args)
    features = dataio.read_feature_table(args.features)
    report = run_crossval(features, config, (config.feature_set,))[config.feature_set]
    _write_report(args.out, report, config)
    _print_metrics(report)
    return 0


def cmd_pipeline(args) -> int:
    config = _effective_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    features = extract_features(args.manifest, config, workers=args.workers,
                                progress=_progress)
    features_path = out_dir / "features.csv"
    dataio.write_feature_table(features_path, features)

    summary_lines = ["feature_set,accuracy,recall,precision,f1,auc"]
    print(f"{'feature set':<12} {'accuracy':>9} {'recall':>9} {'precision':>9} "
          f"{'f1':>9} {'auc':>9}")
    for feature_set, report in run_crossval(features, config,
                                            tuple(evaluation.FEATURE_SETS)).items():
        _write_report(out_dir / f"report_{feature_set}", report, config)
        pooled = report.pooled
        print(f"{feature_set:<12} {pooled['accuracy']:>9.4f} {pooled['recall']:>9.4f} "
              f"{pooled['precision']:>9.4f} {pooled['f1']:>9.4f} {pooled['auc']:>9.4f}")
        summary_lines.append(
            f"{feature_set},{pooled['accuracy']!r},{pooled['recall']!r},"
            f"{pooled['precision']!r},{pooled['f1']!r},{pooled['auc']!r}")
    (out_dir / "summary.csv").write_text("\n".join(summary_lines) + "\n")
    return 0


def _balance(value: str) -> float:
    x = float(value)
    if not 0.0 <= x <= 1.0:
        raise argparse.ArgumentTypeError(f"balance must be in [0, 1], got {x}")
    return x


def _positive_int(value: str) -> int:
    x = int(value)
    if x < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {x}")
    return x


def _folds(value: str) -> int:
    x = int(value)
    if x < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 folds, got {x}")
    return x


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcerad",
        description="Kinetic + radiomic DCE-MRI lesion classification pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate a synthetic labeled corpus")
    p.add_argument("--cases", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--balance", type=_balance, default=0.5,
                   help="malignant fraction (benign gets the extra case)")
    p.add_argument("--noise-std", type=float, default=5.0, dest="noise_std")
    p.add_argument("--heterogeneity", type=float, default=0.2)
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("extract", help="extract features for a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--bin-count", type=int, default=None, dest="bin_count")
    p.add_argument("--workers", type=_positive_int, default=_cpu_count())
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("crossval", help="cross-validated evaluation of a feature table")
    p.add_argument("--features", required=True)
    p.add_argument("--folds", type=_folds, default=None, dest="cv_folds")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--feature-set", choices=evaluation.FEATURE_SETS, default=None,
                   dest="feature_set")
    p.add_argument("--out", required=True,
                   help="output prefix: writes <out>.json and <out>_roc.csv")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_crossval)

    p = sub.add_parser("pipeline", help="extract + crossval for all three feature sets")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--folds", type=_folds, default=None, dest="cv_folds")
    p.add_argument("--workers", type=_positive_int, default=_cpu_count())
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DceradError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
