"""In-process traced replay: spans and counts recorded around the public
functions of each dcerad module, by wrapping them from outside.

The wrappers are installed on module attributes for the duration of one
replay and removed afterwards; no source file changes.  Spans stay in memory
and are written as JSON lines when the run ends.  A span records its name,
start and end (seconds from the tracer's creation), parent span, and the
lesion or fold it belongs to.  Per-layer times are self times: a span's
duration minus the durations of its child spans.
"""

import json
import statistics
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

from dcerad import cli, dataio, evaluation, filters, radiomics, selection
from dcerad.volume import voxel_count

KKT_TOL = 1e-2     # a grid point violates KKT when its residual exceeds KKT_TOL * lambda


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []
        self.stack = []
        self.context = ""          # the feature set during a crossval
        self.roi_voxels = 0
        self.paths = []            # (x, y, lambdas, betas) of every lasso_path call
        self.fits = []             # (x, y, lambda, beta) of every lasso_fit call
        self.violations = []       # KKT violations, filled in by metrics()

    def open(self, name, item=None) -> dict:
        parent = self.stack[-1] if self.stack else None
        if item is None:
            item = parent["item"] if parent else None
        span = {"id": len(self.spans), "name": name, "parent": parent["id"] if parent else None,
                "item": item, "start": time.perf_counter() - self.origin, "end": None}
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span):
        while self.stack:
            top = self.stack.pop()
            top["end"] = time.perf_counter() - self.origin
            if top is span:
                return

    def wrap(self, fn, name, item=None, after=None):
        def traced(*args, **kwargs):
            span = self.open(name, item(*args, **kwargs) if item else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after:
                after(result, *args, **kwargs)
            return result
        return traced

    # lesion spans open at each load and close at the next load or at the end
    # of the extraction, so they cover load, dynamic and radiomic extraction
    def _load_lesion(self, fn):
        def traced(record, *args, **kwargs):
            top = self.stack[-1] if self.stack else None
            if top and top["name"] == "cli.lesion":
                self.close(top)
            self.open("cli.lesion", f"{record.patient_id}/{record.lesion_id}")
            span = self.open("dataio.load_lesion")
            try:
                return fn(record, *args, **kwargs)
            finally:
                self.close(span)
        return traced

    def _discretized(self, result, vol, mask, *args, **kwargs):
        self.roi_voxels += voxel_count(mask)

    def _path_done(self, betas, x, y, lambdas):
        self.paths.append((np.asarray(x), np.asarray(y), np.asarray(lambdas, dtype=float),
                           betas))

    def _fit_done(self, beta, x, y, lam, *args, **kwargs):
        if isinstance(beta, np.ndarray):
            self.fits.append((np.asarray(x), np.asarray(y), float(lam), beta))

    def _fold_item(self, *args, fold_seed, **kwargs):
        return f"{self.context}/fold{fold_seed[1]}"

    @contextmanager
    def installed(self):
        """Wrap the public functions for the duration of the block."""
        w = self.wrap
        targets = [
            (cli, "extract_features", w(cli.extract_features, "cli.extract_features")),
            (dataio, "load_lesion", self._load_lesion(dataio.load_lesion)),
            (cli, "extract_dynamic_features",
             w(cli.extract_dynamic_features, "kinetics.extract_dynamic_features")),
            (cli, "extract_radiomic_features",
             w(cli.extract_radiomic_features, "radiomics.extract_radiomic_features")),
            (radiomics, "shape_features", w(radiomics.shape_features, "radiomics.shape_features")),
            (radiomics, "wavelet_bands", w(radiomics.wavelet_bands, "filters.wavelet_bands")),
            (filters, "log_filter", w(filters.log_filter, "filters.log_filter")),
            (radiomics, "discretize", w(radiomics.discretize, "radiomics.discretize",
                                        after=self._discretized)),
        ]
        for family in ("glcm", "glszm", "gldm"):
            for part in ("matrix", "features"):
                fn_name = f"{family}_{part}"
                targets.append((radiomics, fn_name,
                                w(getattr(radiomics, fn_name), f"radiomics.{fn_name}")))
        targets += [
            (evaluation, "cross_validate",
             w(evaluation.cross_validate, "evaluation.cross_validate",
               item=lambda *a, **k: self.context)),
            (evaluation, "fit_and_score_fold",
             w(evaluation.fit_and_score_fold, "evaluation.fit_and_score_fold",
               item=self._fold_item)),
            (evaluation, "select_block", w(evaluation.select_block, "selection.select_block")),
            (selection, "lasso_path", w(selection.lasso_path, "selection.lasso_path",
                                        after=self._path_done)),
            (selection, "lasso_fit", w(selection.lasso_fit, "selection.lasso_fit",
                                       after=self._fit_done)),
            (evaluation, "lda_fit", w(evaluation.lda_fit, "lda.lda_fit")),
        ]
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
        try:
            for module, attr, fn in targets:
                setattr(module, attr, fn)
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    # --- summaries -----------------------------------------------------------------

    def _durations(self):
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        inclusive, self_time = {}, {}
        for s in self.spans:
            d = s["end"] - s["start"]
            inclusive.setdefault(s["name"], []).append(d)
            self_time.setdefault(s["name"], []).append(d - child_time[s["id"]])
        return inclusive, self_time

    def kkt(self) -> tuple[float, list]:
        """(worst residual / lambda, grid points whose residual exceeds KKT_TOL
        * lambda) over every lasso_path and lasso_fit solve of the replay."""
        worst, violations = 0.0, []
        solves = [("path", x, y, lambdas, betas) for x, y, lambdas, betas in self.paths]
        solves += [("fit", x, y, np.array([lam]), beta[None, :])
                   for x, y, lam, beta in self.fits]
        for i, (kind, x, y, lambdas, betas) in enumerate(solves):
            grad = x.T @ (y[:, None] - x @ betas.T) / x.shape[0]      # (p, grid)
            resid = np.where(betas.T != 0.0, np.abs(grad - lambdas * np.sign(betas.T)),
                             np.maximum(np.abs(grad) - lambdas, 0.0)) / lambdas
            worst = max(worst, float(resid.max()))
            for g in np.flatnonzero(resid.max(axis=0) > KKT_TOL):
                j = int(resid[:, g].argmax())
                violations.append({"solve": i, "kind": kind, "grid_index": int(g),
                                   "lambda": float(lambdas[g]), "column": j,
                                   "beta": float(betas[g, j]),
                                   "abs_grad_over_lambda": float(abs(grad[j, g]) / lambdas[g]),
                                   "residual_over_lambda": float(resid[j, g])})
        return worst, violations

    def metrics(self) -> dict:
        inclusive, self_time = self._durations()

        def total(table, name):
            return float(sum(table.get(name, [])))

        extract_s = total(inclusive, "radiomics.extract_radiomic_features")
        path_s = total(self_time, "selection.lasso_path")
        fit_s = total(self_time, "selection.lasso_fit")
        grid_points = sum(len(p[2]) for p in self.paths) + len(self.fits)
        crossval_dynamic = sum(s["end"] - s["start"] for s in self.spans
                               if s["name"] == "evaluation.cross_validate"
                               and s["item"] == "dynamic")
        worst, self.violations = self.kkt()
        out = {
            "dataio.load_s": total(self_time, "dataio.load_lesion"),
            "kinetics.dynamic_s": total(self_time, "kinetics.extract_dynamic_features"),
            "filters.wavelet_s": total(self_time, "filters.wavelet_bands"),
            "filters.log_s": total(self_time, "filters.log_filter"),
            "radiomics.extract_s": extract_s,
            "radiomics.self_s": total(self_time, "radiomics.extract_radiomic_features"),
            "radiomics.shape_s": total(self_time, "radiomics.shape_features"),
            "radiomics.discretize_s": total(self_time, "radiomics.discretize"),
        }
        for family in ("glcm", "glszm", "gldm"):
            for part in ("matrix", "features"):
                out[f"radiomics.{family}_{part}_s"] = total(self_time,
                                                            f"radiomics.{family}_{part}")
        out.update({
            "radiomics.lesion_median_s": statistics.median(
                inclusive["radiomics.extract_radiomic_features"]),
            "radiomics.roi_voxels": self.roi_voxels,
            "radiomics.voxels_per_s": self.roi_voxels / extract_s,
            "evaluation.crossval_dynamic_s": float(crossval_dynamic),
            "evaluation.crossval_s": total(inclusive, "evaluation.cross_validate"),
            "selection.select_block_s": total(self_time, "selection.select_block"),
            "selection.lasso_path_s": path_s,
            "selection.lasso_paths": len(self.paths),
            "selection.grid_points": grid_points,
            "selection.ms_per_grid_point": 1000.0 * (path_s + fit_s) / grid_points,
            "selection.lasso_fit_s": fit_s,
            "selection.kkt_worst_rel": worst,
            "selection.kkt_violations": len(self.violations),
            # a fold's own work: standardizing the survivors, LDA fit and
            # scoring (LDA alone is never fit when LASSO keeps nothing)
            "evaluation.fold_self_s": total(self_time, "evaluation.fit_and_score_fold"),
        })
        return out

    def write_jsonl(self, path):
        """Spans, then one record per KKT violation found by metrics()."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")
            for v in self.violations:
                fh.write(json.dumps({"kkt_violation": v}, sort_keys=True) + "\n")


def allocation_peaks(record, config) -> tuple[float, float]:
    """tracemalloc peaks (MB) of one lesion's radiomic extraction and of its
    shape features, measured outside the timed replays."""
    series, roi = dataio.load_lesion(record)
    catalog = filters.default_catalog(config.log_sigmas_mm)
    peaks = {"extract": 0, "shape": 0}
    shape_features = radiomics.shape_features

    def measured_shape(*args, **kwargs):
        peaks["extract"] = max(peaks["extract"], tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = shape_features(*args, **kwargs)
        current, peak = tracemalloc.get_traced_memory()
        peaks["shape"] = peak - base
        peaks["extract"] = max(peaks["extract"], peak)
        return result

    tracemalloc.start()
    radiomics.shape_features = measured_shape
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        radiomics.extract_radiomic_features(series, roi, catalog, config.bin_count)
        peaks["extract"] = max(peaks["extract"], tracemalloc.get_traced_memory()[1]) - base
    finally:
        radiomics.shape_features = shape_features
        tracemalloc.stop()
    mb = 1024.0 * 1024.0
    return peaks["extract"] / mb, peaks["shape"] / mb
