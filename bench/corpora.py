"""Phantom corpora of the two workloads.

Each lesion is drawn in two parts.  Its content -- the ellipsoid, the
kinetic-curve cell of every voxel, and the noise of the patch around it --
comes from a fixed content seed and the lesion's index, with the program's
default phantom parameters.  Its placement -- where that patch sits in the
grid -- and the background noise of the rest of the grid come from the
workload seed.  The pipeline is translation-invariant: the features it
cross-validates depend only on the patch, so the feature table is the same
for every seed, while the files the program reads are not.  LASSO's run time
varies up to twofold between inputs of one size (see bench/README.md), which
is why the content is fixed.

The program receives only the files (volumes, masks, manifest).  What the
benchmark keeps for its checks -- the generating semi-axes and the true
labels -- stays in memory.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dcerad import dataio, filters, phantom
from dcerad.volume import BENIGN, MALIGNANT, Volume3D

CONTENT_SEED = 20240422
DEFAULT = phantom.PhantomSpec()
SPACING = DEFAULT.spacing

# Paper-style corpus: default lesions (semi-axes 6/5/4 mm, ~1,100 in-mask
# voxels) on the default 64^3 grid, half malignant, patients of 1 or 2 lesions.
STUDY_LESIONS = 48
STUDY_SETS = ("dynamic", "combined")

# Clinically sized lesions: one per patient, in-mask volume stratified on a
# log scale from LARGE_MIN_VOXELS to LARGE_MAX_VOXELS.
LARGE_LESIONS = 14
LARGE_MIN_VOXELS = 10_000
LARGE_MAX_VOXELS = 100_000
LARGE_DIMS = (64, 64, 112)
LARGE_ASPECT = (0.85, 1.15)       # per-axis factor range before renormalising
LARGE_SETS = ("dynamic",)
LARGE_EXTRACT_ROUNDS = 2          # its crossval is short: extraction dominates


@dataclass
class Corpus:
    """A generated corpus plus what the benchmark knows about it."""

    manifest: Path
    keys: list                      # (patient_id, lesion_id) in manifest order
    labels: list                    # manifest label per row
    semi_axes_mm: list              # generating semi-axes per row
    feature_sets: tuple             # crossval feature sets
    extract_rounds: int = 1         # rounds of a run that start with `dcerad extract`

    @property
    def n_lesions(self) -> int:
        return len(self.keys)


def catalog_margin() -> tuple:
    """Voxels around a lesion that the derived images read (the crop margin)."""
    margin = np.zeros(3, dtype=int)
    for image_id in filters.default_catalog():
        margin = np.maximum(margin, filters.filter_radius_voxels(image_id, SPACING))
    return tuple(int(m) for m in margin)


def lesion_patch(index: int, label: str, semi_axes_mm, margin) -> tuple:
    """(six phases, mask) of a patch with the lesion at its centre voxel and
    `margin` voxels of background beyond its bounding box."""
    rng = np.random.default_rng((CONTENT_SEED, index))
    half = [math.ceil(a / s) + m for a, s, m in zip(semi_axes_mm, SPACING, margin)]
    axes = np.meshgrid(*(np.arange(2 * h + 1) - h for h in half), indexing="ij")
    mask = sum((g * s / a) ** 2 for g, s, a in zip(axes, SPACING, semi_axes_mm)) <= 1.0

    own = DEFAULT.benign_mixture if label == BENIGN else DEFAULT.malignant_mixture
    other = DEFAULT.malignant_mixture if label == BENIGN else DEFAULT.benign_mixture
    p_mix = np.array([(1.0 - DEFAULT.heterogeneity) * own[c] + DEFAULT.heterogeneity * other[c]
                      for c in phantom.CURVE_CELLS])
    cells = rng.choice(len(phantom.CURVE_CELLS), size=int(mask.sum()), p=p_mix / p_mix.sum())
    curves = np.stack([phantom.kinetic_curve(i, o, DEFAULT.baseline)
                       for i, o in phantom.CURVE_CELLS])
    phases = []
    for k in range(6):
        phase = np.full(mask.shape, DEFAULT.baseline)
        phase[mask] = curves[cells, k]
        phases.append(phase + rng.normal(0.0, DEFAULT.noise_std, size=mask.shape))
    return phases, mask


def place(patch, mask, dims, rng) -> tuple:
    """Embed a patch at a random offset in a grid of background noise."""
    offset = [int(rng.integers(0, d - p + 1)) for d, p in zip(dims, mask.shape)]
    window = tuple(slice(o, o + p) for o, p in zip(offset, mask.shape))
    phases = []
    for phase in patch:
        full = DEFAULT.baseline + rng.normal(0.0, DEFAULT.noise_std, size=dims)
        full[window] = phase
        phases.append(full)
    full_mask = np.zeros(dims)
    full_mask[window] = mask
    return phases, full_mask


def patients(n: int, first: int = 0) -> list:
    """(patient_id, lesion_id) with patient sizes cycling 1, 2, 1, 2, ..."""
    out, patient = [], first
    while len(out) < n:
        for lesion in range(1, 2 + (patient - first) % 2):
            out.append((f"P{patient:04d}", f"L{lesion}"))
        patient += 1
    return out[:n]


def write_corpus(out_dir: Path, seed: int, labels, keys, semi_axes, dims, margin) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for i, (label, key, axes) in enumerate(zip(labels, keys, semi_axes)):
        patch, mask = lesion_patch(i, label, axes, margin)
        phases, full_mask = place(patch, mask, dims, np.random.default_rng((seed, i)))
        names = [f"case{i:04d}_c{k}.raw" for k in range(6)] + [f"case{i:04d}_mask.raw"]
        for name, data in zip(names, phases + [full_mask]):
            dataio.write_raw(out_dir / name, Volume3D(data, SPACING), "f32")
        rows.append((*key, names[:6], names[6], label))
    manifest = out_dir / "manifest.txt"
    dataio.write_manifest(manifest, rows)
    return manifest


def study_corpus(seed: int, out_dir: Path) -> Corpus:
    n_benign = STUDY_LESIONS - STUDY_LESIONS // 2
    labels = [BENIGN] * n_benign + [MALIGNANT] * (STUDY_LESIONS - n_benign)
    keys = patients(n_benign) + patients(STUDY_LESIONS - n_benign, first=n_benign)
    axes = [DEFAULT.semi_axes_mm] * STUDY_LESIONS
    manifest = write_corpus(out_dir, seed, labels, keys, axes, DEFAULT.dims, catalog_margin())
    return Corpus(manifest, keys, labels, axes, STUDY_SETS)


def large_semi_axes() -> list:
    """Semi-axes whose ellipsoid volume hits stratified log-uniform voxel
    targets, largest first so the worker pool finishes evenly."""
    rng = np.random.default_rng((CONTENT_SEED, LARGE_MIN_VOXELS))
    voxel_mm3 = SPACING[0] * SPACING[1] * SPACING[2]
    strata = (np.arange(LARGE_LESIONS) + rng.random(LARGE_LESIONS)) / LARGE_LESIONS
    targets = LARGE_MIN_VOXELS * (LARGE_MAX_VOXELS / LARGE_MIN_VOXELS) ** strata
    axes = []
    for voxels in sorted(targets, reverse=True):
        radius = (3.0 * voxels * voxel_mm3 / (4.0 * np.pi)) ** (1.0 / 3.0)
        factors = rng.uniform(*LARGE_ASPECT, size=3)
        factors /= np.prod(factors) ** (1.0 / 3.0)
        axes.append(tuple(float(radius * f) for f in factors))
    return axes


def large_corpus(seed: int, out_dir: Path) -> Corpus:
    axes = large_semi_axes()
    rng = np.random.default_rng((CONTENT_SEED, len(axes)))
    labels = [[BENIGN, MALIGNANT][i % 2] for i in rng.permutation(LARGE_LESIONS)]
    keys = [(f"P{i:04d}", "L1") for i in range(LARGE_LESIONS)]
    # only the dynamic block is cross-validated; it reads in-mask voxels only
    manifest = write_corpus(out_dir, seed, labels, keys, axes, LARGE_DIMS, (0, 0, 0))
    return Corpus(manifest, keys, labels, axes, LARGE_SETS, LARGE_EXTRACT_ROUNDS)


BUILDERS = {"study": study_corpus, "large_lesions": large_corpus}
