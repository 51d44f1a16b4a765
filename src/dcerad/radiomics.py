"""Radiomic feature bank: shape, first-order, GLCM, GLSZM and GLDM features
on the original image and its filtered derivations.

The full catalog is 14 shape features (original mask only) plus, per derived
image, 18 first-order + 24 GLCM + 16 GLSZM + 14 GLDM features; with the
default 11-image catalog that is 806 features per lesion.

Texture conventions:

* gray levels come from fixed-bin-count discretization over in-mask values,
  level = min(ng, 1 + floor(ng*(v - vmin)/(vmax - vmin))), all 1 on a flat ROI;
* all texture matrices read one graph per lesion: its 26-neighboring in-mask
  voxel pairs, each unordered pair once (13 offsets, Mask3D.neighbour_pairs),
  sorted by their first voxel a.  The shape features build it on the crop
  mask; the mask cut to its bounding box has the same in-mask voxel order and
  shares it (Mask3D.cut);
* each derived image gathers its levels along the pairs once
  (DiscretizedRoi.pair_levels) and keeps the equal-level pairs
  (DiscretizedRoi.equal_pairs), which GLSZM and GLDM share;
* GLCM: level pairs counted over those pairs, symmetrized, normalized to
  sum 1;
* GLSZM zones are the connected components of the equal-level pairs, shape
  components those of all pairs (26-connectivity); pairs sorted by a are the
  rows of the graph's CSR matrix as they stand, so no sort is needed;
* GLDM dependence of a voxel = number of its pairs within alpha gray levels
  (alpha = 0: the equal-level pairs);
  emphasis weights use the center-inclusive count (dependence+1) so a matrix
  with all mass at dependence 0 has small-dependence emphasis 1.

Texture reads in-mask voxels only, so each derived image is filtered over
the mask's bounding box widened by that image's own dependency radius
(filter_radius_voxels: 0 for the original, 1 for the wavelet bands, which are
computed once, and per sigma for LoG), clamped to the crop, then cut to the
box.  Mirror extension still happens only at real volume faces, so every
in-mask value comes from the same float operations as a full-volume filter.
The crop itself (_crop_for_catalog) stays: it fixes the coordinate frame of
the shape features, whose diameter and axis lengths move by an ulp in
another frame.

Maximum3DDiameter is exact with no hull: a voxel halfway between two in-mask
voxels along one of the 13 offsets is no vertex of the convex hull, so the
farthest pair lies among the voxels that are no such midpoint, and only
those enter the all-pairs distances.

Degenerate inputs never produce NaN; the limiting values are pinned in
GLCM_DEGENERATE below.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadLevelCount, EmptyMask
from .filters import default_catalog, derive, filter_radius_voxels, wavelet_bands
from .kinetics import select_peak_phase
from .volume import (NEIGHBOUR_OFFSETS, DceSeries, LesionRoi, Mask3D, Volume3D, bounding_box,
                     masked_values, voxel_count, voxel_volume_mm3)

DEFAULT_BIN_COUNT = 32

GLCM_OFFSETS = NEIGHBOUR_OFFSETS

FIRST_ORDER_NAMES = (
    "Energy", "TotalEnergy", "Entropy", "Minimum", "Percentile10", "Percentile90",
    "Maximum", "Mean", "Median", "InterquartileRange", "Range",
    "MeanAbsoluteDeviation", "RobustMeanAbsoluteDeviation", "RootMeanSquared",
    "Skewness", "Kurtosis", "Variance", "Uniformity",
)

SHAPE_NAMES = (
    "VoxelVolume", "SurfaceArea", "SurfaceVolumeRatio", "Sphericity",
    "Compactness1", "Compactness2", "SphericalDisproportion", "Maximum3DDiameter",
    "MajorAxisLength", "MinorAxisLength", "LeastAxisLength", "Elongation",
    "Flatness", "ConnectedComponents",
)

GLCM_NAMES = (
    "Autocorrelation", "JointAverage", "ClusterProminence", "ClusterShade",
    "ClusterTendency", "Contrast", "Correlation", "DifferenceAverage",
    "DifferenceEntropy", "DifferenceVariance", "JointEnergy", "JointEntropy",
    "Imc1", "Imc2", "Idm", "Idmn", "Id", "Idn", "InverseVariance",
    "MaximumProbability", "SumAverage", "SumEntropy", "SumSquares", "MCC",
)

# Limiting values for a GLCM with no valid pairs (single-voxel ROI), equal to
# the single-level ROI limit P(1,1)=1.
GLCM_DEGENERATE = {
    "Autocorrelation": 1.0, "JointAverage": 1.0, "ClusterProminence": 0.0,
    "ClusterShade": 0.0, "ClusterTendency": 0.0, "Contrast": 0.0,
    "Correlation": 1.0, "DifferenceAverage": 0.0, "DifferenceEntropy": 0.0,
    "DifferenceVariance": 0.0, "JointEnergy": 1.0, "JointEntropy": 0.0,
    "Imc1": 0.0, "Imc2": 0.0, "Idm": 1.0, "Idmn": 1.0, "Id": 1.0, "Idn": 1.0,
    "InverseVariance": 0.0, "MaximumProbability": 1.0, "SumAverage": 2.0,
    "SumEntropy": 0.0, "SumSquares": 0.0, "MCC": 1.0,
}

GLSZM_NAMES = (
    "SmallAreaEmphasis", "LargeAreaEmphasis", "GrayLevelNonUniformity",
    "GrayLevelNonUniformityNormalized", "SizeZoneNonUniformity",
    "SizeZoneNonUniformityNormalized", "ZonePercentage", "GrayLevelVariance",
    "ZoneVariance", "ZoneEntropy", "LowGrayLevelZoneEmphasis",
    "HighGrayLevelZoneEmphasis", "SmallAreaLowGrayLevelEmphasis",
    "SmallAreaHighGrayLevelEmphasis", "LargeAreaLowGrayLevelEmphasis",
    "LargeAreaHighGrayLevelEmphasis",
)

GLDM_NAMES = (
    "SmallDependenceEmphasis", "LargeDependenceEmphasis", "GrayLevelNonUniformity",
    "DependenceNonUniformity", "DependenceNonUniformityNormalized",
    "GrayLevelVariance", "DependenceVariance", "DependenceEntropy",
    "LowGrayLevelEmphasis", "HighGrayLevelEmphasis",
    "SmallDependenceLowGrayLevelEmphasis", "SmallDependenceHighGrayLevelEmphasis",
    "LargeDependenceLowGrayLevelEmphasis", "LargeDependenceHighGrayLevelEmphasis",
)


@dataclass(frozen=True)
class DiscretizedRoi:
    """In-mask gray levels (1..ng) and the intensities they came from."""

    levels: np.ndarray       # int32, per in-mask voxel, x-fastest order
    ng: int
    mask: Mask3D
    values: np.ndarray       # float64, the in-mask intensities, same order as levels

    @cached_property
    def pair_levels(self) -> tuple[np.ndarray, np.ndarray]:
        """The levels at both ends of each of the mask's neighbour pairs,
        gathered once and shared by GLCM, GLSZM and GLDM."""
        a, b = self.mask.neighbour_pairs
        return self.levels.take(a), self.levels.take(b)

    @cached_property
    def equal_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The neighbour pairs whose two voxels share a level, still sorted by a."""
        la, lb = self.pair_levels
        return _pairs_where(self.mask, la == lb)


@dataclass(frozen=True)
class RadiomicFeatureSet:
    names: tuple[str, ...]
    values: np.ndarray

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.names, (float(v) for v in self.values)))


def _pairs_where(mask: Mask3D, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mask's neighbour pairs where keep is true, still sorted by a."""
    at = np.flatnonzero(keep)
    return tuple(ends.take(at) for ends in mask.neighbour_pairs)


def _entropy_bits(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum()) if p.size else 0.0


def _discretize_values(values: np.ndarray, ng: int) -> np.ndarray:
    vmin = values.min()
    vmax = values.max()
    if vmax == vmin:
        return np.ones(values.shape, dtype=np.int32)
    levels = 1 + np.floor(ng * (values - vmin) / (vmax - vmin)).astype(np.int32)
    return np.minimum(levels, ng)


def discretize(vol: Volume3D, mask: Mask3D, ng: int = DEFAULT_BIN_COUNT) -> DiscretizedRoi:
    """Fixed-bin-count gray levels over the in-mask intensity range."""
    if ng < 2:
        raise BadLevelCount(f"need at least 2 gray levels, got {ng}")
    if voxel_count(mask) == 0:
        raise EmptyMask("discretize needs a nonempty mask")
    values = masked_values(vol, mask)
    return DiscretizedRoi(levels=_discretize_values(values, ng), ng=int(ng), mask=mask,
                          values=values)


# --- first order ----------------------------------------------------------------


def first_order_features(vol: Volume3D, mask: Mask3D,
                         ng: int = DEFAULT_BIN_COUNT) -> dict[str, float]:
    if voxel_count(mask) == 0:
        raise EmptyMask("first-order features need a nonempty mask")
    values = masked_values(vol, mask)
    return _first_order_from_values(values, _discretize_values(values, ng),
                                    voxel_volume_mm3(vol), ng)


def _first_order_from_values(v: np.ndarray, levels: np.ndarray, voxel_mm3: float,
                             ng: int) -> dict[str, float]:
    n = v.size
    mean = float(v.mean())
    centered = v - mean
    m2 = float((centered ** 2).mean())
    energy = float((v ** 2).sum())
    p10, p25, p50, p75, p90 = (float(q) for q in np.percentile(v, [10, 25, 50, 75, 90]))
    p = np.bincount(levels, minlength=ng + 1)[1:] / n

    robust = v[(v >= p10) & (v <= p90)]
    rmad = float(np.abs(robust - robust.mean()).mean()) if robust.size else 0.0

    if m2 > 0:
        skewness = float((centered ** 3).mean()) / m2 ** 1.5
        kurtosis = float((centered ** 4).mean()) / m2 ** 2 - 3.0
    else:
        skewness = 0.0
        kurtosis = 0.0

    return {
        "Energy": energy,
        "TotalEnergy": energy * voxel_mm3,
        "Entropy": _entropy_bits(p),
        "Minimum": float(v.min()),
        "Percentile10": p10,
        "Percentile90": p90,
        "Maximum": float(v.max()),
        "Mean": mean,
        "Median": p50,
        "InterquartileRange": p75 - p25,
        "Range": float(v.max() - v.min()),
        "MeanAbsoluteDeviation": float(np.abs(centered).mean()),
        "RobustMeanAbsoluteDeviation": rmad,
        "RootMeanSquared": float(np.sqrt((v ** 2).mean())),
        "Skewness": skewness,
        "Kurtosis": kurtosis,
        "Variance": m2,
        "Uniformity": float((p ** 2).sum()),
    }


# --- shape ------------------------------------------------------------------------


def surface_area_mm2(mask: Mask3D, spacing) -> float:
    """Exposed-face surface: every in-mask face adjacent to outside (or the
    volume boundary) contributes its physical face area."""
    m = mask.data
    sx, sy, sz = spacing
    face_area = (sy * sz, sx * sz, sx * sy)
    total = 0.0
    for axis in range(3):
        padded = np.pad(m, [(1, 1) if a == axis else (0, 0) for a in range(3)],
                        constant_values=False)
        n = m.shape[axis]
        before = np.take(padded, range(0, n), axis=axis)
        after = np.take(padded, range(2, n + 2), axis=axis)
        exposed = int(np.count_nonzero(m & ~before)) + int(np.count_nonzero(m & ~after))
        total += exposed * face_area[axis]
    return total


def _midpoints(m: np.ndarray) -> np.ndarray:
    """In-mask voxels halfway between two in-mask voxels along an offset."""
    mid = np.zeros_like(m)
    for offset in NEIGHBOUR_OFFSETS:
        before, at, after = (tuple(slice(1 + k * d, n - 1 + k * d) if d else slice(None)
                                   for d, n in zip(offset, m.shape)) for k in (-1, 0, 1))
        mid[at] |= m[before] & m[at] & m[after]
    return mid


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Component label of each of n voxels in the graph with edges (a, b),
    a sorted: the edges are the graph's CSR rows as they stand."""
    # imported here, so that only extraction pays for loading scipy
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components

    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(a, minlength=n), out=indptr[1:])
    # float64 weights, which connected_components would otherwise copy to
    graph = csr_array((np.ones(a.size), b, indptr), shape=(n, n))
    return connected_components(graph, directed=False)[1]


def _count_matrix(rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """int64 matrix counting the (row, col) index pairs."""
    code = rows.astype(np.intp)         # the one array the count needs, built in place
    code *= shape[1]
    code += cols
    return np.bincount(code, minlength=shape[0] * shape[1]).reshape(shape)


def _max_pairwise_distance(coords: np.ndarray) -> float:
    # the farthest pair is a pair of convex-hull vertices; callers pass the
    # voxels that are no midpoint (_midpoints), a superset of those vertices
    if coords.shape[0] < 2:
        return 0.0
    best = 0.0
    chunk = 2048
    for start in range(0, coords.shape[0], chunk):
        block = coords[start:start + chunk]
        d2 = ((block[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2)
        best = max(best, float(d2.max()))
    return float(np.sqrt(best))


def shape_features(mask: Mask3D, spacing) -> dict[str, float]:
    n = voxel_count(mask)
    if n == 0:
        raise EmptyMask("shape features need a nonempty mask")
    sx, sy, sz = (float(s) for s in spacing)
    volume = n * sx * sy * sz
    area = surface_area_mm2(mask, (sx, sy, sz))
    radius = (3.0 * volume / (4.0 * np.pi)) ** (1.0 / 3.0)

    m = mask.data
    candidates = np.argwhere(m & ~_midpoints(m)).astype(np.float64) * (sx, sy, sz)
    max_diameter = _max_pairwise_distance(candidates)

    coords = np.argwhere(m).astype(np.float64) * (sx, sy, sz)
    if coords.shape[0] > 1:
        cov = np.cov(coords.T, bias=True)
        eigvals = np.sort(np.linalg.eigvalsh(cov))[::-1]
        eigvals = np.clip(eigvals, 0.0, None)
    else:
        eigvals = np.zeros(3)
    axes = 4.0 * np.sqrt(eigvals)
    if eigvals[0] > 0:
        elongation = float(np.sqrt(eigvals[1] / eigvals[0]))
        flatness = float(np.sqrt(eigvals[2] / eigvals[0]))
    else:
        elongation = 1.0
        flatness = 1.0

    n_components = int(_components(n, *mask.neighbour_pairs).max()) + 1

    return {
        "VoxelVolume": volume,
        "SurfaceArea": area,
        "SurfaceVolumeRatio": area / volume,
        "Sphericity": np.pi ** (1.0 / 3.0) * (6.0 * volume) ** (2.0 / 3.0) / area,
        "Compactness1": volume / (np.sqrt(np.pi) * area ** 1.5),
        "Compactness2": 36.0 * np.pi * volume ** 2 / area ** 3,
        "SphericalDisproportion": area / (4.0 * np.pi * radius ** 2),
        "Maximum3DDiameter": max_diameter,
        "MajorAxisLength": float(axes[0]),
        "MinorAxisLength": float(axes[1]),
        "LeastAxisLength": float(axes[2]),
        "Elongation": elongation,
        "Flatness": flatness,
        "ConnectedComponents": float(n_components),
    }


# --- GLCM -------------------------------------------------------------------------


def glcm_matrix(d: DiscretizedRoi, offsets=GLCM_OFFSETS) -> np.ndarray:
    """Symmetric co-occurrence probabilities, ng x ng; all zero when no pair exists."""
    ng = d.ng
    if offsets is GLCM_OFFSETS:
        la, lb = d.pair_levels
    else:
        a, b = d.mask.pairs_along(offsets)
        la, lb = d.levels[a], d.levels[b]
    counts = _count_matrix(la, lb, (ng + 1, ng + 1))[1:, 1:]       # levels start at 1
    sym = counts + counts.T
    total = sym.sum()
    if total == 0:
        return np.zeros((ng, ng), dtype=np.float64)
    return sym / float(total)


def glcm_features(p: np.ndarray) -> dict[str, float]:
    ng = p.shape[0]
    if p.sum() == 0:
        return dict(GLCM_DEGENERATE)

    i = np.arange(1, ng + 1, dtype=np.float64)
    px = p.sum(axis=1)
    mu = float((i * px).sum())
    sigma2 = float(((i - mu) ** 2 * px).sum())

    ii, jj = np.meshgrid(i, i, indexing="ij")
    # p_{x+y} over k = 2..2*ng and p_{x-y} over k = 0..ng-1
    psum = np.zeros(2 * ng + 1)
    np.add.at(psum, (ii + jj).astype(int).ravel(), p.ravel())
    pdiff = np.zeros(ng)
    np.add.at(pdiff, np.abs(ii - jj).astype(int).ravel(), p.ravel())
    ksum = np.arange(2 * ng + 1, dtype=np.float64)
    kdiff = np.arange(ng, dtype=np.float64)

    diff_avg = float((kdiff * pdiff).sum())
    joint_entropy = _entropy_bits(p.ravel())

    # mutual-information terms over observed levels
    obs = px > 0
    pxo = px[obs]
    hx = _entropy_bits(pxo)
    outer = np.outer(pxo, pxo)
    po = p[np.ix_(obs, obs)]
    nz = po > 0
    hxy1 = float(-(po[nz] * np.log2(outer[nz])).sum())
    hxy2 = _entropy_bits(outer.ravel())
    imc1 = (joint_entropy - hxy1) / hx if hx > 0 else 0.0
    imc2 = float(np.sqrt(max(0.0, 1.0 - np.exp(-2.0 * (hxy2 - joint_entropy)))))

    if sigma2 > 0:
        correlation = (float((ii * jj * p).sum()) - mu * mu) / sigma2
    else:
        correlation = 1.0

    if pxo.size > 1:
        # Q(a,b) = sum_k p(a,k) p(b,k) / (px(a) py(k)); MCC = sqrt(2nd eigenvalue)
        q = (po / pxo[:, None]) @ (po / pxo[None, :]).T
        eig = np.sort(np.real(np.linalg.eigvals(q)))[::-1]
        mcc = float(np.sqrt(np.clip(eig[1], 0.0, 1.0)))
    else:
        mcc = 1.0

    off_diag = np.abs(ii - jj) > 0
    inverse_variance = float((p[off_diag] / (ii - jj)[off_diag] ** 2).sum())

    return {
        "Autocorrelation": float((ii * jj * p).sum()),
        "JointAverage": mu,
        "ClusterProminence": float(((ii + jj - 2 * mu) ** 4 * p).sum()),
        "ClusterShade": float(((ii + jj - 2 * mu) ** 3 * p).sum()),
        "ClusterTendency": float(((ii + jj - 2 * mu) ** 2 * p).sum()),
        "Contrast": float(((ii - jj) ** 2 * p).sum()),
        "Correlation": correlation,
        "DifferenceAverage": diff_avg,
        "DifferenceEntropy": _entropy_bits(pdiff),
        "DifferenceVariance": float(((kdiff - diff_avg) ** 2 * pdiff).sum()),
        "JointEnergy": float((p ** 2).sum()),
        "JointEntropy": joint_entropy,
        "Imc1": imc1,
        "Imc2": imc2,
        "Idm": float((p / (1.0 + (ii - jj) ** 2)).sum()),
        "Idmn": float((p / (1.0 + ((ii - jj) / ng) ** 2)).sum()),
        "Id": float((p / (1.0 + np.abs(ii - jj))).sum()),
        "Idn": float((p / (1.0 + np.abs(ii - jj) / ng)).sum()),
        "InverseVariance": inverse_variance,
        "MaximumProbability": float(p.max()),
        "SumAverage": float((ksum * psum).sum()),
        "SumEntropy": _entropy_bits(psum),
        "SumSquares": float(((ii - mu) ** 2 * p).sum()),
        "MCC": mcc,
    }


# --- GLSZM ------------------------------------------------------------------------


def glszm_matrix(d: DiscretizedRoi) -> np.ndarray:
    """Zone counts, rows = gray level 1..ng, cols = zone size 1..max size."""
    zone = _components(d.levels.size, *d.equal_pairs)
    sizes = np.bincount(zone)
    zone_level = np.zeros(sizes.size, dtype=np.int64)
    zone_level[zone] = d.levels
    return _count_matrix(zone_level - 1, sizes - 1, (d.ng, int(sizes.max())))


def glszm_features(m: np.ndarray, n_voxels: int) -> dict[str, float]:
    nz = float(m.sum())
    g = np.arange(1, m.shape[0] + 1, dtype=np.float64)[:, None]
    s = np.arange(1, m.shape[1] + 1, dtype=np.float64)[None, :]
    p = m / nz
    mu_g = float((p * g).sum())
    mu_s = float((p * s).sum())
    return {
        "SmallAreaEmphasis": float((m / s ** 2).sum() / nz),
        "LargeAreaEmphasis": float((m * s ** 2).sum() / nz),
        "GrayLevelNonUniformity": float((m.sum(axis=1) ** 2).sum() / nz),
        "GrayLevelNonUniformityNormalized": float((m.sum(axis=1) ** 2).sum() / nz ** 2),
        "SizeZoneNonUniformity": float((m.sum(axis=0) ** 2).sum() / nz),
        "SizeZoneNonUniformityNormalized": float((m.sum(axis=0) ** 2).sum() / nz ** 2),
        "ZonePercentage": nz / n_voxels,
        "GrayLevelVariance": float((p * (g - mu_g) ** 2).sum()),
        "ZoneVariance": float((p * (s - mu_s) ** 2).sum()),
        "ZoneEntropy": _entropy_bits(p.ravel()),
        "LowGrayLevelZoneEmphasis": float((m / g ** 2).sum() / nz),
        "HighGrayLevelZoneEmphasis": float((m * g ** 2).sum() / nz),
        "SmallAreaLowGrayLevelEmphasis": float((m / (g ** 2 * s ** 2)).sum() / nz),
        "SmallAreaHighGrayLevelEmphasis": float((m * g ** 2 / s ** 2).sum() / nz),
        "LargeAreaLowGrayLevelEmphasis": float((m * s ** 2 / g ** 2).sum() / nz),
        "LargeAreaHighGrayLevelEmphasis": float((m * g ** 2 * s ** 2).sum() / nz),
    }


# --- GLDM -------------------------------------------------------------------------


def gldm_matrix(d: DiscretizedRoi, alpha: int = 0) -> np.ndarray:
    """Voxel counts by (gray level, dependence); dependence columns start at 0."""
    if alpha == 0:
        a, b = d.equal_pairs           # |difference| <= 0: equal levels
    else:
        la, lb = d.pair_levels
        a, b = _pairs_where(d.mask, np.abs(la - lb) <= alpha)
    n = d.levels.size
    deps = np.bincount(a, minlength=n) + np.bincount(b, minlength=n)
    return _count_matrix(d.levels - 1, deps, (d.ng, int(deps.max()) + 1))


def gldm_features(m: np.ndarray) -> dict[str, float]:
    n = float(m.sum())
    g = np.arange(1, m.shape[0] + 1, dtype=np.float64)[:, None]
    # center-inclusive dependence size: column d holds voxels with d neighbors
    k = np.arange(1, m.shape[1] + 1, dtype=np.float64)[None, :]
    p = m / n
    mu_g = float((p * g).sum())
    mu_k = float((p * k).sum())
    return {
        "SmallDependenceEmphasis": float((m / k ** 2).sum() / n),
        "LargeDependenceEmphasis": float((m * k ** 2).sum() / n),
        "GrayLevelNonUniformity": float((m.sum(axis=1) ** 2).sum() / n),
        "DependenceNonUniformity": float((m.sum(axis=0) ** 2).sum() / n),
        "DependenceNonUniformityNormalized": float((m.sum(axis=0) ** 2).sum() / n ** 2),
        "GrayLevelVariance": float((p * (g - mu_g) ** 2).sum()),
        "DependenceVariance": float((p * (k - mu_k) ** 2).sum()),
        "DependenceEntropy": _entropy_bits(p.ravel()),
        "LowGrayLevelEmphasis": float((m / g ** 2).sum() / n),
        "HighGrayLevelEmphasis": float((m * g ** 2).sum() / n),
        "SmallDependenceLowGrayLevelEmphasis": float((m / (g ** 2 * k ** 2)).sum() / n),
        "SmallDependenceHighGrayLevelEmphasis": float((m * g ** 2 / k ** 2).sum() / n),
        "LargeDependenceLowGrayLevelEmphasis": float((m * k ** 2 / g ** 2).sum() / n),
        "LargeDependenceHighGrayLevelEmphasis": float((m * g ** 2 * k ** 2).sum() / n),
    }


# --- full extraction ---------------------------------------------------------------


def radiomic_feature_names(catalog=None) -> tuple[str, ...]:
    """Canonical feature-name order: shape block, then per image the four families."""
    if catalog is None:
        catalog = default_catalog()
    names = [f"original_shape_{n}" for n in SHAPE_NAMES]
    for image_id in catalog:
        prefix = image_id.name
        names += [f"{prefix}_firstorder_{n}" for n in FIRST_ORDER_NAMES]
        names += [f"{prefix}_glcm_{n}" for n in GLCM_NAMES]
        names += [f"{prefix}_glszm_{n}" for n in GLSZM_NAMES]
        names += [f"{prefix}_gldm_{n}" for n in GLDM_NAMES]
    return tuple(names)


def _window(box, radius, dims) -> tuple[tuple[slice, ...], tuple[slice, ...]]:
    """The box ((x0,x1),(y0,y1),(z0,z1)) widened by radius, clamped to dims,
    and the box's own slices within that window."""
    lo = [max(b0 - r, 0) for (b0, _), r in zip(box, radius)]
    hi = [min(b1 + r + 1, n) for (_, b1), r, n in zip(box, radius, dims)]
    return (tuple(slice(l, h) for l, h in zip(lo, hi)),
            tuple(slice(b0 - l, b1 + 1 - l) for (b0, b1), l in zip(box, lo)))


def _crop_for_catalog(base: Volume3D, mask: Mask3D, catalog) -> tuple[Volume3D, Mask3D]:
    """Crop to the mask bounding box plus the filter dependency margin.

    The crop is exact: every filter output at an in-mask voxel matches the
    full-volume computation because either real data fills the margin or the
    crop face coincides with the volume boundary.
    """
    margins = np.zeros(3, dtype=int)
    for image_id in catalog:
        margins = np.maximum(margins, filter_radius_voxels(image_id, base.spacing))
    window, _ = _window(bounding_box(mask), margins, base.dims)
    return (Volume3D(base.data[window].copy(), base.spacing),
            Mask3D(mask.data[window].copy()))


def _texture_block(derived: Volume3D, mask: Mask3D, ng: int) -> list[float]:
    values: list[float] = []
    d = discretize(derived, mask, ng)
    fo = _first_order_from_values(d.values, d.levels, voxel_volume_mm3(derived), ng)
    values += [fo[n] for n in FIRST_ORDER_NAMES]
    glcm = glcm_features(glcm_matrix(d))
    values += [glcm[n] for n in GLCM_NAMES]
    glszm = glszm_features(glszm_matrix(d), voxel_count(mask))
    values += [glszm[n] for n in GLSZM_NAMES]
    gldm = gldm_features(gldm_matrix(d))
    values += [gldm[n] for n in GLDM_NAMES]
    return values


def extract_radiomic_features(series: DceSeries, roi: LesionRoi, catalog=None,
                              ng: int = DEFAULT_BIN_COUNT,
                              crop: bool = True) -> RadiomicFeatureSet:
    """Full radiomic vector for one lesion, on the peak post-contrast phase."""
    if catalog is None:
        catalog = default_catalog()
    peak = select_peak_phase(series, roi.mask)
    base = series.phases[peak]
    mask = roi.mask
    if crop:
        base, mask = _crop_for_catalog(base, mask, catalog)

    values = []
    shape = shape_features(mask, base.spacing)
    values += [shape[n] for n in SHAPE_NAMES]

    # texture reads in-mask voxels only: each image is filtered over the box
    # widened by its own radius, then cut to the box, where inner shares the
    # neighbour pairs the shape features built
    box = bounding_box(mask)
    inner = mask.cut(tuple(slice(lo, hi + 1) for lo, hi in box))
    bands = None
    for image_id in catalog:
        window, within = _window(box, filter_radius_voxels(image_id, base.spacing), base.dims)
        if image_id.kind == "wavelet":
            if bands is None:
                bands = wavelet_bands(Volume3D(base.data[window], base.spacing))
            derived = bands[image_id.band]
        else:
            derived = derive(Volume3D(base.data[window], base.spacing), image_id)
        values += _texture_block(Volume3D(derived.data[within], base.spacing), inner, ng)

    return RadiomicFeatureSet(names=radiomic_feature_names(catalog),
                              values=np.array(values, dtype=np.float64))
