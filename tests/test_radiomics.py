import math

import numpy as np
import pytest

from dcerad.errors import BadLevelCount, EmptyMask
from dcerad.filters import DerivedImageId, default_catalog, filter_radius_voxels
from dcerad.radiomics import (FIRST_ORDER_NAMES, GLCM_DEGENERATE, GLCM_NAMES,
                              GLDM_NAMES, GLSZM_NAMES, SHAPE_NAMES, DiscretizedRoi,
                              discretize, extract_radiomic_features,
                              first_order_features, glcm_features, glcm_matrix,
                              gldm_features, gldm_matrix, glszm_features,
                              glszm_matrix, radiomic_feature_names, shape_features,
                              surface_area_mm2)
from dcerad.volume import NEIGHBOUR_OFFSETS, voxel_count

from conftest import make_mask, make_volume, roi_for, uniform_series


def roi_from_levels(grid, ng):
    """DiscretizedRoi straight from an integer level grid (0 = outside)."""
    grid = np.asarray(grid, dtype=np.int32)
    mask = make_mask(grid > 0)
    levels = grid.ravel(order="F")[grid.ravel(order="F") > 0]
    return DiscretizedRoi(levels=levels.astype(np.int32), ng=ng, mask=mask,
                          values=levels.astype(np.float64))


def level_grid(d):
    """The level grid of a DiscretizedRoi (0 = outside), for the oracles."""
    flat = np.zeros(int(np.prod(d.mask.dims)), dtype=np.int32)
    flat[d.mask.flat()] = d.levels
    return flat.reshape(d.mask.dims, order="F")


def random_levels(rng, max_dim=5, ng=4):
    dims = tuple(int(d) for d in rng.integers(2, max_dim + 1, size=3))
    grid = rng.integers(0, ng + 1, size=dims).astype(np.int32)  # 0 = outside
    if not (grid > 0).any():
        grid[0, 0, 0] = 1
    return roi_from_levels(grid, ng)


NEIGHBORS_26 = [(dx, dy, dz)
                for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
                if (dx, dy, dz) != (0, 0, 0)]


# --- brute-force oracles -------------------------------------------------------


def glcm_oracle(grid, ng, offsets):
    """Pair enumeration over every voxel and offset, both orders."""
    counts = np.zeros((ng, ng), dtype=np.int64)
    nx, ny, nz = grid.shape
    for x in range(nx):
        for y in range(ny):
            for z in range(nz):
                a = grid[x, y, z]
                if a == 0:
                    continue
                for dx, dy, dz in offsets:
                    u, v, w = x + dx, y + dy, z + dz
                    if 0 <= u < nx and 0 <= v < ny and 0 <= w < nz:
                        b = grid[u, v, w]
                        if b > 0:
                            counts[a - 1, b - 1] += 1
                            counts[b - 1, a - 1] += 1
    total = counts.sum()
    return counts / total if total else counts.astype(float)


def flood_fill_zones(grid):
    """(level, size) zones by BFS flood fill over the 26-neighborhood."""
    nx, ny, nz = grid.shape
    seen = np.zeros(grid.shape, dtype=bool)
    zones = []
    for x in range(nx):
        for y in range(ny):
            for z in range(nz):
                if grid[x, y, z] == 0 or seen[x, y, z]:
                    continue
                level = grid[x, y, z]
                stack = [(x, y, z)]
                seen[x, y, z] = True
                size = 0
                while stack:
                    cx, cy, cz = stack.pop()
                    size += 1
                    for dx, dy, dz in NEIGHBORS_26:
                        u, v, w = cx + dx, cy + dy, cz + dz
                        if (0 <= u < nx and 0 <= v < ny and 0 <= w < nz
                                and not seen[u, v, w] and grid[u, v, w] == level):
                            seen[u, v, w] = True
                            stack.append((u, v, w))
                zones.append((int(level), size))
    return zones


def glszm_oracle(grid, ng):
    zones = flood_fill_zones(grid)
    smax = max(s for _, s in zones)
    m = np.zeros((ng, smax), dtype=np.int64)
    for level, size in zones:
        m[level - 1, size - 1] += 1
    return m


def gldm_oracle(grid, ng):
    nx, ny, nz = grid.shape
    entries = []
    for x in range(nx):
        for y in range(ny):
            for z in range(nz):
                g = grid[x, y, z]
                if g == 0:
                    continue
                dep = 0
                for dx, dy, dz in NEIGHBORS_26:
                    u, v, w = x + dx, y + dy, z + dz
                    if (0 <= u < nx and 0 <= v < ny and 0 <= w < nz
                            and grid[u, v, w] == g):
                        dep += 1
                entries.append((int(g), dep))
    dmax = max(d for _, d in entries)
    m = np.zeros((ng, dmax + 1), dtype=np.int64)
    for g, d in entries:
        m[g - 1, d] += 1
    return m


def entropy_oracle(ps):
    return -sum(p * math.log2(p) for p in ps if p > 0)


def glcm_features_oracle(p):
    """The 24 features by direct summation loops over matrix entries."""
    ng = p.shape[0]
    px = [sum(p[i, j] for j in range(ng)) for i in range(ng)]
    mu = sum((i + 1) * px[i] for i in range(ng))
    sigma2 = sum((i + 1 - mu) ** 2 * px[i] for i in range(ng))
    psum = {}
    pdiff = {}
    for i in range(ng):
        for j in range(ng):
            psum[i + j + 2] = psum.get(i + j + 2, 0.0) + p[i, j]
            pdiff[abs(i - j)] = pdiff.get(abs(i - j), 0.0) + p[i, j]
    da = sum(k * v for k, v in pdiff.items())
    hxy = entropy_oracle(p.ravel())
    hx = entropy_oracle(px)
    hxy1 = -sum(p[i, j] * math.log2(px[i] * px[j])
                for i in range(ng) for j in range(ng)
                if p[i, j] > 0)
    hxy2 = -sum(px[i] * px[j] * math.log2(px[i] * px[j])
                for i in range(ng) for j in range(ng)
                if px[i] * px[j] > 0)
    obs = [i for i in range(ng) if px[i] > 0]
    if len(obs) > 1:
        q = np.zeros((len(obs), len(obs)))
        for a, i in enumerate(obs):
            for b, j in enumerate(obs):
                q[a, b] = sum(p[i, k] * p[j, k] / (px[i] * px[k]) for k in obs)
        eig = sorted(np.real(np.linalg.eigvals(q)), reverse=True)
        mcc = math.sqrt(min(max(eig[1], 0.0), 1.0))
    else:
        mcc = 1.0
    out = {
        "Autocorrelation": sum((i + 1) * (j + 1) * p[i, j]
                               for i in range(ng) for j in range(ng)),
        "JointAverage": mu,
        "ClusterProminence": sum((i + j + 2 - 2 * mu) ** 4 * p[i, j]
                                 for i in range(ng) for j in range(ng)),
        "ClusterShade": sum((i + j + 2 - 2 * mu) ** 3 * p[i, j]
                            for i in range(ng) for j in range(ng)),
        "ClusterTendency": sum((i + j + 2 - 2 * mu) ** 2 * p[i, j]
                               for i in range(ng) for j in range(ng)),
        "Contrast": sum((i - j) ** 2 * p[i, j] for i in range(ng) for j in range(ng)),
        "Correlation": ((sum((i + 1) * (j + 1) * p[i, j]
                             for i in range(ng) for j in range(ng)) - mu * mu) / sigma2
                        if sigma2 > 0 else 1.0),
        "DifferenceAverage": da,
        "DifferenceEntropy": entropy_oracle(pdiff.values()),
        "DifferenceVariance": sum((k - da) ** 2 * v for k, v in pdiff.items()),
        "JointEnergy": sum(p[i, j] ** 2 for i in range(ng) for j in range(ng)),
        "JointEntropy": hxy,
        "Imc1": (hxy - hxy1) / hx if hx > 0 else 0.0,
        "Imc2": math.sqrt(max(0.0, 1.0 - math.exp(-2.0 * (hxy2 - hxy)))),
        "Idm": sum(p[i, j] / (1 + (i - j) ** 2) for i in range(ng) for j in range(ng)),
        "Idmn": sum(p[i, j] / (1 + ((i - j) / ng) ** 2)
                    for i in range(ng) for j in range(ng)),
        "Id": sum(p[i, j] / (1 + abs(i - j)) for i in range(ng) for j in range(ng)),
        "Idn": sum(p[i, j] / (1 + abs(i - j) / ng)
                   for i in range(ng) for j in range(ng)),
        "InverseVariance": sum(p[i, j] / (i - j) ** 2
                               for i in range(ng) for j in range(ng) if i != j),
        "MaximumProbability": float(p.max()),
        "SumAverage": sum(k * v for k, v in psum.items()),
        "SumEntropy": entropy_oracle(psum.values()),
        "SumSquares": sum((i + 1 - mu) ** 2 * p[i, j]
                          for i in range(ng) for j in range(ng)),
        "MCC": mcc,
    }
    return out


def glszm_features_oracle(m, n_voxels):
    nz = m.sum()
    out = {}
    entries = [(g + 1, s + 1, m[g, s]) for g in range(m.shape[0])
               for s in range(m.shape[1]) if m[g, s]]
    out["SmallAreaEmphasis"] = sum(c / s ** 2 for _, s, c in entries) / nz
    out["LargeAreaEmphasis"] = sum(c * s ** 2 for _, s, c in entries) / nz
    out["GrayLevelNonUniformity"] = sum(
        m[g].sum() ** 2 for g in range(m.shape[0])) / nz
    out["GrayLevelNonUniformityNormalized"] = out["GrayLevelNonUniformity"] / nz
    out["SizeZoneNonUniformity"] = sum(
        m[:, s].sum() ** 2 for s in range(m.shape[1])) / nz
    out["SizeZoneNonUniformityNormalized"] = out["SizeZoneNonUniformity"] / nz
    out["ZonePercentage"] = nz / n_voxels
    mu_g = sum(g * c for g, _, c in entries) / nz
    mu_s = sum(s * c for _, s, c in entries) / nz
    out["GrayLevelVariance"] = sum((g - mu_g) ** 2 * c for g, _, c in entries) / nz
    out["ZoneVariance"] = sum((s - mu_s) ** 2 * c for _, s, c in entries) / nz
    out["ZoneEntropy"] = entropy_oracle([c / nz for *_, c in entries])
    out["LowGrayLevelZoneEmphasis"] = sum(c / g ** 2 for g, _, c in entries) / nz
    out["HighGrayLevelZoneEmphasis"] = sum(c * g ** 2 for g, _, c in entries) / nz
    out["SmallAreaLowGrayLevelEmphasis"] = sum(
        c / (g ** 2 * s ** 2) for g, s, c in entries) / nz
    out["SmallAreaHighGrayLevelEmphasis"] = sum(
        c * g ** 2 / s ** 2 for g, s, c in entries) / nz
    out["LargeAreaLowGrayLevelEmphasis"] = sum(
        c * s ** 2 / g ** 2 for g, s, c in entries) / nz
    out["LargeAreaHighGrayLevelEmphasis"] = sum(
        c * g ** 2 * s ** 2 for g, s, c in entries) / nz
    return out


def gldm_features_oracle(m):
    n = m.sum()
    entries = [(g + 1, d + 1, m[g, d]) for g in range(m.shape[0])
               for d in range(m.shape[1]) if m[g, d]]
    mu_g = sum(g * c for g, _, c in entries) / n
    mu_k = sum(k * c for _, k, c in entries) / n
    return {
        "SmallDependenceEmphasis": sum(c / k ** 2 for _, k, c in entries) / n,
        "LargeDependenceEmphasis": sum(c * k ** 2 for _, k, c in entries) / n,
        "GrayLevelNonUniformity": sum(m[g].sum() ** 2 for g in range(m.shape[0])) / n,
        "DependenceNonUniformity": sum(m[:, d].sum() ** 2
                                       for d in range(m.shape[1])) / n,
        "DependenceNonUniformityNormalized": sum(
            m[:, d].sum() ** 2 for d in range(m.shape[1])) / n ** 2,
        "GrayLevelVariance": sum((g - mu_g) ** 2 * c for g, _, c in entries) / n,
        "DependenceVariance": sum((k - mu_k) ** 2 * c for _, k, c in entries) / n,
        "DependenceEntropy": entropy_oracle([c / n for *_, c in entries]),
        "LowGrayLevelEmphasis": sum(c / g ** 2 for g, _, c in entries) / n,
        "HighGrayLevelEmphasis": sum(c * g ** 2 for g, _, c in entries) / n,
        "SmallDependenceLowGrayLevelEmphasis": sum(
            c / (g ** 2 * k ** 2) for g, k, c in entries) / n,
        "SmallDependenceHighGrayLevelEmphasis": sum(
            c * g ** 2 / k ** 2 for g, k, c in entries) / n,
        "LargeDependenceLowGrayLevelEmphasis": sum(
            c * k ** 2 / g ** 2 for g, k, c in entries) / n,
        "LargeDependenceHighGrayLevelEmphasis": sum(
            c * g ** 2 * k ** 2 for g, k, c in entries) / n,
    }


# --- discretize --------------------------------------------------------------------


def test_discretize_two_values():
    vol = make_volume(np.array([0.0, 10.0]).reshape(2, 1, 1))
    d = discretize(vol, make_mask(np.ones((2, 1, 1))), 2)
    assert d.levels.tolist() == [1, 2]


def test_discretize_constant():
    vol = make_volume(np.full((2, 2, 2), 5.0))
    d = discretize(vol, make_mask(np.ones((2, 2, 2))), 32)
    assert set(d.levels.tolist()) == {1}


def test_discretize_floor_rule():
    vol = make_volume(np.array([0.0, 5.0, 10.0]).reshape(3, 1, 1))
    d = discretize(vol, make_mask(np.ones((3, 1, 1))), 2)
    assert d.levels.tolist() == [1, 2, 2]


def test_discretize_errors():
    vol = make_volume(np.zeros((2, 2, 2)))
    with pytest.raises(BadLevelCount):
        discretize(vol, make_mask(np.ones((2, 2, 2))), 1)
    with pytest.raises(EmptyMask):
        discretize(vol, make_mask(np.zeros((2, 2, 2))), 8)


def test_discretize_extremes_occupied():
    rng = np.random.default_rng(3)
    vol = make_volume(rng.normal(size=(4, 4, 4)))
    d = discretize(vol, make_mask(np.ones((4, 4, 4))), 7)
    assert d.levels.min() == 1 and d.levels.max() == 7


# --- first order --------------------------------------------------------------------


def first_order_of(data):
    """First-order features of a whole (unit-spacing) volume."""
    vol = make_volume(data)
    return first_order_features(discretize(vol, make_mask(np.ones(vol.dims))), 1.0)


def test_first_order_constant():
    f = first_order_of(np.full((3, 1, 1), 2.0))
    assert f["Mean"] == 2.0
    assert f["Variance"] == 0.0
    assert f["Range"] == 0.0
    assert f["Uniformity"] == 1.0
    assert f["Entropy"] == 0.0
    assert f["Skewness"] == 0.0 and f["Kurtosis"] == 0.0


def test_first_order_hand_arithmetic():
    f = first_order_of(np.array([1.0, 2.0, 3.0, 4.0]).reshape(4, 1, 1))
    assert f["Mean"] == 2.5
    assert f["Variance"] == 1.25
    assert f["Median"] == 2.5
    assert f["Energy"] == 30.0
    assert f["RootMeanSquared"] == pytest.approx(math.sqrt(30.0 / 4.0))


def test_first_order_moments_oracle():
    v = np.array([0.0, 0.0, 0.0, 8.0])
    f = first_order_of(v.reshape(4, 1, 1))
    mu = v.mean()
    m2 = ((v - mu) ** 2).mean()
    m3 = ((v - mu) ** 3).mean()
    m4 = ((v - mu) ** 4).mean()
    assert f["Skewness"] == pytest.approx(m3 / m2 ** 1.5, abs=1e-12)
    assert f["Kurtosis"] == pytest.approx(m4 / m2 ** 2 - 3.0, abs=1e-12)


def test_first_order_count_and_names():
    assert len(FIRST_ORDER_NAMES) == 18
    f = first_order_of(np.arange(8.0).reshape(2, 2, 2))
    assert set(f) == set(FIRST_ORDER_NAMES)


# --- shape ---------------------------------------------------------------------------


def test_shape_single_voxel():
    data = np.zeros((3, 3, 3), dtype=bool)
    data[1, 1, 1] = True
    f = shape_features(make_mask(data), (1.0, 1.0, 1.0))
    assert f["VoxelVolume"] == 1.0
    assert f["SurfaceArea"] == 6.0
    assert f["Maximum3DDiameter"] == 0.0
    assert f["ConnectedComponents"] == 1.0


def test_shape_two_voxel_bar():
    data = np.zeros((4, 3, 3), dtype=bool)
    data[1, 1, 1] = True
    data[2, 1, 1] = True
    f = shape_features(make_mask(data), (1.0, 1.0, 1.0))
    assert f["VoxelVolume"] == 2.0
    assert f["SurfaceArea"] == 10.0
    assert f["Maximum3DDiameter"] == 1.0


def surface_oracle(mask_data, spacing):
    nx, ny, nz = mask_data.shape
    areas = (spacing[1] * spacing[2], spacing[0] * spacing[2], spacing[0] * spacing[1])
    total = 0.0
    for x in range(nx):
        for y in range(ny):
            for z in range(nz):
                if not mask_data[x, y, z]:
                    continue
                for axis, (dx, dy, dz) in enumerate(
                        [(1, 0, 0), (0, 1, 0), (0, 0, 1)]):
                    for sign in (-1, 1):
                        u, v, w = x + sign * dx, y + sign * dy, z + sign * dz
                        if not (0 <= u < nx and 0 <= v < ny and 0 <= w < nz) \
                                or not mask_data[u, v, w]:
                            total += areas[axis]
    return total


@pytest.mark.parametrize("seed", range(8))
def test_surface_area_matches_face_scan(seed):
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in rng.integers(2, 7, size=3))
    data = rng.random(dims) < 0.5
    if not data.any():
        data[0, 0, 0] = True
    spacing = (0.9, 1.1, 0.6)
    assert surface_area_mm2(make_mask(data), spacing) == pytest.approx(
        surface_oracle(data, spacing), abs=1e-12)


def test_shape_sphericity_cube():
    # single voxel is a unit cube: classic sphericity pi^(1/3)*6^(2/3)/6
    data = np.zeros((3, 3, 3), dtype=bool)
    data[1, 1, 1] = True
    f = shape_features(make_mask(data), (1.0, 1.0, 1.0))
    assert f["Sphericity"] == pytest.approx(np.pi ** (1 / 3) * 6 ** (2 / 3) / 6)
    assert f["Compactness2"] == pytest.approx(36 * np.pi / 216)


def test_shape_count_and_names():
    assert len(SHAPE_NAMES) == 14


def test_shape_components_26():
    data = np.zeros((4, 4, 4), dtype=bool)
    data[0, 0, 0] = True
    data[1, 1, 1] = True       # diagonal touch: one component under 26-connectivity
    data[3, 3, 3] = True       # separated
    f = shape_features(make_mask(data), (1, 1, 1))
    assert f["ConnectedComponents"] == 2.0


@pytest.mark.parametrize("seed", range(6))
def test_shape_components_match_ndimage_label(seed):
    from scipy import ndimage
    rng = np.random.default_rng(500 + seed)
    dims = tuple(int(d) for d in rng.integers(3, 13, size=3))
    data = rng.random(dims) < rng.uniform(0.05, 0.3)
    data.flat[int(rng.integers(0, data.size))] = True
    _, expected = ndimage.label(data, structure=np.ones((3, 3, 3)))
    f = shape_features(make_mask(data), (1.0, 1.0, 1.0))
    assert f["ConnectedComponents"] == float(expected)


# --- Maximum3DDiameter against all pairs of in-mask voxels ------------------------------

DIAMETER_SPACING = (0.7, 0.7, 1.5)


def brute_force_diameter(data, spacing):
    coords = np.argwhere(data).astype(np.float64) * spacing
    d2 = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2)
    return float(np.sqrt(d2.max()))


def diameter_masks():
    blobs = np.zeros((14, 9, 7), dtype=bool)
    blobs[1:4, 1:5, 1:4] = True
    blobs[9:13, 4:8, 3:6] = True
    ell = np.zeros((8, 9, 4), dtype=bool)
    ell[1:3, 1:8, 1:3] = True
    ell[1:7, 1:3, 1:3] = True
    cee = np.zeros((9, 9, 3), dtype=bool)
    cee[1:8, 1:3, 1] = True
    cee[1:3, 1:8, 1] = True
    cee[1:8, 6:8, 1] = True
    plane = np.zeros((7, 8, 5), dtype=bool)
    plane[1:6, 1:7, 2] = True           # one voxel thick: every voxel coplanar
    line = np.zeros((3, 11, 3), dtype=bool)
    line[1, 1:10, 1] = True
    single = np.zeros((3, 3, 3), dtype=bool)
    single[1, 1, 1] = True
    sparse = np.random.default_rng(41).random((12, 10, 9)) < 0.08
    return {"two blobs": blobs, "L shape": ell, "C shape": cee, "plane": plane,
            "line": line, "single voxel": single, "sparse random": sparse}


@pytest.mark.parametrize("name", sorted(diameter_masks()))
def test_maximum_diameter_equals_all_pairs(name):
    data = diameter_masks()[name]
    f = shape_features(make_mask(data), DIAMETER_SPACING)
    assert f["Maximum3DDiameter"] == brute_force_diameter(data, DIAMETER_SPACING)


# --- GLCM ----------------------------------------------------------------------------


def haralick_example_roi():
    rows = [(1, 1, 2, 2), (1, 1, 2, 2), (3, 3, 4, 4), (3, 3, 4, 4)]
    grid = np.zeros((4, 4, 1), dtype=np.int32)
    for y, row in enumerate(rows):
        for x, level in enumerate(row):
            grid[x, y, 0] = level
    return roi_from_levels(grid, 4)


def test_glcm_single_direction_example():
    # on a 4 x 1 x 1 line only the x offset finds pairs: (1,1), (1,2), (2,2),
    # each counted in both orders, 6 in all
    d = roi_from_levels(np.array([1, 1, 2, 2]).reshape(4, 1, 1), 2)
    p = glcm_matrix(d)
    assert np.allclose(p, [[2 / 6, 1 / 6], [1 / 6, 2 / 6]], atol=1e-12)


def test_glcm_single_voxel_degenerate():
    grid = np.zeros((3, 3, 3), dtype=np.int32)
    grid[1, 1, 1] = 1
    d = roi_from_levels(grid, 4)
    p = glcm_matrix(d)
    assert p.sum() == 0
    feats = glcm_features(p)
    assert feats == GLCM_DEGENERATE


def test_glcm_constant_roi():
    d = roi_from_levels(np.ones((2, 2, 2), dtype=np.int32), 4)
    p = glcm_matrix(d)
    assert p[0, 0] == 1.0
    feats = glcm_features(p)
    assert feats["JointEnergy"] == 1.0
    assert feats["JointEntropy"] == 0.0
    assert feats["Contrast"] == 0.0
    assert feats["MaximumProbability"] == 1.0


def test_glcm_identity_matrix_features():
    ng = 8
    feats = glcm_features(np.eye(ng) / ng)
    assert feats["Contrast"] == 0.0
    assert feats["MaximumProbability"] == pytest.approx(1 / ng)


def test_glcm_features_match_oracle_on_example():
    d = haralick_example_roi()
    p = glcm_matrix(d)
    ours = glcm_features(p)
    ref = glcm_features_oracle(p)
    for name in GLCM_NAMES:
        assert ours[name] == pytest.approx(ref[name], abs=1e-12), name


@pytest.mark.parametrize("seed", range(10))
def test_glcm_matrix_matches_pair_enumeration(seed):
    rng = np.random.default_rng(seed)
    d = random_levels(rng)
    ours = glcm_matrix(d)
    ref = glcm_oracle(level_grid(d), d.ng, NEIGHBOUR_OFFSETS)
    assert np.allclose(ours, ref, atol=1e-15)
    if ours.sum():
        assert ours.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(ours, ours.T, atol=0)


@pytest.mark.parametrize("seed", range(6))
def test_glcm_features_match_oracle_random(seed):
    rng = np.random.default_rng(100 + seed)
    d = random_levels(rng)
    p = glcm_matrix(d)
    if p.sum() == 0:
        return
    ours = glcm_features(p)
    ref = glcm_features_oracle(p)
    for name in GLCM_NAMES:
        assert ours[name] == pytest.approx(ref[name], abs=1e-12), name


# --- GLSZM ---------------------------------------------------------------------------


def test_glszm_three_zone_example():
    rows = [(1, 1, 2), (1, 2, 2), (3, 3, 3)]
    grid = np.zeros((3, 3, 1), dtype=np.int32)
    for y, row in enumerate(rows):
        for x, level in enumerate(row):
            grid[x, y, 0] = level
    d = roi_from_levels(grid, 3)
    m = glszm_matrix(d)
    assert m.shape == (3, 3)
    assert m[0, 2] == 1 and m[1, 2] == 1 and m[2, 2] == 1
    assert m.sum() == 3


def test_glszm_constant_roi():
    d = roi_from_levels(np.ones((2, 3, 1), dtype=np.int32), 4)
    m = glszm_matrix(d)
    assert m[0, 5] == 1
    assert m.sum() == 1


def test_glszm_checkerboard_matches_flood_fill():
    grid = np.zeros((3, 3, 1), dtype=np.int32)
    for x in range(3):
        for y in range(3):
            grid[x, y, 0] = 1 + (x + y) % 2
    d = roi_from_levels(grid, 2)
    assert np.array_equal(glszm_matrix(d), glszm_oracle(grid, 2))


@pytest.mark.parametrize("seed", range(10))
def test_glszm_matrix_matches_flood_fill(seed):
    rng = np.random.default_rng(200 + seed)
    d = random_levels(rng)
    assert np.array_equal(glszm_matrix(d), glszm_oracle(level_grid(d), d.ng))


def test_glszm_single_zone_features():
    d = roi_from_levels(np.ones((2, 2, 1), dtype=np.int32), 2)
    feats = glszm_features(glszm_matrix(d), voxel_count(d.mask))
    assert feats["ZoneEntropy"] == 0.0
    assert feats["ZonePercentage"] == pytest.approx(1 / 4)


def test_glszm_all_zones_size_one():
    grid = np.zeros((3, 1, 1), dtype=np.int32)
    grid[0, 0, 0] = 1
    grid[2, 0, 0] = 2
    d = roi_from_levels(grid, 2)
    feats = glszm_features(glszm_matrix(d), voxel_count(d.mask))
    assert feats["SmallAreaEmphasis"] == 1.0


def test_glszm_features_match_oracle():
    rows = [(1, 1, 2), (1, 2, 2), (3, 3, 3)]
    grid = np.zeros((3, 3, 1), dtype=np.int32)
    for y, row in enumerate(rows):
        for x, level in enumerate(row):
            grid[x, y, 0] = level
    d = roi_from_levels(grid, 3)
    m = glszm_matrix(d)
    ours = glszm_features(m, voxel_count(d.mask))
    ref = glszm_features_oracle(m, voxel_count(d.mask))
    for name in GLSZM_NAMES:
        assert ours[name] == pytest.approx(ref[name], abs=1e-12), name


# --- GLDM ----------------------------------------------------------------------------


def test_gldm_single_voxel():
    grid = np.zeros((3, 3, 3), dtype=np.int32)
    grid[1, 1, 1] = 2
    d = roi_from_levels(grid, 4)
    m = gldm_matrix(d)
    assert m.shape == (4, 1)
    assert m[1, 0] == 1 and m.sum() == 1


def test_gldm_constant_quad():
    d = roi_from_levels(np.ones((2, 2, 1), dtype=np.int32), 2)
    m = gldm_matrix(d)
    assert m[0, 3] == 4 and m.sum() == 4


@pytest.mark.parametrize("seed", range(10))
def test_gldm_matrix_matches_neighbor_count(seed):
    rng = np.random.default_rng(300 + seed)
    d = random_levels(rng)
    assert np.array_equal(gldm_matrix(d), gldm_oracle(level_grid(d), d.ng))


def random_roi(rng, ng):
    """Level grid of up to 12^3 voxels: a few boxes with holes punched in them
    plus scattered lone voxels (several components), levels drawn from
    smoothed noise so zones grow."""
    dims = tuple(int(d) for d in rng.integers(8, 13, size=3))
    inside = np.zeros(dims, dtype=bool)
    for _ in range(int(rng.integers(1, 4))):
        lo = [int(rng.integers(0, n // 2)) for n in dims]
        hi = [int(rng.integers(l + 2, n + 1)) for l, n in zip(lo, dims)]
        inside[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = True
    inside &= rng.random(dims) > 0.15
    inside |= rng.random(dims) < 0.02
    field = rng.random(dims)
    for axis in range(3):
        field = field + np.roll(field, 1, axis=axis)
    span = field.max() - field.min()
    levels = np.minimum(1 + np.floor(ng * (field - field.min()) / span), ng).astype(np.int32)
    return roi_from_levels(np.where(inside, levels, 0), ng)


@pytest.mark.parametrize("ng", [2, 32])
@pytest.mark.parametrize("seed", range(4))
def test_texture_matrices_match_oracles_at_size(seed, ng):
    d = random_roi(np.random.default_rng(400 + seed), ng)
    assert np.array_equal(glcm_matrix(d), glcm_oracle(level_grid(d), ng, NEIGHBOUR_OFFSETS))
    assert np.array_equal(glszm_matrix(d), glszm_oracle(level_grid(d), ng))
    assert np.array_equal(gldm_matrix(d), gldm_oracle(level_grid(d), ng))


def test_gldm_degenerate_features():
    grid = np.zeros((3, 3, 3), dtype=np.int32)
    grid[1, 1, 1] = 1
    d = roi_from_levels(grid, 2)
    feats = gldm_features(gldm_matrix(d))
    assert feats["DependenceEntropy"] == 0.0
    assert feats["SmallDependenceEmphasis"] == 1.0     # all mass at dependence 0


def test_gldm_features_match_oracle():
    d = roi_from_levels(np.ones((2, 2, 1), dtype=np.int32), 2)
    m = gldm_matrix(d)
    ours = gldm_features(m)
    ref = gldm_features_oracle(m)
    for name in GLDM_NAMES:
        assert ours[name] == pytest.approx(ref[name], abs=1e-12), name


# --- extraction -------------------------------------------------------------------


def constant_case(dims=(8, 8, 8)):
    series = uniform_series(dims, [100.0, 150.0, 140.0, 130.0, 120.0, 110.0])
    mask = np.zeros(dims, dtype=bool)
    mask[2:6, 2:6, 2:6] = True
    return series, roi_for(make_mask(mask))


def test_extract_constant_series_texture():
    series, roi = constant_case()
    result = extract_radiomic_features(series, roi)
    feats = dict(zip(result.names, result.values))
    for image in ("original", "wavelet-LLL", "wavelet-HHH", "log-sigma-1mm"):
        assert feats[f"{image}_firstorder_Entropy"] == 0.0, image
        assert feats[f"{image}_firstorder_Uniformity"] == 1.0, image
        assert feats[f"{image}_glcm_JointEntropy"] == 0.0, image
        assert feats[f"{image}_glszm_ZoneEntropy"] == 0.0, image


def test_extract_original_only_count():
    series, roi = constant_case()
    feats = extract_radiomic_features(series, roi,
                                      catalog=(DerivedImageId("original"),))
    assert len(feats.names) == 14 + 72


def test_extract_default_count_and_finite():
    rng = np.random.default_rng(5)
    dims = (12, 12, 12)
    phases = tuple(make_volume(rng.uniform(50, 250, dims)) for _ in range(6))
    from dcerad.volume import DceSeries
    series = DceSeries(phases)
    mask = np.zeros(dims, dtype=bool)
    mask[3:9, 3:9, 3:9] = True
    feats = extract_radiomic_features(series, roi_for(make_mask(mask)))
    assert len(feats.names) == 806
    assert np.isfinite(feats.values).all()
    assert feats.names == radiomic_feature_names()


def test_extract_translation_invariant():
    # one lesion patch, with the catalog's full margin of its own background,
    # placed at two interior positions: every feature comes out the same
    from dcerad.volume import DceSeries
    spacing = (1.5, 1.4, 2.0)
    margin = np.max([filter_radius_voxels(i, spacing) for i in default_catalog()], axis=0)
    rng = np.random.default_rng(9)
    lesion = rng.random((5, 4, 4)) < 0.8
    lesion[2, 2, 2] = True
    patch_mask = np.pad(lesion, [(m, m) for m in margin])
    patch = [rng.uniform(50, 250, patch_mask.shape) for _ in range(6)]
    dims = tuple(n + 6 for n in patch_mask.shape)
    vectors = []
    for offset in ((0, 0, 0), (6, 3, 5)):
        window = tuple(slice(o, o + n) for o, n in zip(offset, patch_mask.shape))
        phases, mask = [], np.zeros(dims, dtype=bool)
        mask[window] = patch_mask
        for values in patch:
            full = rng.uniform(50, 250, dims)        # other background elsewhere
            full[window] = values
            phases.append(make_volume(full, spacing))
        vectors.append(extract_radiomic_features(DceSeries(tuple(phases)),
                                                 roi_for(make_mask(mask))).values)
    assert np.array_equal(vectors[0], vectors[1])


BOX_SPACING = (0.93, 0.93, 0.5)
BOX_DIMS = (22, 20, 40)


def box_masks():
    """Blobs touching each of the six volume faces, and single voxels."""
    masks = {}
    centre = [n // 2 for n in BOX_DIMS]
    for axis in range(3):
        for side, at in (("lo", 0), ("hi", BOX_DIMS[axis] - 1)):
            data = np.zeros(BOX_DIMS, dtype=bool)
            box = [slice(c - 2, c + 3) for c in centre]
            box[axis] = slice(at, at + 1) if side == "lo" else slice(at - 2, at + 1)
            data[tuple(box)] = True
            data[tuple(c if a != axis else box[axis].start for a, c in enumerate(centre))] = False
            masks[f"face-{'xyz'[axis]}-{side}"] = data
    for name, voxel in (("voxel-inside", tuple(centre)), ("voxel-corner", (0, 0, 0))):
        data = np.zeros(BOX_DIMS, dtype=bool)
        data[voxel] = True
        masks[name] = data
    return masks


@pytest.mark.parametrize("name", sorted(box_masks()))
def test_box_windows_match_full_volume_filters(name, monkeypatch):
    # the images extraction discretizes, filtered over each image's own box
    # window, must hold the full-volume filter's values at every in-mask voxel
    from dcerad import radiomics
    from dcerad.filters import default_catalog, derive
    from dcerad.volume import DceSeries, masked_values
    rng = np.random.default_rng(77)
    phases = tuple(make_volume(rng.uniform(50, 250, BOX_DIMS), BOX_SPACING)
                   for _ in range(6))
    mask = make_mask(box_masks()[name])
    seen = []
    discretize_ = radiomics.discretize

    def recording(vol, m, ng):
        seen.append(masked_values(vol, m))
        return discretize_(vol, m, ng)

    monkeypatch.setattr(radiomics, "discretize", recording)
    series = DceSeries(phases)
    extract_radiomic_features(series, roi_for(mask))
    base = series.phases[radiomics.select_peak_phase(series, mask)]
    catalog = default_catalog()
    assert len(seen) == len(catalog)
    for image_id, got in zip(catalog, seen):
        assert np.array_equal(got, masked_values(derive(base, image_id), mask)), image_id.name


def test_extract_builds_the_pair_graph_once(monkeypatch):
    from functools import cached_property

    from dcerad.volume import DceSeries, Mask3D
    calls = []
    build = Mask3D.neighbour_pairs.func

    def counting(self):
        calls.append(self.dims)
        return build(self)

    counted = cached_property(counting)
    counted.__set_name__(Mask3D, "neighbour_pairs")
    monkeypatch.setattr(Mask3D, "neighbour_pairs", counted)
    rng = np.random.default_rng(5)
    dims = (16, 14, 12)
    series = DceSeries(tuple(make_volume(rng.uniform(50, 250, dims)) for _ in range(6)))
    data = np.zeros(dims, dtype=bool)
    data[4:11, 3:10, 3:9] = rng.random((7, 7, 6)) < 0.8
    extract_radiomic_features(series, roi_for(make_mask(data)))
    assert len(calls) == 1


def test_extract_shift_invariance_of_levels():
    rng = np.random.default_rng(12)
    vol = make_volume(rng.uniform(0, 100, (5, 5, 5)))
    shifted = make_volume(vol.data + 250.0)
    mask = make_mask(np.ones((5, 5, 5)))
    a = discretize(vol, mask, 16)
    b = discretize(shifted, mask, 16)
    assert np.array_equal(a.levels, b.levels)


def test_feature_name_schema():
    names = radiomic_feature_names()
    assert names[0] == "original_shape_VoxelVolume"
    assert "wavelet-LHH_glszm_ZoneEntropy" in names
    assert len(names) == len(set(names)) == 806
    assert len([n for n in names if n.startswith("original_shape_")]) == 14
