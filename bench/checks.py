"""Output checks, computed apart from the program.

The feature-table checks read the raw volumes and masks themselves and
recompute what the table claims: the 11 dynamic features, the shape volume
and diameter, four first-order features of the original image, and (on a
fixed sample of lesions) the original-image texture features from
co-occurrence, size-zone and dependence matrices built voxel by voxel.  The
report checks test properties every report must have.  Each check returns a
list of error strings; an empty list means the output passed.
"""

import json
import math
from collections import deque
from pathlib import Path

import numpy as np

from dcerad import radiomics
from dcerad.kinetics import DYNAMIC_FEATURE_NAMES as DYNAMIC

RTOL = 1e-9
FTV_THRESHOLD_PCT = 70.0
BIN_COUNT = 32
TEXTURE_SAMPLE = 2        # lesions with the fewest in-mask voxels


def read_table(path) -> tuple[list, list, list, np.ndarray]:
    """(names, keys, labels, values) of a feature table, parsed independently."""
    lines = Path(path).read_text().splitlines()
    names = lines[0].split(",")[3:]
    keys, labels, rows = [], [], []
    for line in lines[1:]:
        fields = line.split(",")
        keys.append((fields[0], fields[1]))
        labels.append(fields[2])
        rows.append([float(v) for v in fields[3:]])
    return names, keys, labels, np.array(rows, dtype=np.float64)


def read_lesion(manifest: Path, row: int):
    """(phases as flat float64 arrays, flat bool mask, dims, spacing)."""
    fields = manifest.read_text().splitlines()[row].split(",")
    paths = [manifest.parent / f for f in fields[2:9]]
    meta = json.loads(paths[0].with_name(paths[0].name + ".json").read_text())
    flats = [np.fromfile(p, dtype="<f4").astype(np.float64) for p in paths]
    return flats[:6], flats[6] != 0, tuple(meta["dims"]), tuple(meta["spacing"])


# --- dynamic block --------------------------------------------------------------


def dynamic_reference(phases, mask, spacing) -> dict:
    c0, c1, c2, c5 = (phases[k][mask] for k in (0, 1, 2, 5))
    cp = c1 if c1.mean() >= c2.mean() else c2
    n = c0.size
    eps = 1e-6 * max(float(c0.max()), 1.0)

    ierm_ok = c0 > eps
    ierm = (cp[ierm_ok] - c0[ierm_ok]) / c0[ierm_ok] * 100.0
    forced_fast = int(np.count_nonzero(~ierm_ok & (cp > eps)))
    forced_slow = int(np.count_nonzero(~ierm_ok)) - forced_fast
    slow = int(np.count_nonzero(ierm < 50.0)) + forced_slow
    fast = int(np.count_nonzero(ierm > 100.0)) + forced_fast
    medium = n - slow - fast

    derm_ok = cp > eps
    derm = (c5[derm_ok] - cp[derm_ok]) / cp[derm_ok] * 100.0
    persistent = int(np.count_nonzero(derm > 10.0))
    washout = int(np.count_nonzero(derm < -10.0))
    plateau = n - persistent - washout

    ser_ok = np.abs(c5 - c0) > eps
    ser = np.maximum((cp[ser_ok] - c0[ser_ok]) / (c5[ser_ok] - c0[ser_ok]), 0.0)
    voxel_mm3 = spacing[0] * spacing[1] * spacing[2]
    return {
        "slow_ratio": slow / n * 100.0, "medium_ratio": medium / n * 100.0,
        "fast_ratio": fast / n * 100.0,
        "persistent_ratio": persistent / n * 100.0,
        "plateau_ratio": plateau / n * 100.0, "washout_ratio": washout / n * 100.0,
        "average_pe": float(ierm.mean()), "peak_pe": float(ierm.max()),
        "average_ser": float(ser.mean()) if ser.size else 0.0,
        "peak_ser": float(ser.max()) if ser.size else 0.0,
        "ftv_mm3": int(np.count_nonzero(ierm >= FTV_THRESHOLD_PCT)) * voxel_mm3,
    }


# --- texture matrices, voxel by voxel ----------------------------------------------


_NEIGHBOURS = [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
               for dz in (-1, 0, 1) if (dx, dy, dz) != (0, 0, 0)]
# one of each +/- pair of the 26 neighbours
_HALF = [d for d in _NEIGHBOURS if d > (0, 0, 0)]


def gray_levels(values: np.ndarray, ng: int = BIN_COUNT) -> np.ndarray:
    vmin, vmax = values.min(), values.max()
    if vmax == vmin:
        return np.ones(values.shape, dtype=int)
    return np.minimum(1 + np.floor(ng * (values - vmin) / (vmax - vmin)).astype(int), ng)


def texture_matrices(level_of: dict, ng: int = BIN_COUNT):
    """GLCM, GLSZM and GLDM (alpha 0) from {(x, y, z): level}."""
    glcm = np.zeros((ng, ng))
    dependence = {}
    for (x, y, z), level in level_of.items():
        for dx, dy, dz in _HALF:
            other = level_of.get((x + dx, y + dy, z + dz))
            if other is not None:
                glcm[level - 1, other - 1] += 1
        dependence[(x, y, z)] = sum(
            1 for dx, dy, dz in _NEIGHBOURS
            if level_of.get((x + dx, y + dy, z + dz)) == level)
    glcm = glcm + glcm.T
    if glcm.sum() > 0:
        glcm = glcm / glcm.sum()

    zones, seen = [], set()
    for start, level in level_of.items():
        if start in seen:
            continue
        seen.add(start)
        queue, size = deque([start]), 0
        while queue:
            x, y, z = queue.popleft()
            size += 1
            for dx, dy, dz in _NEIGHBOURS:
                nb = (x + dx, y + dy, z + dz)
                if nb not in seen and level_of.get(nb) == level:
                    seen.add(nb)
                    queue.append(nb)
        zones.append((level, size))
    glszm = np.zeros((ng, max(s for _, s in zones)), dtype=np.int64)
    for level, size in zones:
        glszm[level - 1, size - 1] += 1

    gldm = np.zeros((ng, max(dependence.values()) + 1), dtype=np.int64)
    for voxel, dep in dependence.items():
        gldm[level_of[voxel] - 1, dep] += 1
    return glcm, glszm, gldm


def texture_reference(peak_flat, mask, dims) -> dict:
    """Original-image GLCM/GLSZM/GLDM features from voxel-by-voxel matrices,
    turned into features by the program's public feature formulas."""
    idx = np.flatnonzero(mask)
    nx, ny = dims[0], dims[1]
    coords = zip((idx % nx).tolist(), ((idx // nx) % ny).tolist(), (idx // (nx * ny)).tolist())
    levels = gray_levels(peak_flat[idx])
    glcm, glszm, gldm = texture_matrices(dict(zip(coords, levels.tolist())))
    out = {}
    for family, feats in (("glcm", radiomics.glcm_features(glcm)),
                          ("glszm", radiomics.glszm_features(glszm, idx.size)),
                          ("gldm", radiomics.gldm_features(gldm))):
        out.update({f"original_{family}_{k}": v for k, v in feats.items()})
    return out


# --- table and report checks ---------------------------------------------------------


def _compare(errors, where, name, got, want):
    got, want = float(got), float(want)
    if not math.isclose(got, want, rel_tol=RTOL, abs_tol=1e-9):
        errors.append(f"{where}: {name} is {got!r}, recomputed {want!r}")


def check_table(table_path, corpus) -> list:
    """Every lesion's dynamic block, shape volume and diameter, and
    original-image first-order stats; texture on the smallest lesions."""
    errors = []
    names, keys, _, values = read_table(table_path)
    if keys != [tuple(k) for k in corpus.keys]:
        return [f"{table_path}: rows do not match the manifest's lesions"]
    col = {n: i for i, n in enumerate(names)}
    sizes = []
    for row, key in enumerate(keys):
        where = f"lesion {key[0]}/{key[1]}"
        phases, mask, dims, spacing = read_lesion(corpus.manifest, row)
        got = {n: values[row, col[n]] for n in names}
        for triple in (DYNAMIC[:3], DYNAMIC[3:6]):
            total = float(sum(got[n] for n in triple))
            if not math.isclose(total, 100.0, abs_tol=1e-9):
                errors.append(f"{where}: {'+'.join(triple)} = {total!r}, not 100")
        for n, want in dynamic_reference(phases, mask, spacing).items():
            _compare(errors, where, n, got[n], want)

        n_voxels = int(np.count_nonzero(mask))
        sizes.append(n_voxels)
        voxel_mm3 = spacing[0] * spacing[1] * spacing[2]
        _compare(errors, where, "original_shape_VoxelVolume",
                 got["original_shape_VoxelVolume"], n_voxels * voxel_mm3)
        diagonal = math.sqrt(sum(s * s for s in spacing))
        diameter = float(got["original_shape_Maximum3DDiameter"])
        expected = 2.0 * max(corpus.semi_axes_mm[row])
        if abs(diameter - expected) > diagonal:
            errors.append(f"{where}: Maximum3DDiameter {diameter!r} is more than one "
                          f"voxel diagonal from 2 x semi-axis {expected!r}")

        peak = phases[1] if phases[1][mask].mean() >= phases[2][mask].mean() else phases[2]
        v = peak[mask]
        for n, want in (("Mean", v.mean()), ("Minimum", v.min()), ("Maximum", v.max()),
                        ("Median", np.median(v))):
            _compare(errors, where, f"original_firstorder_{n}",
                     got[f"original_firstorder_{n}"], float(want))

    for row in np.argsort(sizes, kind="stable")[:TEXTURE_SAMPLE]:
        key = keys[row]
        phases, mask, dims, _ = read_lesion(corpus.manifest, int(row))
        peak = phases[1] if phases[1][mask].mean() >= phases[2][mask].mean() else phases[2]
        for n, want in texture_reference(peak, mask, dims).items():
            _compare(errors, f"lesion {key[0]}/{key[1]}", n, values[row, col[n]], want)
    return errors


def trapezoid_area(points) -> float:
    area = 0.0
    for (f0, t0), (f1, t1) in zip(points, points[1:]):
        area += (f1 - f0) * (t0 + t1) / 2.0
    return area


def check_report(report: dict, n_lesions: int, where: str) -> list:
    errors = []
    points = [(float(p[0]), float(p[1])) for p in report["roc_points"]]
    area = trapezoid_area(points)
    auc = report["pooled"]["auc"]
    if not math.isclose(auc, area, rel_tol=1e-12, abs_tol=1e-12):
        errors.append(f"{where}: pooled AUC {auc!r} != trapezoidal ROC area {area!r}")
    n_test = sum(f["n_test"] for f in report["folds"])
    if n_test != n_lesions:
        errors.append(f"{where}: fold n_test sums to {n_test}, not {n_lesions} lesions")
    return errors

