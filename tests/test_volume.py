import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcerad.errors import DimensionMismatch, EmptyMask, NonFiniteIntensity
from dcerad.volume import (NEIGHBOUR_OFFSETS, DceSeries, LesionRoi, Volume3D, bounding_box,
                           masked_values, voxel_count, voxel_volume_mm3)

from conftest import make_mask, make_volume


def test_voxel_count_empty():
    assert voxel_count(make_mask(np.zeros((2, 2, 2)))) == 0


def test_voxel_count_full():
    assert voxel_count(make_mask(np.ones((2, 2, 2)))) == 8


def test_voxel_count_single():
    data = np.zeros((3, 3, 3), dtype=bool)
    data[1, 2, 0] = True
    assert voxel_count(make_mask(data)) == 1


def test_masked_values_constant():
    vol = make_volume(np.full((2, 2, 2), 7.0))
    mask = make_mask(np.ones((2, 2, 2)))
    assert masked_values(vol, mask).tolist() == [7.0] * 8


def test_masked_values_empty_mask():
    vol = make_volume(np.full((2, 2, 2), 7.0))
    assert masked_values(vol, make_mask(np.zeros((2, 2, 2)))).size == 0


def test_masked_values_ordering():
    # values 1..8 in x-fastest order; mask true at the first and last voxel
    vol = Volume3D.from_flat((2, 2, 2), (1, 1, 1), np.arange(1.0, 9.0))
    mask_data = np.zeros((2, 2, 2), dtype=bool)
    mask_data[0, 0, 0] = True
    mask_data[1, 1, 1] = True
    assert masked_values(vol, make_mask(mask_data)).tolist() == [1.0, 8.0]


def test_masked_values_dim_mismatch():
    vol = make_volume(np.zeros((2, 2, 2)))
    with pytest.raises(DimensionMismatch):
        masked_values(vol, make_mask(np.ones((2, 2, 3))))


def test_bounding_box_single_voxel():
    data = np.zeros((4, 4, 4), dtype=bool)
    data[1, 2, 3] = True
    assert bounding_box(make_mask(data)) == ((1, 1), (2, 2), (3, 3))


def test_bounding_box_full():
    assert bounding_box(make_mask(np.ones((4, 4, 4)))) == ((0, 3), (0, 3), (0, 3))


def test_bounding_box_two_voxels():
    data = np.zeros((3, 3, 3), dtype=bool)
    data[0, 0, 0] = True
    data[2, 1, 0] = True
    assert bounding_box(make_mask(data)) == ((0, 2), (0, 1), (0, 0))


def test_bounding_box_empty_mask():
    with pytest.raises(EmptyMask):
        bounding_box(make_mask(np.zeros((2, 2, 2))))


@pytest.mark.parametrize("spacing,expected", [
    ((1, 1, 1), 1.0),
    ((0.93, 0.93, 0.5), 0.43245),
    ((2, 2, 2), 8.0),
])
def test_voxel_volume(spacing, expected):
    vol = make_volume(np.zeros((2, 2, 2)), spacing)
    assert voxel_volume_mm3(vol) == pytest.approx(expected, abs=1e-12)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_masked_values_length_matches_count(seed):
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in rng.integers(1, 9, size=3))
    vol = make_volume(rng.normal(size=dims))
    mask = make_mask(rng.random(dims) < 0.5)
    assert masked_values(vol, mask).size == voxel_count(mask)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_bounding_box_tight(seed):
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in rng.integers(1, 9, size=3))
    data = rng.random(dims) < 0.3
    if not data.any():
        data.flat[int(rng.integers(0, data.size))] = True
    (x0, x1), (y0, y1), (z0, z1) = bounding_box(make_mask(data))
    # every true voxel inside, and every face of the box touched (exhaustive scan)
    xs, ys, zs = np.nonzero(data)
    assert xs.min() == x0 and xs.max() == x1
    assert ys.min() == y0 and ys.max() == y1
    assert zs.min() == z0 and zs.max() == z1


def test_volume_rejects_nan():
    data = np.zeros((2, 2, 2))
    data[0, 1, 0] = np.nan
    with pytest.raises(NonFiniteIntensity):
        make_volume(data)


def test_volume_rejects_bad_spacing():
    with pytest.raises(DimensionMismatch):
        make_volume(np.zeros((2, 2, 2)), spacing=(1.0, 0.0, 1.0))


def test_volume_immutable():
    vol = make_volume(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        vol.data[0, 0, 0] = 1.0


def test_flat_roundtrip():
    flat = np.arange(24.0)
    vol = Volume3D.from_flat((2, 3, 4), (1, 1, 1), flat)
    assert vol.flat().tolist() == flat.tolist()
    assert vol.data[1, 0, 0] == 1.0      # x varies fastest
    assert vol.data[0, 1, 0] == 2.0
    assert vol.data[0, 0, 1] == 6.0


def test_series_needs_matching_grids():
    a = make_volume(np.zeros((2, 2, 2)))
    b = make_volume(np.zeros((2, 2, 3)))
    with pytest.raises(DimensionMismatch):
        DceSeries((a, a, a, a, a, b))


def test_series_needs_six_phases():
    a = make_volume(np.zeros((2, 2, 2)))
    with pytest.raises(DimensionMismatch):
        DceSeries((a, a, a))


def test_lesion_roi_rejects_empty_mask():
    with pytest.raises(EmptyMask):
        LesionRoi("p", "l", make_mask(np.zeros((2, 2, 2))), "benign")


def test_lesion_roi_rejects_unknown_label():
    mask = make_mask(np.ones((2, 2, 2)))
    with pytest.raises(DimensionMismatch):
        LesionRoi("p", "l", mask, "suspicious")


@pytest.mark.parametrize("seed", range(6))
def test_pairs_along_each_neighbour_pair_once_sorted(seed):
    rng = np.random.default_rng(300 + seed)
    dims = tuple(int(d) for d in rng.integers(2, 10, size=3))
    data = rng.random(dims) < rng.uniform(0.3, 0.9)        # holes throughout
    data.flat[int(rng.integers(0, data.size))] = True
    a, b = make_mask(data).neighbour_pairs
    assert np.all(np.diff(a) >= 0)
    coords = [tuple(c) for c in np.argwhere(data.transpose(2, 1, 0))[:, ::-1]]
    index = {c: i for i, c in enumerate(coords)}        # x-fastest in-mask order
    offset_of = {(i, index[n]): k for c, i in index.items()
                 for k, off in enumerate(NEIGHBOUR_OFFSETS)
                 if (n := tuple(int(u) + v for u, v in zip(c, off))) in index}
    expected = set()
    for c, i in index.items():
        for step in np.ndindex(3, 3, 3):
            j = index.get(tuple(int(u) + int(s) - 1 for u, s in zip(c, step)))
            if j is not None and j != i:
                expected.add((min(i, j), max(i, j)))
    got = [(min(i, j), max(i, j)) for i, j in zip(a.tolist(), b.tolist())]
    assert len(got) == len(set(got))
    assert set(got) == expected
    # b = a + one of the offsets, and for each a the pairs come by offset
    assert (list(zip(a.tolist(), b.tolist()))
            == sorted(offset_of, key=lambda ab: (ab[0], offset_of[ab])))
