import numpy as np
import pytest

from dcerad.errors import NonPositiveSigma, VolumeTooSmall
from dcerad.filters import (DEFAULT_LOG_SIGMAS_MM, WAVELET_BANDS, DerivedImageId,
                            default_catalog, derive, log_filter, wavelet_bands)

from conftest import make_volume


# --- naive oracles ------------------------------------------------------------

def mirror(i, n):
    """Half-sample symmetric extension with repeats: -1 -> 0, n -> n-1,
    (period 2n, matching np.pad mode='symmetric')."""
    i = i % (2 * n)
    return i if i < n else 2 * n - 1 - i


def naive_haar(data, band):
    """Triple-loop separable transform, taps at offsets (0, +1)."""
    out = data.astype(np.float64).copy()
    for axis, letter in enumerate(band):
        k1 = -0.5 if letter == "H" else 0.5
        src = out.copy()
        n = data.shape[axis]
        it = np.ndindex(*out.shape)
        for idx in it:
            nxt = list(idx)
            nxt[axis] = mirror(idx[axis] + 1, n)
            out[idx] = 0.5 * src[idx] + k1 * src[tuple(nxt)]
    return out


def naive_log(data, spacing, sigma):
    """Full 3D Gaussian kernel (product of 1D taps) + explicit Laplacian."""
    taps = []
    for s in spacing:
        r = int(np.ceil(3.0 * sigma / s))
        t = np.exp(-0.5 * ((np.arange(-r, r + 1) * s) / sigma) ** 2)
        taps.append(t / t.sum())
    nx, ny, nz = data.shape
    smoothed = np.zeros_like(data, dtype=np.float64)
    rx, ry, rz = (len(t) // 2 for t in taps)
    for x in range(nx):
        for y in range(ny):
            for z in range(nz):
                acc = 0.0
                for a in range(-rx, rx + 1):
                    for b in range(-ry, ry + 1):
                        for c in range(-rz, rz + 1):
                            w = taps[0][a + rx] * taps[1][b + ry] * taps[2][c + rz]
                            acc += w * data[mirror(x + a, nx), mirror(y + b, ny),
                                            mirror(z + c, nz)]
                smoothed[x, y, z] = acc
    out = np.zeros_like(smoothed)
    for x in range(nx):
        for y in range(ny):
            for z in range(nz):
                lap = 0.0
                lap += (smoothed[mirror(x + 1, nx), y, z] - 2 * smoothed[x, y, z]
                        + smoothed[mirror(x - 1, nx), y, z]) / spacing[0] ** 2
                lap += (smoothed[x, mirror(y + 1, ny), z] - 2 * smoothed[x, y, z]
                        + smoothed[x, mirror(y - 1, ny), z]) / spacing[1] ** 2
                lap += (smoothed[x, y, mirror(z + 1, nz)] - 2 * smoothed[x, y, z]
                        + smoothed[x, y, mirror(z - 1, nz)]) / spacing[2] ** 2
                out[x, y, z] = lap
    return out


# --- wavelet --------------------------------------------------------------------

def test_wavelet_constant_volume():
    vol = make_volume(np.full((4, 4, 4), 3.5))
    bands = wavelet_bands(vol)
    assert np.array_equal(bands["LLL"].data, np.full((4, 4, 4), 3.5))
    for band in WAVELET_BANDS:
        if "H" in band:
            assert np.array_equal(bands[band].data, np.zeros((4, 4, 4))), band


def test_wavelet_linear_in_x():
    data = np.broadcast_to(np.arange(5.0)[:, None, None], (5, 4, 3)).copy()
    bands = wavelet_bands(make_volume(data))
    for band in WAVELET_BANDS:
        if band[1] == "H" or band[2] == "H":
            assert np.allclose(bands[band].data, 0.0, atol=0.0), band


@pytest.mark.parametrize("seed", range(5))
def test_wavelet_matches_naive_oracle(seed):
    rng = np.random.default_rng(seed)
    vol = make_volume(rng.normal(size=(4, 4, 4)))
    bands = wavelet_bands(vol)
    for band in WAVELET_BANDS:
        expected = naive_haar(vol.data, band)
        assert np.allclose(bands[band].data, expected, atol=1e-12), band


def test_wavelet_preserves_dims():
    vol = make_volume(np.zeros((3, 5, 2)))
    for band, out in wavelet_bands(vol).items():
        assert out.dims == (3, 5, 2)


def test_wavelet_too_small():
    with pytest.raises(VolumeTooSmall):
        wavelet_bands(make_volume(np.zeros((1, 4, 4))))


# --- LoG ------------------------------------------------------------------------

def test_log_constant_is_zero():
    vol = make_volume(np.full((6, 6, 6), 42.0))
    out = log_filter(vol, 1.0)
    assert np.allclose(out.data, 0.0, atol=1e-9)


def test_log_quadratic_interior():
    n = 14
    data = np.broadcast_to((np.arange(n, dtype=np.float64) ** 2)[:, None, None],
                           (n, 5, 5)).copy()
    out = log_filter(make_volume(data), 1.0)
    # radius is 3 at sigma 1, spacing 1; x in [4, n-5] has full support
    interior = out.data[4:n - 4, :, :]
    assert np.allclose(interior, 2.0, atol=1e-9)


@pytest.mark.parametrize("seed,sigma", [(0, 1.0), (1, 0.8), (2, 1.5)])
def test_log_matches_naive_oracle(seed, sigma):
    rng = np.random.default_rng(seed)
    spacing = (1.0, 1.3, 0.7)
    vol = make_volume(rng.normal(size=(5, 5, 5)), spacing)
    out = log_filter(vol, sigma)
    expected = naive_log(vol.data, spacing, sigma)
    assert np.allclose(out.data, expected, atol=1e-10)


REGION_DIMS = (13, 11, 9)


def region_boxes():
    """Boxes touching none and each one of the six faces of REGION_DIMS."""
    boxes = {"inside": (slice(4, 8), slice(3, 7), slice(3, 6))}
    for axis in range(3):
        n = REGION_DIMS[axis]
        for side, cut in (("lo", slice(0, 3)), ("hi", slice(n - 2, n))):
            box = list(boxes["inside"])
            box[axis] = cut
            boxes[f"face-{'xyz'[axis]}-{side}"] = tuple(box)
    return boxes


@pytest.mark.parametrize("name", sorted(region_boxes()))
@pytest.mark.parametrize("sigma", DEFAULT_LOG_SIGMAS_MM)
def test_region_log_equals_full_log_cut(name, sigma):
    # each pass over the box +-1 only: the same taps, order and mirror
    # extension, so the same floats as the whole response cut to the box
    rng = np.random.default_rng(23)
    vol = make_volume(rng.uniform(50, 250, REGION_DIMS), (0.93, 0.93, 1.6))
    box = region_boxes()[name]
    region = log_filter(vol, sigma, box)
    assert region.spacing == vol.spacing
    assert np.array_equal(region.data, log_filter(vol, sigma).data[box])
    image_id = DerivedImageId("log", sigma_mm=sigma)
    assert np.array_equal(derive(vol, image_id, box).data, region.data)


@pytest.mark.parametrize("image_id", default_catalog()[:9], ids=lambda i: i.name)
def test_derive_cuts_to_the_box(image_id):
    rng = np.random.default_rng(24)
    vol = make_volume(rng.normal(size=(6, 5, 4)), (0.9, 1.1, 2.0))
    box = (slice(1, 4), slice(0, 2), slice(2, 4))
    assert np.array_equal(derive(vol, image_id, box).data, derive(vol, image_id).data[box])


def test_log_rejects_bad_sigma():
    with pytest.raises(NonPositiveSigma):
        log_filter(make_volume(np.zeros((3, 3, 3))), 0.0)


# --- derive / catalog --------------------------------------------------------------

def test_derive_original_is_identity():
    vol = make_volume(np.arange(8.0).reshape(2, 2, 2))
    assert derive(vol, DerivedImageId("original")) is vol


def test_derive_wavelet_lll_constant():
    vol = make_volume(np.full((3, 3, 3), 2.0))
    out = derive(vol, DerivedImageId("wavelet", band="LLL"))
    assert np.allclose(out.data, 2.0)


@pytest.mark.parametrize("band", WAVELET_BANDS)
def test_derive_wavelet_band_equals_all_bands(band):
    rng = np.random.default_rng(41)
    vol = make_volume(rng.normal(size=(5, 6, 7)), (0.9, 1.1, 2.0))
    out = derive(vol, DerivedImageId("wavelet", band=band))
    assert np.array_equal(out.data, wavelet_bands(vol)[band].data)
    assert out.spacing == vol.spacing


def test_derive_log_constant():
    vol = make_volume(np.full((4, 4, 4), 9.0))
    out = derive(vol, DerivedImageId("log", sigma_mm=1.0))
    assert np.allclose(out.data, 0.0, atol=1e-9)


def test_default_catalog_has_11_images():
    catalog = default_catalog()
    assert len(catalog) == 11
    names = [c.name for c in catalog]
    assert names[0] == "original"
    assert names[1:9] == [f"wavelet-{b}" for b in WAVELET_BANDS]
    assert names[9:] == ["log-sigma-1mm", "log-sigma-3mm"]


# --- algebraic properties ------------------------------------------------------------

@pytest.mark.parametrize("seed", range(3))
def test_linearity(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 4, 4))
    b = rng.normal(size=(4, 4, 4))
    alpha = 2.75
    combo = make_volume(alpha * a + b)
    for band in ("LLH", "HHH"):
        image_id = DerivedImageId("wavelet", band=band)
        lhs = derive(combo, image_id).data
        rhs = (alpha * derive(make_volume(a), image_id).data
               + derive(make_volume(b), image_id).data)
        assert np.allclose(lhs, rhs, atol=1e-12)
    image_id = DerivedImageId("log", sigma_mm=1.0)
    lhs = derive(combo, image_id).data
    rhs = (alpha * derive(make_volume(a), image_id).data
           + derive(make_volume(b), image_id).data)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_intensity_shift_property():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(5, 5, 5))
    k = 17.0
    shifted = make_volume(a + k)
    base = make_volume(a)
    bands_a = wavelet_bands(base)
    bands_b = wavelet_bands(shifted)
    assert np.allclose(bands_b["LLL"].data, bands_a["LLL"].data + k, atol=1e-12)
    for band in WAVELET_BANDS:
        if "H" in band:
            assert np.allclose(bands_b[band].data, bands_a[band].data, atol=1e-12)
    assert np.allclose(log_filter(shifted, 1.0).data, log_filter(base, 1.0).data,
                       atol=1e-9)
