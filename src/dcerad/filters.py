"""Derived images: one-level undecimated Haar wavelet bands and LoG responses.

Wavelet: per axis, low-pass taps (0.5, 0.5) and high-pass taps (0.5, -0.5)
placed at offsets (0, +1), so out[i] = k0*v[i] + k1*v[i+1] with symmetric
(mirror) extension past the last sample.  Band "XYZ" applies the X tap pair
along x, Y along y, Z along z; outputs keep the input dims.

LoG: separable Gaussian with physical sigma (per-axis radius ceil(3*sigma/s),
taps renormalized to unit sum), then the 6-neighbor Laplacian with central
differences scaled by the squared spacing.  Symmetric extension throughout.
Given a box, log_filter returns the response over that box only: the
Laplacian reads the box widened by 1, so the x pass runs over those rows in
x, the y pass over them in x and y, and the z pass over them in all three.
Each value keeps its taps, their order and the mirror extension at the
input's faces, so it is the float the whole response holds there.

Inputs may be float32 or float64.  Every filtered image is float64, and is
the same bits as the filter of the input converted to float64 first.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveSigma, VolumeTooSmall
from .volume import Volume3D

WAVELET_BANDS = ("LLL", "LLH", "LHL", "HLL", "LHH", "HLH", "HHL", "HHH")

DEFAULT_LOG_SIGMAS_MM = (1.0, 3.0)


@dataclass(frozen=True)
class DerivedImageId:
    """Identifier of one derived image: original, wavelet band, or LoG scale."""

    kind: str                   # "original" | "wavelet" | "log"
    band: str | None = None     # wavelet band, e.g. "LLL"
    sigma_mm: float | None = None

    def __post_init__(self):
        if self.kind == "wavelet" and self.band not in WAVELET_BANDS:
            raise ValueError(f"unknown wavelet band {self.band!r}")
        if self.kind == "log" and (self.sigma_mm is None or self.sigma_mm <= 0):
            raise NonPositiveSigma(f"LoG sigma must be > 0, got {self.sigma_mm}")
        if self.kind not in ("original", "wavelet", "log"):
            raise ValueError(f"unknown derived-image kind {self.kind!r}")

    @property
    def name(self) -> str:
        if self.kind == "original":
            return "original"
        if self.kind == "wavelet":
            return f"wavelet-{self.band}"
        return f"log-sigma-{self.sigma_mm:g}mm"


def default_catalog(log_sigmas_mm=DEFAULT_LOG_SIGMAS_MM) -> tuple[DerivedImageId, ...]:
    """original + 8 wavelet bands + one LoG per sigma (default 11 images)."""
    ids = [DerivedImageId("original")]
    ids += [DerivedImageId("wavelet", band=b) for b in WAVELET_BANDS]
    ids += [DerivedImageId("log", sigma_mm=float(s)) for s in log_sigmas_mm]
    return tuple(ids)


def _along(axis: int, start, stop) -> tuple[slice, ...]:
    """Basic-slice index of start:stop along one axis of a 3D array."""
    return tuple(slice(start, stop) if a == axis else slice(None) for a in range(3))


def _haar_pass(data: np.ndarray, axis: int, high: bool) -> np.ndarray:
    """One 2-tap pass along axis; mirror extension supplies the final sample."""
    half = 0.5 * data
    shifted = np.concatenate([half[_along(axis, 1, None)], half[_along(axis, -1, None)]],
                             axis=axis)
    return half - shifted if high else half + shifted


def _haar_bands(vol: Volume3D, bands) -> dict[str, Volume3D]:
    """The named one-level bands.  Bands that share their leading letters
    share those passes: all eight take 2 x, 4 y and 8 z passes, one takes 3."""
    if min(vol.dims) < 2:
        raise VolumeTooSmall(f"wavelet transform needs every dim >= 2, got {vol.dims}")
    wanted = {b[:n] for b in bands for n in (1, 2, 3)}
    partial = {"": np.asarray(vol.data, dtype=np.float64)}
    for axis in range(3):
        partial = {p + c: _haar_pass(partial[p], axis, c == "H")
                   for p in partial for c in "LH" if p + c in wanted}
    return {b: Volume3D(data, vol.spacing) for b, data in partial.items()}


def wavelet_bands(vol: Volume3D) -> dict[str, Volume3D]:
    """All eight one-level bands, keyed by band name, same dims as the input."""
    return _haar_bands(vol, WAVELET_BANDS)


def _gaussian_taps(sigma_mm: float, spacing: float) -> np.ndarray:
    radius = int(np.ceil(3.0 * sigma_mm / spacing))
    offsets = np.arange(-radius, radius + 1, dtype=np.float64) * spacing
    taps = np.exp(-0.5 * (offsets / sigma_mm) ** 2)
    return taps / taps.sum()


def _mirror(index: np.ndarray, n: int) -> np.ndarray:
    """Positions of a symmetric (mirror) extension of n samples, any width:
    the same samples np.pad(mode="symmetric") places there."""
    m = np.mod(index, 2 * n)
    return np.where(m < n, m, 2 * n - 1 - m)


def _conv1d_symmetric(data: np.ndarray, taps: np.ndarray, axis: int,
                      start: int, stop: int) -> np.ndarray:
    """Correlate along one axis with symmetric (mirror) boundary extension,
    at positions start:stop along that axis."""
    radius = (len(taps) - 1) // 2
    n = data.shape[axis]
    lo, hi = start - radius, stop + radius
    if lo >= 0 and hi <= n:               # no mirror needed: read in place
        source = data[_along(axis, lo, hi)]
    else:
        source = data.take(_mirror(np.arange(lo, hi), n), axis=axis)
    shape = list(source.shape)
    shape[axis] = stop - start
    out = np.zeros(shape)
    for j, w in enumerate(taps):
        out += w * source[_along(axis, j, j + stop - start)]
    return out


def _laplacian(data: np.ndarray, spacing) -> np.ndarray:
    """6-neighbor Laplacian, central differences with mirror extension."""
    out = np.zeros_like(data)
    for axis in range(3):
        padded = np.pad(data, [(1, 1) if a == axis else (0, 0) for a in range(3)],
                        mode="symmetric")
        n = data.shape[axis]
        fwd = padded[_along(axis, 2, n + 2)]
        bwd = padded[_along(axis, 0, n)]
        out += (fwd - 2.0 * data + bwd) / spacing[axis] ** 2
    return out


def log_filter(vol: Volume3D, sigma_mm: float, box=None) -> Volume3D:
    """Laplacian of Gaussian at a physical scale, over the whole volume or,
    given box (3 slices), over that box only (see the module docstring)."""
    if not sigma_mm > 0:
        raise NonPositiveSigma(f"sigma must be > 0, got {sigma_mm}")
    data = np.asarray(vol.data, dtype=np.float64)
    box = box or (slice(None),) * 3
    spans = [s.indices(n)[:2] for s, n in zip(box, data.shape)]
    grown = [(max(b0 - 1, 0), min(b1 + 1, n)) for (b0, b1), n in zip(spans, data.shape)]
    for axis in range(3):
        taps = _gaussian_taps(sigma_mm, vol.spacing[axis])
        data = _conv1d_symmetric(data, taps, axis, *grown[axis])
    inner = tuple(slice(b0 - g0, b1 - g0) for (b0, b1), (g0, _) in zip(spans, grown))
    return Volume3D(_laplacian(data, vol.spacing)[inner], vol.spacing)


def filter_radius_voxels(image_id: DerivedImageId, spacing) -> tuple[int, int, int]:
    """Per-axis input dependency radius of one derived image: filtered over a
    window widened by it, the image holds its full-volume values inside."""
    if image_id.kind == "original":
        return (0, 0, 0)
    if image_id.kind == "wavelet":
        return (1, 1, 1)
    return tuple(int(np.ceil(3.0 * image_id.sigma_mm / s)) + 1 for s in spacing)


def derive(vol: Volume3D, image_id: DerivedImageId, box=None) -> Volume3D:
    """Dispatch to the identity, one wavelet band, or one LoG response; with
    box, a 3-tuple of slices, the image is cut to that box."""
    if image_id.kind == "log":
        return log_filter(vol, image_id.sigma_mm, box)
    if image_id.kind == "wavelet":
        vol = _haar_bands(vol, (image_id.band,))[image_id.band]
    return vol if box is None else Volume3D(vol.data[box], vol.spacing)
