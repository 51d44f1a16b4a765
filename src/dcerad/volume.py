"""Geometry-aware 3D volumes, binary masks and the six-phase DCE series.

Conventions fixed once, used everywhere:

* arrays are indexed ``data[x, y, z]`` with shape ``(nx, ny, nz)``;
* the flat voxel order (file layout, masked-value order) is x-fastest,
  i.e. ``ravel(order="F")`` of these arrays;
* intensities are float64 and finite; spacing is mm/voxel.

Volumes and masks are immutable after construction (backing arrays are
flagged read-only) so they can be shared across workers.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, EmptyMask, NonFiniteIntensity

BENIGN = "benign"
MALIGNANT = "malignant"
LABELS = (BENIGN, MALIGNANT)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Volume3D:
    """A 3D scalar image with physical voxel spacing."""

    data: np.ndarray              # (nx, ny, nz) float64
    spacing: tuple[float, float, float]

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 3 or min(data.shape) < 1:
            raise DimensionMismatch(f"volume needs 3 positive dims, got shape {data.shape}")
        if not np.isfinite(data).all():
            bad = np.argwhere(~np.isfinite(data))[0]
            raise NonFiniteIntensity(f"non-finite intensity at voxel {tuple(int(i) for i in bad)}")
        spacing = tuple(float(s) for s in self.spacing)
        if len(spacing) != 3 or any(not np.isfinite(s) or s <= 0 for s in spacing):
            raise DimensionMismatch(f"spacing must be 3 finite positive values, got {spacing}")
        object.__setattr__(self, "data", _freeze(data))
        object.__setattr__(self, "spacing", spacing)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    @classmethod
    def from_flat(cls, dims, spacing, flat) -> "Volume3D":
        """Build from a flat x-fastest scalar sequence."""
        flat = np.asarray(flat, dtype=np.float64)
        nx, ny, nz = (int(d) for d in dims)
        if flat.size != nx * ny * nz:
            raise DimensionMismatch(f"{flat.size} values for dims {(nx, ny, nz)}")
        return cls(flat.reshape((nx, ny, nz), order="F"), spacing)

    def flat(self) -> np.ndarray:
        """Values in the canonical x-fastest order."""
        return self.data.ravel(order="F")


@dataclass(frozen=True)
class Mask3D:
    """A binary 3D mask on the same grid conventions as Volume3D."""

    data: np.ndarray              # (nx, ny, nz) bool

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.dtype != np.bool_:
            data = data.astype(bool)
        if data.ndim != 3 or min(data.shape) < 1:
            raise DimensionMismatch(f"mask needs 3 positive dims, got shape {data.shape}")
        object.__setattr__(self, "data", _freeze(data))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    @classmethod
    def from_flat(cls, dims, flat) -> "Mask3D":
        flat = np.asarray(flat)
        nx, ny, nz = (int(d) for d in dims)
        if flat.size != nx * ny * nz:
            raise DimensionMismatch(f"{flat.size} values for dims {(nx, ny, nz)}")
        return cls(flat.reshape((nx, ny, nz), order="F").astype(bool))

    def flat(self) -> np.ndarray:
        return self.data.ravel(order="F")


@dataclass(frozen=True)
class DceSeries:
    """Six co-registered phases C0..C5 sharing one grid."""

    phases: tuple[Volume3D, ...]

    def __post_init__(self):
        phases = tuple(self.phases)
        if len(phases) != 6:
            raise DimensionMismatch(f"a DCE series has exactly 6 phases, got {len(phases)}")
        first = phases[0]
        for i, p in enumerate(phases[1:], start=1):
            if p.dims != first.dims or p.spacing != first.spacing:
                raise DimensionMismatch(f"phase {i} grid differs from phase 0")
        object.__setattr__(self, "phases", phases)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.phases[0].dims

    @property
    def spacing(self) -> tuple[float, float, float]:
        return self.phases[0].spacing


@dataclass(frozen=True)
class LesionRoi:
    """One lesion: tumor mask plus identifiers and the ground-truth label."""

    patient_id: str
    lesion_id: str
    mask: Mask3D
    label: str = field(default=BENIGN)

    def __post_init__(self):
        if self.label not in LABELS:
            raise DimensionMismatch(f"label must be one of {LABELS}, got {self.label!r}")
        if voxel_count(self.mask) == 0:
            raise EmptyMask(f"lesion {self.patient_id}/{self.lesion_id} has an empty mask")


# --- operations ---------------------------------------------------------------

def voxel_count(mask: Mask3D) -> int:
    """Number of true voxels."""
    return int(np.count_nonzero(mask.data))


def masked_values(vol: Volume3D, mask: Mask3D) -> np.ndarray:
    """Volume values at true voxels, in x-fastest voxel order."""
    if vol.dims != mask.dims:
        raise DimensionMismatch(f"volume dims {vol.dims} != mask dims {mask.dims}")
    return vol.flat()[mask.flat()]


def bounding_box(mask: Mask3D) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
    """Tight inclusive voxel ranges ((x0,x1),(y0,y1),(z0,z1)) of the true set."""
    if not mask.data.any():
        raise EmptyMask("bounding_box of an empty mask")
    ranges = []
    for axis in range(3):
        other = tuple(a for a in range(3) if a != axis)
        hit = mask.data.any(axis=other)
        idx = np.flatnonzero(hit)
        ranges.append((int(idx[0]), int(idx[-1])))
    return tuple(ranges)


def voxel_volume_mm3(vol: Volume3D) -> float:
    """Physical volume of one voxel in mm^3."""
    sx, sy, sz = vol.spacing
    return sx * sy * sz
