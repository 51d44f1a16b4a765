"""Geometry-aware 3D volumes, binary masks and the six-phase DCE series.

Conventions fixed once, used everywhere:

* arrays are indexed ``data[x, y, z]`` with shape ``(nx, ny, nz)``;
* the flat voxel order (file layout, masked-value order) is x-fastest,
  i.e. ``ravel(order="F")`` of these arrays;
* intensities are finite and keep their stored precision: float32 when
  the file held float32 or int16, float64 otherwise.  Code that reads
  values works in float64 (masked_values, the radiomic windows); the
  conversion is exact, so it gives the same bits wherever it happens;
* spacing is mm/voxel.

Volumes and masks are immutable after construction (backing arrays are
flagged read-only) so they can be shared across workers.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, EmptyMask, NonFiniteIntensity

BENIGN = "benign"
MALIGNANT = "malignant"
LABELS = (BENIGN, MALIGNANT)

# 13 direction offsets covering the distance-1 26-neighborhood up to sign.
NEIGHBOUR_OFFSETS = (
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1),
    (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
)


# the precisions a volume keeps as given; any other dtype becomes float64
_STORED = (np.dtype(np.float32), np.dtype(np.float64))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Volume3D:
    """A 3D scalar image with physical voxel spacing."""

    data: np.ndarray              # (nx, ny, nz) native float32 or float64
    spacing: tuple[float, float, float]

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.dtype not in _STORED:
            data = data.astype(np.float64)
        if data.ndim != 3 or min(data.shape) < 1:
            raise DimensionMismatch(f"volume needs 3 positive dims, got shape {data.shape}")
        if not np.isfinite(data).all():
            # the first bad voxel in the x-fastest file order
            i = int(np.flatnonzero(~np.isfinite(data.ravel(order="F")))[0])
            voxel = np.unravel_index(i, data.shape, order="F")
            raise NonFiniteIntensity(f"non-finite intensity at voxel {tuple(map(int, voxel))}")
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
        flat = np.asarray(flat)
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

    def flat(self) -> np.ndarray:
        return self.data.ravel(order="F")

    @cached_property
    def neighbour_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every unordered pair (a, b) of 26-neighboring in-mask voxels, once,
        with b = a + one of NEIGHBOUR_OFFSETS, as index arrays into the
        x-fastest in-mask voxel order.  The pairs come sorted by a, and for
        each a by offset.  Built on first use and shared by everything
        computed on this mask."""
        index = np.full(tuple(n + 2 for n in self.dims), -1, dtype=np.int32, order="F")
        index[1:-1, 1:-1, 1:-1][self.data] = -2
        flat = index.ravel(order="F")          # a view: one pad voxel on every side
        at = np.flatnonzero(flat == -2)
        flat[at] = np.arange(at.size, dtype=np.int32)
        shifts = np.dot(NEIGHBOUR_OFFSETS, (1, index.shape[0], index.shape[0] * index.shape[1]))
        # one row per in-mask voxel: its neighbour's in-mask index along each
        # offset, or -1; the kept entries, read row by row, come sorted by a
        table = flat[at[:, None] + shifts]
        keep = table >= 0
        a = np.broadcast_to(np.arange(at.size, dtype=np.int32)[:, None], keep.shape)[keep]
        return a, table[keep]

    def cut(self, window: tuple[slice, slice, slice]) -> "Mask3D":
        """This mask cut to a window that holds all its voxels.  The in-mask
        voxel order is the same, so the cut shares the neighbour pairs if they
        are built."""
        cut = Mask3D(self.data[window])
        if voxel_count(cut) != voxel_count(self):
            raise ValueError(f"window {window} drops in-mask voxels")
        if "neighbour_pairs" in vars(self):
            vars(cut)["neighbour_pairs"] = self.neighbour_pairs
        return cut


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
    """Volume values at true voxels, in x-fastest voxel order, as float64."""
    if vol.dims != mask.dims:
        raise DimensionMismatch(f"volume dims {vol.dims} != mask dims {mask.dims}")
    return vol.flat()[mask.flat()].astype(np.float64, copy=False)


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
