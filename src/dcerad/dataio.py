"""Dataset I/O: NIfTI-1 and raw volume loading, manifests, feature tables and
model/report documents.

Formats
-------
NIfTI-1 (read-only subset): single-file layout with magic "n+1\\0", datatypes
int16 (4), float32 (16) and float64 (64), both endiannesses (detected via the
sizeof_hdr sentinel), optional gzip wrapping, scl_slope/scl_inter scaling when
slope != 0, spacing from pixdim[1..3].  Unscaled int16 and float32 load as
native float32 and float64 as float64, all exactly; scaled data is scaled in
float64.  Orientation matrices are ignored beyond spacing: the pipeline is
geometry-local and masks share the grid.

Raw volumes: little-endian f32/f64 scalars in x-fastest order, with a JSON
sidecar ``<file>.json`` holding dims, spacing, dtype and byte_order; they load
at that precision.

Manifest: one lesion per line,
``patient_id,lesion_id,c0,...,c5,mask,label``; paths are relative to the
manifest location; '#' lines are comments.

Feature table: CSV with header ``patient_id,lesion_id,label,<feature...>``;
values use shortest-roundtrip decimal rendering so a write/read cycle is
bit-exact.
"""

import gzip
import json
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (BadMagic, DimensionMismatch, DuplicateLesion, HeaderMismatch,
                     IoError, MetadataMismatch, MissingSidecar, NonFiniteIntensity,
                     NonPositivePixdim, ParseError, TruncatedFile, UnknownLabel,
                     UnsupportedDatatype)
from .selection import FeatureMatrix
from .volume import LABELS, DceSeries, LesionRoi, Mask3D, Volume3D

_NIFTI_DTYPES = {4: "i2", 16: "f4", 64: "f8"}
_NIFTI_BITPIX = {4: 16, 16: 32, 64: 64}
_RAW_DTYPES = {"f32": "<f4", "f64": "<f8"}
# the native precision each stored type loads as: exact, and with no copy of
# the file's bytes when they are already native float32 or float64
_STORED_AS = {"h": np.float32, "f": np.float32, "d": np.float64}


def _read_file(path) -> bytes:
    blob = Path(path).read_bytes()
    if blob[:2] == b"\x1f\x8b":
        try:
            blob = gzip.decompress(blob)
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise TruncatedFile(f"{path}: corrupt or truncated gzip stream ({exc})") from exc
    return blob


def _volume(path, dims, spacing, flat) -> Volume3D:
    """The volume of flat x-fastest values, its one finiteness check
    reported against the file."""
    try:
        return Volume3D.from_flat(dims, spacing, flat)
    except NonFiniteIntensity as exc:
        raise NonFiniteIntensity(f"{path}: {exc}") from None


def load_nifti(path) -> Volume3D:
    """Load a single-file NIfTI-1 volume (see module docstring for the subset)."""
    blob = _read_file(path)
    if len(blob) < 348:
        raise TruncatedFile(f"{path}: {len(blob)} bytes is too short for a NIfTI-1 header")
    if struct.unpack_from("<i", blob, 0)[0] == 348:
        end = "<"
    elif struct.unpack_from(">i", blob, 0)[0] == 348:
        end = ">"
    else:
        raise BadMagic(f"{path}: sizeof_hdr is not 348 in either byte order")
    if blob[344:348] != b"n+1\x00":
        raise BadMagic(f"{path}: magic {blob[344:348]!r} is not a single-file NIfTI-1")

    dim = struct.unpack_from(end + "8h", blob, 40)
    datatype, bitpix = struct.unpack_from(end + "2h", blob, 70)
    pixdim = struct.unpack_from(end + "8f", blob, 76)
    vox_offset, scl_slope, scl_inter = struct.unpack_from(end + "3f", blob, 108)

    if dim[0] == 4 and dim[4] == 1:
        pass
    elif dim[0] != 3:
        raise UnsupportedDatatype(f"{path}: dim[0]={dim[0]} volumes are not supported")
    nx, ny, nz = (int(d) for d in dim[1:4])
    if min(nx, ny, nz) < 1:
        raise UnsupportedDatatype(f"{path}: non-positive dims {(nx, ny, nz)}")
    if datatype not in _NIFTI_DTYPES:
        raise UnsupportedDatatype(f"{path}: datatype code {datatype} not supported")
    if bitpix != _NIFTI_BITPIX[datatype]:
        raise UnsupportedDatatype(
            f"{path}: bitpix {bitpix} inconsistent with datatype {datatype}")
    spacing = tuple(float(p) for p in pixdim[1:4])
    if any(not np.isfinite(s) or s <= 0 for s in spacing):
        raise NonPositivePixdim(f"{path}: pixdim {spacing} must be positive")

    offset = int(round(vox_offset))
    if offset < 348:
        raise BadMagic(f"{path}: vox_offset {offset} is inside the header")
    count = nx * ny * nz
    dtype = np.dtype(end + _NIFTI_DTYPES[datatype])
    need = offset + count * dtype.itemsize
    if len(blob) < need:
        raise TruncatedFile(f"{path}: need {need} bytes for voxel data, file has {len(blob)}")
    flat = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
    if scl_slope != 0.0:
        flat = flat.astype(np.float64) * float(scl_slope) + float(scl_inter)
    else:
        flat = flat.astype(_STORED_AS[dtype.char], copy=False)
    return _volume(path, (nx, ny, nz), spacing, flat)


def load_raw(path) -> Volume3D:
    """Load a raw little-endian volume via its JSON sidecar."""
    path = Path(path)
    sidecar = path.with_name(path.name + ".json")
    if not sidecar.exists():
        raise MissingSidecar(f"{sidecar} not found")
    try:
        meta = json.loads(sidecar.read_text())
        dims = tuple(int(d) for d in meta["dims"])
        spacing = tuple(float(s) for s in meta["spacing"])
        dtype_key = meta["dtype"]
        byte_order = meta.get("byte_order", "little")
    except (KeyError, TypeError, ValueError) as exc:
        raise MetadataMismatch(f"{sidecar}: malformed sidecar ({exc})") from exc
    if dtype_key not in _RAW_DTYPES:
        raise MetadataMismatch(f"{sidecar}: dtype must be f32 or f64, got {dtype_key!r}")
    if byte_order != "little":
        raise MetadataMismatch(f"{sidecar}: byte_order must be little")
    dtype = np.dtype(_RAW_DTYPES[dtype_key])
    blob = path.read_bytes()
    expected = int(np.prod(dims)) * dtype.itemsize
    if len(blob) != expected:
        raise MetadataMismatch(
            f"{path}: {len(blob)} bytes but dims {dims} with {dtype_key} need {expected}")
    flat = np.frombuffer(blob, dtype=dtype).astype(_STORED_AS[dtype.char], copy=False)
    return _volume(path, dims, spacing, flat)


def write_raw(path, vol: Volume3D, dtype: str = "f32"):
    """Write a raw volume plus sidecar; f64 roundtrips bit-exactly."""
    if dtype not in _RAW_DTYPES:
        raise MetadataMismatch(f"raw dtype must be f32 or f64, got {dtype!r}")
    path = Path(path)
    path.write_bytes(vol.flat().astype(_RAW_DTYPES[dtype]).tobytes())
    sidecar = {
        "dims": list(vol.dims),
        "spacing": list(vol.spacing),
        "dtype": dtype,
        "byte_order": "little",
    }
    path.with_name(path.name + ".json").write_text(
        json.dumps(sidecar, sort_keys=True) + "\n")


def load_volume(path) -> Volume3D:
    """Dispatch on extension: .raw goes to the raw loader, everything else NIfTI."""
    if str(path).endswith(".raw"):
        return load_raw(path)
    return load_nifti(path)


# --- manifest ------------------------------------------------------------------


@dataclass(frozen=True)
class ManifestRecord:
    patient_id: str
    lesion_id: str
    phase_paths: tuple[Path, ...]
    mask_path: Path
    label: str


def load_manifest(path) -> list[ManifestRecord]:
    path = Path(path)
    base = path.parent
    records = []
    seen = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if len(fields) != 10:
            raise ParseError(f"{path}:{lineno}: expected 10 fields, got {len(fields)}")
        patient_id, lesion_id = fields[0], fields[1]
        label = fields[9]
        if label not in LABELS:
            raise UnknownLabel(f"{path}:{lineno}: unknown label {label!r}")
        key = (patient_id, lesion_id)
        if key in seen:
            raise DuplicateLesion(f"{path}:{lineno}: duplicate lesion {key}")
        seen.add(key)
        phase_paths = tuple(base / f for f in fields[2:8])
        mask_path = base / fields[8]
        for p in phase_paths + (mask_path,):
            if not p.exists():
                raise IoError(f"{path}:{lineno}: referenced file {p} does not exist")
        records.append(ManifestRecord(patient_id, lesion_id, phase_paths, mask_path, label))
    return records


def write_manifest(path, rows):
    """rows: iterables of (patient_id, lesion_id, six phase names, mask name, label),
    with file names relative to the manifest directory."""
    lines = []
    for patient_id, lesion_id, phase_names, mask_name, label in rows:
        fields = [patient_id, lesion_id, *phase_names, mask_name, label]
        lines.append(",".join(str(f) for f in fields))
    Path(path).write_text("\n".join(lines) + "\n")


def load_lesion(record: ManifestRecord) -> tuple[DceSeries, LesionRoi]:
    phases = tuple(load_volume(p) for p in record.phase_paths)
    series = DceSeries(phases)
    mask_vol = load_volume(record.mask_path)
    if mask_vol.dims != series.dims:
        raise DimensionMismatch(
            f"{record.mask_path}: mask dims {mask_vol.dims} != series dims {series.dims}")
    if mask_vol.spacing != series.spacing:
        raise DimensionMismatch(f"{record.mask_path}: mask spacing {mask_vol.spacing} "
                                f"!= series spacing {series.spacing}")
    mask = Mask3D(mask_vol.data != 0)
    roi = LesionRoi(record.patient_id, record.lesion_id, mask, record.label)
    return series, roi


# --- feature table ---------------------------------------------------------------

_TABLE_PREFIX = ("patient_id", "lesion_id", "label")


def write_feature_table(path, matrix: FeatureMatrix):
    lines = [",".join(_TABLE_PREFIX + matrix.names)]
    for i in range(matrix.n_rows):
        label = LABELS[int(matrix.labels[i])]
        values = ",".join(repr(float(v)) for v in matrix.values[i])
        lines.append(f"{matrix.groups[i]},{matrix.lesion_ids[i]},{label},{values}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_feature_table(path) -> FeatureMatrix:
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file, expected a header row")
    header = lines[0].split(",")
    if tuple(header[:3]) != _TABLE_PREFIX:
        raise HeaderMismatch(
            f"{path}: header must start with {','.join(_TABLE_PREFIX)}")
    names = tuple(header[3:])
    groups, lesion_ids, labels, rows = [], [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 3 + len(names):
            raise ParseError(
                f"{path}:{lineno}: expected {3 + len(names)} fields, got {len(fields)}")
        if fields[2] not in LABELS:
            raise UnknownLabel(f"{path}:{lineno}: unknown label {fields[2]!r}")
        groups.append(fields[0])
        lesion_ids.append(fields[1])
        labels.append(LABELS.index(fields[2]))
        try:
            rows.append([float(v) for v in fields[3:]])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    values = np.array(rows, dtype=np.float64).reshape(len(rows), len(names))
    return FeatureMatrix(names=names, values=values,
                         labels=np.array(labels, dtype=int),
                         groups=tuple(groups), lesion_ids=tuple(lesion_ids))


# --- structured documents ---------------------------------------------------------


def write_json_document(path, payload: dict):
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def read_json_document(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def write_roc_csv(path, roc_points):
    """Two-column fpr,tpr table for plotting."""
    lines = ["fpr,tpr"]
    lines += [f"{repr(float(p[0]))},{repr(float(p[1]))}" for p in roc_points]
    Path(path).write_text("\n".join(lines) + "\n")
