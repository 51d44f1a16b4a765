import gzip
import struct

import numpy as np
import pytest

from dcerad import dataio
from dcerad.errors import (BadMagic, DimensionMismatch, DuplicateLesion, HeaderMismatch,
                           IoError, MetadataMismatch, MissingSidecar,
                           NonFiniteIntensity, NonPositivePixdim, ParseError,
                           TruncatedFile, UnknownLabel, UnsupportedDatatype)
from dcerad.filters import (DEFAULT_LOG_SIGMAS_MM, WAVELET_BANDS, default_catalog, derive,
                            log_filter, wavelet_bands)
from dcerad.kinetics import extract_dynamic_features
from dcerad.radiomics import extract_radiomic_features
from dcerad.selection import FeatureMatrix
from dcerad.volume import DceSeries, LesionRoi, Mask3D, Volume3D, masked_values

from conftest import make_volume


def build_nifti(dims, pixdim, datatype, voxels, *, big_endian=False,
                scl_slope=0.0, scl_inter=0.0, magic=b"n+1\x00", dim0=3,
                dim4=1, vox_offset=352.0, gzipped=False, truncate=0):
    """Independent NIfTI-1 writer used as the golden-file oracle.

    Assembled field by field with struct.pack; shares no code with the loader.
    """
    end = ">" if big_endian else "<"
    bitpix = {4: 16, 16: 32, 64: 64}[datatype]
    np_dtype = {4: "i2", 16: "f4", 64: "f8"}[datatype]

    header = bytearray(348)
    struct.pack_into(end + "i", header, 0, 348)
    dim = [dim0, dims[0], dims[1], dims[2], dim4, 1, 1, 1]
    struct.pack_into(end + "8h", header, 40, *dim)
    struct.pack_into(end + "h", header, 70, datatype)
    struct.pack_into(end + "h", header, 72, bitpix)
    struct.pack_into(end + "8f", header, 76, 1.0, *pixdim, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into(end + "f", header, 108, vox_offset)
    struct.pack_into(end + "f", header, 112, scl_slope)
    struct.pack_into(end + "f", header, 116, scl_inter)
    header[344:348] = magic

    body = np.asarray(voxels, dtype=end + np_dtype).tobytes()
    blob = bytes(header) + b"\x00\x00\x00\x00" + body
    if truncate:
        blob = blob[:-truncate]
    if gzipped:
        blob = gzip.compress(blob)
    return blob


def test_golden_float32_little_endian(tmp_path):
    path = tmp_path / "vol.nii"
    path.write_bytes(build_nifti((2, 2, 2), (1.0, 1.0, 1.0), 16,
                                 np.arange(1.0, 9.0)))
    vol = dataio.load_nifti(path)
    assert vol.dims == (2, 2, 2)
    assert vol.spacing == (1.0, 1.0, 1.0)
    assert vol.flat().tolist() == [1, 2, 3, 4, 5, 6, 7, 8]


def test_golden_int16_big_endian_gzip_scaled(tmp_path):
    path = tmp_path / "vol.nii.gz"
    path.write_bytes(build_nifti((2, 1, 1), (0.5, 0.5, 2.0), 4, [3, -7],
                                 big_endian=True, scl_slope=2.0, scl_inter=10.0,
                                 gzipped=True))
    vol = dataio.load_nifti(path)
    assert vol.flat().tolist() == [16.0, -4.0]        # slope*v + inter
    assert vol.spacing == (0.5, 0.5, 2.0)


def test_golden_float64_little_endian_gzip(tmp_path):
    values = [0.1, -2.5, 1e-9, 3.7e5, 0.0, 42.0]
    path = tmp_path / "vol.nii.gz"
    path.write_bytes(build_nifti((3, 2, 1), (0.93, 0.93, 0.5), 64, values,
                                 gzipped=True))
    vol = dataio.load_nifti(path)
    assert vol.flat().tolist() == values               # f64 is bit-exact


def test_golden_float32_big_endian_plain(tmp_path):
    path = tmp_path / "vol.nii"
    path.write_bytes(build_nifti((2, 2, 1), (1.0, 2.0, 3.0), 16,
                                 [1.5, 2.5, -3.5, 4.0], big_endian=True))
    assert dataio.load_nifti(path).flat().tolist() == [1.5, 2.5, -3.5, 4.0]


def test_golden_dim4_singleton_accepted(tmp_path):
    path = tmp_path / "vol.nii"
    path.write_bytes(build_nifti((2, 1, 1), (1, 1, 1), 16, [1.0, 2.0], dim0=4))
    assert dataio.load_nifti(path).dims == (2, 1, 1)


def test_nifti_rejects_dim0_5(tmp_path):
    path = tmp_path / "vol.nii"
    path.write_bytes(build_nifti((2, 1, 1), (1, 1, 1), 16, [1.0, 2.0], dim0=5))
    with pytest.raises(UnsupportedDatatype):
        dataio.load_nifti(path)


def test_nifti_rejects_unknown_datatype(tmp_path):
    blob = bytearray(build_nifti((2, 1, 1), (1, 1, 1), 16, [1.0, 2.0]))
    struct.pack_into("<h", blob, 70, 8)               # int32: unsupported
    path = tmp_path / "vol.nii"
    path.write_bytes(bytes(blob))
    with pytest.raises(UnsupportedDatatype):
        dataio.load_nifti(path)


def test_nifti_rejects_bad_magic(tmp_path):
    path = tmp_path / "vol.nii"
    path.write_bytes(build_nifti((2, 1, 1), (1, 1, 1), 16, [1.0, 2.0],
                                 magic=b"ni1\x00"))
    with pytest.raises(BadMagic):
        dataio.load_nifti(path)


def test_nifti_rejects_bad_sizeof_hdr(tmp_path):
    blob = bytearray(build_nifti((2, 1, 1), (1, 1, 1), 16, [1.0, 2.0]))
    struct.pack_into("<i", blob, 0, 999)
    path = tmp_path / "vol.nii"
    path.write_bytes(bytes(blob))
    with pytest.raises(BadMagic):
        dataio.load_nifti(path)


def test_nifti_truncated_file(tmp_path):
    path = tmp_path / "vol.nii"
    path.write_bytes(build_nifti((2, 2, 2), (1, 1, 1), 16, np.arange(8.0),
                                 truncate=5))
    with pytest.raises(TruncatedFile):
        dataio.load_nifti(path)
    path.write_bytes(b"\x00" * 100)
    with pytest.raises(TruncatedFile):
        dataio.load_nifti(path)


def test_nifti_truncated_gzip_stream(tmp_path):
    blob = build_nifti((2, 2, 2), (1, 1, 1), 16, np.arange(8.0), gzipped=True)
    path = tmp_path / "vol.nii.gz"
    path.write_bytes(blob[:-12])                      # gzip trailer cut off
    with pytest.raises(TruncatedFile):
        dataio.load_nifti(path)
    path.write_bytes(blob[:10] + b"\xff" * 40)       # corrupt deflate data
    with pytest.raises(TruncatedFile):
        dataio.load_nifti(path)


def test_nifti_nonpositive_pixdim(tmp_path):
    path = tmp_path / "vol.nii"
    path.write_bytes(build_nifti((2, 1, 1), (0.0, 1.0, 1.0), 16, [1.0, 2.0]))
    with pytest.raises(NonPositivePixdim):
        dataio.load_nifti(path)


def test_nifti_nonfinite_voxel_reported(tmp_path):
    path = tmp_path / "vol.nii"
    path.write_bytes(build_nifti((2, 2, 1), (1, 1, 1), 16,
                                 [1.0, np.nan, 3.0, 4.0]))
    with pytest.raises(NonFiniteIntensity) as exc:
        dataio.load_nifti(path)
    assert "(1, 0, 0)" in str(exc.value)


def test_first_nonfinite_voxel_in_file_order(tmp_path):
    # (1, 0, 0) comes first in the x-fastest file order, (0, 1, 0) in C order
    data = np.ones((2, 2, 1))
    data[1, 0, 0] = data[0, 1, 0] = np.nan
    path = tmp_path / "v.raw"
    path.write_bytes(data.ravel(order="F").astype("<f4").tobytes())
    path.with_name("v.raw.json").write_text(
        '{"dims": [2, 2, 1], "spacing": [1, 1, 1], "dtype": "f32", "byte_order": "little"}')
    with pytest.raises(NonFiniteIntensity) as loaded:
        dataio.load_raw(path)
    assert str(loaded.value) == f"{path}: non-finite intensity at voxel (1, 0, 0)"
    with pytest.raises(NonFiniteIntensity) as built:
        Volume3D(data, (1.0, 1.0, 1.0))
    assert str(built.value) == "non-finite intensity at voxel (1, 0, 0)"


@pytest.mark.parametrize("datatype,big_endian,stored", [
    (4, False, np.float32), (4, True, np.float32), (16, False, np.float32),
    (16, True, np.float32), (64, False, np.float64), (64, True, np.float64)])
def test_nifti_loads_at_stored_precision(tmp_path, datatype, big_endian, stored):
    values = [3, -7, 12000, 0] if datatype == 4 else [0.1, -2.5, 3.7e5, 1e-9]
    path = tmp_path / "vol.nii"
    path.write_bytes(build_nifti((2, 2, 1), (1, 1, 1), datatype, values,
                                 big_endian=big_endian))
    vol = dataio.load_nifti(path)
    assert vol.data.dtype == np.dtype(stored)
    assert np.array_equal(vol.flat(), np.asarray(values, dtype=stored))


@pytest.mark.parametrize("datatype", [4, 16])
def test_nifti_scaled_in_float64(tmp_path, datatype):
    # a float32 array times a Python float stays float32 under NumPy 2, so
    # scaling must convert first, to give the float64 values it always gave
    values = [3, -7, 12001, 1] if datatype == 4 else [0.1, -2.5, 3.7e5, 1e-9]
    path = tmp_path / "vol.nii"
    path.write_bytes(build_nifti((2, 2, 1), (1, 1, 1), datatype, values,
                                 scl_slope=0.3, scl_inter=0.7))
    vol = dataio.load_nifti(path)
    stored = np.asarray(values, dtype={4: "i2", 16: "f4"}[datatype])
    slope, inter = (float(np.float32(x)) for x in (0.3, 0.7))
    assert vol.data.dtype == np.float64
    assert np.array_equal(vol.flat(), stored.astype(np.float64) * slope + inter)


def test_raw_f32_stays_float32_without_a_copy(tmp_path):
    rng = np.random.default_rng(8)
    dims = (5, 4, 3)
    path = tmp_path / "v.raw"
    dataio.write_raw(path, make_volume(rng.normal(size=dims)), "f32")
    vol = dataio.load_raw(path)
    n = int(np.prod(dims))
    assert vol.data.dtype == np.float32
    assert vol.data.nbytes == 4 * n            # no whole-volume float64 copy
    owner = vol.data
    while isinstance(owner, np.ndarray):
        owner = owner.base
    assert isinstance(owner, bytes)            # a view of the file's bytes


def test_stored_precision_is_exact(tmp_path):
    # extraction and every filter give the same bits on a float32-loaded
    # series as on its float64 copy, since float32 -> float64 is exact
    rng = np.random.default_rng(14)
    dims, spacing = (14, 13, 9), (0.9, 0.9, 1.4)
    mask = np.zeros(dims, dtype=bool)
    mask[0:6, 3:9, 2:7] = rng.random((6, 6, 5)) < 0.8
    mask[3, 5, 4] = True
    loaded = []
    for i in range(6):
        path = tmp_path / f"c{i}.raw"
        dataio.write_raw(path, make_volume(rng.uniform(20, 300, dims) * (1 + i / 3), spacing),
                         "f32")
        loaded.append(dataio.load_raw(path))
    wide = [Volume3D(p.data.astype(np.float64), spacing) for p in loaded]
    assert all(p.data.dtype == np.float32 for p in loaded)
    roi = LesionRoi("P0", "L0", Mask3D(mask), "benign")

    assert masked_values(loaded[1], roi.mask).dtype == np.float64
    assert np.array_equal(masked_values(loaded[1], roi.mask), masked_values(wide[1], roi.mask))
    dynamic = [extract_dynamic_features(DceSeries(tuple(s)), roi).as_array()
               for s in (loaded, wide)]
    assert np.array_equal(*dynamic)
    radiomic = [extract_radiomic_features(DceSeries(tuple(s)), roi).values
                for s in (loaded, wide)]
    assert np.array_equal(*radiomic)

    narrow, full = loaded[2], wide[2]
    for sigma in DEFAULT_LOG_SIGMAS_MM:
        assert np.array_equal(log_filter(narrow, sigma).data, log_filter(full, sigma).data)
    narrow_bands, full_bands = wavelet_bands(narrow), wavelet_bands(full)
    for band in WAVELET_BANDS:
        assert np.array_equal(narrow_bands[band].data, full_bands[band].data)
    box = (slice(2, 7), slice(0, 5), slice(3, 9))
    for image_id in default_catalog():
        for region in (None, box):
            assert np.array_equal(derive(narrow, image_id, region).data,
                                  derive(full, image_id, region).data), image_id.name


# --- raw format --------------------------------------------------------------------


def test_raw_roundtrip_f64(tmp_path):
    rng = np.random.default_rng(0)
    vol = make_volume(rng.normal(size=(3, 4, 5)), (0.9, 1.0, 1.1))
    path = tmp_path / "v.raw"
    dataio.write_raw(path, vol, "f64")
    again = dataio.load_raw(path)
    np.testing.assert_array_equal(again.data, vol.data)
    assert again.spacing == vol.spacing


def test_raw_small_f32(tmp_path):
    path = tmp_path / "v.raw"
    path.write_bytes(np.array([1, 2, 3, 4], dtype="<f4").tobytes())
    path.with_name("v.raw.json").write_text(
        '{"dims": [2, 2, 1], "spacing": [1, 1, 1], "dtype": "f32", "byte_order": "little"}')
    vol = dataio.load_raw(path)
    assert vol.flat().tolist() == [1.0, 2.0, 3.0, 4.0]


def test_raw_size_mismatch(tmp_path):
    path = tmp_path / "v.raw"
    path.write_bytes(b"\x00" * 12)                     # 4 bytes short of 2x2x1 f32
    path.with_name("v.raw.json").write_text(
        '{"dims": [2, 2, 1], "spacing": [1, 1, 1], "dtype": "f32", "byte_order": "little"}')
    with pytest.raises(MetadataMismatch):
        dataio.load_raw(path)


def test_raw_missing_sidecar(tmp_path):
    path = tmp_path / "v.raw"
    path.write_bytes(b"\x00" * 16)
    with pytest.raises(MissingSidecar):
        dataio.load_raw(path)


def test_raw_rejects_unknown_dtype(tmp_path):
    path = tmp_path / "v.raw"
    path.write_bytes(b"\x00" * 4)
    path.with_name("v.raw.json").write_text(
        '{"dims": [1, 1, 1], "spacing": [1, 1, 1], "dtype": "u8", "byte_order": "little"}')
    with pytest.raises(MetadataMismatch):
        dataio.load_raw(path)


# --- manifest -----------------------------------------------------------------------


def write_corpus_files(tmp_path, stem):
    for k in range(6):
        p = tmp_path / f"{stem}_c{k}.raw"
        p.write_bytes(np.zeros(1, dtype="<f4").tobytes())
        p.with_name(p.name + ".json").write_text(
            '{"dims": [1, 1, 1], "spacing": [1, 1, 1], "dtype": "f32", "byte_order": "little"}')
    p = tmp_path / f"{stem}_mask.raw"
    p.write_bytes(np.ones(1, dtype="<f4").tobytes())
    p.with_name(p.name + ".json").write_text(
        '{"dims": [1, 1, 1], "spacing": [1, 1, 1], "dtype": "f32", "byte_order": "little"}')
    return [f"{stem}_c{k}.raw" for k in range(6)], f"{stem}_mask.raw"


def test_manifest_roundtrip(tmp_path):
    phases, mask = write_corpus_files(tmp_path, "a")
    rows = [("P1", "L1", phases, mask, "benign"),
            ("P1", "L2", phases, mask, "malignant")]
    path = tmp_path / "manifest.txt"
    dataio.write_manifest(path, rows)
    records = dataio.load_manifest(path)
    assert len(records) == 2
    assert records[0].patient_id == "P1"
    assert records[1].label == "malignant"


def test_manifest_unknown_label(tmp_path):
    phases, mask = write_corpus_files(tmp_path, "a")
    path = tmp_path / "manifest.txt"
    path.write_text(",".join(["P1", "L1", *phases, mask, "suspicious"]) + "\n")
    with pytest.raises(UnknownLabel) as exc:
        dataio.load_manifest(path)
    assert ":1:" in str(exc.value)


def test_manifest_duplicate_lesion(tmp_path):
    phases, mask = write_corpus_files(tmp_path, "a")
    line = ",".join(["P1", "L1", *phases, mask, "benign"])
    path = tmp_path / "manifest.txt"
    path.write_text(line + "\n" + line + "\n")
    with pytest.raises(DuplicateLesion):
        dataio.load_manifest(path)


def test_manifest_field_count(tmp_path):
    path = tmp_path / "manifest.txt"
    path.write_text("P1,L1,only,three\n")
    with pytest.raises(ParseError) as exc:
        dataio.load_manifest(path)
    assert ":1:" in str(exc.value)


def test_manifest_missing_file(tmp_path):
    phases, mask = write_corpus_files(tmp_path, "a")
    path = tmp_path / "manifest.txt"
    path.write_text(",".join(["P1", "L1", *phases[:5], "nope.raw", mask, "benign"]) + "\n")
    with pytest.raises(IoError) as exc:
        dataio.load_manifest(path)
    assert "nope.raw" in str(exc.value)


def test_manifest_comments_skipped(tmp_path):
    phases, mask = write_corpus_files(tmp_path, "a")
    path = tmp_path / "manifest.txt"
    path.write_text("# corpus\n\n" + ",".join(["P1", "L1", *phases, mask, "benign"]) + "\n")
    assert len(dataio.load_manifest(path)) == 1


# --- feature table -------------------------------------------------------------------


def random_feature_matrix(rng, n=7, p=5):
    names = tuple(f"f_{i}" for i in range(p))
    return FeatureMatrix(names, rng.normal(size=(n, p)) * 10 ** rng.integers(-8, 8),
                         rng.integers(0, 2, n),
                         tuple(f"P{i}" for i in range(n)),
                         tuple(f"L{i}" for i in range(n)))


def test_feature_table_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(4)
    m = random_feature_matrix(rng)
    path = tmp_path / "features.csv"
    dataio.write_feature_table(path, m)
    again = dataio.read_feature_table(path)
    assert again.names == m.names
    np.testing.assert_array_equal(again.values, m.values)
    np.testing.assert_array_equal(again.labels, m.labels)
    assert again.groups == m.groups


def test_feature_table_empty_is_fine(tmp_path):
    path = tmp_path / "features.csv"
    path.write_text("patient_id,lesion_id,label,f_0\n")
    m = dataio.read_feature_table(path)
    assert m.n_rows == 0
    assert m.names == ("f_0",)


def test_feature_table_bad_prefix(tmp_path):
    path = tmp_path / "features.csv"
    path.write_text("id,lesion,label,f_0\n")
    with pytest.raises(HeaderMismatch):
        dataio.read_feature_table(path)


# --- documents --------------------------------------------------------------------


def test_json_document_roundtrip(tmp_path):
    payload = {"schema_version": 1, "pooled": {"auc": 0.9476}}
    path = tmp_path / "report.json"
    dataio.write_json_document(path, payload)
    assert dataio.read_json_document(path) == payload


def test_roc_csv(tmp_path):
    path = tmp_path / "roc.csv"
    dataio.write_roc_csv(path, [(0.0, 0.0, float("inf")), (0.5, 1.0, 0.3),
                                (1.0, 1.0, -0.2)])
    lines = path.read_text().splitlines()
    assert lines[0] == "fpr,tpr"
    assert lines[1] == "0.0,0.0"
    assert len(lines) == 4


def test_load_lesion_dispatch(tmp_path):
    phases, mask = write_corpus_files(tmp_path, "b")
    rows = [("P1", "L1", phases, mask, "malignant")]
    path = tmp_path / "manifest.txt"
    dataio.write_manifest(path, rows)
    series, roi = dataio.load_lesion(dataio.load_manifest(path)[0])
    assert series.dims == (1, 1, 1)
    assert roi.label == "malignant"


def test_load_lesion_rejects_mask_on_other_spacing(tmp_path):
    phases, mask = write_corpus_files(tmp_path, "c")
    (tmp_path / (mask + ".json")).write_text(
        '{"dims": [1, 1, 1], "spacing": [1, 1, 2], "dtype": "f32", "byte_order": "little"}')
    path = tmp_path / "manifest.txt"
    dataio.write_manifest(path, [("P1", "L1", phases, mask, "benign")])
    with pytest.raises(DimensionMismatch, match="spacing"):
        dataio.load_lesion(dataio.load_manifest(path)[0])
