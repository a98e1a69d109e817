import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxprop import (
    BadMagic,
    DimMismatch,
    IoFailure,
    LabelSet,
    NonFiniteInput,
    PathCountMismatch,
    TruncatedFile,
    UnsupportedDatatype,
    Volume3D,
    VoxpropError,
    read_annotation,
    read_header,
    read_volume,
    write_volume,
)
from voxprop.nifti import DATA_OFFSET, HEADER_SIZE


def _volume(kind, dims=(2, 3, 2), spacing=(0.5, 1.0, 2.0), origin=(1.0, -2.0, 3.5)):
    rng = np.random.default_rng(5)
    if kind in ("intensity", "probability"):
        # float32-representable values so the round trip is bit exact
        data = rng.random(dims).astype(np.float32).astype(np.float64)
    elif kind == "label":
        data = rng.integers(0, 7, size=dims).astype(np.uint16)
    else:
        data = rng.random(dims) < 0.5
    return Volume3D(data, kind, spacing, origin)


@pytest.mark.parametrize("kind", ["intensity", "probability", "label", "mask"])
def test_round_trip_all_kinds(tmp_path, kind):
    v = _volume(kind)
    path = tmp_path / f"{kind}.nii"
    write_volume(v, path)
    r = read_volume(path, kind)
    assert r.dims == v.dims
    assert r.kind == kind
    assert np.array_equal(r.data, v.data)
    assert r.spacing == pytest.approx(v.spacing)
    assert r.origin == pytest.approx(v.origin)


@pytest.mark.parametrize("kind", ["intensity", "probability", "label", "mask"])
def test_write_read_write_byte_identical(tmp_path, kind):
    v = _volume(kind)
    p1 = tmp_path / "a.nii"
    p2 = tmp_path / "b.nii"
    write_volume(v, p1)
    write_volume(read_volume(p1, kind), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_file_sizes(tmp_path):
    labels = Volume3D(np.zeros((2, 2, 2), dtype=np.uint16), "label")
    p = tmp_path / "l.nii"
    write_volume(labels, p)
    assert p.stat().st_size == DATA_OFFSET + 8 * 2  # 8 voxels x uint16

    single = Volume3D(np.zeros((1, 1, 1)), "intensity")
    p = tmp_path / "f.nii"
    write_volume(single, p)
    assert p.stat().st_size == DATA_OFFSET + 4  # 1 voxel x float32


def test_header_fields(tmp_path):
    v = _volume("intensity", dims=(4, 5, 6))
    path = tmp_path / "v.nii"
    write_volume(v, path)
    hdr = read_header(path)
    assert hdr.dims == (4, 5, 6)
    assert hdr.datatype == 16 and hdr.bitpix == 32
    assert hdr.vox_offset == DATA_OFFSET
    assert hdr.qform_code == 0 and hdr.sform_code == 1
    assert hdr.spacing == pytest.approx(v.spacing)
    assert hdr.origin == pytest.approx(v.origin)
    # extension pad must be all zero
    raw = path.read_bytes()
    assert raw[HEADER_SIZE:DATA_OFFSET] == b"\x00" * 4


def test_pair_magic_rejected(tmp_path):
    v = _volume("mask")
    path = tmp_path / "v.nii"
    write_volume(v, path)
    raw = bytearray(path.read_bytes())
    raw[344:348] = b"ni1\x00"
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagic):
        read_volume(path, "mask")


def test_garbage_magic_rejected(tmp_path):
    v = _volume("mask")
    path = tmp_path / "v.nii"
    write_volume(v, path)
    raw = bytearray(path.read_bytes())
    raw[344:348] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagic):
        read_volume(path, "mask")


def test_unsupported_datatype_rejected(tmp_path):
    v = _volume("intensity")
    path = tmp_path / "v.nii"
    write_volume(v, path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<h", raw, 70, 64)  # float64 datatype code
    struct.pack_into("<h", raw, 72, 64)
    path.write_bytes(bytes(raw))
    with pytest.raises(UnsupportedDatatype):
        read_volume(path, "intensity")


def test_wrong_dim0_rejected(tmp_path):
    v = _volume("intensity")
    path = tmp_path / "v.nii"
    write_volume(v, path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<h", raw, 40, 4)  # dim[0] = 4
    path.write_bytes(bytes(raw))
    with pytest.raises(DimMismatch):
        read_volume(path, "intensity")


def test_wrong_sizeof_hdr_rejected(tmp_path):
    v = _volume("intensity")
    path = tmp_path / "v.nii"
    write_volume(v, path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<i", raw, 0, 1543569408)  # byte-swapped 348
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagic):
        read_volume(path, "intensity")


def test_truncated_header(tmp_path):
    path = tmp_path / "v.nii"
    path.write_bytes(b"\x00" * 100)
    with pytest.raises(TruncatedFile):
        read_volume(path, "intensity")


def test_truncated_data(tmp_path):
    v = _volume("intensity")
    path = tmp_path / "v.nii"
    write_volume(v, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(TruncatedFile):
        read_volume(path, "intensity")


def test_scl_slope_applied_to_intensity(tmp_path):
    v = _volume("intensity")
    path = tmp_path / "v.nii"
    write_volume(v, path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<f", raw, 112, 2.0)   # scl_slope
    struct.pack_into("<f", raw, 116, -1.0)  # scl_inter
    path.write_bytes(bytes(raw))
    r = read_volume(path, "intensity")
    assert np.allclose(r.data, v.data.astype(np.float32) * 2.0 - 1.0)


def _corrupt(tmp_path, kind, offset, value):
    """A written volume with the float32 header field at `offset` replaced."""
    path = tmp_path / "v.nii"
    write_volume(_volume(kind), path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<f", raw, offset, value)
    path.write_bytes(bytes(raw))
    return path


@pytest.mark.parametrize("vox_offset", [float("inf"), float("nan"), 352.5])
def test_non_integral_vox_offset_rejected(tmp_path, vox_offset):
    path = _corrupt(tmp_path, "intensity", 108, vox_offset)
    with pytest.raises(BadMagic):
        read_header(path)
    with pytest.raises(BadMagic):
        read_volume(path, "intensity")


@pytest.mark.parametrize("offset", [112, 116])  # scl_slope, scl_inter
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_scaling_rejected(tmp_path, offset, value):
    path = _corrupt(tmp_path, "intensity", offset, value)
    with pytest.raises(UnsupportedDatatype):
        read_volume(path, "intensity")


@pytest.mark.parametrize("offset", [80, 292])  # pixdim[1], srow_x[3]
def test_non_finite_geometry_rejected(tmp_path, offset):
    path = _corrupt(tmp_path, "mask", offset, float("nan"))
    with pytest.raises(NonFiniteInput):
        read_volume(path, "mask")


@pytest.mark.parametrize("offset", [80, 84, 88])  # pixdim[1..3]
@pytest.mark.parametrize("value", [0.0, -1.0])
def test_non_positive_spacing_rejected(tmp_path, offset, value):
    path = _corrupt(tmp_path, "intensity", offset, value)
    with pytest.raises(BadMagic):
        read_header(path)
    with pytest.raises(BadMagic):
        read_volume(path, "intensity")


@pytest.fixture(scope="module")
def float_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "valid.nii"
    write_volume(_volume("intensity"), path)
    return path


_header_mutations = st.lists(
    st.one_of(
        st.tuples(st.integers(0, DATA_OFFSET - 1), st.binary(min_size=1, max_size=1)),
        st.tuples(
            st.integers(0, DATA_OFFSET // 4 - 1).map(lambda i: 4 * i),
            st.floats(width=32).map(lambda f: struct.pack("<f", f)),
        ),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(mutations=_header_mutations)
def test_header_mutation_gives_volume_or_voxprop_error(float_file, mutations):
    raw = bytearray(float_file.read_bytes())
    for offset, value in mutations:
        raw[offset:offset + len(value)] = value
    path = float_file.with_name("mutated.nii")
    path.write_bytes(bytes(raw))
    try:
        vol = read_volume(path, "intensity")
    except VoxpropError:
        return
    assert isinstance(vol, Volume3D)


def test_labels_never_scaled(tmp_path):
    v = _volume("label")
    path = tmp_path / "v.nii"
    write_volume(v, path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<f", raw, 112, 2.0)
    path.write_bytes(bytes(raw))
    r = read_volume(path, "label")
    assert np.array_equal(r.data, v.data)


def test_float_file_rejected_as_label(tmp_path):
    v = _volume("intensity")
    path = tmp_path / "v.nii"
    write_volume(v, path)
    with pytest.raises(UnsupportedDatatype):
        read_volume(path, "label")


def test_int16_file_reads_as_intensity_and_label(tmp_path):
    # hand-built int16 file exercises the fourth supported datatype
    v = _volume("label")
    path = tmp_path / "v.nii"
    write_volume(v, path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<h", raw, 70, 4)   # datatype int16
    struct.pack_into("<h", raw, 72, 16)  # bitpix
    path.write_bytes(bytes(raw))
    r = read_volume(path, "label")
    assert np.array_equal(r.data, v.data)  # values < 2**15 survive the reinterpret
    ri = read_volume(path, "intensity")
    assert np.array_equal(ri.data, v.data.astype(np.float64))


def test_unwritable_path_raises_iofailure(tmp_path):
    v = _volume("mask")
    with pytest.raises(IoFailure):
        write_volume(v, tmp_path / "no" / "such" / "dir" / "v.nii")


def test_mask_with_other_values_rejected(tmp_path):
    v = _volume("label")  # contains ids up to 6
    path = tmp_path / "v.nii"
    write_volume(v, path)
    with pytest.raises(ValueError):
        read_volume(path, "mask")


class TestReadAnnotation:
    def _write_masks(self, tmp_path, arrays):
        paths = []
        for k, arr in enumerate(arrays):
            p = tmp_path / f"m{k}.nii"
            write_volume(Volume3D(arr, "mask"), p)
            paths.append(p)
        return paths

    def test_overlap_preserved(self, tmp_path):
        a = np.zeros((2, 2, 2), bool)
        b = np.zeros((2, 2, 2), bool)
        a[0, 0, 0] = b[0, 0, 0] = True  # both labels claim this voxel
        a[1, 1, 1] = True
        paths = self._write_masks(tmp_path, [a, b])
        ann = read_annotation(paths, LabelSet.from_ids([3, 8]))
        counts = ann.label_counts()
        assert counts[0, 0, 0] == 2
        assert counts[1, 1, 1] == 1
        assert counts.sum() == 3

    def test_all_zero_gives_empty_sets(self, tmp_path):
        paths = self._write_masks(tmp_path, [np.zeros((2, 2, 2), bool)] * 2)
        ann = read_annotation(paths, LabelSet.from_ids([1, 2]))
        assert ann.label_counts().sum() == 0

    def test_dim_mismatch(self, tmp_path):
        paths = self._write_masks(
            tmp_path, [np.zeros((2, 2, 2), bool), np.zeros((3, 2, 2), bool)]
        )
        with pytest.raises(DimMismatch):
            read_annotation(paths, LabelSet.from_ids([1, 2]))

    def test_path_count_mismatch(self, tmp_path):
        paths = self._write_masks(tmp_path, [np.zeros((2, 2, 2), bool)])
        with pytest.raises(PathCountMismatch):
            read_annotation(paths, LabelSet.from_ids([1, 2]))

    def test_differing_affines_warn_not_error(self, tmp_path, caplog):
        p1 = tmp_path / "a.nii"
        p2 = tmp_path / "b.nii"
        write_volume(Volume3D(np.zeros((2, 2, 2), bool), "mask", (1, 1, 1)), p1)
        write_volume(Volume3D(np.zeros((2, 2, 2), bool), "mask", (2, 2, 2)), p2)
        with caplog.at_level("WARNING"):
            ann = read_annotation([p1, p2], LabelSet.from_ids([1, 2]))
        assert ann.spacing == (1.0, 1.0, 1.0)
        assert any("affine differs" in r.message for r in caplog.records)
