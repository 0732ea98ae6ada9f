"""Container invariants and the VXF round trip."""

import tracemalloc

import numpy as np
import pytest

from voxseg.attraction import build_shell_table
from voxseg.errors import FormatError, ValidationError
from voxseg.volume import (LabelVolume, SliceRef, Volume, extract_slice, load_labels,
                           load_volume, read_dims, save_volume, write_pgm)


# each grid type: a constructor from (dims, array), its array field, the
# dtype it keeps, a wider dtype it converts from, and the loader of its files
GRIDS = {
    "volume": (lambda dims, a: Volume(dims, a, 100.0), "data", np.float32, np.float64,
               load_volume),
    "labels": (LabelVolume, "labels", np.uint8, np.int64, load_labels),
}


def test_linear_order_is_x_fastest():
    dims = (2, 3, 4)
    v = Volume.from_flat(dims, np.arange(24, dtype=np.float32), 100.0)
    for z in range(4):
        for y in range(3):
            for x in range(2):
                assert v.data[x, y, z] == x + 2 * (y + 3 * z)
    assert np.array_equal(v.flat(), np.arange(24))


def test_label_flat_round_trip():
    lab = LabelVolume.from_flat((2, 2, 2), [0, 1, 2, 3, 4, 5, 6, 7])
    assert lab.labels[1, 0, 0] == 1
    assert lab.labels[0, 1, 0] == 2
    assert lab.labels[0, 0, 1] == 4
    assert np.array_equal(lab.flat(), np.arange(8))


def test_volume_validation():
    good = np.zeros((2, 2, 2), dtype=np.float32)
    with pytest.raises(ValidationError):
        Volume((2, 2), good, 1.0)
    with pytest.raises(ValidationError):
        Volume((2, 2, 3), good, 1.0)
    with pytest.raises(ValidationError):
        Volume((2, 2, 2), good - 1.0, 1.0)
    with pytest.raises(ValidationError):
        Volume((2, 2, 2), good + np.nan, 1.0)
    with pytest.raises(ValidationError):
        Volume((2, 2, 2), good, 0.0)
    with pytest.raises(ValidationError):
        Volume((2, 2, 2), good + 5.0, 4.0)  # imax below the data


def test_volume_data_is_frozen():
    v = Volume((2, 2, 2), np.zeros((2, 2, 2)), 1.0)
    with pytest.raises(ValueError):
        v.data[0, 0, 0] = 3.0


def test_label_validation():
    with pytest.raises(ValidationError):
        LabelVolume((2, 2, 2), np.full((2, 2, 2), 300))
    with pytest.raises(ValidationError):
        LabelVolume((2, 2, 2), np.full((2, 2, 2), -1))


def test_volume_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    data = rng.uniform(0, 200, size=(5, 4, 3)).astype(np.float32)
    v = Volume((5, 4, 3), data, 250.0)
    path = tmp_path / "v.vxf"
    save_volume(v, path)
    back = load_volume(path)
    assert back == v
    assert back.intensity_max == 250.0


def test_labels_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    lab = LabelVolume((3, 4, 5), rng.integers(0, 5, size=(3, 4, 5)))
    path = tmp_path / "l.vxf"
    save_volume(lab, path)
    assert load_labels(path) == lab


@pytest.mark.parametrize("kind, grid, pinned", [
    ("volume", Volume.from_flat((2, 1, 2), [0.5, 3.0, 1.0, 0.0], 4.0),
     "56584631 01 02000000 01000000 02000000 00008040 0000003f 00004040 0000803f 00000000"),
    ("labels", LabelVolume.from_flat((2, 1, 2), [0, 1, 2, 3]),
     "56584631 02 02000000 01000000 02000000 00010203"),
], ids=["volume", "labels"])
def test_vxf_file_bytes(tmp_path, kind, grid, pinned):
    # magic, dtype code, dims as u32, intensity_max as f32 (volumes only),
    # then the payload x-fastest; a change made to save and load alike
    # still passes the round trips, but not this pin
    path = tmp_path / "x.vxf"
    save_volume(grid, path)
    assert path.read_bytes() == bytes.fromhex(pinned)
    path.write_bytes(bytes.fromhex(pinned))
    assert GRIDS[kind][-1](path) == grid


def test_loaders_reject_wrong_kind(tmp_path):
    vp, lp = tmp_path / "v.vxf", tmp_path / "l.vxf"
    save_volume(Volume((2, 2, 2), np.ones((2, 2, 2)), 2.0), vp)
    save_volume(LabelVolume((2, 2, 2), np.zeros((2, 2, 2), dtype=np.uint8)), lp)
    with pytest.raises(ValidationError):
        load_volume(lp)
    with pytest.raises(ValidationError):
        load_labels(vp)


def test_bad_magic(tmp_path):
    path = tmp_path / "x.vxf"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(FormatError):
        load_volume(path)


def test_unknown_dtype_code(tmp_path):
    path = tmp_path / "x.vxf"
    save_volume(Volume((2, 2, 2), np.ones((2, 2, 2)), 2.0), path)
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_volume(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "x.vxf"
    save_volume(Volume((2, 2, 2), np.ones((2, 2, 2)), 2.0), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(OSError):
        load_volume(path)


def test_trailing_bytes(tmp_path):
    path = tmp_path / "x.vxf"
    save_volume(Volume((2, 2, 2), np.ones((2, 2, 2)), 2.0), path)
    path.write_bytes(path.read_bytes() + b"\x00\x00")
    with pytest.raises(FormatError):
        load_volume(path)


@pytest.mark.parametrize("value, message", [
    (np.inf, "finite"), (-np.inf, "finite"), (np.nan, "finite"),
    (-1.0, "non-negative"), (-0.0, None)])
def test_volume_finite_and_sign_checks(value, message):
    data = np.ones((2, 3, 2), dtype=np.float32)
    data[1, 2, 1] = value
    if message is None:
        assert Volume((2, 3, 2), data, 1.0).data[1, 2, 1] == 0.0
        return
    with pytest.raises(ValidationError, match=message):
        Volume((2, 3, 2), data, 1.0)
    data[0, 0, 0] = -5.0  # finiteness is checked before the sign
    with pytest.raises(ValidationError, match=message):
        Volume((2, 3, 2), data, 1.0)


@pytest.mark.parametrize("kind", GRIDS)
def test_volume_copies_caller_arrays(kind):
    make, field, dtype, _, _ = GRIDS[kind]
    data = np.ones((2, 2, 2), dtype=dtype)
    kept = getattr(make((2, 2, 2), data), field)
    data[0, 0, 0] = 0
    assert kept[0, 0, 0] == 1 and not kept.flags.writeable


@pytest.mark.parametrize("kind", GRIDS)
def test_volume_keeps_its_converted_array(kind):
    # converting to the grid's dtype already makes a private copy
    make, field, dtype, wider, _ = GRIDS[kind]
    data = np.random.default_rng(6).uniform(0, 100, size=(64, 64, 64)).astype(wider)
    tracemalloc.start()
    try:
        kept = getattr(make((64, 64, 64), data), field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(kept, data.astype(dtype)) and not kept.flags.writeable
    assert peak < 1.25 * kept.nbytes


@pytest.mark.parametrize("labels", [False, True])
def test_load_errors_name_the_byte_counts(tmp_path, labels):
    path = tmp_path / "x.vxf"
    save_volume(LabelVolume((2, 2, 2), np.ones((2, 2, 2), dtype=np.uint8)) if labels
                else Volume((2, 2, 2), np.ones((2, 2, 2)), 2.0), path)
    raw = path.read_bytes()
    payload = 8 if labels else 32
    path.write_bytes(raw[:-5])
    with pytest.raises(OSError, match=f"truncated payload \\({payload - 5} of {payload} bytes\\)"):
        load_labels(path) if labels else load_volume(path)
    path.write_bytes(raw + b"\x00\x00")
    with pytest.raises(FormatError, match="2 trailing bytes after payload"):
        load_labels(path) if labels else load_volume(path)
    path.write_bytes(raw[:10])
    with pytest.raises(FormatError, match="truncated header"):
        load_labels(path) if labels else load_volume(path)


@pytest.mark.parametrize("kind", GRIDS)
def test_load_volume_holds_one_payload(tmp_path, kind):
    # the payload is read into the buffer the grid keeps: no second copy
    # and no full-size temporaries from the checks
    make, field, dtype, _, load = GRIDS[kind]
    path = tmp_path / "x.vxf"
    data = np.random.default_rng(4).uniform(0, 100, size=(64, 64, 64)).astype(dtype)
    save_volume(make((64, 64, 64), data), path)
    tracemalloc.start()
    try:
        kept = getattr(load(path), field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(kept, data) and not kept.flags.writeable
    assert peak < 1.5 * data.nbytes


@pytest.mark.parametrize("kind", GRIDS)
def test_save_volume_holds_one_payload(tmp_path, kind):
    # the payload is written from its own buffer: no bytes copy and no
    # header-plus-payload join
    make, _, dtype, _, load = GRIDS[kind]
    path = tmp_path / "x.vxf"
    data = np.random.default_rng(5).uniform(0, 100, size=(64, 64, 64)).astype(dtype)
    grid = make((64, 64, 64), data)
    tracemalloc.start()
    try:
        save_volume(grid, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert load(path) == grid
    assert peak < 1.5 * data.nbytes


def test_slice_ref_parse():
    ref = SliceRef.parse("z:60")
    assert (ref.axis, ref.index) == ("z", 60)
    for bad in ("w:3", "z", "z:abc", ":4"):
        with pytest.raises(ValidationError):
            SliceRef.parse(bad)
    with pytest.raises(ValidationError):
        SliceRef("z", -1)


def test_extract_slice_matches_indexing():
    rng = np.random.default_rng(5)
    v = Volume((4, 5, 6), rng.uniform(0, 9, size=(4, 5, 6)), 10.0)
    sz = extract_slice(v, SliceRef("z", 2))
    assert sz.dims == (4, 5, 1)
    assert np.array_equal(np.squeeze(sz.data, axis=2), v.data[:, :, 2])
    sx = extract_slice(v, SliceRef("x", 3))
    assert sx.dims == (1, 5, 6)
    assert np.array_equal(np.squeeze(sx.data, axis=0), v.data[3, :, :])
    sy = extract_slice(v, SliceRef("y", 0))
    assert sy.dims == (4, 1, 6)
    assert np.array_equal(np.squeeze(sy.data, axis=1), v.data[:, 0, :])
    with pytest.raises(IndexError):
        extract_slice(v, SliceRef("z", 6))


def test_extract_slice_labels():
    lab = LabelVolume.from_flat((2, 2, 3), range(12))
    s = extract_slice(lab, SliceRef("z", 1))
    assert isinstance(s, LabelVolume)
    assert np.array_equal(np.squeeze(s.labels, axis=2), lab.labels[:, :, 1])


def test_plane_requires_single_slice():
    v = Volume((2, 2, 2), np.zeros((2, 2, 2)), 1.0)
    with pytest.raises(ValidationError):
        v.plane()
    s = Volume((2, 3, 1), np.arange(6, dtype=np.float32).reshape(2, 3, 1), 10.0)
    assert s.plane().shape == (2, 3)


def test_write_pgm_bytes(tmp_path):
    # 2x3 plane, imax 100: value 37 scales to round(37 * 2.55) = 94
    vals = np.array([[0.0, 37.0, 100.0],
                     [40.0, 99.9, 2.0]]).reshape(2, 3, 1)
    v = Volume((2, 3, 1), vals, 100.0)
    path = tmp_path / "s.pgm"
    write_pgm(v, path)
    raw = path.read_bytes()
    header = b"P5\n2 3\n255\n"
    assert raw.startswith(header)
    # raster rows run along y, so the plane is emitted transposed
    assert list(raw[len(header):]) == [0, 102, 94, 255, 255, 5]


# (axis, index, reach) over every plane of a 5 x 4 x 6 grid, reach 0 to 2
SLABS = [(axis, index, reach) for axis, n in zip("xyz", (5, 4, 6))
         for index in range(n) for reach in range(3)]


@pytest.mark.parametrize("kind", GRIDS)
def test_slab_read_is_the_cut_of_the_whole_read(tmp_path, kind):
    make, field, dtype, _, load = GRIDS[kind]
    path = tmp_path / "x.vxf"
    data = np.random.default_rng(7).uniform(0, 100, size=(5, 4, 6)).astype(dtype)
    save_volume(make(data.shape, data), path)
    assert read_dims(path) == data.shape
    for axis, index, reach in SLABS:
        ref = SliceRef(axis, index)
        planes = ref.window(data.shape, reach)
        assert planes == range(max(index - reach, 0),
                               min(index + reach + 1, data.shape["xyz".index(axis)]))
        slab = load(path, ref, reach)
        assert type(slab) is type(load(path))
        assert np.array_equal(getattr(slab, field), data.take(planes, axis="xyz".index(axis)))
        assert not getattr(slab, field).flags.writeable
        if kind == "volume":
            assert slab.intensity_max == 100.0


def _damaged(tmp_path, voxel, value):
    """A 4 x 3 x 5 volume file, intensity_max 100, with ``value`` written
    over ``voxel`` straight into the payload."""
    path = tmp_path / "x.vxf"
    save_volume(Volume((4, 3, 5), np.full((4, 3, 5), 50.0), 100.0), path)
    raw = bytearray(path.read_bytes())
    x, y, z = voxel
    at = len(raw) - 4 * 60 + 4 * (x + 4 * (y + 3 * z))
    raw[at:at + 4] = np.float32(value).tobytes()
    path.write_bytes(bytes(raw))
    return path


@pytest.mark.parametrize("value, message", [
    (np.nan, "intensities must be finite"), (np.inf, "intensities must be finite"),
    (-1.0, "intensities must be non-negative"),
    (250.0, "intensity_max 100.0 is below the largest intensity 250.0")])
@pytest.mark.parametrize("ref", [SliceRef("z", 0), SliceRef("x", 0), SliceRef("y", 2)])
def test_slab_read_checks_every_voxel_of_the_file(tmp_path, value, message, ref):
    # the bad voxel lies in plane z:4 at x:3, y:0, outside every slab read here
    path = _damaged(tmp_path, (3, 0, 4), value)
    with pytest.raises(ValidationError) as whole:
        load_volume(path)
    assert str(whole.value) == message
    with pytest.raises(ValidationError) as slab:
        load_volume(path, ref, 1)
    assert str(slab.value) == message


def test_slab_read_checks_before_the_kind_and_the_slice(tmp_path):
    # as a whole read: the values, then the kind, then the slice
    path = _damaged(tmp_path, (0, 0, 4), np.nan)
    for ref in (SliceRef("z", 0), SliceRef("z", 9)):
        with pytest.raises(ValidationError, match="finite"):
            load_labels(path, ref, 1)
    good = tmp_path / "good.vxf"
    save_volume(Volume((4, 3, 5), np.ones((4, 3, 5)), 2.0), good)
    with pytest.raises(ValidationError, match="holds intensities, not labels"):
        load_labels(good, SliceRef("z", 9))
    with pytest.raises(IndexError, match=r"slice z:9 out of range for dims \(4, 3, 5\)"):
        load_volume(good, SliceRef("z", 9))
    with pytest.raises(ValidationError, match="reach must be non-negative"):
        load_volume(good, SliceRef("z", 1), -1)


@pytest.mark.parametrize("labels", [False, True])
def test_slab_read_of_a_damaged_file_fails_as_a_whole_read(tmp_path, labels):
    path = tmp_path / "x.vxf"
    save_volume(LabelVolume((2, 2, 4), np.ones((2, 2, 4), dtype=np.uint8)) if labels
                else Volume((2, 2, 4), np.ones((2, 2, 4)), 2.0), path)
    load = load_labels if labels else load_volume
    raw = path.read_bytes()
    payload = 16 if labels else 64
    for damaged, error, message in (
            (raw[:-5], OSError, f"truncated payload \\({payload - 5} of {payload} bytes\\)"),
            (raw + b"\x00\x00", FormatError, "2 trailing bytes after payload"),
            (raw[:10], FormatError, "truncated header")):
        path.write_bytes(damaged)
        for read in (read_dims, load, lambda p: load(p, SliceRef("z", 0), 1)):
            with pytest.raises(error, match=message):
                read(path)


@pytest.mark.parametrize("axis", "xyz")
def test_slab_read_holds_the_slab_and_one_plane(tmp_path, axis):
    # a depth-3 slab of a 64^3 volume is 3 of its 64 planes; the file is
    # checked one plane at a time, so the read peaks below a tenth of it
    path = tmp_path / "x.vxf"
    data = np.random.default_rng(8).uniform(0, 100, size=(64, 64, 64)).astype(np.float32)
    save_volume(Volume(data.shape, data, 100.0), path)
    reach = build_shell_table(3).reach
    tracemalloc.start()
    try:
        slab = load_volume(path, SliceRef(axis, 31), reach)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert slab.data.shape["xyz".index(axis)] == 2 * reach + 1 == 3
    assert peak < 0.1 * data.nbytes
