"""Volume containers and the VXF on-disk format.

A :class:`Volume` is an immutable 3-D grid of float32 intensities indexed
as ``data[x, y, z]``.  The linear order used everywhere (file payloads,
flattened per-voxel vectors, membership rows) is x-fastest::

    linear index = x + nx * (y + ny * z)

``intensity_max`` records the reference "brightest tissue" level that
noise percentages are defined against.  It travels in the file header
rather than being recomputed, so a noisy volume keeps the scale of the
clean volume it was derived from.

VXF layout (all integers little-endian)::

    magic    4 bytes   b"VXF1"
    dtype    u8        1 = float32 intensities, 2 = uint8 labels
    dims     3 x u32   nx, ny, nz
    imax     f32       intensity_max (dtype 1 only)
    payload  raw       nx*ny*nz values, x-fastest
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from voxseg.errors import FormatError, ValidationError

_MAGIC = b"VXF1"
_DTYPE_INTENSITY = 1
_DTYPE_LABELS = 2
_HEADER = struct.Struct("<B3I")

AXES = {"x": 0, "y": 1, "z": 2}


@dataclass(frozen=True, eq=False)
class Volume:
    """3-D scalar intensity grid with an explicit brightest-tissue level."""

    dims: tuple[int, int, int]
    data: np.ndarray
    intensity_max: float

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise ValidationError(f"dims must be three positive integers, got {self.dims!r}")
        data = np.asarray(self.data, dtype=np.float32)
        if data.shape != dims:
            raise ValidationError(f"data shape {data.shape} does not match dims {dims}")
        # NaN propagates through min and max and any infinity is an extreme,
        # so two reductions check every voxel without full-size temporaries
        lowest, highest = float(data.min()), float(data.max())
        if not (np.isfinite(lowest) and np.isfinite(highest)):
            raise ValidationError("intensities must be finite")
        if lowest < 0:
            raise ValidationError("intensities must be non-negative")
        # round-trips through the f32 header field must be exact
        imax = float(np.float32(self.intensity_max))
        if not np.isfinite(imax) or imax <= 0:
            raise ValidationError("intensity_max must be positive and finite")
        if imax < highest:
            raise ValidationError(
                f"intensity_max {imax} is below the largest intensity {highest}"
            )
        memory = data
        while isinstance(memory, np.ndarray):
            memory = memory.base
        # a converted array is already private; only a bytes object can never change
        if np.may_share_memory(data, self.data) and not isinstance(memory, bytes):
            data = data.copy()
        data.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "intensity_max", imax)

    @classmethod
    def from_flat(cls, dims, flat, intensity_max) -> "Volume":
        """Build from values listed in linear (x-fastest) order."""
        dims = tuple(int(d) for d in dims)
        arr = np.asarray(flat, dtype=np.float32)
        if arr.size != int(np.prod(dims)):
            raise ValidationError(f"expected {int(np.prod(dims))} values, got {arr.size}")
        return cls(dims, arr.reshape(dims, order="F"), intensity_max)

    def flat(self) -> np.ndarray:
        """Values in linear (x-fastest) order."""
        return self.data.ravel(order="F")

    def unit_axis(self) -> int:
        """Axis of extent 1 for a single-slice volume (z preferred)."""
        for axis in (2, 0, 1):
            if self.dims[axis] == 1:
                return axis
        raise ValidationError(f"volume of dims {self.dims} is not a single slice")

    def plane(self) -> np.ndarray:
        """2-D view of a single-slice volume."""
        axis = self.unit_axis()
        return np.squeeze(self.data, axis=axis)

    def __eq__(self, other):
        if not isinstance(other, Volume):
            return NotImplemented
        return (self.dims == other.dims
                and self.intensity_max == other.intensity_max
                and np.array_equal(self.data, other.data))


@dataclass(frozen=True, eq=False)
class LabelVolume:
    """3-D grid of uint8 cluster labels, same layout rules as Volume."""

    dims: tuple[int, int, int]
    labels: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise ValidationError(f"dims must be three positive integers, got {self.dims!r}")
        labels = np.asarray(self.labels)
        if labels.shape != dims:
            raise ValidationError(f"labels shape {labels.shape} does not match dims {dims}")
        if labels.dtype != np.uint8:
            if np.any(labels < 0) or np.any(labels > 255):
                raise ValidationError("labels must fit in uint8")
            labels = labels.astype(np.uint8)
        labels = labels.copy()
        labels.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_flat(cls, dims, flat) -> "LabelVolume":
        dims = tuple(int(d) for d in dims)
        arr = np.asarray(flat)
        if arr.size != int(np.prod(dims)):
            raise ValidationError(f"expected {int(np.prod(dims))} values, got {arr.size}")
        return cls(dims, arr.reshape(dims, order="F"))

    def flat(self) -> np.ndarray:
        return self.labels.ravel(order="F")

    def __eq__(self, other):
        if not isinstance(other, LabelVolume):
            return NotImplemented
        return self.dims == other.dims and np.array_equal(self.labels, other.labels)


@dataclass(frozen=True)
class SliceRef:
    """Addresses one plane of a volume: axis in {x, y, z} plus an index."""

    axis: str
    index: int

    def __post_init__(self):
        if self.axis not in AXES:
            raise ValidationError(f"axis must be one of x/y/z, got {self.axis!r}")
        if int(self.index) < 0:
            raise ValidationError(f"slice index must be non-negative, got {self.index}")
        object.__setattr__(self, "index", int(self.index))

    @classmethod
    def parse(cls, text: str) -> "SliceRef":
        """Parse the CLI form ``axis:index``, e.g. ``z:60``."""
        axis, sep, idx = text.partition(":")
        if not sep or axis not in AXES:
            raise ValidationError(f"bad slice reference {text!r}, expected e.g. z:60")
        try:
            index = int(idx)
        except ValueError:
            raise ValidationError(f"bad slice index in {text!r}") from None
        return cls(axis, index)

    def plane_dims(self, dims: tuple[int, int, int]) -> tuple[int, int, int]:
        """``dims`` with the sliced axis at 1; IndexError when the index
        lies outside ``dims``."""
        axis = AXES[self.axis]
        if not 0 <= self.index < dims[axis]:
            raise IndexError(f"slice {self.axis}:{self.index} out of range for dims {dims}")
        return tuple(1 if a == axis else n for a, n in enumerate(dims))


def extract_slice(v: Volume | LabelVolume, ref: SliceRef):
    """Single-plane copy of ``v``; the sliced axis keeps extent 1.

    Output voxel (x, y, 0) equals input voxel (x, y, index) for z slices,
    and analogously for x and y.
    """
    dims, axis = ref.plane_dims(v.dims), AXES[ref.axis]
    if isinstance(v, LabelVolume):
        return LabelVolume(dims, v.labels.take([ref.index], axis=axis))
    return Volume(dims, v.data.take([ref.index], axis=axis), v.intensity_max)


def save_volume(v: Volume | LabelVolume, path) -> None:
    """Write ``v`` to ``path`` in VXF, overwriting any existing file."""
    if isinstance(v, LabelVolume):
        header = _MAGIC + _HEADER.pack(_DTYPE_LABELS, *v.dims)
        payload = v.labels.ravel(order="F").astype("<u1").tobytes()
    elif isinstance(v, Volume):
        header = (_MAGIC + _HEADER.pack(_DTYPE_INTENSITY, *v.dims)
                  + struct.pack("<f", v.intensity_max))
        payload = v.data.ravel(order="F").astype("<f4").tobytes()
    else:
        raise ValidationError(f"cannot save object of type {type(v).__name__}")
    Path(path).write_bytes(header + payload)


def _load(path):
    # the payload is read once, into the bytes object an intensity volume keeps
    size = Path(path).stat().st_size
    with open(path, "rb") as fh:
        head = fh.read(4 + _HEADER.size + 4)
        if len(head) < 4 or head[:4] != _MAGIC:
            raise FormatError(f"{path}: not a VXF file (bad magic)")
        if len(head) < 4 + _HEADER.size:
            raise FormatError(f"{path}: truncated header")
        dtype, nx, ny, nz = _HEADER.unpack_from(head, 4)
        offset = 4 + _HEADER.size
        if dtype == _DTYPE_INTENSITY:
            if len(head) < offset + 4:
                raise FormatError(f"{path}: truncated header")
            (imax,) = struct.unpack_from("<f", head, offset)
            offset += 4
            itemsize = 4
        elif dtype == _DTYPE_LABELS:
            imax = None
            itemsize = 1
        else:
            raise FormatError(f"{path}: unknown dtype code {dtype}")
        if min(nx, ny, nz) < 1:
            raise FormatError(f"{path}: non-positive dims {(nx, ny, nz)}")
        count = nx * ny * nz
        expected = offset + count * itemsize
        if size < expected:
            raise OSError(f"{path}: truncated payload "
                          f"({size - offset} of {count * itemsize} bytes)")
        if size > expected:
            raise FormatError(f"{path}: {size - expected} trailing bytes after payload")
        fh.seek(offset)
        raw = fh.read(count * itemsize)
    if dtype == _DTYPE_LABELS:
        return LabelVolume.from_flat((nx, ny, nz), np.frombuffer(raw, dtype="<u1"))
    return Volume.from_flat((nx, ny, nz), np.frombuffer(raw, dtype="<f4"), imax)


def load_volume(path) -> Volume:
    """Load an intensity volume; rejects label files."""
    v = _load(path)
    if not isinstance(v, Volume):
        raise ValidationError(f"{path} holds labels, not intensities")
    return v


def load_labels(path) -> LabelVolume:
    """Load a label volume; rejects intensity files."""
    v = _load(path)
    if not isinstance(v, LabelVolume):
        raise ValidationError(f"{path} holds intensities, not labels")
    return v


def write_pgm(v: Volume, path) -> None:
    """Render a single-slice volume as binary PGM (P5, maxval 255).

    Intensities are scaled by 255 / intensity_max and rounded half-up.
    """
    plane = v.plane()
    scaled = np.floor(plane.astype(np.float64) * (255.0 / v.intensity_max) + 0.5)
    img = np.clip(scaled, 0, 255).astype(np.uint8)
    width, height = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(img.T.tobytes())  # raster rows run along the first plane axis
