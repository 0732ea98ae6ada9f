"""Volume containers and the VXF on-disk format.

A :class:`Volume` is an immutable 3-D grid of float32 intensities indexed
as ``data[x, y, z]``; a :class:`LabelVolume` is the same for uint8 cluster
labels in ``labels``.  The linear order used everywhere (file payloads,
flattened per-voxel vectors, membership rows) is x-fastest::

    linear index = x + nx * (y + ny * z)

``intensity_max`` records the reference "brightest tissue" level that
noise percentages are defined against.  It travels in the file header
rather than being recomputed, so a noisy volume keeps the scale of the
clean volume it was derived from.

Both grid types share one base: three positive dims, an array of that
shape, read-only, copied only when the caller can still change it (an
array converted to the grid's dtype, or one backed by ``bytes``, is
kept), plus ``from_flat``, ``flat`` and equality of every field.  Each
type adds its own value checks.  VXF layout (integers little-endian)::

    magic    4 bytes   b"VXF1"
    dtype    u8        the type's code (table below)
    dims     3 x u32   nx, ny, nz
    fields   f32 each  the type's header fields
    payload  raw       nx*ny*nz values, x-fastest

    type          code  payload  header fields
    Volume        1     <f4      intensity_max
    LabelVolume   2     <u1      -

A load reads the payload one file plane (one z) at a time and checks every
voxel of the file, whatever it keeps: with a :class:`SliceRef` and a reach
it keeps only the planes within that reach of the slice along its axis,
clipped to the volume, and without one it keeps every plane.  So ``voxseg
segment`` reads the planes its neighbourhood reaches (the slice alone for
the 2-D algorithms, one or two planes on each side for ``3dpifcm``), and
a truth, or ``eval --slice``'s two inputs, only the scored plane.
"""

from __future__ import annotations

import io
import os
import struct
from dataclasses import dataclass, fields, replace
from typing import ClassVar

import numpy as np

from voxseg.errors import FormatError, ValidationError

_MAGIC = b"VXF1"
_HEADER = struct.Struct("<B3I")

AXES = {"x": 0, "y": 1, "z": 2}
MAX_CLUSTERS = 256  # the most a LabelVolume's uint8 labels can name


@dataclass(frozen=True, eq=False)
class _Grid:
    """A 3-D grid of one array field named ``_FIELD``, read as ``_DTYPE``
    (None keeps the given dtype), then the type's scalar fields; ``_checked``
    holds the type's value checks and returns the array in the grid's dtype."""

    dims: tuple[int, int, int]

    _FIELD: ClassVar[str]
    _DTYPE: ClassVar[type | None]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise ValidationError(f"dims must be three positive integers, got {self.dims!r}")
        given = getattr(self, self._FIELD)
        values = np.asarray(given, dtype=self._DTYPE)
        if values.shape != dims:
            raise ValidationError(f"{self._FIELD} shape {values.shape} does not match dims {dims}")
        values = self._checked(values)
        memory = values
        while isinstance(memory, np.ndarray):
            memory = memory.base
        # a converted array is already private; only a bytes object can never change
        if np.may_share_memory(values, given) and not isinstance(memory, bytes):
            values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, self._FIELD, values)

    @classmethod
    def from_flat(cls, dims, flat, *scalars, **named):
        """Build from values listed in linear (x-fastest) order; the type's
        scalar fields follow."""
        dims = tuple(int(d) for d in dims)
        arr = np.asarray(flat, dtype=cls._DTYPE)
        if arr.size != int(np.prod(dims)):
            raise ValidationError(f"expected {int(np.prod(dims))} values, got {arr.size}")
        return cls(dims, arr.reshape(dims, order="F"), *scalars, **named)

    def flat(self) -> np.ndarray:
        """Values in linear (x-fastest) order."""
        return getattr(self, self._FIELD).ravel(order="F")

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    @staticmethod
    def _check_range(lowest, highest, *scalars):
        """The type's checks on values spanning [lowest, highest] and on its
        scalar fields, for a load that reads the values in parts; none here."""


@dataclass(frozen=True, eq=False)
class Volume(_Grid):
    """3-D scalar intensity grid with an explicit brightest-tissue level."""

    data: np.ndarray
    intensity_max: float

    _FIELD = "data"
    _DTYPE = np.float32

    def _checked(self, data: np.ndarray) -> np.ndarray:
        # NaN propagates through min and max and any infinity is an extreme,
        # so two reductions check every voxel without full-size temporaries
        object.__setattr__(self, "intensity_max",
                           self._check_range(data.min(), data.max(), self.intensity_max))
        return data

    @staticmethod
    def _check_range(lowest, highest, intensity_max) -> float:
        """``intensity_max`` as the f32 header field keeps it, once it and
        intensities spanning [lowest, highest] pass (NaN fails as not finite)."""
        lowest, highest = float(lowest), float(highest)
        if not (np.isfinite(lowest) and np.isfinite(highest)):
            raise ValidationError("intensities must be finite")
        if lowest < 0:
            raise ValidationError("intensities must be non-negative")
        # round-trips through the f32 header field must be exact
        imax = float(np.float32(intensity_max))
        if not np.isfinite(imax) or imax <= 0:
            raise ValidationError("intensity_max must be positive and finite")
        if imax < highest:
            raise ValidationError(
                f"intensity_max {imax} is below the largest intensity {highest}"
            )
        return imax

    def plane(self) -> np.ndarray:
        """2-D view of a single-slice volume, squeezing the axis of extent 1
        (z preferred)."""
        for axis in (2, 0, 1):
            if self.dims[axis] == 1:
                return np.squeeze(self.data, axis=axis)
        raise ValidationError(f"volume of dims {self.dims} is not a single slice")


@dataclass(frozen=True, eq=False)
class LabelVolume(_Grid):
    """3-D grid of uint8 cluster labels, same layout rules as Volume."""

    labels: np.ndarray

    _FIELD = "labels"
    _DTYPE = None

    def _checked(self, labels: np.ndarray) -> np.ndarray:
        if labels.dtype != np.uint8:
            if np.any(labels < 0) or np.any(labels > 255):
                raise ValidationError("labels must fit in uint8")
            labels = labels.astype(np.uint8)
        return labels


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

    def window(self, dims: tuple[int, int, int], reach: int = 0) -> range:
        """Indices along the axis of the planes within ``reach`` of this one,
        clipped to ``dims``."""
        if int(reach) < 0:
            raise ValidationError(f"reach must be non-negative, got {reach}")
        return range(max(self.index - int(reach), 0),
                     min(self.index + int(reach) + 1, dims[AXES[self.axis]]))


def extract_slice(v: Volume | LabelVolume, ref: SliceRef):
    """Plane ``ref`` of ``v``, copied once; the sliced axis keeps extent 1.

    Output voxel (x, y, 0) equals input voxel (x, y, index) for z slices,
    and analogously for x and y.
    """
    dims, axis = ref.plane_dims(v.dims), AXES[ref.axis]
    view = getattr(v, v._FIELD)[(slice(None),) * axis + (slice(ref.index, ref.index + 1),)]
    # one copy, as bytes, which the grid keeps; a view would keep all of v alive
    plane = np.frombuffer(view.tobytes(order="F"), view.dtype).reshape(dims, order="F")
    return replace(v, dims=dims, **{v._FIELD: plane})


# per grid type: VXF dtype code, payload dtype, the f32 header fields after
# the dims, and what its files hold
_VXF = {Volume: (1, "<f4", ("intensity_max",), "intensities"),
        LabelVolume: (2, "<u1", (), "labels")}


def save_volume(v: Volume | LabelVolume, path) -> None:
    """Write ``v`` to ``path`` in VXF, overwriting any existing file."""
    if type(v) not in _VXF:
        raise ValidationError(f"cannot save object of type {type(v).__name__}")
    code, payload, names, _ = _VXF[type(v)]
    with open(path, "wb") as fh:
        fh.write(_MAGIC + _HEADER.pack(code, *v.dims)
                 + struct.pack(f"<{len(names)}f", *(getattr(v, name) for name in names)))
        # straight from the payload's own buffer: at most the one copy flat() makes
        fh.write(v.flat().astype(payload, copy=False))


def _header(fh, path):
    """The grid type, dims and header fields of the VXF file open as ``fh``,
    left at its payload, once the header and the file's size pass."""
    size = os.fstat(fh.fileno()).st_size
    head = fh.read(4 + _HEADER.size + 4)
    if len(head) < 4 or head[:4] != _MAGIC:
        raise FormatError(f"{path}: not a VXF file (bad magic)")
    if len(head) < 4 + _HEADER.size:
        raise FormatError(f"{path}: truncated header")
    code, nx, ny, nz = _HEADER.unpack_from(head, 4)
    kind = {row[0]: k for k, row in _VXF.items()}.get(code)
    if kind is None:
        raise FormatError(f"{path}: unknown dtype code {code}")
    _, payload, names, _ = _VXF[kind]
    offset = 4 + _HEADER.size + 4 * len(names)
    if len(head) < offset:
        raise FormatError(f"{path}: truncated header")
    scalars = struct.unpack_from(f"<{len(names)}f", head, 4 + _HEADER.size)
    if min(nx, ny, nz) < 1:
        raise FormatError(f"{path}: non-positive dims {(nx, ny, nz)}")
    nbytes = nx * ny * nz * np.dtype(payload).itemsize
    expected = offset + nbytes
    if size < expected:
        raise OSError(f"{path}: truncated payload ({size - offset} of {nbytes} bytes)")
    if size > expected:
        raise FormatError(f"{path}: {size - expected} trailing bytes after payload")
    fh.seek(offset)
    return kind, (nx, ny, nz), scalars


def read_dims(path) -> tuple[int, int, int]:
    """The dims in the header of VXF file ``path``, once its header and size
    pass the checks a load makes."""
    with open(path, "rb") as fh:
        return _header(fh, path)[1]


def _load(path, want, ref: SliceRef | None, reach: int):
    with open(path, "rb", buffering=0) as fh:
        kind, dims, scalars = _header(fh, path)
        payload = np.dtype(_VXF[kind][1])
        keep = [slice(0, n) for n in dims]
        if ref is not None:
            planes = ref.window(dims, reach)
            keep[AXES[ref.axis]] = slice(planes.start, planes.stop)
        # every voxel of the file is checked, one file plane at a time, in one
        # buffer; what is kept goes into another, which getvalue hands the grid
        buffer = bytearray(dims[0] * dims[1] * payload.itemsize)
        plane = np.frombuffer(buffer, payload).reshape(dims[:2], order="F")
        kept, lows, highs = io.BytesIO(), [], []
        for z in range(dims[2]):
            if fh.readinto(buffer) != len(buffer):
                raise OSError(f"{path}: truncated payload")
            lows.append(plane.min())
            highs.append(plane.max())
            if keep[2].start <= z < keep[2].stop:
                # transposed C order is the file's x-fastest order
                kept.write(np.ascontiguousarray(plane[keep[0], keep[1]].T))
    kind._check_range(np.min(lows), np.max(highs), *scalars)
    if kind is not want:
        raise ValidationError(f"{path} holds {_VXF[kind][3]}, not {_VXF[want][3]}")
    if ref is not None:
        ref.plane_dims(dims)  # IndexError when the slice lies outside the file
    return kind.from_flat(tuple(s.stop - s.start for s in keep),
                          np.frombuffer(kept.getvalue(), payload), *scalars)


def load_volume(path, ref: SliceRef | None = None, reach: int = 0) -> Volume:
    """Load an intensity volume, or with ``ref`` only its planes within
    ``reach`` of that slice; rejects label files."""
    return _load(path, Volume, ref, reach)


def load_labels(path, ref: SliceRef | None = None, reach: int = 0) -> LabelVolume:
    """Load a label volume, or with ``ref`` only its planes within ``reach``
    of that slice; rejects intensity files."""
    return _load(path, LabelVolume, ref, reach)


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
