"""Synthetic ground-truth volumes: nested cuboid shells of known intensity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from voxseg.errors import ValidationError
from voxseg.volume import LabelVolume, Volume


@dataclass
class PhantomSpec:
    """Geometry and intensity plan for a nested-cuboid phantom.

    Shell k (label k) is the region inside the k-th inset cuboid but
    outside the (k+1)-th; the outermost shell fills the whole volume.
    Each inset cuboid pulls in by ``margin`` voxels per side, so cuboid k
    spans ``[k*margin, dim - k*margin)`` along every axis.
    """

    dims: tuple[int, int, int] = (181, 217, 181)
    num_shells: int = 4
    intensities: tuple[float, ...] | None = None
    margin: int | None = None
    intensity_max: float = 255.0

    def __post_init__(self):
        self._plan()

    def _plan(self) -> tuple[tuple[int, ...], int, int, tuple[float, ...]]:
        """Checked ``(dims, shells, margin, intensities)``, defaults filled in."""
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise ValidationError(f"dims must be three positive integers, got {self.dims!r}")
        n = int(self.num_shells)
        if n < 2:
            raise ValidationError("need at least 2 shells")
        margin = int(self.margin) if self.margin is not None else min(dims) // 8
        if margin < 1:
            raise ValidationError(f"margin must be >= 1, got {margin}")
        intensities = (tuple(float(i) for i in self.intensities)
                       if self.intensities is not None
                       else default_intensities(n, self.intensity_max))
        if len(intensities) != n:
            raise ValidationError(f"need {n} intensities, got {len(intensities)}")
        if any(b <= a for a, b in zip(intensities, intensities[1:])):
            raise ValidationError("shell intensities must be strictly ascending")
        if intensities[-1] > self.intensity_max:
            raise ValidationError("shell intensities must not exceed intensity_max")
        # the innermost cuboid is inset (n-1)*margin per side and must survive
        if 2 * (n - 1) * margin >= min(dims):
            raise ValidationError(
                f"{n} shells at margin {margin} leave no room inside dims {dims}")
        return dims, n, margin, intensities


def default_intensities(num_shells: int, intensity_max: float) -> tuple[float, ...]:
    # Evenly spaced, topping out ~6% below intensity_max so the brightest
    # shell has headroom before additive noise hits the clamp.
    top = round(0.94 * intensity_max)
    return tuple(top * (k + 1) / num_shells for k in range(num_shells))


def generate_phantom(spec: PhantomSpec) -> tuple[Volume, LabelVolume]:
    """Deterministically build the phantom and its voxel-exact truth labels."""
    dims, n, margin, intensities = spec._plan()
    labels = np.zeros(dims, dtype=np.uint8)
    for k in range(1, n):
        inset = k * margin
        region = tuple(slice(inset, d - inset) for d in dims)
        labels[region] = k
    values = np.asarray(intensities, dtype=np.float32)[labels]
    return (Volume(dims, values, spec.intensity_max), LabelVolume(dims, labels))
