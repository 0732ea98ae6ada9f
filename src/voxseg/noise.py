"""Seeded Gaussian and Poisson corruption of intensity volumes.

Noise strength follows the "percent of brightest tissue" convention: at
p percent the Gaussian field has standard deviation (p/100)*intensity_max,
and the Poisson process is scaled so its standard deviation at an
intensity of intensity_max equals the same value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from voxseg.errors import ValidationError
from voxseg.volume import Volume

KINDS = ("gaussian", "poisson")


@dataclass
class NoiseSpec:
    kind: str
    percent: float
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"noise kind must be one of {KINDS}, got {self.kind!r}")
        if not 0.0 < float(self.percent) <= 100.0:
            raise ValidationError(f"noise percent must be in (0, 100], got {self.percent}")
        if int(self.seed) < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")


def _rng(seed: int) -> np.random.Generator:
    # every field is drawn whole, in one pass: a normal or Poisson draw uses a
    # variable number of Philox words, so part of a field cannot be regenerated
    # on its own; the bench draws each (kind, percent, seed) field once, whole,
    # and shares it among the cells on it
    return np.random.Generator(np.random.Philox(key=int(seed)))


def sample_noisy(v: Volume, spec: NoiseSpec) -> np.ndarray:
    """Raw noisy intensities before clamping, as float64.

    Exposed separately so the noise process itself can be checked against
    its nominal moments without the [0, intensity_max] clamp biasing them.
    """
    # numpy reuses the unnamed float64 temporaries in place, so either
    # process holds at most two full-size arrays at once
    rng = _rng(spec.seed)
    if spec.kind == "gaussian":
        sigma = spec.percent / 100.0 * v.intensity_max
        return v.data.astype(np.float64) + sigma * rng.standard_normal(v.data.shape)
    # scale chosen so var = scale * intensity = ((p/100) * imax)^2 at the top
    scale = (spec.percent / 100.0) ** 2 * v.intensity_max
    return scale * rng.poisson(v.data.astype(np.float64) / scale)


def add_noise(v: Volume, spec: NoiseSpec) -> Volume:
    """Corrupted copy of ``v``; intensities clamped to [0, intensity_max]."""
    noisy = np.clip(sample_noisy(v, spec), 0.0, v.intensity_max)
    return Volume(v.dims, noisy, v.intensity_max)
