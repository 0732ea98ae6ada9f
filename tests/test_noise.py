"""Noise process moments, ordering and reproducibility."""

import tracemalloc

import numpy as np
import pytest

from voxseg.errors import ValidationError
from voxseg.noise import NoiseSpec, add_noise, sample_noisy
from voxseg.phantom import PhantomSpec, generate_phantom
from voxseg.volume import Volume

FLAT = Volume((50, 50, 40), np.full((50, 50, 40), 200.0, dtype=np.float32), 200.0)


def test_gaussian_moments():
    # 1e5 voxels at the brightest level: sigma = percent / 100 * imax
    raw = sample_noisy(FLAT, NoiseSpec("gaussian", 10.0, seed=11))
    assert abs(raw.std() - 20.0) / 20.0 < 0.05
    assert abs(raw.mean() - 200.0) < 0.005 * 200.0


def test_poisson_moments():
    # at intensity == imax the scaling gives the same nominal sigma
    raw = sample_noisy(FLAT, NoiseSpec("poisson", 10.0, seed=11))
    assert abs(raw.std() - 20.0) / 20.0 < 0.05
    assert abs(raw.mean() - 200.0) < 0.005 * 200.0


def test_gaussian_sigma_scales_with_percent():
    lo = sample_noisy(FLAT, NoiseSpec("gaussian", 5.0, seed=2))
    hi = sample_noisy(FLAT, NoiseSpec("gaussian", 15.0, seed=2))
    assert abs(lo.std() - 10.0) / 10.0 < 0.05
    assert abs(hi.std() - 30.0) / 30.0 < 0.05


@pytest.mark.parametrize("kind", ["gaussian", "poisson"])
def test_monotone_corruption(kind):
    vol, _ = generate_phantom(PhantomSpec(dims=(24, 24, 24), num_shells=3))
    mad = []
    for percent in (1, 5, 9, 13, 20):
        noisy = add_noise(vol, NoiseSpec(kind, percent, seed=6))
        mad.append(float(np.abs(noisy.data - vol.data).mean()))
    assert all(a < b for a, b in zip(mad, mad[1:]))


@pytest.mark.parametrize("kind", ["gaussian", "poisson"])
def test_determinism(kind):
    vol, _ = generate_phantom(PhantomSpec(dims=(16, 16, 16)))
    a = add_noise(vol, NoiseSpec(kind, 9.0, seed=3))
    b = add_noise(vol, NoiseSpec(kind, 9.0, seed=3))
    c = add_noise(vol, NoiseSpec(kind, 9.0, seed=4))
    assert a == b
    assert a != c


def test_clamp_binds_at_heavy_noise():
    noisy = add_noise(FLAT, NoiseSpec("gaussian", 50.0, seed=0))
    assert float(noisy.data.min()) >= 0.0
    assert float(noisy.data.max()) <= FLAT.intensity_max
    # the unclamped draw must actually exceed the box for this to test anything
    raw = sample_noisy(FLAT, NoiseSpec("gaussian", 50.0, seed=0))
    assert raw.max() > FLAT.intensity_max and raw.min() < 0.0


def test_metadata_preserved():
    vol, _ = generate_phantom(PhantomSpec(dims=(16, 16, 16)))
    noisy = add_noise(vol, NoiseSpec("gaussian", 5.0, seed=1))
    assert noisy.dims == vol.dims
    assert noisy.intensity_max == vol.intensity_max
    assert noisy.data.dtype == np.float32


@pytest.mark.parametrize("kind", ["gaussian", "poisson"])
def test_add_noise_holds_two_float64_fields(kind):
    # the float64 noisy field and one float64 temporary; no other full-size copy
    vol, _ = generate_phantom(PhantomSpec(dims=(64, 64, 64), num_shells=4))
    tracemalloc.start()
    try:
        noisy = add_noise(vol, NoiseSpec(kind, 10.0, seed=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not noisy.data.flags.writeable
    assert peak < 4.5 * vol.data.nbytes


def test_spec_validation():
    with pytest.raises(ValidationError):
        NoiseSpec("salt", 5.0)
    with pytest.raises(ValidationError):
        NoiseSpec("gaussian", 0.0)
    with pytest.raises(ValidationError):
        NoiseSpec("gaussian", 101.0)
    with pytest.raises(ValidationError):
        NoiseSpec("gaussian", 5.0, seed=-1)
