"""Phantom geometry against closed-form cuboid arithmetic."""

import numpy as np
import pytest

from voxseg.errors import ValidationError
from voxseg.phantom import PhantomSpec, default_intensities, generate_phantom


def test_two_shell_brute_force():
    vol, lab = generate_phantom(
        PhantomSpec(dims=(8, 8, 8), num_shells=2, margin=2,
                    intensities=(10.0, 20.0), intensity_max=30.0))
    for x in range(8):
        for y in range(8):
            for z in range(8):
                inner = all(2 <= k < 6 for k in (x, y, z))
                assert lab.labels[x, y, z] == (1 if inner else 0)
                assert vol.data[x, y, z] == (20.0 if inner else 10.0)


def shell_counts(dims, num_shells, margin):
    # closed form: shell k is cuboid k minus cuboid k+1, cuboid k inset
    # by k*margin per side
    def box(k):
        ext = [max(d - 2 * k * margin, 0) for d in dims]
        return ext[0] * ext[1] * ext[2]

    return [box(k) - (box(k + 1) if k + 1 < num_shells else 0)
            for k in range(num_shells)]


def test_default_dims_histogram():
    spec = PhantomSpec()  # 181 x 217 x 181, 4 shells, margin 181 // 8 = 22
    vol, lab = generate_phantom(spec)
    counts = np.bincount(lab.labels.ravel(), minlength=4)
    assert counts.tolist() == shell_counts((181, 217, 181), 4, 22)
    assert counts.sum() == 181 * 217 * 181


def test_intensity_map_matches_labels():
    spec = PhantomSpec(dims=(20, 24, 20), num_shells=3)
    vol, lab = generate_phantom(spec)
    levels = np.asarray(default_intensities(3, 255.0), dtype=np.float32)
    assert np.array_equal(vol.data, levels[lab.labels])
    assert vol.intensity_max == 255.0


def test_default_intensities():
    assert default_intensities(4, 255.0) == (60.0, 120.0, 180.0, 240.0)
    assert default_intensities(3, 255.0) == (80.0, 160.0, 240.0)
    # headroom below the clamp for additive noise
    assert default_intensities(4, 255.0)[-1] < 255.0


def test_determinism():
    a = generate_phantom(PhantomSpec(dims=(16, 16, 16)))
    b = generate_phantom(PhantomSpec(dims=(16, 16, 16)))
    assert a[0] == b[0] and a[1] == b[1]


def test_validation():
    with pytest.raises(ValidationError):
        generate_phantom(PhantomSpec(dims=(16, 16), num_shells=2))
    with pytest.raises(ValidationError):
        generate_phantom(PhantomSpec(dims=(16, 16, 16), num_shells=1))
    with pytest.raises(ValidationError):  # no room for the innermost cuboid
        generate_phantom(PhantomSpec(dims=(8, 8, 8), num_shells=4, margin=2))
    with pytest.raises(ValidationError):  # not ascending
        generate_phantom(PhantomSpec(dims=(16, 16, 16), num_shells=2,
                                     intensities=(90.0, 30.0)))
    with pytest.raises(ValidationError):  # above intensity_max
        generate_phantom(PhantomSpec(dims=(16, 16, 16), num_shells=2,
                                     intensities=(100.0, 300.0)))
    with pytest.raises(ValidationError):  # wrong count
        generate_phantom(PhantomSpec(dims=(16, 16, 16), num_shells=3,
                                     intensities=(10.0, 20.0)))
    for imax in (np.nan, np.inf, -5.0, 0.0):
        with pytest.raises(ValidationError, match="positive and finite"):
            PhantomSpec(dims=(16, 16, 16), num_shells=2, intensity_max=imax)


def test_anisotropic_dims():
    vol, lab = generate_phantom(PhantomSpec(dims=(12, 31, 17), num_shells=2,
                                            margin=3))
    assert lab.dims == (12, 31, 17)
    counts = np.bincount(lab.labels.ravel(), minlength=2)
    assert counts.tolist() == shell_counts((12, 31, 17), 2, 3)
