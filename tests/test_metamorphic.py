"""Metamorphic label pins: relations any correct segmentation satisfies.

Mirroring the volume along an axis, swapping its x and y axes, or scaling
its intensities and ``intensity_max`` together must carry the labels
along and change nothing else.  The pins need no truth and no recorded
hashes, so they hold across a change that moves the bits.  They compare
labels and stop reasons, and under scaling the iteration counts; never
memberships or centres, whose last bits a relation may move.  One mirror
runs at the acceptance protocol's size, where it also pins the weights.
"""

import numpy as np
import pytest

from voxseg.attraction import AttractionParams
from voxseg.fcm import FcmConfig
from voxseg.noise import NoiseSpec, add_noise
from voxseg.optimize import GaConfig, PsoConfig
from voxseg.phantom import PhantomSpec, generate_phantom
from voxseg.pipelines import ALGORITHMS, segment
from voxseg.volume import SliceRef, Volume

REF = SliceRef("z", 16)
PARAMS = AttractionParams(0.5, 0.5, level=2, depth=3, decay=1.5)


def run(algorithm, vol, ref=REF, size=10, rounds=5):
    return segment(algorithm, vol, ref, 4, FcmConfig(), PARAMS,
                   PsoConfig(swarm_size=size, max_iter=rounds, seed=0),
                   GaConfig(population=size, generations=rounds, seed=0))


def mirror(axis, at=REF):
    def relation(vol):
        # a z mirror moves plane 16 of 32 to plane 15; the labels lie in one plane
        ref = SliceRef("z", vol.dims[2] - 1 - at.index) if axis == 2 else at
        return (Volume(vol.dims, np.flip(vol.data, axis), vol.intensity_max), ref,
                lambda a: np.flip(a, axis))
    return relation


def scale(factor):
    def relation(vol):
        return (Volume(vol.dims, vol.data * factor, vol.intensity_max * factor), REF,
                lambda a: a)
    return relation


def swap_xy(vol):
    nx, ny, nz = vol.dims
    return (Volume((ny, nx, nz), vol.data.transpose(1, 0, 2), vol.intensity_max), REF,
            lambda a: a.transpose(1, 0, 2))


RELATIONS = {"mirror-x": mirror(0), "mirror-y": mirror(1), "mirror-z": mirror(2),
             "scale-2": scale(2), "scale-3": scale(3), "swap-xy": swap_xy}


def noisy_phantom(size):
    vol, _ = generate_phantom(PhantomSpec(dims=(size, size, size), num_shells=4))
    return add_noise(vol, NoiseSpec("gaussian", 10.0, 0))


@pytest.fixture(scope="module")
def noisy():
    return noisy_phantom(32)


@pytest.fixture(scope="module")
def acceptance_noisy():
    return noisy_phantom(96)


@pytest.fixture(scope="module")
def plain(noisy):
    """Each algorithm's result on the unchanged volume, shared by every relation."""
    return {algorithm: run(algorithm, noisy) for algorithm in ALGORITHMS}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("name", RELATIONS)
def test_labels_follow_the_volume(noisy, plain, name, algorithm):
    moved, ref, back = RELATIONS[name](noisy)
    before, after = plain[algorithm], run(algorithm, moved, ref)
    assert np.array_equal(back(after.labels.labels), before.labels.labels)
    assert after.stop_reason == before.stop_reason
    if name.startswith("scale"):
        assert after.iterations == before.iterations


def check_acceptance_size_mirror(vol, axis, at, algorithm):
    # the acceptance protocol: 96^3, swarm and population 20 x 10
    moved, ref, back = mirror(axis, at)(vol)
    before, after = (run(algorithm, v, ref, 20, 10) for v in (vol, moved))
    assert np.array_equal(back(after.labels.labels), before.labels.labels)
    assert after.stop_reason == before.stop_reason
    assert ((after.feature_weight, after.spatial_weight)
            == (before.feature_weight, before.spatial_weight))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_acceptance_size_mirror(acceptance_noisy, algorithm):
    check_acceptance_size_mirror(acceptance_noisy, 0, SliceRef("z", 48), algorithm)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_acceptance_size_mirror_on_a_plane_with_every_label(acceptance_noisy, algorithm):
    # x:40 holds all four labels; its plane spans y and z, so the mirror
    # runs along y
    check_acceptance_size_mirror(acceptance_noisy, 1, SliceRef("x", 40), algorithm)
