"""Fuzzy segmentation of volumetric images.

The package covers the full loop of a segmentation experiment: build a
nested-cuboid phantom with known labels, corrupt it with calibrated
noise, cluster a slice with one of the attraction-based fuzzy c-means
variants, and score the result against the truth.

Entry points by stage:

* volumes      :class:`Volume`, :class:`LabelVolume`, :func:`load_volume`,
                :func:`save_volume`, :func:`extract_slice`
* test data    :func:`generate_phantom`, :func:`add_noise`
* clustering   :func:`fcm`, :func:`gmm_fcm`, :func:`ifcm`,
                :func:`pso_ifcm`, :func:`ga_ifcm`, :func:`pso_ifcm_3d`
* scoring      :func:`evaluate_labels`, :func:`defuzzify`
* batch runs   :func:`run_benchmark`, the ``voxseg`` command
"""

from voxseg.attraction import AttractionParams
from voxseg.bench import BenchConfig, run_benchmark
from voxseg.errors import (DegenerateClusterError, FormatError,
                           UndefinedMetricError, ValidationError)
from voxseg.fcm import FcmConfig, FcmResult, fcm, gmm_fcm
from voxseg.metrics import defuzzify, evaluate_labels
from voxseg.noise import NoiseSpec, add_noise
from voxseg.optimize import GaConfig, PsoConfig
from voxseg.phantom import PhantomSpec, generate_phantom
from voxseg.pipelines import (SegmentationResult, ga_ifcm, ifcm, pso_ifcm,
                              pso_ifcm_3d)
from voxseg.volume import (LabelVolume, SliceRef, Volume, extract_slice,
                           load_labels, load_volume, save_volume)

__version__ = "0.1.0"

__all__ = [
    "AttractionParams", "BenchConfig", "DegenerateClusterError", "FcmConfig",
    "FcmResult", "FormatError", "GaConfig", "LabelVolume", "NoiseSpec",
    "PhantomSpec", "PsoConfig", "SegmentationResult", "SliceRef",
    "UndefinedMetricError", "ValidationError", "Volume", "add_noise",
    "defuzzify", "evaluate_labels", "extract_slice", "fcm", "ga_ifcm",
    "generate_phantom", "gmm_fcm", "ifcm", "load_labels", "load_volume",
    "pso_ifcm", "pso_ifcm_3d", "run_benchmark", "save_volume",
]
