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

from voxseg.attraction import (AttractionParams, ShellTable,
                               attraction_distances, build_shell_table,
                               decay_weights, ifcm_step, neighborhood_2d,
                               plane_context, slice_context)
from voxseg.bench import BenchConfig, run_benchmark, run_sweep
from voxseg.errors import (DegenerateClusterError, FormatError,
                           UndefinedMetricError, ValidationError)
from voxseg.fcm import (FcmConfig, FcmResult, check_membership, fcm, gmm_fcm,
                        gmm_init, jm_cost, update_centers, update_membership)
from voxseg.metrics import (ClusterErrorCounts, defuzzify, error_counts,
                            evaluate_labels, incorrect_segmentation,
                            over_segmentation, relative_improvement,
                            under_segmentation)
from voxseg.noise import NoiseSpec, add_noise, sample_noisy
from voxseg.optimize import GaConfig, OptResult, PsoConfig, ga_minimize, pso_minimize
from voxseg.phantom import PhantomSpec, default_intensities, generate_phantom
from voxseg.pipelines import (SegmentationResult, ga_ifcm, ifcm, pso_ifcm,
                              pso_ifcm_3d)
from voxseg.volume import (LabelVolume, SliceRef, Volume, extract_slice,
                           load_labels, load_volume, save_volume, write_pgm)

__version__ = "0.1.0"

__all__ = [
    "AttractionParams", "BenchConfig", "ClusterErrorCounts",
    "DegenerateClusterError", "FcmConfig", "FcmResult", "FormatError",
    "GaConfig", "LabelVolume", "NoiseSpec", "OptResult", "PhantomSpec",
    "PsoConfig", "SegmentationResult", "ShellTable", "SliceRef",
    "UndefinedMetricError", "ValidationError", "Volume", "add_noise",
    "attraction_distances",
    "build_shell_table", "check_membership", "decay_weights",
    "default_intensities", "defuzzify", "error_counts", "evaluate_labels",
    "extract_slice", "fcm", "ga_ifcm", "ga_minimize", "generate_phantom",
    "gmm_fcm", "gmm_init", "ifcm", "ifcm_step", "incorrect_segmentation",
    "jm_cost", "load_labels", "load_volume", "neighborhood_2d",
    "over_segmentation", "plane_context", "pso_ifcm", "pso_ifcm_3d",
    "pso_minimize", "relative_improvement", "run_benchmark", "run_sweep",
    "sample_noisy", "save_volume", "slice_context", "under_segmentation",
    "update_centers", "update_membership", "write_pgm",
]
