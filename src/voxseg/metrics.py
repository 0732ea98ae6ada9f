"""Segmentation error metrics against voxel-exact ground truth.

All scores are one-vs-rest per cluster: UnS counts false positives
against the true negatives, OS counts false negatives against the true
positives, and IncS charges both error kinds against the whole domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from voxseg.errors import UndefinedMetricError, ValidationError
from voxseg.volume import MAX_CLUSTERS, LabelVolume


@dataclass(frozen=True)
class ClusterErrorCounts:
    n_fp: int
    n_fn: int
    n_p: int  # truth voxels of the cluster
    n_n: int  # truth voxels of everything else

    @property
    def total(self) -> int:
        return self.n_p + self.n_n


def error_counts(pred: LabelVolume, truth: LabelVolume, cluster: int) -> ClusterErrorCounts:
    """One-vs-rest confusion counts for a single cluster."""
    if pred.dims != truth.dims:
        raise ValidationError(f"label dims differ: {pred.dims} vs {truth.dims}")
    p = pred.labels.ravel()
    t = truth.labels.ravel()
    in_truth = t == cluster
    in_pred = p == cluster
    return ClusterErrorCounts(
        n_fp=int(np.count_nonzero(in_pred & ~in_truth)),
        n_fn=int(np.count_nonzero(~in_pred & in_truth)),
        n_p=int(np.count_nonzero(in_truth)),
        n_n=int(np.count_nonzero(~in_truth)),
    )


def under_segmentation(counts: ClusterErrorCounts) -> float:
    """False positives over true negatives."""
    if counts.n_n == 0:
        raise UndefinedMetricError("UnS undefined: cluster covers the whole domain")
    return counts.n_fp / counts.n_n


def over_segmentation(counts: ClusterErrorCounts) -> float:
    """False negatives over true positives."""
    if counts.n_p == 0:
        raise UndefinedMetricError("OS undefined: cluster absent from the truth")
    return counts.n_fn / counts.n_p


def incorrect_segmentation(counts: ClusterErrorCounts, literal: bool = False) -> float:
    """Total error rate for the cluster.

    The default charges every misclassified voxel against the domain:
    (n_fp + n_fn) / N.  The ``literal`` variant instead divides the sum
    of the two rates by N, which yields values a factor ~N smaller; it is
    kept selectable for comparability with that convention.
    """
    if counts.total == 0:
        raise UndefinedMetricError("IncS undefined on an empty domain")
    if literal:
        return (under_segmentation(counts) + over_segmentation(counts)) / counts.total
    return (counts.n_fp + counts.n_fn) / counts.total


def relative_improvement(incs_other: float, incs_ours: float) -> float:
    """Percent reduction of IncS relative to the other algorithm."""
    if incs_other == 0:
        raise UndefinedMetricError("relative improvement undefined: reference IncS is 0")
    return 100.0 * (incs_other - incs_ours) / incs_other


def defuzzify(u: np.ndarray, dims: tuple[int, int, int]) -> LabelVolume:
    """Hard labels by per-voxel argmax; ties go to the lowest index."""
    u = np.asarray(u)
    if u.ndim != 2:
        raise ValidationError("membership matrix must be 2-D")
    n, c = u.shape
    if n != int(np.prod(dims)):
        raise ValidationError(f"membership rows {n} do not match dims {dims}")
    if c > MAX_CLUSTERS:
        raise ValidationError("more clusters than uint8 labels can carry")
    return LabelVolume.from_flat(dims, np.argmax(u, axis=1).astype(np.uint8))


def evaluate_labels(pred: LabelVolume, truth: LabelVolume, clusters: int,
                    literal: bool = False) -> dict:
    """Per-cluster UnS/OS/IncS plus their means.

    Clusters are matched positionally: prediction labels follow ascending
    center order and truth labels ascending true intensity order, so
    index k means the k-th darkest class on both sides.
    """
    clusters = int(clusters)
    if clusters < 1:
        raise ValidationError("need at least one cluster")
    for name, vol in (("prediction", pred), ("truth", truth)):
        top = int(vol.labels.max())
        if top >= clusters:
            raise ValidationError(f"{name} contains label {top} >= {clusters}")
    rows = []
    for k in range(clusters):
        counts = error_counts(pred, truth, k)
        rows.append({
            "cluster": k,
            "counts": counts,
            "uns": under_segmentation(counts),
            "os": over_segmentation(counts),
            "incs": incorrect_segmentation(counts, literal),
        })
    return {
        "per_cluster": rows,
        "mean_uns": float(np.mean([r["uns"] for r in rows])),
        "mean_os": float(np.mean([r["os"] for r in rows])),
        "mean_incs": float(np.mean([r["incs"] for r in rows])),
    }
