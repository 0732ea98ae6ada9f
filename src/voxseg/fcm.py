"""Fuzzy c-means clustering on 1-D intensity data.

The solver alternates the closed-form membership update (inverse-distance
ratios raised to 2/(m-1)) with the weighted-mean center update, stopping
when the membership matrix moves less than ``tolerance`` in the max norm.
Centers are kept in canonical ascending order throughout, with membership
columns permuted alongside, so cluster k always means "k-th darkest".

Row minima, maxima and sums over the c clusters are column folds
(:func:`_fold_columns`), so numpy loops over long columns, not c-wide rows.
They equal numpy's row reductions bit for bit for c < 8; from c = 8 numpy
sums a row with 8 unrolled accumulators, and sums differ by up to ~7e-16.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from voxseg.errors import DegenerateClusterError, ValidationError
from voxseg.volume import Volume


@dataclass
class FcmConfig:
    fuzziness: float = 2.0
    tolerance: float = 0.01
    max_iterations: int = 150

    def __post_init__(self):
        if not float(self.fuzziness) > 1.0:
            raise ValidationError(f"fuzziness must exceed 1, got {self.fuzziness}")
        if not float(self.tolerance) > 0.0:
            raise ValidationError(f"tolerance must be positive, got {self.tolerance}")
        if int(self.max_iterations) < 1:
            raise ValidationError("max_iterations must be at least 1")


class FcmResult(NamedTuple):
    membership: np.ndarray
    centers: np.ndarray
    iterations: int
    cost: float


def check_membership(u: np.ndarray, *, tol: float = 1e-9) -> None:
    """Raise unless ``u`` is a valid membership matrix.

    Rows must sum to 1 and entries lie in [0, 1] (within ``tol``); every
    column must hold some mass but not all of it.  The column upper bound
    is vacuous for a single cluster and is skipped there.
    """
    u = np.asarray(u)
    if u.ndim != 2:
        raise ValidationError("membership matrix must be 2-D")
    n, c = u.shape
    if np.any(u < -tol) or np.any(u > 1 + tol):
        raise ValidationError("membership values must lie in [0, 1]")
    if np.any(np.abs(u.sum(axis=1) - 1.0) > tol):
        raise ValidationError("membership rows must sum to 1")
    col = u.sum(axis=0)
    if np.any(col <= 0):
        raise ValidationError("every cluster needs positive total membership")
    if c > 1 and np.any(col >= n):
        raise ValidationError("no cluster may absorb all points")


def jm_cost(u: np.ndarray, d2: np.ndarray, fuzziness: float) -> float:
    """Weighted within-cluster scatter: sum of u^m * d^2."""
    u = np.asarray(u, dtype=np.float64)
    d2 = np.asarray(d2, dtype=np.float64)
    if u.shape != d2.shape:
        raise ValidationError(f"shape mismatch {u.shape} vs {d2.shape}")
    if np.any(d2 < 0):
        raise ValidationError("squared distances must be non-negative")
    return float(np.sum(u ** fuzziness * d2))


def _fold_columns(ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc`` folded over the columns of ``a``, left to right."""
    out = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        ufunc(out, a[:, j], out=out)
    return out


def update_membership(d2: np.ndarray, fuzziness: float) -> np.ndarray:
    """Memberships from squared distances via the inverse-ratio rule.

    A point at exactly zero distance from a center gets full membership
    there (lowest such column on ties).  Ratios are normalised by each
    row's smallest distance so large exponents cannot overflow.
    """
    d2 = np.asarray(d2, dtype=np.float64)
    if d2.ndim != 2:
        raise ValidationError("distance matrix must be 2-D")
    if np.any(d2 < 0) or not np.all(np.isfinite(d2)):
        raise ValidationError("squared distances must be finite and non-negative")
    dmin = _fold_columns(np.minimum, d2)
    # sqrt is monotone and correctly rounded, so sqrt(min) is min(sqrt);
    # rows with a zero distance divide by zero here and are replaced below
    with np.errstate(divide="ignore", invalid="ignore"):
        # row-major like its callers' reductions expect, whatever d2's layout
        u = np.sqrt(d2, out=np.empty(d2.shape))
        u /= np.sqrt(dmin)[:, None]
        u **= -2.0 / (fuzziness - 1.0)
        u /= _fold_columns(np.add, u)[:, None]
    hit = np.flatnonzero(dmin == 0.0)
    if hit.size:
        u[hit] = 0.0
        u[hit, np.argmax(d2[hit] == 0.0, axis=1)] = 1.0
    return u


def update_centers(u: np.ndarray, data: np.ndarray,
                   fuzziness: float) -> tuple[np.ndarray, np.ndarray]:
    """u^m-weighted means, sorted ascending.

    Returns ``(centers, u)`` with membership columns permuted to match the
    sorted order, so callers always hold a consistently labelled pair.
    """
    u = np.asarray(u, dtype=np.float64)
    data = np.asarray(data, dtype=np.float64).ravel()
    um = u ** fuzziness
    mass = um.sum(axis=0)
    if np.any(mass <= 0):
        empty = np.flatnonzero(mass <= 0)
        raise DegenerateClusterError(f"cluster(s) {empty.tolist()} lost all membership")
    centers = (um * data[:, None]).sum(axis=0) / mass
    order = np.argsort(centers, kind="stable")
    return centers[order], u[:, order]


def _log_normal_pdf(x: np.ndarray, mu: np.ndarray, var: np.ndarray) -> np.ndarray:
    return -0.5 * ((x[:, None] - mu) ** 2 / var + np.log(2.0 * np.pi * var))


def gmm_init(data: np.ndarray, c: int, scale: float | None = None) -> np.ndarray:
    """Initial cluster centers from a 1-D Gaussian-mixture EM fit.

    Means start at ``c`` evenly spaced data quantiles; a shared variance
    floor of (1e-4 * scale)^2 stops components collapsing onto repeated
    values.  ``scale`` defaults to the largest absolute data value.
    Runs at most 100 iterations or until the total log-likelihood moves
    by less than 1e-6.  Fully deterministic.
    """
    data = np.asarray(data, dtype=np.float64).ravel()
    c = int(c)
    if c < 1:
        raise ValidationError("need at least one component")
    if np.unique(data).size < c:
        raise ValidationError(
            f"need at least {c} distinct values, got {np.unique(data).size}")
    if c == 1:
        return np.array([data.mean()])
    if scale is None:
        scale = float(np.max(np.abs(data))) or 1.0
    var_floor = (1e-4 * float(scale)) ** 2
    mu = np.quantile(data, np.linspace(0.0, 1.0, c))
    if np.unique(mu).size < c:
        # a dominant value can occupy several quantiles at once; identical
        # components would then stay identical through every EM step
        mu = np.linspace(float(data.min()), float(data.max()), c)
    var = np.full(c, max(float(data.var()), var_floor))
    weight = np.full(c, 1.0 / c)
    prev_ll = -np.inf
    for _ in range(100):
        log_wp = np.log(weight) + _log_normal_pdf(data, mu, var)
        top = _fold_columns(np.maximum, log_wp)
        norm = top + np.log(_fold_columns(np.add, np.exp(log_wp - top[:, None])))
        resp = np.exp(log_wp - norm[:, None])
        ll = float(norm.sum())
        if abs(ll - prev_ll) < 1e-6:
            break
        prev_ll = ll
        mass = resp.sum(axis=0)
        alive = mass > 1e-12
        safe = np.where(alive, mass, 1.0)
        mu = np.where(alive, (resp * data[:, None]).sum(axis=0) / safe, mu)
        var = np.where(
            alive,
            np.maximum((resp * (data[:, None] - mu) ** 2).sum(axis=0) / safe, var_floor),
            var)
        weight = np.maximum(mass / data.size, 1e-12)
        weight = weight / weight.sum()
    return np.sort(mu)


def fcm(data: np.ndarray, c: int, cfg: FcmConfig,
        init_centers: np.ndarray | None = None, seed: int = 0) -> FcmResult:
    """Fuzzy c-means on a flat data vector.

    Parameters
    ----------
    data : array_like
        1-D intensities (any shape is flattened).
    c : int
        Number of clusters, 1 <= c <= len(data).
    cfg : FcmConfig
        Fuzziness, stop tolerance, iteration cap.
    init_centers : array_like, optional
        Starting centers; when omitted, ``c`` distinct data values are
        drawn with the seeded generator.

    Returns
    -------
    FcmResult
        Membership matrix, ascending centers, iteration count and final
        cost.  The returned membership was computed from the returned
        centers, so re-applying the membership update is a no-op.
    """
    data = np.asarray(data, dtype=np.float64).ravel()
    c = int(c)
    if not 1 <= c <= data.size:
        raise ValidationError(f"cluster count {c} invalid for {data.size} points")
    if init_centers is None:
        values = np.unique(data)
        if values.size < c:
            raise ValidationError(
                f"need at least {c} distinct values for random init")
        rng = np.random.default_rng(seed)
        centers = np.sort(rng.choice(values, size=c, replace=False))
    else:
        centers = np.sort(np.asarray(init_centers, dtype=np.float64).ravel())
        if centers.size != c:
            raise ValidationError(f"expected {c} centers, got {centers.size}")

    d2 = (data[:, None] - centers) ** 2
    u = update_membership(d2, cfg.fuzziness)
    cost = jm_cost(u, d2, cfg.fuzziness)
    iterations = 0
    for _ in range(cfg.max_iterations):
        centers, u = update_centers(u, data, cfg.fuzziness)
        d2 = (data[:, None] - centers) ** 2
        u_next = update_membership(d2, cfg.fuzziness)
        cost = jm_cost(u_next, d2, cfg.fuzziness)
        shift = float(np.abs(u_next - u).max())
        u = u_next
        iterations += 1
        if shift < cfg.tolerance:
            break
    return FcmResult(u, centers, iterations, cost)


def gmm_fcm(v: Volume, c: int, cfg: FcmConfig) -> FcmResult:
    """Fuzzy c-means seeded from the Gaussian-mixture fit; deterministic."""
    data = v.flat().astype(np.float64)
    centers = gmm_init(data, c, scale=v.intensity_max)
    return fcm(data, c, cfg, init_centers=centers)
