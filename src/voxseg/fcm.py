"""Fuzzy c-means clustering on 1-D intensity data.

A fit starts from the centers it is given, one per cluster; the pipelines
seed them with :func:`gmm_init`, as :func:`gmm_fcm` does.  The solver
alternates the closed-form membership update with the weighted-mean center
update in :func:`settle`, the one loop that runs a Picard step until the
memberships move less than ``tolerance`` in the max norm and names why it
stopped; the attraction pipelines hand it their step.  Centers are kept in
canonical ascending order throughout, with membership columns permuted
alongside, so cluster k always means "k-th darkest".

Memberships take u_ij proportional to (dmin_i / d2_ij)^(1/(m-1)), with
dmin_i the row's smallest squared distance, so every ratio lies in (0, 1]
and no power can overflow; at m = 2 the power is skipped.  A center's mass
and weighted sum come from one matrix product, as do the Gaussian-mixture
M-step sums in :func:`gmm_init`.  Row minima, maxima and sums over the c
clusters are column folds (:func:`_fold_columns`), so numpy loops over long
columns, not c-wide rows.

Distances and memberships are (n, c) matrices, and the fits here and in
:mod:`voxseg.attraction` build them cluster-major, as transposes of (c, n)
arrays, so that each column is contiguous.  :func:`update_membership`
returns its result in the layout of the distances it is given.  Every
result has the same bits in either layout: elementwise rules and column
folds do not depend on it, and the two reductions whose rounding does, the
product in :func:`update_centers` and the sum in :func:`jm_cost`, read
row-major operands.

The rules are Bezdek's; their rounding is not the textbook evaluation's.
Memberships stay within (2/(m-1) + c + 5) units of 2^-53 of an
extended-precision evaluation of the same rule, relative to it, for any c.
The products run in the BLAS numpy is linked against, so their last bits
depend on its kernel (OpenBLAS picks one per CPU); results repeat exactly on
one machine.
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
        if not 1.0 < float(self.fuzziness) < np.inf:
            raise ValidationError(f"fuzziness must be finite and exceed 1, got {self.fuzziness}")
        if not 0.0 < float(self.tolerance) < np.inf:
            raise ValidationError(f"tolerance must be positive and finite, got {self.tolerance}")
        if int(self.max_iterations) < 1:
            raise ValidationError("max_iterations must be at least 1")


class FcmResult(NamedTuple):
    membership: np.ndarray
    centers: np.ndarray
    iterations: int
    cost: float
    stop_reason: str    # "converged", "cycle" or "cap", as :func:`settle` says


def check_membership(u: np.ndarray) -> None:
    """Raise unless ``u`` is a valid membership matrix.

    Rows must sum to 1 and entries lie in [0, 1] (within 1e-9); every
    column must hold some mass but not all of it.  The column upper bound
    is vacuous for a single cluster and is skipped there.
    """
    u = np.asarray(u)
    if u.ndim != 2:
        raise ValidationError("membership matrix must be 2-D")
    n, c = u.shape
    if np.any(u < -1e-9) or np.any(u > 1 + 1e-9):
        raise ValidationError("membership values must lie in [0, 1]")
    if np.any(np.abs(u.sum(axis=1) - 1.0) > 1e-9):
        raise ValidationError("membership rows must sum to 1")
    col = u.sum(axis=0)
    if np.any(col <= 0):
        raise ValidationError("every cluster needs positive total membership")
    if c > 1 and np.any(col >= n):
        raise ValidationError("no cluster may absorb all points")


def jm_cost(u: np.ndarray, d2: np.ndarray, fuzziness: float) -> float:
    """Weighted within-cluster scatter: sum of u^m * d^2, summed row-major
    whatever the operands' layout."""
    u = np.asarray(u, dtype=np.float64, order="C")
    d2 = np.asarray(d2, dtype=np.float64, order="C")
    if u.shape != d2.shape:
        raise ValidationError(f"shape mismatch {u.shape} vs {d2.shape}")
    if d2.min() < 0:
        raise ValidationError("squared distances must be non-negative")
    if fuzziness == 2.0:
        return float(np.einsum("ij,ij,ij->", u, u, d2))
    return float(np.einsum("ij,ij->", u ** fuzziness, d2))


def _fold_columns(ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc`` folded over the columns of ``a``, left to right."""
    out = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        ufunc(out, a[:, j], out=out)
    return out


def update_membership(d2: np.ndarray, fuzziness: float) -> np.ndarray:
    """Memberships from squared distances via the inverse-ratio rule.

    A point at exactly zero distance from a center gets full membership
    there (lowest such column on ties).  Ratios are taken against each
    row's smallest distance so large exponents cannot overflow.  The
    result has ``d2``'s layout, so the column folds over both stay
    contiguous for cluster-major distances.
    """
    d2 = np.asarray(d2, dtype=np.float64)
    if d2.ndim != 2:
        raise ValidationError("distance matrix must be 2-D")
    # a NaN fails the first test, an infinity the second
    if not (d2.min() >= 0 and np.isfinite(d2.max())):
        raise ValidationError("squared distances must be finite and non-negative")
    dmin = _fold_columns(np.minimum, d2)
    power = 1.0 / (fuzziness - 1.0)
    # rows with a zero distance divide 0 by 0 here and are replaced below
    with np.errstate(invalid="ignore"):
        u = np.divide(dmin[:, None], d2, out=np.empty_like(d2))
        if power != 1.0:
            u **= power
        u /= _fold_columns(np.add, u)[:, None]
    hit = np.flatnonzero(dmin == 0.0)
    if hit.size:
        u[hit] = 0.0
        u[hit, np.argmax(d2[hit] == 0.0, axis=1)] = 1.0
    return u


def update_centers(u: np.ndarray, data: np.ndarray, fuzziness: float
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """u^m-weighted means, sorted ascending.

    Returns ``(centers, u, order)``: ``u`` with its membership columns put in
    ``order``, the order that sorts the means, so callers always hold a
    consistently labelled pair; when the means already ascend, ``u`` comes
    back as given and ``order`` is None.
    """
    u = np.asarray(u, dtype=np.float64)
    data = np.asarray(data, dtype=np.float64).ravel()
    # every column's mass and weighted sum from one product, of a row-major
    # u^m whatever u's layout
    mass, total = (np.power(u, fuzziness, order="C").T
                   @ np.column_stack((np.ones(data.size), data))).T
    if np.any(mass <= 0):
        empty = np.flatnonzero(mass <= 0)
        raise DegenerateClusterError(f"cluster(s) {empty.tolist()} lost all membership")
    centers = total / mass
    if np.all(centers[:-1] <= centers[1:]):  # a stable sort would move no column
        return centers, u, None
    order = np.argsort(centers, kind="stable")
    return centers[order], u[:, order], order


def reorder(u: np.ndarray, order: np.ndarray | None) -> np.ndarray:
    """``u`` with its columns in ``order``; ``u`` itself when ``order`` is None."""
    return u if order is None else u[:, order]


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
    sq = np.square(data[:, None] - mu)      # (x - mu)^2, renewed by each M-step
    log_wp = np.empty_like(sq)
    for _ in range(100):
        # log of weight times normal density, built in place
        np.multiply(sq, -0.5 / var, out=log_wp)
        log_wp += np.log(weight) - 0.5 * np.log(2.0 * np.pi * var)
        top = _fold_columns(np.maximum, log_wp)
        log_wp -= top[:, None]
        wp = np.exp(log_wp, out=log_wp)
        total = _fold_columns(np.add, wp)
        ll = float((top + np.log(total)).sum())
        if abs(ll - prev_ll) < 1e-6:
            break
        prev_ll = ll
        # responsibilities are wp / total; the division rides in the products
        inv = 1.0 / total
        mass, first = (wp.T @ np.column_stack((inv, data * inv))).T
        alive = mass > 1e-12
        safe = np.where(alive, mass, 1.0)
        mu = np.where(alive, first / safe, mu)
        np.square(np.subtract(data[:, None], mu, out=sq), out=sq)
        wp *= sq                            # weights of the variance sums
        var = np.where(alive, np.maximum(inv @ wp / safe, var_floor), var)
        weight = np.maximum(mass / data.size, 1e-12)
        weight = weight / weight.sum()
    return np.sort(mu)


def fcm(data: np.ndarray, centers: np.ndarray, cfg: FcmConfig) -> FcmResult:
    """Fuzzy c-means on a flat data vector, started from ``centers``.

    Parameters
    ----------
    data : array_like
        1-D intensities (any shape is flattened).
    centers : array_like
        Starting centers, a 1-D array of 1 to len(data) values, one per
        cluster; they are sorted before use.
    cfg : FcmConfig
        Fuzziness, stop tolerance, iteration cap.

    Returns
    -------
    FcmResult
        Membership matrix, ascending centers, iteration count, final cost
        and the stop reason of :func:`settle`.  The returned membership was
        computed from the returned centers, so re-applying the membership
        update is a no-op.
    """
    data = np.asarray(data, dtype=np.float64).ravel()
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 1 or not 1 <= centers.size <= data.size:
        raise ValidationError(f"need a 1-D array of 1 to {data.size} centers, "
                              f"got shape {centers.shape}")
    centers = np.sort(centers)

    def distances(centers):
        return ((data - centers[:, None]) ** 2).T  # cluster-major

    def step(u, centers):
        centers, _, order = update_centers(u, data, cfg.fuzziness)
        d2 = distances(centers)
        u_next = update_membership(d2, cfg.fuzziness)
        return order, u_next, centers, lambda: jm_cost(u_next, d2, cfg.fuzziness)

    # handed over directly, so no local here keeps them alive through the loop
    return settle(step, update_membership(distances(centers), cfg.fuzziness), centers, cfg)


def _max_shift(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| over all entries, from one temporary."""
    shift = np.subtract(a, b)
    return float(np.abs(shift, out=shift).max())


def settle(step, u: np.ndarray, centers: np.ndarray, cfg: FcmConfig) -> FcmResult:
    """Repeat the Picard step ``step`` from ``(u, centers)`` until the
    memberships settle.

    ``step(u, centers)`` returns ``(order, after, centers, cost)``: the
    column order the step sorted the new centers into (None when it moved
    no column), the next memberships, the new centers, and the cost as a
    function of no arguments, which settle calls once, for the iterate it
    returns.  Every earlier iterate kept is put in that order too, so
    iterates are compared cluster by cluster.  ``stop_reason`` is
    "converged" once after and before differ by less than ``cfg.tolerance``
    in the max norm; at ``cfg.max_iterations`` it is "cycle" when the last
    iterate is that close to the one two steps earlier (the loop alternates
    between two states), else "cap".  Only that earlier iterate outlives a
    step: the previous step's cost goes before the next step runs.
    """
    two_back = None
    for done in range(cfg.max_iterations):
        cost = None  # the previous step's, and the distances it holds
        order, after, centers, cost = step(u, centers)
        before, u = reorder(u, order), after
        if two_back is not None:
            two_back = reorder(two_back, order)
        if _max_shift(u, before) < cfg.tolerance:
            return FcmResult(u, centers, done + 1, cost(), "converged")
        if done == cfg.max_iterations - 2:
            two_back = before
        del before
    cycle = two_back is not None and _max_shift(u, two_back) < cfg.tolerance
    return FcmResult(u, centers, cfg.max_iterations, cost(), "cycle" if cycle else "cap")


def gmm_fcm(v: Volume, c: int, cfg: FcmConfig) -> FcmResult:
    """Fuzzy c-means seeded from the Gaussian-mixture fit; deterministic."""
    data = v.flat().astype(np.float64)
    return fcm(data, gmm_init(data, c, scale=v.intensity_max), cfg)
