"""Attraction-modified distances for noise-robust fuzzy clustering.

The squared distance between voxel i and cluster j is the plain squared
intensity difference scaled by ``1 - feature_weight*H - spatial_weight*F``:

* H averages the neighbours' membership in cluster j, weighted by the
  intensity contrast ``g = |x_i - x_k|`` between voxel and neighbour;
* F averages the squared neighbour memberships, weighted by the square of
  the squared spatial offset ``q = dx^2 + dy^2 (+ dz^2)`` - proximity
  deliberately enters as q^2.

In 2-D the neighbourhood is the set of integer offsets with squared
radius below ``2**(level-1)``.  In 3-D the neighbours of a slice voxel
are grouped into concentric shells that reach into adjacent slices of
the parent volume; per-shell averages are blended with exponentially
decaying weights.  Neighbourhoods are clipped at the volume boundary
(a zero border adds exact zeros); a shell clipped away entirely hands its
weight to the surviving shells.  The 2-D case is the one-shell, dz = 0
case of the 3-D one, so both run through the same context and gather.

:func:`ifcm_step` is the one attraction Picard step, which the weight probe
and the converge loop of :mod:`voxseg.pipelines` both run.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from voxseg.errors import ValidationError
from voxseg.fcm import FcmConfig, jm_cost, update_centers, update_membership
from voxseg.volume import AXES, SliceRef, Volume

# Strong attraction can push the scale factor negative; flooring it keeps
# every d^2 a usable squared distance.
FACTOR_FLOOR = 1e-6

# Squared-radius bands of the 3-D shells.  Offset counts per shell are
# 6 / 12 / 8 / 30 / 36 (cumulative 6, 18, 26, 56, 92).
SHELL_BANDS = ((1, 1), (2, 2), (3, 3), (4, 5), (6, 8))


@dataclass
class AttractionParams:
    """Attraction strengths plus neighbourhood geometry.

    feature_weight and spatial_weight scale the H and F terms and live in
    [0, 1]; ``level`` sizes the 2-D neighbourhood; ``depth`` counts 3-D
    shells; ``decay`` sets how fast shell weights fall off with rank.
    """

    feature_weight: float = 0.0
    spatial_weight: float = 0.0
    level: int = 2
    depth: int = 3
    decay: float = 1.1

    def __post_init__(self):
        if not 0.0 <= float(self.feature_weight) <= 1.0:
            raise ValidationError(f"feature_weight must be in [0, 1], got {self.feature_weight}")
        if not 0.0 <= float(self.spatial_weight) <= 1.0:
            raise ValidationError(f"spatial_weight must be in [0, 1], got {self.spatial_weight}")
        if int(self.level) < 2:
            raise ValidationError(f"level must be >= 2, got {self.level}")
        if not 2 <= int(self.depth) <= len(SHELL_BANDS):
            raise ValidationError(f"depth must be in [2, {len(SHELL_BANDS)}], got {self.depth}")
        if not 0.01 <= float(self.decay) <= 100.0:
            raise ValidationError(f"decay must be in [0.01, 100], got {self.decay}")


def decay_weights(decay: float, depth: int) -> np.ndarray:
    """Normalised exponential shell weights exp(-r/decay), r = 1..depth."""
    if not float(decay) > 0:
        raise ValidationError(f"decay must be positive, got {decay}")
    if int(depth) < 1:
        raise ValidationError(f"depth must be >= 1, got {depth}")
    raw = np.exp(-np.arange(1, int(depth) + 1) / float(decay))
    return raw / raw.sum()


def neighborhood_2d(level: int) -> np.ndarray:
    """Integer offsets with 0 < dx^2 + dy^2 < 2**(level-1), sorted."""
    if int(level) < 2:
        raise ValidationError(f"level must be >= 2, got {level}")
    bound = 2 ** (int(level) - 1)
    radius = int(np.ceil(np.sqrt(bound)))
    offsets = [(dx, dy)
               for dx in range(-radius, radius + 1)
               for dy in range(-radius, radius + 1)
               if 0 < dx * dx + dy * dy < bound]
    return np.array(sorted(offsets), dtype=np.intp)


@dataclass(frozen=True)
class ShellTable:
    """Concentric 3-D offset shells, outermost last; no offset is longer
    than ``reach`` on any axis, so the shells of a slice reach no plane
    further than ``reach`` from it."""

    shells: tuple[np.ndarray, ...]
    bands: tuple[tuple[int, int], ...]
    reach: int

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.shells)

    @property
    def cumulative(self) -> tuple[int, ...]:
        return tuple(np.cumsum(self.counts).tolist())


def build_shell_table(depth: int) -> ShellTable:
    """Offsets of the first ``depth`` shells, grouped by squared radius band."""
    depth = int(depth)
    if not 2 <= depth <= len(SHELL_BANDS):
        raise ValidationError(f"depth must be in [2, {len(SHELL_BANDS)}], got {depth}")
    bands = SHELL_BANDS[:depth]
    shells = []
    reach = int(np.floor(np.sqrt(bands[-1][1])))
    for lo, hi in bands:
        members = [(dx, dy, dz)
                   for dx in range(-reach, reach + 1)
                   for dy in range(-reach, reach + 1)
                   for dz in range(-reach, reach + 1)
                   if lo <= dx * dx + dy * dy + dz * dz <= hi]
        shells.append(np.array(sorted(members), dtype=np.intp))
    return ShellTable(tuple(shells), bands, reach)


# Padded positions per band of the gather: a (c, band) float64 buffer at a
# handful of clusters stays within the L2 cache.
_BAND = 8192


def _padded(a: np.ndarray, pad: int) -> np.ndarray:
    """(..., ny, nx) planes inside a zero border of width ``pad``, each flat."""
    ny, nx = a.shape[-2:]
    out = np.zeros(a.shape[:-2] + (ny + 2 * pad, nx + 2 * pad))
    out[..., pad:pad + ny, pad:pad + nx] = a
    return out.reshape(a.shape[:-2] + (-1,))


class NeighbourContext:
    """Neighbourhood bookkeeping for clustering plane ``z`` of a plane stack.

    Build one through :class:`PlaneContext`, from a single-slice volume or a
    2-D array, or :class:`SliceContext`, from a volume and the slice to
    segment; ``plane_context`` and ``slice_context`` are those two classes.
    Either hands over a view of the caller's array, in its own dtype: this
    class alone picks the planes its shells reach and casts them to float64.

    The clustering state covers plane z; neighbours in other planes of
    the stack contribute their intensities directly and their memberships
    through the plain membership update against the current centers.

    Every plane the shells reach is stored flat, x fastest, inside a zero
    border as wide as the largest in-plane offset r, so the row length is
    NX = nx + 2r and offset (dx, dy, dz) is the flat shift dx + NX*dy into
    plane z + dz.  A neighbour outside the plane reads membership 0 and adds
    exactly +0.0 to a vote, so each in-bounds voxel gets the votes of the
    clipped neighbourhood in the same order.  Everything that does not
    depend on memberships - each shell's contrast and proximity
    denominators and the renormaliser over the shells that reach each voxel
    - is built once here with the same shifts, times a padded inside-mask
    (1.0 or 0.0, so exact).

    :meth:`attraction_terms` writes the memberships into padded buffers of
    the same layout, one cluster-major (c, NX*(ny + 2r)) array per plane,
    and gathers the votes in bands of at most ``_BAND`` positions, so the
    working set stays in cache: per band it squares each plane's membership
    window once and reuses the squares for every offset into that plane.
    The buffers live as long as the context: they are made at the first
    call for a cluster count, and each call rewrites only their interiors,
    so one context serves one call at a time.
    A shell whose offsets share one power-of-two q^2 (of the 3-D shells,
    only the second, at q^2 = 4) votes plain squares against its proximity
    denominator divided by that q^2, which is exact.
    """

    def __init__(self, planes: np.ndarray, z: int, shells, weights):
        nx, ny, nz = planes.shape
        self.shape = (nx, ny)
        self.data = planes[:, :, z].astype(np.float64, order="F").ravel(order="F")
        self.offsets = np.concatenate(shells)
        self._z = z
        self._members = None  # the padded membership buffers, per plane
        self._pad = pad = int(np.abs(self.offsets[:, :2]).max())
        self._row = row = nx + 2 * pad
        # the largest shift; flat positions [reach, size - reach) hold every voxel
        self._reach = reach = pad + row * pad
        live = [[(int(dx), int(dy), int(dz)) for dx, dy, dz in shell
                 if 0 <= z + dz < nz and abs(dx) < nx and abs(dy) < ny]
                for shell in shells]
        self._planes = {zk: _padded(planes[:, :, zk].T, pad)
                        for zk in sorted({z} | {z + dz for s in live for *_, dz in s})}
        inside = _padded(np.ones((ny, nx)), pad)
        centre = self._planes[z][reach:inside.size - reach]
        self._shells = []
        weight_present = np.zeros_like(centre)
        for w, shell in zip(weights, live):
            entries = []
            contrast_sum, prox_sum = np.zeros_like(centre), np.zeros_like(centre)
            for dx, dy, dz in shell:
                s = dx + row * dy
                q2 = float(dx * dx + dy * dy + dz * dz) ** 2
                shifted = slice(reach + s, inside.size - reach + s)
                contrast_sum += np.abs(centre - self._planes[z + dz][shifted]) * inside[shifted]
                prox_sum += q2 * inside[shifted]
                entries.append((s, z + dz, q2))
            weight_present += w * (prox_sum > 0)  # q^2 > 0: the shell reaches here
            if not entries:  # clipped away: its votes would add exact zeros
                continue
            scale = entries[0][2]
            if all(q2 == scale for *_, q2 in entries) and np.frexp(scale)[0] == 0.5:
                # one power-of-two q^2: scaling by it commutes with rounding
                entries = [(s, zk, 1.0) for s, zk, _ in entries]
                prox_sum /= scale
            # where a denominator is zero every vote adds exactly zero, and
            # dividing by one keeps it; likewise a voxel no shell reaches
            self._shells.append((w, entries, *(np.where(d > 0, d, 1.0)
                                               for d in (contrast_sum, prox_sum))))
        # shells clipped away at the boundary hand their weight to the rest
        self._renorm = np.where(weight_present > 0, weight_present, 1.0)

    def _padded_members(self, u: np.ndarray, centers: np.ndarray,
                        fuzziness: float) -> dict[int, np.ndarray]:
        """Padded memberships per plane: ``u`` in plane z, elsewhere the plain
        update from cluster-major distances, written into the interiors of
        this context's buffers."""
        nx, ny = self.shape
        c = centers.size
        ys, xs = slice(self._pad, self._pad + ny), slice(self._pad, self._pad + nx)
        if self._members is None or len(self._members[self._z]) != c:
            self._members = {zk: np.zeros((c, plane.size)) for zk, plane in self._planes.items()}
        for zk, padded in self._members.items():
            if zk == self._z:
                u_k = u.reshape(ny, nx, c).transpose(2, 0, 1)
            else:
                d2 = (self._planes[zk].reshape(-1, self._row)[ys, xs] - centers[:, None, None]) ** 2
                u_k = update_membership(d2.reshape(c, -1).T, fuzziness).T.reshape(c, ny, nx)
            padded.reshape(c, -1, self._row)[:, ys, xs] = u_k
        return self._members

    def attraction_terms(self, u: np.ndarray, centers: np.ndarray,
                         fuzziness: float) -> tuple[np.ndarray, np.ndarray]:
        """Blended contrast (H) and proximity (F) terms, each (n, c)."""
        nx, ny = self.shape
        n = nx * ny
        centers = np.asarray(centers, dtype=np.float64).ravel()
        c = centers.size
        u = np.asarray(u, dtype=np.float64)
        if u.shape != (n, c):
            raise ValidationError(f"membership shape {u.shape} does not match "
                                  f"{n} voxels x {c} clusters")
        h, f = self._gather(self._padded_members(u, centers, fuzziness), c)
        # cut to the voxel columns one at a time, each padded term going as
        # its cut is made
        h = np.ascontiguousarray(h.reshape(c, ny, self._row)[:, :, :nx]).reshape(c, n).T
        f = np.ascontiguousarray(f.reshape(c, ny, self._row)[:, :, :nx]).reshape(c, n).T
        return h, f

    def _gather(self, members: dict[int, np.ndarray], c: int) -> tuple[np.ndarray, np.ndarray]:
        """H and F over the padded rows, band by band; only the voxel columns
        are meant to be read."""
        reach, padded = self._reach, self.shape[1] * self._row
        h, f = np.zeros((c, padded)), np.zeros((c, padded))
        centre = self._planes[self._z][reach:]
        # positions from the first voxel to the last, in even bands of at most _BAND
        total = self._renorm.size
        width = -(-total // -(-total // _BAND))
        contrast_vote, prox_vote, scratch = np.empty((3, c, width))
        contrast = np.empty(width)
        squares = {zk: np.empty((c, width + 2 * reach)) for zk in members}
        for start in range(0, total, width):
            stop = min(start + width, total)
            span = stop - start
            cv, pv, tmp, g = (contrast_vote[:, :span], prox_vote[:, :span],
                              scratch[:, :span], contrast[:span])
            for zk, m in members.items():
                np.square(m[:, start:stop + 2 * reach], out=squares[zk][:, :span + 2 * reach])
            hb, fb = h[:, start:stop], f[:, start:stop]
            for w, entries, contrast_den, prox_den in self._shells:
                for k, (s, zk, q2) in enumerate(entries):
                    at = slice(start + reach + s, stop + reach + s)
                    np.abs(np.subtract(centre[start:stop], self._planes[zk][at], out=g), out=g)
                    sq = squares[zk][:, reach + s:reach + s + span]
                    if k == 0:  # the first vote is written, as 0 + x is x
                        np.multiply(members[zk][:, at], g, out=cv)
                        np.multiply(sq, q2, out=pv)
                        continue
                    cv += np.multiply(members[zk][:, at], g, out=tmp)
                    pv += sq if q2 == 1.0 else np.multiply(sq, q2, out=tmp)
                # ratios are never negative, so clipping to [0, 1] is a minimum
                for vote, den, out in ((cv, contrast_den, hb), (pv, prox_den, fb)):
                    np.divide(vote, den[start:stop], out=vote)
                    out += np.multiply(np.minimum(vote, 1.0, out=vote), w, out=vote)
            for out in (hb, fb):
                np.minimum(np.divide(out, self._renorm[start:stop], out=out), 1.0, out=out)
        return h, f


class PlaneContext(NeighbourContext):
    """Context for one 2-D image, a single-slice volume or a 2-D array: a
    one-plane stack with a single shell, the level's in-plane offsets at dz = 0."""

    def __init__(self, img: Volume | np.ndarray, level: int = AttractionParams.level):
        plane = img.plane() if isinstance(img, Volume) else np.asarray(img)
        if plane.ndim != 2:
            raise ValidationError(f"plane must be 2-D, got shape {plane.shape}")
        flat = neighborhood_2d(level)
        shell = np.column_stack([flat, np.zeros(len(flat), dtype=np.intp)])
        super().__init__(plane[:, :, None], 0, (shell,), (1.0,))


class SliceContext(NeighbourContext):
    """Context for one slice segmented inside its volume, with concentric
    shells reaching into the adjacent slices."""

    def __init__(self, vol: Volume, ref: SliceRef, depth: int = AttractionParams.depth,
                 decay: float = AttractionParams.decay):
        super().__init__(np.moveaxis(vol.data, AXES[ref.axis], 2), ref.index,
                         build_shell_table(depth).shells, decay_weights(decay, depth))


# the factory names the pipelines call are the classes themselves
plane_context = PlaneContext
slice_context = SliceContext


def attraction_distances(ctx, u: np.ndarray, centers: np.ndarray,
                         fuzziness: float, feature_weight: float,
                         spatial_weight: float, terms=None) -> np.ndarray:
    """Full matrix of attraction-scaled squared distances: the plain ones
    times the floored factor, exactly 1.0 at zero weights.  ``terms`` is the
    (H, F) pair already gathered at ``(u, centers)``, if the caller has it."""
    h, f = terms or ctx.attraction_terms(u, centers, fuzziness)
    centers = np.asarray(centers, dtype=np.float64).ravel()
    # cluster-major like the terms, and in place, so that no more than two
    # (c, n) arrays are made at once; handed back as the (n, c) view
    factor = np.subtract(1.0, feature_weight * h.T)
    factor -= spatial_weight * f.T
    d2 = np.subtract(ctx.data, centers[:, None])
    np.square(d2, out=d2)
    d2 *= np.maximum(factor, FACTOR_FLOOR, out=factor)
    return d2.T


def ifcm_step(ctx, u: np.ndarray, centers: np.ndarray, params: AttractionParams,
              cfg: FcmConfig, terms=None
              ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray, Callable[[], float]]:
    """One Picard update under attraction distances, the step both the weight
    probe and :func:`voxseg.fcm.settle` run.

    Recomputes distances from the given state, or from ``terms`` gathered
    there, updates memberships, then centers; returns the column order the
    centers were sorted into (None when no column moved), the new memberships
    and centers in that order, and the cost of the new memberships against
    the distances just used, as a function of no arguments: settle's step
    result.  Distances and memberships are cluster-major (n, c) views.
    """
    d2 = attraction_distances(ctx, u, centers, cfg.fuzziness,
                              params.feature_weight, params.spatial_weight, terms)
    u_new = update_membership(d2, cfg.fuzziness)
    centers, u_next, order = update_centers(u_new, ctx.data, cfg.fuzziness)
    return order, u_next, centers, lambda: jm_cost(u_new, d2, cfg.fuzziness)
