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
(no padding); a shell clipped away entirely hands its weight to the
surviving shells.  The 2-D case is the one-shell, dz = 0 case of the 3-D
one, so both run through the same context and accumulation loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from voxseg.errors import ValidationError
from voxseg.fcm import FcmConfig, jm_cost, update_centers, update_membership
from voxseg.volume import AXES, LabelVolume, SliceRef, Volume

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
    """Concentric 3-D offset shells, outermost last."""

    shells: tuple[np.ndarray, ...]
    bands: tuple[tuple[int, int], ...]

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
    return ShellTable(tuple(shells), bands)


def _windows(nx: int, ny: int, dx: int, dy: int):
    """Target / source slice pairs covering voxels whose (dx, dy) neighbour
    stays in bounds; None when no voxel qualifies."""
    tx0, tx1 = max(0, -dx), nx - max(0, dx)
    ty0, ty1 = max(0, -dy), ny - max(0, dy)
    if tx0 >= tx1 or ty0 >= ty1:
        return None
    target = (slice(tx0, tx1), slice(ty0, ty1))
    source = (slice(tx0 + dx, tx1 + dx), slice(ty0 + dy, ty1 + dy))
    return target, source


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den with zero denominators mapping to zero (flat patches
    attract nothing), clipped to [0, 1] to shed division dust."""
    out = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return np.clip(out, 0.0, 1.0, out=out)


def _cluster_major(u: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """(n, c) memberships of one plane as (c, nx, ny), x fastest."""
    return np.ascontiguousarray(u.T).reshape((u.shape[1],) + shape, order="F")


class NeighbourContext:
    """Neighbourhood bookkeeping for clustering plane ``z`` of a plane stack.

    The clustering state covers plane z; neighbours in other planes of
    the stack contribute their intensities directly and their memberships
    through the plain membership update against the current centers.
    Everything that does not depend on memberships - the in-bounds
    windows of each offset, q^2, each shell's contrast and proximity
    denominators and the renormaliser over the shells that reach each
    voxel - is built once here, so each :meth:`attraction_terms` call only
    gathers membership votes.  It gathers them cluster-major, as (c, nx, ny)
    planes with x fastest, so numpy runs one long loop per offset instead
    of a c-wide loop per voxel; every voxel gets its votes in the same order.
    """

    def __init__(self, grid: np.ndarray, z: int, shells, weights,
                 label_dims: tuple[int, int, int], unit_axis: int,
                 intensity_max: float | None):
        self.grid = grid
        self.z = z
        self.plane = grid[:, :, z]
        self.shape = self.plane.shape
        self.data = self.plane.ravel(order="F")
        self.offsets = np.concatenate(shells)
        self.label_dims = label_dims
        self.unit_axis = unit_axis
        self.intensity_max = intensity_max
        nx, ny = self.shape
        self._shells = []
        planes = set()
        weight_present = np.zeros((nx, ny), order="F")
        for w, shell in zip(weights, shells):
            entries = []
            contrast_sum = np.zeros((nx, ny), order="F")
            prox_sum = np.zeros((nx, ny), order="F")
            reached = np.zeros((nx, ny), dtype=bool, order="F")
            for dx, dy, dz in shell:
                zk = z + int(dz)
                win = _windows(nx, ny, int(dx), int(dy))
                if not 0 <= zk < grid.shape[2] or win is None:
                    continue
                target, source = win
                q2 = float(dx * dx + dy * dy + dz * dz) ** 2
                contrast_sum[target] += self._contrast(target, source, zk)
                prox_sum[target] += q2
                reached[target] = True
                entries.append((target, source, zk, q2))
                planes.add(zk)
            self._shells.append((w, entries, contrast_sum, prox_sum))
            weight_present += w * reached
        # shells clipped away at the boundary hand their weight to the rest;
        # a voxel no shell reaches has zero votes, and dividing by one keeps them
        self._renorm = np.where(weight_present > 0, weight_present, 1.0)
        self._other_planes = sorted(planes - {z})

    def _contrast(self, target, source, zk: int) -> np.ndarray:
        """g = |x_i - x_k| over ``target`` for the neighbours at ``source`` of plane zk."""
        return np.abs(self.plane[target] - self.grid[source[0], source[1], zk])

    def labels_volume(self, labels_flat: np.ndarray) -> LabelVolume:
        grid = labels_flat.reshape(self.shape, order="F").astype(np.uint8)
        return LabelVolume(self.label_dims, np.expand_dims(grid, self.unit_axis))

    def attraction_terms(self, u: np.ndarray, centers: np.ndarray,
                         fuzziness: float) -> tuple[np.ndarray, np.ndarray]:
        """Blended contrast (H) and proximity (F) terms, each (n, c)."""
        nx, ny = self.shape
        centers = np.asarray(centers, dtype=np.float64).ravel()
        c = centers.size
        u = np.asarray(u, dtype=np.float64)
        if u.shape != (nx * ny, c):
            raise ValidationError(f"membership shape {u.shape} does not match "
                                  f"{nx * ny} voxels x {c} clusters")
        members = {self.z: _cluster_major(u, self.shape)}
        for zk in self._other_planes:
            d2 = (self.grid[:, :, zk].ravel(order="F")[:, None] - centers) ** 2
            members[zk] = _cluster_major(update_membership(d2, fuzziness), self.shape)
        every_cluster = (slice(None),)
        h, f = np.zeros_like(members[self.z]), np.zeros_like(members[self.z])
        contrast_vote, prox_vote = np.empty_like(h), np.empty_like(h)
        for w, entries, contrast_sum, prox_sum in self._shells:
            contrast_vote.fill(0.0)
            prox_vote.fill(0.0)
            for target, source, zk, q2 in entries:
                nb = members[zk][every_cluster + source]
                contrast_vote[every_cluster + target] += nb * self._contrast(target, source, zk)
                prox_vote[every_cluster + target] += nb ** 2 * q2
            h += w * _ratio(contrast_vote, contrast_sum)
            f += w * _ratio(prox_vote, prox_sum)
        h = np.clip(h / self._renorm, 0.0, 1.0)
        f = np.clip(f / self._renorm, 0.0, 1.0)
        return (h.reshape(c, nx * ny, order="F").T,
                f.reshape(c, nx * ny, order="F").T)


class PlaneContext(NeighbourContext):
    """Context for one 2-D image: a one-plane stack with a single shell,
    the level's in-plane offsets at dz = 0."""

    def __init__(self, plane: np.ndarray, level: int = 2,
                 label_dims: tuple[int, int, int] | None = None,
                 unit_axis: int = 2, intensity_max: float | None = None):
        plane = np.asfortranarray(plane, dtype=np.float64)
        if plane.ndim != 2:
            raise ValidationError(f"plane must be 2-D, got shape {plane.shape}")
        flat = neighborhood_2d(level)
        shell = np.column_stack([flat, np.zeros(len(flat), dtype=np.intp)])
        super().__init__(plane[:, :, None], 0, (shell,), (1.0,),
                         label_dims or (plane.shape[0], plane.shape[1], 1),
                         unit_axis, intensity_max)


class SliceContext(NeighbourContext):
    """Context for one slice segmented inside its volume, with concentric
    shells reaching into the adjacent slices."""

    def __init__(self, vol: Volume, ref: SliceRef, depth: int = 3, decay: float = 1.1):
        axis = AXES[ref.axis]
        if not 0 <= ref.index < vol.dims[axis]:
            raise IndexError(f"slice {ref.axis}:{ref.index} out of range for dims {vol.dims}")
        dims = list(vol.dims)
        dims[axis] = 1
        shells = build_shell_table(depth).shells
        # only the planes the shells reach are read, so only those are copied
        reach = max(int(np.abs(shell[:, 2]).max()) for shell in shells)
        lo = max(0, ref.index - reach)
        planes = np.moveaxis(vol.data, axis, 2)[:, :, lo:ref.index + reach + 1]
        super().__init__(planes.astype(np.float64, order="F"), ref.index - lo, shells,
                         decay_weights(decay, depth), tuple(dims), axis, vol.intensity_max)


def plane_context(img: Volume | np.ndarray, level: int = 2) -> PlaneContext:
    """Context for a 2-D image given as a single-slice volume or array."""
    if isinstance(img, Volume):
        return PlaneContext(img.plane(), level, label_dims=img.dims,
                            unit_axis=img.unit_axis(), intensity_max=img.intensity_max)
    return PlaneContext(np.asarray(img), level)


def slice_context(vol: Volume, ref: SliceRef, depth: int = 3,
                  decay: float = 1.1) -> SliceContext:
    """Context for one slice with shell neighbourhoods into the volume."""
    return SliceContext(vol, ref, depth, decay)


def scaled_distances(base: np.ndarray, h: np.ndarray, f: np.ndarray,
                     feature_weight: float, spatial_weight: float) -> np.ndarray:
    """Plain squared distances ``base`` times the floored attraction factor,
    which is exactly 1.0 at zero weights."""
    return base * np.maximum(1.0 - feature_weight * h - spatial_weight * f,
                             FACTOR_FLOOR)


def picard_update(data: np.ndarray, d2: np.ndarray,
                  fuzziness: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Memberships from ``d2``, their cost against ``d2``, then the sorted
    centers; returns (memberships, centers, cost), columns in center order."""
    u = update_membership(d2, fuzziness)
    cost = jm_cost(u, d2, fuzziness)
    centers, u = update_centers(u, data, fuzziness)
    return u, centers, cost


def attraction_distances(ctx, u: np.ndarray, centers: np.ndarray,
                         fuzziness: float, feature_weight: float,
                         spatial_weight: float) -> np.ndarray:
    """Full matrix of attraction-scaled squared distances."""
    h, f = ctx.attraction_terms(u, centers, fuzziness)
    centers = np.asarray(centers, dtype=np.float64).ravel()
    return scaled_distances((ctx.data[:, None] - centers) ** 2, h, f,
                            feature_weight, spatial_weight)


def ifcm_step(ctx, u: np.ndarray, centers: np.ndarray, params: AttractionParams,
              cfg: FcmConfig) -> tuple[np.ndarray, np.ndarray, float]:
    """One Picard update under attraction distances.

    Recomputes distances from the given state, updates memberships, then
    centers; returns the new pair plus the cost evaluated with the new
    memberships against the distances just used.
    """
    d2 = attraction_distances(ctx, u, centers, cfg.fuzziness,
                              params.feature_weight, params.spatial_weight)
    return picard_update(ctx.data, d2, cfg.fuzziness)
