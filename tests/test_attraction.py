"""Neighbourhood attraction terms against hand-rolled accumulation."""

import tracemalloc
import warnings

import numpy as np
import pytest

from voxseg import attraction
from voxseg.attraction import (AttractionParams, FACTOR_FLOOR, PlaneContext,
                               attraction_distances, build_shell_table,
                               decay_weights, ifcm_step, neighborhood_2d,
                               plane_context, slice_context)
from voxseg.errors import ValidationError
from voxseg.fcm import FcmConfig, jm_cost, update_centers, update_membership
from voxseg.metrics import defuzzify
from voxseg.volume import SliceRef, Volume, extract_slice


def test_decay_weight_values():
    w = decay_weights(1.1, 3)
    assert np.allclose(w, [0.639, 0.257, 0.104], atol=0.01)
    assert np.allclose(decay_weights(100.0, 3), [1 / 3] * 3, atol=0.01)
    # fast decay concentrates on the innermost shell
    assert decay_weights(0.5, 3)[0] > 0.86


def test_decay_weights_normalised():
    for decay in (0.01, 0.2, 1.1, 7.0, 100.0):
        for depth in (1, 2, 3, 5):
            w = decay_weights(decay, depth)
            assert w.shape == (depth,)
            assert abs(w.sum() - 1.0) < 1e-12
            assert np.all(np.diff(w) <= 0)  # outer shells never gain weight


def test_decay_weights_validation():
    with pytest.raises(ValidationError):
        decay_weights(0.0, 3)
    with pytest.raises(ValidationError):
        decay_weights(1.0, 0)


def test_neighborhood_2d():
    four = neighborhood_2d(2)
    assert {tuple(o) for o in four} == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    eight = neighborhood_2d(3)
    assert len(eight) == 8
    assert {tuple(o) for o in eight} >= {(1, 1), (-1, -1), (1, -1), (-1, 1)}
    assert (0, 0) not in {tuple(o) for o in eight}
    with pytest.raises(ValidationError):
        neighborhood_2d(1)


def test_shell_table_counts():
    table = build_shell_table(3)
    assert table.counts == (6, 12, 8)
    assert table.cumulative == (6, 18, 26)
    full = build_shell_table(5)
    assert full.counts == (6, 12, 8, 30, 36)
    for (lo, hi), shell in zip(full.bands, full.shells):
        r2 = (shell ** 2).sum(axis=1)
        assert np.all((r2 >= lo) & (r2 <= hi))
    with pytest.raises(ValidationError):
        build_shell_table(1)
    with pytest.raises(ValidationError):
        build_shell_table(6)


def test_params_validation():
    AttractionParams(feature_weight=1.0, spatial_weight=0.0)
    with pytest.raises(ValidationError):
        AttractionParams(feature_weight=1.5)
    with pytest.raises(ValidationError):
        AttractionParams(spatial_weight=-0.1)
    with pytest.raises(ValidationError):
        AttractionParams(level=1)
    with pytest.raises(ValidationError):
        AttractionParams(depth=1)
    with pytest.raises(ValidationError):
        AttractionParams(depth=6)
    with pytest.raises(ValidationError):
        AttractionParams(decay=0.001)


def brute_terms_2d(plane, u, level):
    nx, ny = plane.shape
    c = u.shape[1]
    ug = u.reshape(nx, ny, c, order="F")
    offsets = [tuple(o) for o in neighborhood_2d(level)]
    h = np.zeros((nx, ny, c))
    f = np.zeros((nx, ny, c))
    for x in range(nx):
        for y in range(ny):
            cs, ps = 0.0, 0.0
            cv, pv = np.zeros(c), np.zeros(c)
            for dx, dy in offsets:
                xx, yy = x + dx, y + dy
                if not (0 <= xx < nx and 0 <= yy < ny):
                    continue
                g = abs(plane[x, y] - plane[xx, yy])
                q2 = float(dx * dx + dy * dy) ** 2
                cs += g
                cv += ug[xx, yy] * g
                ps += q2
                pv += ug[xx, yy] ** 2 * q2
            h[x, y] = np.clip(cv / cs, 0, 1) if cs > 0 else 0.0
            f[x, y] = np.clip(pv / ps, 0, 1) if ps > 0 else 0.0
    return (h.reshape(nx * ny, c, order="F"),
            f.reshape(nx * ny, c, order="F"))


def test_plane_terms_brute_force():
    rng = np.random.default_rng(12)
    plane = rng.uniform(0, 100, size=(4, 3))
    u = rng.uniform(0.01, 1, size=(12, 3))
    u /= u.sum(axis=1, keepdims=True)
    for level in (2, 3):
        ctx = PlaneContext(plane, level)
        h, f = ctx.attraction_terms(u, np.array([20.0, 50.0, 80.0]), 2.0)
        bh, bf = brute_terms_2d(plane, u, level)
        assert np.allclose(h, bh, atol=1e-12)
        assert np.allclose(f, bf, atol=1e-12)
        assert np.all((h >= 0) & (h <= 1)) and np.all((f >= 0) & (f <= 1))


def test_plane_terms_uniform_membership():
    # constant membership kappa per cluster: votes factor out, H = kappa
    # wherever local contrast exists and F = kappa^2
    rng = np.random.default_rng(13)
    plane = rng.uniform(0, 100, size=(5, 5))  # distinct values, g > 0
    kappa = np.array([0.6, 0.3, 0.1])
    u = np.tile(kappa, (25, 1))
    ctx = PlaneContext(plane, 2)
    h, f = ctx.attraction_terms(u, np.array([10.0, 50.0, 90.0]), 2.0)
    assert np.allclose(h, np.tile(kappa, (25, 1)), atol=1e-12)
    assert np.allclose(f, np.tile(kappa ** 2, (25, 1)), atol=1e-12)


def test_zero_weights_reduce_to_plain_distance():
    rng = np.random.default_rng(14)
    plane = rng.uniform(0, 100, size=(6, 4))
    u = rng.uniform(0.01, 1, size=(24, 2))
    u /= u.sum(axis=1, keepdims=True)
    centers = np.array([30.0, 70.0])
    ctx = plane_context(plane)
    d2 = attraction_distances(ctx, u, centers, 2.0, 0.0, 0.0)
    base = (ctx.data[:, None] - centers) ** 2
    assert np.allclose(d2, base, atol=1e-12)


def test_factor_floor_engages():
    # c=1 makes H=1 and F=1, so the raw factor 1 - 1 - 1 goes negative
    rng = np.random.default_rng(15)
    plane = rng.uniform(10, 90, size=(4, 4))
    u = np.ones((16, 1))
    centers = np.array([50.0])
    ctx = plane_context(plane)
    d2 = attraction_distances(ctx, u, centers, 2.0, 1.0, 1.0)
    base = (ctx.data[:, None] - centers) ** 2
    assert np.allclose(d2, base * FACTOR_FLOOR, atol=1e-15)


def brute_terms_3d(grid, z, u, centers, fuzziness, depth, decay):
    nx, ny, nz = grid.shape
    c = centers.size
    table = build_shell_table(depth)
    weights = decay_weights(decay, depth)
    ug = u.reshape(nx, ny, c, order="F")

    def membership_plane(zk):
        if zk == z:
            return ug
        flat = grid[:, :, zk].ravel(order="F")
        d2 = (flat[:, None] - centers) ** 2
        return update_membership(d2, fuzziness).reshape(nx, ny, c, order="F")

    h = np.zeros((nx * ny, c))
    f = np.zeros((nx * ny, c))
    for x in range(nx):
        for y in range(ny):
            i = x + nx * y
            acc_h, acc_f, wp = np.zeros(c), np.zeros(c), 0.0
            for w, shell in zip(weights, table.shells):
                cs, ps = 0.0, 0.0
                cv, pv = np.zeros(c), np.zeros(c)
                reached = False
                for dx, dy, dz in shell:
                    xx, yy, zk = x + dx, y + dy, z + dz
                    if not (0 <= xx < nx and 0 <= yy < ny and 0 <= zk < nz):
                        continue
                    reached = True
                    g = abs(grid[x, y, z] - grid[xx, yy, zk])
                    q2 = float(dx * dx + dy * dy + dz * dz) ** 2
                    nb = membership_plane(zk)[xx, yy]
                    cs += g
                    cv += nb * g
                    ps += q2
                    pv += nb ** 2 * q2
                hs = np.clip(cv / cs, 0, 1) if cs > 0 else np.zeros(c)
                fs = np.clip(pv / ps, 0, 1) if ps > 0 else np.zeros(c)
                acc_h += w * hs
                acc_f += w * fs
                wp += w if reached else 0.0
            h[i] = np.clip(acc_h / wp, 0, 1) if wp > 0 else 0.0
            f[i] = np.clip(acc_f / wp, 0, 1) if wp > 0 else 0.0
    return h, f


@pytest.mark.parametrize("zi", [0, 1, 3, 6])
def test_slice_terms_brute_force(zi):
    # zi=0 and the last plane clip shells at a volume face and exercise
    # renormalisation; depths 4 and 5 reach two planes, so on three planes
    # the window is clipped at both ends
    rng = np.random.default_rng(16)
    for nz in (3, 7):
        if zi >= nz:
            continue
        grid = rng.uniform(0, 100, size=(4, 3, nz))
        vol = Volume((4, 3, nz), grid, 100.0)
        centers = np.array([25.0, 75.0])
        u = rng.uniform(0.01, 1, size=(12, 2))
        u /= u.sum(axis=1, keepdims=True)
        for depth, decay in ((2, 0.9), (3, 1.5), (4, 1.1), (5, 2.0)):
            ctx = slice_context(vol, SliceRef("z", zi), depth, decay)
            h, f = ctx.attraction_terms(u, centers, 2.0)
            bh, bf = brute_terms_3d(grid.astype(np.float64), zi, u, centers,
                                    2.0, depth, decay)
            assert np.allclose(h, bh, atol=1e-12)
            assert np.allclose(f, bf, atol=1e-12)
            assert np.all((h >= 0) & (h <= 1)) and np.all((f >= 0) & (f <= 1))


def reference_terms(grid, z, shells, weights, u, centers, fuzziness):
    """Frozen voxel-major (nx, ny, c) gather, the bit-level reference."""
    nx, ny, nz = grid.shape
    c = centers.size

    def ratio(vote, den):
        out = np.divide(vote, den[..., None], out=np.zeros_like(vote), where=den[..., None] > 0)
        return np.clip(out, 0.0, 1.0)

    members = {z: u.reshape(nx, ny, c, order="F")}
    for zk in range(nz):
        d2 = (grid[:, :, zk].ravel(order="F")[:, None] - centers) ** 2
        members.setdefault(zk, update_membership(d2, fuzziness).reshape(nx, ny, c, order="F"))
    h = f = 0.0
    weight_present = np.zeros((nx, ny))
    for w, shell in zip(weights, shells):
        contrast_vote, prox_vote = np.zeros((nx, ny, c)), np.zeros((nx, ny, c))
        contrast_sum, prox_sum = np.zeros((nx, ny)), np.zeros((nx, ny))
        reached = np.zeros((nx, ny), dtype=bool)
        for dx, dy, dz in shell:
            tx, ty = slice(max(0, -dx), nx - max(0, dx)), slice(max(0, -dy), ny - max(0, dy))
            if not 0 <= z + dz < nz or tx.start >= tx.stop or ty.start >= ty.stop:
                continue
            sx, sy = slice(tx.start + dx, tx.stop + dx), slice(ty.start + dy, ty.stop + dy)
            g = np.abs(grid[tx, ty, z] - grid[sx, sy, z + dz])
            q2 = float(dx * dx + dy * dy + dz * dz) ** 2
            contrast_sum[tx, ty] += g
            prox_sum[tx, ty] += q2
            reached[tx, ty] = True
            nb = members[z + dz][sx, sy]
            contrast_vote[tx, ty] += nb * g[..., None]
            prox_vote[tx, ty] += nb ** 2 * q2
        h = h + w * ratio(contrast_vote, contrast_sum)
        f = f + w * ratio(prox_vote, prox_sum)
        weight_present += w * reached
    renorm = np.where(weight_present > 0, weight_present, 1.0)[..., None]
    h = np.clip(h / renorm, 0.0, 1.0)
    f = np.clip(f / renorm, 0.0, 1.0)
    return h.reshape(nx * ny, c, order="F"), f.reshape(nx * ny, c, order="F")


def check_terms_against_reference(c):
    # quantised intensities give flat patches (zero contrast denominators);
    # on the one-voxel-wide volume whole shells are clipped away, so the
    # renormaliser is not 1; c >= 8 differs only through the other planes'
    # membership row sums
    rng = np.random.default_rng(30 + c)
    grid = np.round(rng.uniform(0, 6, size=(9, 7, 7))) * 40.0
    centers = np.sort(rng.uniform(0, 240, size=c))
    u = rng.uniform(0, 1, size=(63, c)) ** 3
    u[::5] = np.eye(c)[rng.integers(0, c, size=len(u[::5]))]
    u /= u.sum(axis=1, keepdims=True)
    cases = [(PlaneContext(grid[:, :, 2], level), grid, 2, (np.column_stack(
        [neighborhood_2d(level), np.zeros(len(neighborhood_2d(level)), dtype=int)]),), (1.0,))
        for level in (2, 3, 4)]
    for width in (9, 1):
        vol = Volume((width, 7, 7), grid[:width], 240.0)
        cases += [(slice_context(vol, SliceRef("z", zi), depth, 1.3), grid[:width], zi,
                   build_shell_table(depth).shells, decay_weights(1.3, depth))
                  for depth in (2, 3, 4, 5) for zi in (0, 3, 6)]
    for ctx, planes, z, shells, weights in cases:
        uc = u[:ctx.data.size]
        for m in (1.5, 2.0, 3.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                h, f = ctx.attraction_terms(uc, centers, m)
            rh, rf = reference_terms(planes, z, shells, weights, uc, centers, m)
            if c < 8:
                assert np.array_equal(h, rh) and np.array_equal(f, rf)
            else:
                assert np.allclose(h, rh, rtol=0.0, atol=1e-15)
                assert np.allclose(f, rf, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("c", range(1, 10))
def test_terms_bit_identical_to_reference(c):
    check_terms_against_reference(c)


@pytest.mark.parametrize("c", range(1, 10))
@pytest.mark.parametrize("band", [1, 7, 64])
def test_banded_terms_bit_identical_to_reference(monkeypatch, band, c):
    # rows are 9 or 1 voxels long: bands of 7 end mid-row, and 63 voxels
    # leave a short last band
    monkeypatch.setattr(attraction, "_BAND", band)
    check_terms_against_reference(c)


def test_one_context_serves_two_cluster_counts():
    # the padded buffers are made again when the cluster count changes
    rng = np.random.default_rng(33)
    grid = np.round(rng.uniform(0, 6, size=(9, 7, 7))) * 40.0
    shells, weights = build_shell_table(3).shells, decay_weights(1.3, 3)
    ctx = slice_context(Volume((9, 7, 7), grid, 240.0), SliceRef("z", 3), 3, 1.3)
    for c in (4, 2, 4):
        centers = np.sort(rng.uniform(0, 240, size=c))
        u = rng.uniform(0, 1, size=(63, c))
        u /= u.sum(axis=1, keepdims=True)
        h, f = ctx.attraction_terms(u, centers, 2.0)
        rh, rf = reference_terms(grid, 3, shells, weights, u, centers, 2.0)
        assert np.array_equal(h, rh) and np.array_equal(f, rf)


def test_second_call_makes_no_padded_planes():
    # the context keeps its padded membership planes: a second call's peak
    # lies below the first's by at least their size, and it writes into the
    # same arrays
    rng = np.random.default_rng(6)
    vol = Volume((60, 50, 5), rng.uniform(0, 100, size=(60, 50, 5)), 100.0)
    ctx = slice_context(vol, SliceRef("z", 2), 3, 1.5)
    u = rng.uniform(0, 1, size=(ctx.data.size, 4))
    u /= u.sum(axis=1, keepdims=True)
    centers = np.array([10.0, 40.0, 60.0, 90.0])
    planes = 3 * 4 * 62 * 52 * 8  # z and z +- 1, 4 clusters, a one-voxel border
    tracemalloc.start()
    try:
        grown, buffers = [], []
        for _ in range(2):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            ctx.attraction_terms(u, centers, 2.0)
            current, peak = tracemalloc.get_traced_memory()
            grown.append((peak - before, current - before))
            buffers.append(list(ctx._members.values()))
    finally:
        tracemalloc.stop()
    (first_peak, kept), (second_peak, _) = grown
    assert kept >= planes
    assert second_peak <= first_peak - planes
    assert all(a is b for a, b in zip(*buffers))


def test_terms_memory_at_paper_size():
    # one depth-3 call on a 181x217 slice: no full-size vote buffers or
    # per-offset temporaries, only the padded memberships and the results
    rng = np.random.default_rng(5)
    vol = Volume((181, 217, 3), rng.uniform(0, 100, size=(181, 217, 3)), 100.0)
    ctx = slice_context(vol, SliceRef("z", 1), 3, 1.5)
    u = rng.uniform(0, 1, size=(ctx.data.size, 4))
    u /= u.sum(axis=1, keepdims=True)
    tracemalloc.start()
    try:
        ctx.attraction_terms(u, np.array([10.0, 40.0, 60.0, 90.0]), 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * u.nbytes


def test_slice_context_axis_equivalence():
    # slicing along x must equal slicing the axis-rotated volume along z
    rng = np.random.default_rng(17)
    grid = rng.uniform(0, 100, size=(3, 4, 5))
    vol = Volume((3, 4, 5), grid, 100.0)
    rotated = Volume((4, 5, 3), np.moveaxis(grid, 0, 2), 100.0)
    u = rng.uniform(0.01, 1, size=(20, 2))
    u /= u.sum(axis=1, keepdims=True)
    centers = np.array([30.0, 60.0])
    a = slice_context(vol, SliceRef("x", 1), 2, 1.1)
    b = slice_context(rotated, SliceRef("z", 1), 2, 1.1)
    ha, fa = a.attraction_terms(u, centers, 2.0)
    hb, fb = b.attraction_terms(u, centers, 2.0)
    assert np.allclose(ha, hb, atol=1e-15)
    assert np.allclose(fa, fb, atol=1e-15)


@pytest.mark.parametrize("axis", ["z", "x", "y"])
@pytest.mark.parametrize("depth", [3, 5])
def test_slice_context_reads_only_the_planes_its_shells_reach(axis, depth):
    # the terms must not change when every plane beyond the shells' reach is
    # replaced, at either face and inside the volume
    rng = np.random.default_rng(24)
    grid = rng.uniform(0, 100, size=(6, 5, 7)).astype(np.float32)
    reach = int(np.abs(np.concatenate(build_shell_table(depth).shells)[:, 2]).max())
    along = "xyz".index(axis)
    for index in (0, grid.shape[along] // 2, grid.shape[along] - 1):
        far = np.abs(np.arange(grid.shape[along]) - index) > reach
        other = grid.copy()
        np.moveaxis(other, along, 0)[far] = rng.uniform(0, 100, size=(
            int(far.sum()), *np.delete(grid.shape, along)))
        contexts = [slice_context(Volume(grid.shape, g, 100.0), SliceRef(axis, index),
                                  depth, 1.5) for g in (grid, other)]
        u = rng.uniform(0.01, 1, size=(contexts[0].data.size, 3))
        u /= u.sum(axis=1, keepdims=True)
        centers = np.array([20.0, 50.0, 80.0])
        (ha, fa), (hb, fb) = (ctx.attraction_terms(u, centers, 2.0) for ctx in contexts)
        assert np.array_equal(ha, hb) and np.array_equal(fa, fb)


@pytest.mark.parametrize("dims", [(6, 5, 1), (1, 6, 5), (6, 1, 5)])
def test_plane_context_from_a_single_slice_volume(dims):
    # a float32 single-slice volume and its plane as a float64 array give the
    # same terms
    rng = np.random.default_rng(25)
    vol = Volume(dims, rng.uniform(0, 90, size=dims), 100.0)
    from_volume, from_array = PlaneContext(vol, 3), PlaneContext(
        vol.plane().astype(np.float64), 3)
    assert np.array_equal(from_volume.data, from_array.data)
    u = rng.uniform(0.01, 1, size=(from_volume.data.size, 2))
    u /= u.sum(axis=1, keepdims=True)
    for a, b in zip(from_volume.attraction_terms(u, np.array([30.0, 60.0]), 2.0),
                    from_array.attraction_terms(u, np.array([30.0, 60.0]), 2.0)):
        assert np.array_equal(a, b)


def test_labels_volume_embedding():
    rng = np.random.default_rng(18)
    grid = rng.uniform(0, 100, size=(3, 4, 5))
    vol = Volume((3, 4, 5), grid, 100.0)
    ref = SliceRef("y", 2)
    sl = extract_slice(vol, ref)
    # the context's voxels are the slice's, in its flat order, so memberships
    # fitted through the context label the slice
    assert np.array_equal(slice_context(vol, ref, 2, 1.1).data, sl.flat())
    flat = np.arange(15) % 3
    lab = defuzzify(np.eye(3)[flat], sl.dims)
    assert lab.dims == (3, 1, 5)
    grid_lab = flat.reshape(3, 5, order="F")
    assert np.array_equal(np.squeeze(lab.labels, axis=1), grid_lab)


def test_ifcm_step_zero_weights_is_plain_fcm_step():
    rng = np.random.default_rng(19)
    plane = rng.uniform(0, 100, size=(5, 4))
    ctx = plane_context(plane)
    centers = np.array([30.0, 70.0])
    u = update_membership((ctx.data[:, None] - centers) ** 2, 2.0)
    cfg = FcmConfig()
    params = AttractionParams(feature_weight=0.0, spatial_weight=0.0)
    _, u2, c2, cost = ifcm_step(ctx, u, centers, params, cfg)
    d2 = (ctx.data[:, None] - centers) ** 2
    u_ref = update_membership(d2, cfg.fuzziness)
    cost_ref = jm_cost(u_ref, d2, cfg.fuzziness)
    c_ref, u_ref, _ = update_centers(u_ref, ctx.data, cfg.fuzziness)
    assert np.array_equal(u2, u_ref)
    assert np.array_equal(c2, c_ref)
    assert cost() == cost_ref


def test_ifcm_step_with_attraction():
    rng = np.random.default_rng(20)
    plane = rng.uniform(0, 100, size=(5, 4))
    ctx = plane_context(plane)
    centers = np.array([30.0, 70.0])
    u = update_membership((ctx.data[:, None] - centers) ** 2, 2.0)
    params = AttractionParams(feature_weight=0.4, spatial_weight=0.3)
    _, u2, c2, cost = ifcm_step(ctx, u, centers, params, FcmConfig())
    assert np.allclose(u2.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(np.diff(c2) >= 0)
    assert cost() >= 0.0


@pytest.mark.parametrize("three_d", [False, True], ids=["2d", "3d"])
def test_ifcm_step_does_not_depend_on_the_layout(three_d):
    # a row-major start (a fit's) and the column-major memberships of a
    # step (the cluster-major layout) give the same bits
    rng = np.random.default_rng(21)
    vol = Volume((9, 8, 5), rng.uniform(0, 100, size=(9, 8, 5)), 100.0)
    ctx = (slice_context(vol, SliceRef("z", 2), 3, 1.5) if three_d
           else plane_context(vol.data[:, :, 2]))
    centers = np.array([70.0, 20.0, 45.0])  # unsorted, so the step reorders
    u = update_membership((ctx.data[:, None] - centers) ** 2, 2.0)
    params = AttractionParams(0.6, 0.4, depth=3, decay=1.5)
    steps = [ifcm_step(ctx, layout(u), centers, params, FcmConfig())
             for layout in (np.ascontiguousarray, np.asfortranarray)]
    (order, u2, c2, cost), other = steps
    assert np.array_equal(order, other[0]) and np.array_equal(c2, other[2])
    assert np.array_equal(u2, other[1]) and cost() == other[3]()


def test_membership_shape_rejected():
    rng = np.random.default_rng(22)
    plane = rng.uniform(0, 100, size=(4, 4))
    ctx = plane_context(plane)
    with pytest.raises(ValidationError):
        ctx.attraction_terms(np.ones((15, 2)) / 2, np.array([20.0, 80.0]), 2.0)


def test_terms_fuzz_bounds():
    # random geometry and membership: terms always stay inside [0, 1]
    rng = np.random.default_rng(23)
    for _ in range(100):
        nx, ny = rng.integers(2, 7, size=2)
        c = int(rng.integers(1, 4))
        plane = rng.uniform(0, 255, size=(nx, ny))
        u = rng.uniform(0, 1, size=(nx * ny, c)) + 1e-9
        u /= u.sum(axis=1, keepdims=True)
        ctx = PlaneContext(plane, 2)
        h, f = ctx.attraction_terms(u, np.sort(rng.uniform(0, 255, size=c)), 2.0)
        assert np.all((h >= 0) & (h <= 1))
        assert np.all((f >= 0) & (f <= 1))
