"""Clustering primitives against closed forms and a reference iteration."""

import math
import warnings

import numpy as np
import pytest

from voxseg.errors import DegenerateClusterError, ValidationError
from voxseg.fcm import (FcmConfig, check_membership, fcm, gmm_fcm, gmm_init,
                        jm_cost, reorder, settle, update_centers,
                        update_membership)
from voxseg.metrics import defuzzify
from voxseg.phantom import PhantomSpec, generate_phantom
from voxseg.volume import SliceRef, extract_slice


def test_membership_closed_form():
    # d = (1, 3), m = 2: u = 1 / sum_k (d_j / d_k)^2 = (0.9, 0.1)
    u = update_membership(np.array([[1.0, 9.0]]), 2.0)
    assert np.allclose(u, [[0.9, 0.1]], atol=1e-12)


def test_membership_zero_distance():
    u = update_membership(np.array([[0.0, 4.0]]), 2.0)
    assert np.array_equal(u, [[1.0, 0.0]])
    # tie on zero goes to the lowest column
    u = update_membership(np.array([[0.0, 0.0]]), 2.0)
    assert np.array_equal(u, [[1.0, 0.0]])


def test_membership_rows_sum_to_one():
    rng = np.random.default_rng(0)
    d2 = rng.uniform(0.1, 50.0, size=(40, 5))
    u = update_membership(d2, 2.0)
    assert np.allclose(u.sum(axis=1), 1.0, atol=1e-12)
    assert np.all((u >= 0) & (u <= 1))


def test_membership_validation():
    with pytest.raises(ValidationError):
        update_membership(np.array([1.0, 2.0]), 2.0)
    with pytest.raises(ValidationError):
        update_membership(np.array([[-1.0, 2.0]]), 2.0)
    with pytest.raises(ValidationError):
        update_membership(np.array([[np.inf, 2.0]]), 2.0)


def reference_membership(d2, m):
    """Bezdek's rule in extended precision: one-hot rows for a zero
    distance, else u_ij = 1 / sum_k (d2_ij / d2_ik)^(1/(m-1))."""
    d2 = np.asarray(d2, dtype=np.longdouble)
    n, c = d2.shape
    u = np.zeros((n, c), dtype=np.longdouble)
    zero = d2 == 0
    hit = zero.any(axis=1)
    u[np.flatnonzero(hit), np.argmax(zero[hit], axis=1)] = 1
    rest = d2[~hit]
    ratios = rest[:, :, None] / rest[:, None, :]
    u[~hit] = 1 / (ratios ** (1 / (np.longdouble(m) - 1))).sum(axis=2)
    return u


@pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("c", range(1, 10))
def test_membership_bit_identical_to_reference(c, m):
    """Exact where the rule is (one-hot rows, c = 1, either input layout);
    elsewhere within (2/(m-1) + c + 5) units of 2^-53 of the reference,
    relative to it: the power scales a ratio's rounding by 1/(m-1), once in
    the entry and once in its row sum, the sum adds up to c roundings, and
    the rest is slack for the ratio, the power and the normalisation."""
    rng = np.random.default_rng(c)
    d2 = rng.uniform(0.0, 1e4, size=(600, c)) ** rng.uniform(0.5, 2.0, size=(600, 1))
    d2[::7, rng.integers(0, c)] = 0.0                      # one zero distance
    d2[3::11, :] = np.where(rng.random((len(d2[3::11]), c)) < 0.5, 0.0, 5.0)
    d2[5] = 0.0                                             # all distances zero
    ref = reference_membership(d2, m)
    hot = (d2 == 0.0).any(axis=1)
    bound = (2.0 / (m - 1.0) + c + 5) * 2.0 ** -53
    # column-major distances (attraction-scaled ones are) give column-major
    # memberships, so the column folds over both stay contiguous; the bits
    # do not depend on the layout
    by_layout = []
    for layout in (d2, np.asfortranarray(d2)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = update_membership(layout, m)
        assert (u.flags.c_contiguous, u.flags.f_contiguous) == (
            layout.flags.c_contiguous, layout.flags.f_contiguous)
        assert np.array_equal(u[hot], ref[hot])
        if c == 1:
            assert np.array_equal(u, np.ones_like(u))
        err = np.abs(u[~hot] - ref[~hot])
        assert np.all(err <= bound * ref[~hot])
        by_layout.append(u)
    assert np.array_equal(*by_layout)


def test_jm_cost_brute_force():
    rng = np.random.default_rng(1)
    u = rng.uniform(0.01, 1.0, size=(7, 3))
    u /= u.sum(axis=1, keepdims=True)
    d2 = rng.uniform(0.0, 9.0, size=(7, 3))
    m = 2.3
    direct = sum(u[i, j] ** m * d2[i, j] for i in range(7) for j in range(3))
    assert abs(jm_cost(u, d2, m) - direct) < 1e-12


def test_update_centers_brute_force():
    rng = np.random.default_rng(2)
    u = rng.uniform(0.01, 1.0, size=(9, 3))
    u /= u.sum(axis=1, keepdims=True)
    data = rng.uniform(0.0, 100.0, size=9)
    m = 2.0
    centers, u_out, _ = update_centers(u, data, m)
    assert np.all(np.diff(centers) >= 0)
    # each returned column must reproduce its own center
    for j in range(3):
        w = u_out[:, j] ** m
        assert abs(centers[j] - (w * data).sum() / w.sum()) < 1e-12


@pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("c", [1, 3, 4, 7])
def test_results_do_not_depend_on_the_layout(c, m):
    # the product in update_centers and the sum in jm_cost round differently
    # on column-major operands, so both read row-major ones; the rows are
    # unsorted so that update_centers reorders them
    rng = np.random.default_rng(40 + c)
    data = rng.uniform(0.0, 255.0, size=500)
    d2 = (data[:, None] - rng.uniform(0.0, 255.0, size=c)) ** 2
    u = update_membership(d2, m)
    results = []
    for layout in (np.ascontiguousarray, np.asfortranarray):
        centers, u_out, order = update_centers(layout(u), data, m)
        results.append((centers, u_out, order, jm_cost(layout(u), layout(d2), m)))
    (centers, u_out, order, cost), other = results
    assert np.array_equal(centers, other[0]) and np.array_equal(u_out, other[1])
    assert (order is None) == (other[2] is None)
    assert order is None or np.array_equal(order, other[2])
    assert cost == other[3]


def test_update_centers_uniform_membership():
    data = np.array([1.0, 5.0, 9.0])
    u = np.full((3, 2), 0.5)
    centers, _, _ = update_centers(u, data, 2.0)
    assert np.allclose(centers, [5.0, 5.0])


@pytest.mark.parametrize("m", [1.5, 2.0])
def test_update_centers_fsum_reference(m):
    """Centers against correctly rounded sums (math.fsum) of the same
    weights u^m and products u^m * x.  For n non-negative terms any
    summation order is within (n - 1) units of 2^-53 of the exact sum, and
    a center is a ratio of two such sums."""
    n, c = 40_000, 4
    rng = np.random.default_rng(11)
    data = rng.uniform(0.0, 255.0, size=n)
    u = rng.uniform(0.01, 1.0, size=(n, c))
    u /= u.sum(axis=1, keepdims=True)
    u[:, [0, 2]] *= data[:, None] / 255.0          # unsorted center order
    u /= u.sum(axis=1, keepdims=True)
    centers, u_out, order_out = update_centers(u, data, m)
    um = u ** m
    ref = np.array([math.fsum(um[:, j] * data) / math.fsum(um[:, j])
                    for j in range(c)])
    order = np.argsort(ref)
    assert not np.array_equal(order, np.arange(c))
    assert np.allclose(centers, ref[order], rtol=2 * n * 2.0 ** -53, atol=0.0)
    assert np.array_equal(u_out, u[:, order])
    assert np.array_equal(order_out, order)
    # centres that already ascend return the same memberships object
    again, u_again, order_again = update_centers(u_out, data, m)
    assert u_again is u_out and order_again is None
    assert np.allclose(again, ref[order], rtol=2 * n * 2.0 ** -53, atol=0.0)


def test_update_centers_degenerate():
    u = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(DegenerateClusterError):
        update_centers(u, np.array([1.0, 2.0]), 2.0)


def test_check_membership():
    check_membership(np.array([[0.3, 0.7], [0.6, 0.4]]))
    with pytest.raises(ValidationError):
        check_membership(np.array([[0.3, 0.3], [0.5, 0.5]]))  # row sum
    with pytest.raises(ValidationError):
        check_membership(np.array([[1.2, -0.2], [0.5, 0.5]]))  # range
    with pytest.raises(ValidationError):
        check_membership(np.array([[1.0, 0.0], [1.0, 0.0]]))  # empty column
    check_membership(np.ones((3, 1)))  # single cluster may hold everything


def test_fcm_separable_pairs():
    res = fcm(np.array([0.0, 0.0, 10.0, 10.0]), np.array([2.0, 8.0]), FcmConfig())
    assert np.allclose(res.centers, [0.0, 10.0], atol=1e-6)
    assert res.membership[0, 0] > 0.99 and res.membership[2, 1] > 0.99


@pytest.mark.parametrize("next_u, iterations", [
    (lambda u: 0.5 * u, 7),   # converges at step 7
    (lambda u: u + 0.5, 10),  # runs to the cap
], ids=["converged", "cap"])
def test_settle_costs_only_the_iterate_it_returns(next_u, iterations):
    # each step's cost is a function; settle calls the last step's, once
    steps, calls = [], []

    def step(u, centers):
        steps.append(len(steps) + 1)
        done = steps[-1]
        return None, next_u(u), centers, lambda: calls.append(done) or float(done)

    res = settle(step, np.array([[0.1, 0.9]]), np.array([1.0, 2.0]),
                 FcmConfig(tolerance=0.01, max_iterations=10))
    assert (res.iterations, res.cost, calls) == (iterations, float(iterations), [iterations])


def test_fcm_single_cluster():
    data = np.array([1.0, 2.0, 3.0, 4.0])
    res = fcm(data, np.array([10.0]), FcmConfig())
    assert np.array_equal(res.membership, np.ones((4, 1)))
    assert np.allclose(res.centers, [data.mean()])


def reference_fcm(data, centers, m, tol, max_iter):
    # independent Picard iteration in plain python loops
    data = [float(x) for x in data]
    centers = sorted(float(v) for v in centers)
    n, c = len(data), len(centers)

    def memberships(cents):
        u = [[0.0] * c for _ in range(n)]
        for i in range(n):
            d = [abs(data[i] - v) for v in cents]
            if min(d) == 0.0:
                u[i][d.index(0.0)] = 1.0
                continue
            for j in range(c):
                u[i][j] = 1.0 / sum((d[j] / d[k]) ** (2.0 / (m - 1.0))
                                    for k in range(c))
        return u

    u = memberships(centers)
    iterations = 0
    for _ in range(max_iter):
        raw = []
        for j in range(c):
            mass = sum(u[i][j] ** m for i in range(n))
            raw.append(sum(u[i][j] ** m * data[i] for i in range(n)) / mass)
        order = sorted(range(c), key=lambda j: raw[j])
        centers = [raw[j] for j in order]
        u = [[row[j] for j in order] for row in u]
        u_next = memberships(centers)
        shift = max(abs(u_next[i][j] - u[i][j])
                    for i in range(n) for j in range(c))
        u = u_next
        iterations += 1
        if shift < tol:
            break
    return u, centers, iterations


def test_fcm_matches_reference_iteration():
    # 4x4 two-level image with one outlier pixel
    img = np.full((4, 4), 20.0)
    img[2:, :] = 80.0
    img[0, 3] = 200.0
    data = img.ravel(order="F")
    init = np.array([30.0, 90.0])
    cfg = FcmConfig()
    res = fcm(data, init, cfg)
    ref_u, ref_centers, ref_iter = reference_fcm(
        data, init, cfg.fuzziness, cfg.tolerance, cfg.max_iterations)
    assert res.iterations == ref_iter
    assert np.allclose(res.centers, ref_centers, atol=1e-9)
    assert np.allclose(res.membership, np.array(ref_u), atol=1e-9)
    assert np.array_equal(np.argmax(res.membership, axis=1),
                          np.argmax(np.array(ref_u), axis=1))


def test_fcm_monotone_descent():
    # cost after each full update never rises, over 50 seeded instances
    for seed in range(50):
        rng = np.random.default_rng(seed)
        data = rng.uniform(0.0, 255.0, size=120)
        u = update_membership((data[:, None] - np.array([60.0, 130.0, 200.0])) ** 2, 2.0)
        costs = []
        for _ in range(20):
            centers, u, _ = update_centers(u, data, 2.0)
            d2 = (data[:, None] - centers) ** 2
            u = update_membership(d2, 2.0)
            costs.append(jm_cost(u, d2, 2.0))
        drops = np.diff(costs)
        assert np.all(drops <= 1e-9 * np.maximum(1.0, np.abs(costs[:-1])))


def test_fcm_near_crisp_at_low_fuzziness():
    data = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 10.0, 10.0, 10.0, 11.0])
    res = fcm(data, np.array([1.0, 9.0]), FcmConfig(fuzziness=1.01))
    assert res.membership.max(axis=1).min() >= 0.999


def test_fcm_iteration_cap():
    rng = np.random.default_rng(9)
    data = rng.uniform(0, 100, size=50)
    res = fcm(data, np.array([10.0, 50.0, 90.0]),
              FcmConfig(tolerance=1e-12, max_iterations=2))
    assert (res.iterations, res.stop_reason) == (2, "cap")


@pytest.mark.parametrize("next_u, order, cap, iterations, reason", [
    (lambda u: 0.5 * u, None, 10, 7, "converged"),    # shifts 0.5, 0.25, ..., 2^-7
    (lambda u: 1.0 - u, None, 10, 10, "cycle"),       # 0.1 -> 0.9 -> 0.1 -> ...
    (lambda u: u + 0.5, None, 10, 10, "cap"),         # every shift is 0.5
    (lambda u: 1.0 - u, None, 1, 1, "cap"),           # no iterate two steps back
    (lambda u: 0.5 * u, [1, 0], 10, 7, "converged"),
    (lambda u: 1.0 - u, [1, 0], 10, 10, "cycle"),
    (lambda u: 1.0 - u, [1, 0], 9, 9, "cycle"),
], ids=["settle", "alternate", "drift", "one-step",
        "relabelled-settle", "relabelled-alternate", "relabelled-alternate-odd"])
def test_settle_names_why_it_stopped(next_u, order, cap, iterations, reason):
    # the step's next iterate is next_u(u), its columns then put in order,
    # as a step whose centers come out unsorted relabels its clusters every
    # time; settle compares iterates cluster by cluster, so the relabelling
    # changes no verdict; centers and cost are inert
    def step(u, centers):
        return order, reorder(next_u(u), order), centers, lambda: 0.0

    start = np.array([[0.1, 0.9], [1.0, 0.0]])
    res = settle(step, start, np.array([1.0, 2.0]),
                 FcmConfig(tolerance=0.01, max_iterations=cap))
    assert (res.iterations, res.stop_reason) == (iterations, reason)
    expect = start
    for _ in range(iterations):
        expect = reorder(next_u(expect), order)
    assert np.array_equal(res.membership, expect)
    assert np.array_equal(res.centers, [1.0, 2.0])


def test_fcm_shuffle_invariance():
    rng = np.random.default_rng(10)
    data = rng.uniform(0, 100, size=60)
    perm = rng.permutation(60)
    cfg = FcmConfig()
    init = np.array([20.0, 70.0])
    a = fcm(data, init, cfg)
    b = fcm(data[perm], init, cfg)
    assert np.allclose(a.centers, b.centers, atol=1e-12)
    assert np.allclose(a.membership[perm], b.membership, atol=1e-12)
    # descending init is sorted before use
    c = fcm(data, init[::-1], cfg)
    assert np.allclose(a.membership, c.membership, atol=1e-12)


def test_fcm_validation():
    with pytest.raises(ValidationError):  # more centres than points
        fcm(np.array([1.0, 2.0]), np.array([0.0, 1.0, 2.0]), FcmConfig())
    with pytest.raises(ValidationError):
        fcm(np.array([1.0, 2.0]), np.array([]), FcmConfig())
    with pytest.raises(ValidationError):
        fcm(np.array([1.0, 2.0, 3.0]), np.array([[1.0, 3.0]]), FcmConfig())
    # a bare cluster count in the centres slot would start a one-centre fit
    # at that intensity; it is refused instead
    for count in (1, 3, np.int64(2)):
        with pytest.raises(ValidationError):
            fcm(np.array([1.0, 2.0, 8.0, 9.0]), count, FcmConfig())
    with pytest.raises(ValidationError):
        FcmConfig(fuzziness=1.0)
    with pytest.raises(ValidationError):
        FcmConfig(tolerance=0.0)
    with pytest.raises(ValidationError):
        FcmConfig(max_iterations=0)


def test_gmm_init_separated_deltas():
    data = np.array([0.0] * 400 + [10.0] * 600)
    assert np.allclose(gmm_init(data, 2), [0.0, 10.0], atol=1e-6)


def test_gmm_init_two_normals():
    rng = np.random.default_rng(7)
    data = np.concatenate([rng.normal(50, 5, 5000), rng.normal(150, 5, 5000)])
    mu = gmm_init(data, 2)
    assert abs(mu[0] - 50.0) < 2.0 and abs(mu[1] - 150.0) < 2.0


def test_gmm_init_single_component():
    data = np.array([3.0, 5.0, 7.0])
    assert np.allclose(gmm_init(data, 1), [5.0])


def test_gmm_init_validation():
    with pytest.raises(ValidationError):
        gmm_init(np.array([1.0, 1.0, 1.0]), 2)
    with pytest.raises(ValidationError):
        gmm_init(np.array([1.0, 2.0]), 0)


def reference_gmm_init(data, c, scale):
    """The same EM in extended precision and textbook form: log-densities,
    row-normalised responsibilities, then responsibility-weighted sums."""
    x = np.asarray(data, dtype=np.longdouble).ravel()
    if c == 1:
        return np.array([x.mean()])
    var_floor = (np.longdouble(1e-4) * scale) ** 2
    two_pi = 2 * np.arccos(np.longdouble(-1))
    mu = np.quantile(x, np.linspace(0, 1, c, dtype=np.longdouble))
    if np.unique(mu).size < c:
        mu = np.linspace(x.min(), x.max(), c)
    var = np.full(c, max(x.var(), var_floor))
    weight = np.full(c, 1 / np.longdouble(c))
    prev_ll = -np.inf
    for _ in range(100):
        log_wp = np.log(weight) - ((x[:, None] - mu) ** 2 / var
                                   + np.log(two_pi * var)) / 2
        top = log_wp.max(axis=1)
        norm = top + np.log(np.exp(log_wp - top[:, None]).sum(axis=1))
        resp = np.exp(log_wp - norm[:, None])
        ll = norm.sum()
        if abs(ll - prev_ll) < 1e-6:
            break
        prev_ll = ll
        mass = resp.sum(axis=0)
        alive = mass > 1e-12
        safe = np.where(alive, mass, 1)
        mu = np.where(alive, (resp * x[:, None]).sum(axis=0) / safe, mu)
        var = np.where(
            alive,
            np.maximum((resp * (x[:, None] - mu) ** 2).sum(axis=0) / safe, var_floor),
            var)
        weight = np.maximum(mass / x.size, 1e-12)
        weight = weight / weight.sum()
    return np.sort(mu)


@pytest.mark.parametrize("c", range(1, 10))
def test_gmm_init_bit_identical_to_reference(c):
    """Means within 1e-12 of the largest one from the extended-precision
    EM: the mean that sits on the dominant zero value is tiny, so its own
    relative error says nothing.  c = 1 (the data mean) is exact."""
    rng = np.random.default_rng(c)
    data = np.concatenate([rng.normal(30.0 * k, 4.0 + k, 250) for k in range(c)]
                          + [np.zeros(400)])                # a dominant value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mu = gmm_init(data, c, scale=255.0)
    ref = reference_gmm_init(data, c, scale=255.0)
    if c == 1:
        assert np.array_equal(mu, [data.mean()])
    assert np.all(np.abs(mu - ref) <= 1e-12 * np.abs(ref).max())


def test_gmm_fcm_clean_slice_exact():
    vol, truth = generate_phantom(PhantomSpec(dims=(24, 24, 24), num_shells=3))
    ref = SliceRef("z", 12)
    sl = extract_slice(vol, ref)
    res = gmm_fcm(sl, 3, FcmConfig())
    labels = defuzzify(res.membership, sl.dims)
    assert labels == extract_slice(truth, ref)
    check_membership(res.membership)


def test_gmm_fcm_deterministic():
    vol, _ = generate_phantom(PhantomSpec(dims=(16, 16, 16)))
    from voxseg.noise import NoiseSpec, add_noise
    noisy = add_noise(vol, NoiseSpec("gaussian", 9.0, seed=5))
    a = gmm_fcm(noisy, 4, FcmConfig())
    b = gmm_fcm(noisy, 4, FcmConfig())
    assert np.array_equal(a.membership, b.membership)
    assert np.array_equal(a.centers, b.centers)
    assert a.iterations == b.iterations
