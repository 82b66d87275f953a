"""Core model: allocation enumeration and exact density evaluation."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transdim import (
    AllocationVector,
    EnumerationCapError,
    GaussianComponent,
    SummaryModel,
    VariableDimSample,
    count_allocations,
    enumerate_allocations,
    log_density_completed,
    simulate_sample_set,
)
from transdim.model import _LOG_2PI, _log_marginal_batch, _subset_log_priors

LOG_STD_NORMAL_MODE = -0.5 * math.log(2.0 * math.pi)


def comp(mu, s2=1.0, pi=0.5):
    return GaussianComponent(mu, s2, pi)


def model(components, lam0=0.0):
    return SummaryModel(tuple(components), eta=lam0 / math.pi)


# ---------------------------------------------------------------------------
# enumerate_allocations
# ---------------------------------------------------------------------------


def test_enumerate_k1_l1():
    vectors = enumerate_allocations(1, 1)
    assert sorted(v.z for v in vectors) == [(0,), (1,)]


def test_enumerate_k2_l3_count():
    assert count_allocations(2, 3) == 13  # 1 + 6 + 6
    assert len(enumerate_allocations(2, 3)) == 13


def test_enumerate_k0():
    for L in (0, 1, 5):
        vectors = enumerate_allocations(0, L)
        assert [v.z for v in vectors] == [()]


def test_enumerate_cap():
    with pytest.raises(EnumerationCapError):
        enumerate_allocations(12, 12, cap=10**6)


@given(st.integers(0, 5), st.integers(0, 4))
@settings(max_examples=30, deadline=None)
def test_enumeration_matches_counting_formula(k, L):
    vectors = enumerate_allocations(k, L)
    assert len(vectors) == count_allocations(k, L)
    assert len(set(v.z for v in vectors)) == len(vectors)  # no duplicates
    for v in vectors:
        positives = [l for l in v.z if l > 0]
        assert len(positives) == len(set(positives))


def test_allocation_vector_rejects_repeats():
    with pytest.raises(ValueError):
        AllocationVector((1, 1))


# ---------------------------------------------------------------------------
# log_density_completed
# ---------------------------------------------------------------------------


def test_completed_standard_normal_at_mode():
    m = model([comp(0.0, 1.0, 1.0)])
    # theta must lie in (0, pi); use a tiny positive value and the matching pdf
    x = VariableDimSample(1, (1.0,))
    val = log_density_completed(x, AllocationVector((1,)), m)
    assert val == pytest.approx(LOG_STD_NORMAL_MODE - 0.5, abs=1e-12)


def test_completed_empty_sample_with_background():
    m = model([comp(0.0, 1.0, 0.5)], lam0=1.0)
    x = VariableDimSample(0, ())
    val = log_density_completed(x, AllocationVector(()), m)
    assert val == pytest.approx(math.log(math.exp(-1.0) * 0.5), abs=1e-12)
    assert val == pytest.approx(-1.6931471805599454, abs=1e-4)


def test_completed_background_allocation():
    # direct evaluation of the stated formula, checked against the symbolic
    # value log(e^-1 * (1/pi) * 0.5) = -1 - log(pi) - log(2)
    m = model([comp(0.0, 1.0, 0.5)], lam0=1.0)
    x = VariableDimSample(1, (1.5,))
    val = log_density_completed(x, AllocationVector((0,)), m)
    assert val == pytest.approx(-1.0 - math.log(math.pi) - math.log(2.0), abs=1e-12)
    assert val == pytest.approx(-2.8379, abs=1e-4)


def test_completed_zero_label_with_zero_eta_is_minus_inf():
    m = model([comp(1.0, 1.0, 0.5)], lam0=0.0)
    x = VariableDimSample(1, (1.0,))
    assert log_density_completed(x, AllocationVector((0,)), m) == -math.inf


def test_completed_absent_certain_component_is_minus_inf():
    m = model([comp(1.0, 1.0, 1.0)], lam0=1.0)
    x = VariableDimSample(1, (1.0,))
    assert log_density_completed(x, AllocationVector((0,)), m) == -math.inf


def test_completed_validates_length_and_injectivity():
    m = model([comp(1.0), comp(2.0)])
    x = VariableDimSample(2, (1.0, 2.0))
    with pytest.raises(ValueError):
        log_density_completed(x, AllocationVector((1,)), m)
    with pytest.raises(ValueError):
        log_density_completed(x, AllocationVector((1, 2, 0)), m)
    with pytest.raises(ValueError):  # label above L
        log_density_completed(x, AllocationVector((1, 3)), m)


# ---------------------------------------------------------------------------
# Marginal density (_log_marginal_batch)
# ---------------------------------------------------------------------------


def log_density_marginal(x, m):
    """Log marginal density of one sample: ``_log_marginal_batch`` on one row."""
    thetas = np.asarray(x.theta, dtype=float).reshape(1, x.k)
    return float(_log_marginal_batch(thetas, m)[0])


def test_marginal_single_admissible_allocation():
    m = model([comp(1.0, 1.0, 0.5)], lam0=0.0)
    x = VariableDimSample(1, (1.0,))
    expected = math.log(0.5 * math.exp(LOG_STD_NORMAL_MODE))
    assert log_density_marginal(x, m) == pytest.approx(expected, abs=1e-12)
    assert log_density_marginal(x, m) == pytest.approx(-1.6121, abs=1e-4)


def test_marginal_empty_sample_two_components():
    m = model([comp(1.0, 1.0, 0.5), comp(2.0, 1.0, 0.5)], lam0=0.0)
    x = VariableDimSample(0, ())
    assert log_density_marginal(x, m) == pytest.approx(math.log(0.25), abs=1e-12)


def brute_force_marginal(x, m):
    logs = [
        log_density_completed(x, z, m)
        for z in enumerate_allocations(x.k, m.n_components)
    ]
    finite = [v for v in logs if v > -math.inf]
    if not finite:
        return -math.inf
    top = max(finite)
    return top + math.log(sum(math.exp(v - top) for v in finite))


@pytest.mark.parametrize("k,L,lam0", [(0, 1, 1.0), (1, 1, 1.0), (2, 2, 0.5),
                                      (3, 2, 1.0), (4, 3, 2.0), (3, 3, 0.0)])
def test_marginal_matches_enumeration(k, L, lam0):
    rng = np.random.default_rng(k * 10 + L)
    comps = [comp(rng.uniform(0.5, 2.5), rng.uniform(0.01, 0.3) ** 2, rng.uniform(0.2, 1.0))
             for _ in range(L)]
    m = model(comps, lam0=lam0)
    x = VariableDimSample(k, tuple(rng.uniform(0.1, 3.0, size=k)))
    assert log_density_marginal(x, m) == pytest.approx(
        brute_force_marginal(x, m), rel=1e-12, abs=1e-12
    )


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_marginal_exchangeability(data):
    rng_seed = data.draw(st.integers(0, 10**6))
    rng = np.random.default_rng(rng_seed)
    k = data.draw(st.integers(1, 5))
    L = data.draw(st.integers(0, 3))
    comps = [comp(rng.uniform(0.3, 2.8), rng.uniform(0.02, 0.5) ** 2, rng.uniform(0.1, 1.0))
             for _ in range(L)]
    m = model(comps, lam0=rng.uniform(0.1, 2.0))
    theta = tuple(rng.uniform(0.05, 3.0, size=k))
    perm = tuple(theta[i] for i in rng.permutation(k))
    a = log_density_marginal(VariableDimSample(k, theta), m)
    b = log_density_marginal(VariableDimSample(k, perm), m)
    assert a == pytest.approx(b, abs=1e-12)


def pure_mixture_marginal(x, m):
    """Independent no-background evaluation: subsets of size k and bijections.

    Valid only for eta = 0, where every point must come from a distinct
    present Gaussian component.
    """
    assert m.eta == 0.0
    L = m.n_components
    k = x.k
    if k > L:
        return -math.inf
    total = 0.0
    all_labels = range(L)
    for subset in itertools.combinations(all_labels, k):
        prior = 1.0
        for l in all_labels:
            prior *= m.components[l].pi if l in subset else (1.0 - m.components[l].pi)
        inner = 0.0
        for assignment in itertools.permutations(subset):
            term = 1.0
            for t, l in zip(x.theta, assignment):
                c = m.components[l]
                term *= math.exp(-((t - c.mu) ** 2) / (2 * c.s2)) / math.sqrt(
                    2 * math.pi * c.s2
                )
            inner += term
        total += prior * inner
    if total == 0.0:
        return -math.inf
    return math.log(total / math.factorial(k))


@pytest.mark.parametrize("k,L", [(0, 2), (1, 2), (2, 2), (2, 3), (3, 3)])
def test_marginal_reduces_to_pure_mixture_when_eta_zero(k, L):
    rng = np.random.default_rng(100 + 7 * k + L)
    comps = [comp(rng.uniform(0.5, 2.5), rng.uniform(0.05, 0.4) ** 2, rng.uniform(0.3, 0.95))
             for _ in range(L)]
    m = model(comps, lam0=0.0)
    x = VariableDimSample(k, tuple(rng.uniform(0.2, 2.9, size=k)))
    assert log_density_marginal(x, m) == pytest.approx(
        pure_mixture_marginal(x, m), rel=1e-12
    )


def test_marginal_degenerate_poisson_limit():
    m = model([comp(1.0, 0.01, 0.9)], lam0=0.0)
    x = VariableDimSample(2, (1.0, 1.1))
    assert log_density_marginal(x, m) == -math.inf


def test_marginal_small_normalization_quadrature():
    """For eta = 0 and L = 2 the mass over k = 0..2 must be one (components
    far from the interval edges, so truncation is negligible)."""
    m = model([comp(1.0, 0.05**2, 0.6), comp(2.0, 0.08**2, 0.3)], lam0=0.0)
    nodes, weights = np.polynomial.legendre.leggauss(120)
    grid = 0.5 * math.pi * (nodes + 1.0)
    w = 0.5 * math.pi * weights

    total = math.exp(log_density_marginal(VariableDimSample(0, ()), m))
    vals1 = [math.exp(log_density_marginal(VariableDimSample(1, (t,)), m)) for t in grid]
    total += float(np.dot(w, vals1))
    vals2 = np.zeros((grid.size, grid.size))
    for i, t1 in enumerate(grid):
        for j, t2 in enumerate(grid):
            vals2[i, j] = math.exp(
                log_density_marginal(VariableDimSample(2, (t1, t2)), m)
            )
    total += float(w @ vals2 @ w)
    assert total == pytest.approx(1.0, abs=1e-3)


def loop_log_marginal_batch(thetas, m):
    """Reference for ``_log_marginal_batch``: the same subset DP with one
    ``logaddexp`` per (point, mask, label), masks and labels in ascending
    order."""
    n, k = thetas.shape
    L = m.n_components
    lam0 = m.lam0
    log_eta = math.log(m.eta) if m.eta > 0.0 else -math.inf
    if L == 0:
        core = k * log_eta if k > 0 else 0.0
        return np.full(n, core - lam0 - math.lgamma(k + 1))
    mus = np.array([c.mu for c in m.components])
    s2s = np.array([c.s2 for c in m.components])
    log_n = (
        -0.5 * (_LOG_2PI + np.log(s2s))[None, None, :]
        - (thetas[:, :, None] - mus[None, None, :]) ** 2 / (2.0 * s2s)[None, None, :]
    )
    n_subsets = 1 << L
    g = np.full((n, n_subsets), -np.inf)
    g[:, 0] = 0.0
    for j in range(k):
        new = g + log_eta
        for s in range(n_subsets):
            for l in range(L):
                bit = 1 << l
                if s & bit:
                    new[:, s] = np.logaddexp(new[:, s], g[:, s ^ bit] + log_n[:, j, l])
        g = new
    g = g + _subset_log_priors(m)[None, :]
    top = np.max(g, axis=1)
    with np.errstate(invalid="ignore"):
        total = np.where(
            np.isfinite(top),
            top + np.log(np.sum(np.exp(g - top[:, None]), axis=1)),
            -np.inf,
        )
    return total - lam0 - math.lgamma(k + 1)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_log_marginal_batch_bitwise_equals_loop(data):
    L = data.draw(st.integers(0, 8), label="L")
    k = data.draw(st.integers(0, 9), label="k")
    n = data.draw(st.integers(1, 4), label="n")
    eta = data.draw(st.one_of(st.just(0.0), st.floats(1e-3, 2.0)), label="eta")
    certain = data.draw(st.sets(st.integers(0, 7), max_size=2), label="pi=1 labels")
    far = data.draw(st.booleans(), label="far")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if far:  # every point 1.1-2.9 rad from components of sd <= 0.02
        mus = rng.uniform(0.1, 0.5, L)
        sds = rng.uniform(0.005, 0.02, L)
        thetas = rng.uniform(1.6, 3.0, (n, k))
    else:
        mus = rng.uniform(0.2, 2.9, L)
        sds = rng.uniform(0.01, 0.5, L)
        thetas = rng.uniform(0.05, 3.1, (n, k))
    m = SummaryModel(
        tuple(
            comp(mu, sd * sd, 1.0 if l in certain else rng.uniform(0.05, 0.99))
            for l, (mu, sd) in enumerate(zip(mus, sds))
        ),
        eta,
    )
    got = _log_marginal_batch(thetas, m)
    assert got.shape == (n,)
    assert np.array_equal(got, loop_log_marginal_batch(thetas, m))
    if far and eta == 0.0 and L:
        # rows are -inf (k > L, or a certain component left absent) or at
        # least 1e3 per point below zero
        assert np.all((got == -np.inf) | (got < -1e3 * k))


# ---------------------------------------------------------------------------
# Generative sampling
# ---------------------------------------------------------------------------


def test_simulate_sample_set_matches_presence_probabilities():
    m = model([comp(1.0, 0.05**2, 0.7), comp(2.0, 0.05**2, 0.2)], lam0=0.3)
    rng = np.random.default_rng(7)
    ss = simulate_sample_set(m, 4000, rng)
    mean_k = np.mean([s.k for s in ss.samples])
    assert mean_k == pytest.approx(0.7 + 0.2 + 0.3, abs=0.06)
    for s in ss.samples:
        assert all(0.0 < t < math.pi for t in s.theta)


def test_sample_validation():
    with pytest.raises(ValueError):
        VariableDimSample(1, (0.0,))  # boundary excluded
    with pytest.raises(ValueError):
        VariableDimSample(2, (1.0,))  # length mismatch
