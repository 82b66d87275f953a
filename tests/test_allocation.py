"""Allocation proposal, exact posterior oracle, and the I-MH kernel.

The proposal and kernel tests drive the batch functions the SEM S-step runs;
a single sample is a batch of one row.
"""
import math

import numpy as np
import pytest

from transdim import (
    AllocationVector,
    GaussianComponent,
    InfeasibleModelError,
    SummaryModel,
    VariableDimSample,
)
from transdim.allocation import (
    _batch_imh_step,
    _batch_log_completed,
    _batch_propose,
    _log_weight_matrix,
)
from transdim.model import _log_gauss_matrix

from oracles import (
    enumerate_allocations,
    exact_allocation_posterior,
    log_density_completed,
)


def comp(mu, s2=1.0, pi=0.5):
    return GaussianComponent(mu, s2, pi)


def tv_distance(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


STD_NORMAL_MODE = 1.0 / math.sqrt(2.0 * math.pi)


def batch_of(x: VariableDimSample, m: SummaryModel, n: int = 1):
    """(log N, log proposal weights) for n copies of one sample, shape (n, k, L)."""
    thetas = np.tile(np.asarray(x.theta, dtype=float), (n, 1)).reshape(n, x.k)
    log_n = _log_gauss_matrix(thetas, m)
    return log_n, _log_weight_matrix(log_n, m)


def greedy_state(x, m, rng):
    """Greedy initial chain state (labels, log completed, log proposal), one row."""
    log_n, log_w = batch_of(x, m)
    labels, lq = _batch_propose(log_w, m.eta, rng, mode="greedy")
    return labels, _batch_log_completed(labels, log_n, m), lq


# ---------------------------------------------------------------------------
# Proposal (_batch_propose)
# ---------------------------------------------------------------------------


def test_propose_single_admissible():
    m = SummaryModel((comp(0.0, 1.0, 1.0),), eta=0.0)
    x = VariableDimSample(1, (1.0,))
    _, log_w = batch_of(x, m)
    labels, log_q = _batch_propose(log_w, m.eta, np.random.default_rng(0))
    assert labels.tolist() == [[1]]
    assert log_q[0] == pytest.approx(0.0, abs=1e-12)


def test_propose_weight_rule():
    # w_0 = eta = 1/pi, w_1 = pi_1 N(theta at the mode) = 0.5 * 0.39894;
    # the probability of proposing z=(1) is w_1/(w_0 + w_1) = 0.38524.
    m = SummaryModel((comp(1.0, 1.0, 0.5),), eta=1.0 / math.pi)
    x = VariableDimSample(1, (1.0,))
    w0 = 1.0 / math.pi
    w1 = 0.5 * STD_NORMAL_MODE
    assert (w0, w1) == (pytest.approx(0.3183, abs=1e-4), pytest.approx(0.19947, abs=1e-5))
    p1 = w1 / (w0 + w1)
    assert p1 == pytest.approx(0.3852, abs=1e-4)

    n = 20000
    _, log_w = batch_of(x, m, n)
    labels, log_q = _batch_propose(log_w, m.eta, np.random.default_rng(42))
    hit = labels[:, 0] == 1
    expected = np.where(hit, math.log(p1), math.log(1.0 - p1))
    assert np.allclose(log_q, expected, rtol=0.0, atol=1e-12)
    se = math.sqrt(p1 * (1.0 - p1) / n)
    assert hit.mean() == pytest.approx(p1, abs=4 * se)


def test_propose_supports_every_admissible_allocation():
    # broad components and a background of comparable weight keep every
    # admissible vector at non-negligible proposal probability
    m = SummaryModel(
        (comp(0.8, 1.0, 0.5), comp(1.5, 1.0, 0.5), comp(2.2, 1.0, 0.5)),
        eta=0.3,
    )
    x = VariableDimSample(3, (0.9, 1.6, 2.1))
    _, log_w = batch_of(x, m, 10**4)
    labels, log_q = _batch_propose(log_w, m.eta, np.random.default_rng(3))
    assert np.all(log_q > -math.inf)
    seen = set(tuple(int(l) for l in row) for row in labels)
    admissible = set(v.z for v in enumerate_allocations(3, 3))
    assert seen == admissible


def test_propose_infeasible_raises():
    m = SummaryModel((comp(1.0),), eta=0.0)
    x = VariableDimSample(2, (1.0, 2.0))
    _, log_w = batch_of(x, m)
    with pytest.raises(InfeasibleModelError):
        _batch_propose(log_w, m.eta, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# exact_allocation_posterior
# ---------------------------------------------------------------------------


def test_exact_posterior_two_term_case():
    m = SummaryModel((comp(1.0, 1.0, 0.5),), eta=1.0 / math.pi)
    x = VariableDimSample(1, (1.0,))
    table = exact_allocation_posterior(x, m)
    # hand check: p(z=(1)) proportional to N(mode)*0.5, p(z=(0)) to (1/pi)*0.5
    a = STD_NORMAL_MODE * 0.5
    b = (1.0 / math.pi) * 0.5
    assert table[(1,)] == pytest.approx(a / (a + b), abs=1e-12)
    assert table[(1,)] == pytest.approx(0.556, abs=1e-3)
    assert table[(0,)] == pytest.approx(0.444, abs=1e-3)


def test_exact_posterior_symmetry_equal_components():
    c = comp(1.5, 0.04, 1.0)
    m = SummaryModel((c, c), eta=0.0)
    x = VariableDimSample(2, (1.4, 1.6))
    table = exact_allocation_posterior(x, m)
    assert table[(1, 2)] == pytest.approx(0.5, abs=1e-12)
    assert table[(2, 1)] == pytest.approx(0.5, abs=1e-12)


def test_exact_posterior_sums_to_one():
    rng = np.random.default_rng(11)
    for _ in range(5):
        L = int(rng.integers(1, 4))
        k = int(rng.integers(0, 5))
        comps = tuple(
            comp(rng.uniform(0.3, 2.8), rng.uniform(0.05, 0.4) ** 2, rng.uniform(0.2, 0.9))
            for _ in range(L)
        )
        m = SummaryModel(comps, eta=rng.uniform(0.05, 0.5))
        x = VariableDimSample(k, tuple(rng.uniform(0.2, 2.9, size=k)))
        table = exact_allocation_posterior(x, m)
        assert sum(table.values()) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# I-MH kernel (_batch_imh_step)
# ---------------------------------------------------------------------------


def test_kernel_accepts_always_when_proposal_equals_target():
    m = SummaryModel((comp(0.0, 1.0, 1.0),), eta=0.0)
    x = VariableDimSample(1, (1.0,))
    labels, lc, lq = greedy_state(x, m, np.random.default_rng(0))
    start_lc = lc.copy()
    log_n, log_w = batch_of(x, m)
    rng = np.random.default_rng(1)
    for _ in range(50):
        labels, lc, lq, accepted = _batch_imh_step(labels, lc, lq, log_w, log_n, m, rng)
        assert accepted.all()
    assert labels.tolist() == [[1]]
    # ratio cancels exactly: cached values identical to the initial ones
    assert lc[0] == pytest.approx(start_lc[0])


def test_kernel_matches_exact_posterior():
    m = SummaryModel((comp(1.0, 0.05, 0.7), comp(1.8, 0.1, 0.4)), eta=0.2)
    x = VariableDimSample(2, (1.1, 1.7))
    exact = exact_allocation_posterior(x, m)
    rng = np.random.default_rng(5)
    labels, lc, lq = greedy_state(x, m, rng)
    log_n, log_w = batch_of(x, m)
    counts: dict = {}
    n_steps = 10**4
    for _ in range(n_steps):
        labels, lc, lq, _ = _batch_imh_step(labels, lc, lq, log_w, log_n, m, rng)
        key = tuple(int(l) for l in labels[0])
        counts[key] = counts.get(key, 0) + 1
    empirical = {z: c / n_steps for z, c in counts.items()}
    assert tv_distance(empirical, exact) < 0.02


@pytest.mark.parametrize("k,L", [(1, 1), (2, 2), (3, 2), (4, 3)])
def test_kernel_preserves_exact_posterior(k, L):
    """Start chains from the exact posterior, apply one kernel step to each,
    and check the distribution is unchanged (stationarity)."""
    rng = np.random.default_rng(200 + 10 * k + L)
    comps = tuple(
        comp(rng.uniform(0.5, 2.6), rng.uniform(0.1, 0.4) ** 2, rng.uniform(0.3, 0.9))
        for _ in range(L)
    )
    m = SummaryModel(comps, eta=0.25)
    x = VariableDimSample(k, tuple(rng.uniform(0.3, 2.8, size=k)))
    exact = exact_allocation_posterior(x, m)
    zs = list(exact.keys())
    probs = np.array([exact[z] for z in zs])

    n_chains = 10**5
    start_idx = rng.choice(len(zs), size=n_chains, p=probs)
    counts: dict = {}
    log_n, log_w = batch_of(x, m, n_chains)
    labels = np.array([zs[i] for i in start_idx], dtype=np.int64)
    lc = _batch_log_completed(labels, log_n, m)
    _, lq = _batch_propose(log_w, m.eta, rng, mode="follow", follow=labels)
    labels, lc, lq, _ = _batch_imh_step(labels, lc, lq, log_w, log_n, m, rng)
    for row in labels:
        key = tuple(int(v) for v in row)
        counts[key] = counts.get(key, 0) + 1
    empirical = {z: c / n_chains for z, c in counts.items()}
    assert tv_distance(empirical, exact) < 0.02


def test_acceptance_ratio_antisymmetry():
    m = SummaryModel((comp(1.0, 0.05, 0.7), comp(2.0, 0.1, 0.5)), eta=0.3)
    x = VariableDimSample(2, (1.1, 1.9))
    rng_prop = np.random.default_rng(10)
    _, a_lc, a_lq = greedy_state(x, m, rng_prop)
    _, log_w = batch_of(x, m)
    labels_b, lq_b = _batch_propose(log_w, m.eta, rng_prop)
    z_b = AllocationVector(tuple(int(l) for l in labels_b[0]))
    lc_b = log_density_completed(x, z_b, m)
    forward = (lc_b - lq_b[0]) - (a_lc[0] - a_lq[0])
    backward = (a_lc[0] - a_lq[0]) - (lc_b - lq_b[0])
    assert forward == pytest.approx(-backward, abs=1e-10)


def test_infeasible_kernel_raises():
    m = SummaryModel((comp(1.0),), eta=0.0)
    x = VariableDimSample(2, (1.0, 2.0))
    log_n, log_w = batch_of(x, m)
    labels = np.array([[1, 0]])
    stale = np.array([-math.inf])
    with pytest.raises(InfeasibleModelError):
        _batch_imh_step(labels, stale, stale, log_w, log_n, m, np.random.default_rng(0))
