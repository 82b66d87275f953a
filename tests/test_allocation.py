"""Allocation proposal, exact posterior oracle, and the I-MH kernel.

The proposal and kernel tests drive the batch functions the SEM S-step runs,
with their randomness drawn as the S-step draws it; a single sample is a
batch of one row.  The S-step that proposed and accepted one step at a time
is kept below as the bitwise reference for the batched one.
"""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transdim import (
    AllocationVector,
    GaussianComponent,
    InfeasibleModelError,
    SummaryModel,
    VariableDimSample,
)
from transdim import allocation
from transdim.allocation import _propose, _s_step, _visit_orders
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


def log_n_of(x: VariableDimSample, m: SummaryModel, n: int = 1):
    """log N for n copies of one sample, shape (n, k, L)."""
    thetas = np.tile(np.asarray(x.theta, dtype=float), (n, 1)).reshape(n, x.k)
    return _log_gauss_matrix(thetas, m)


def propose(x, m, rng, rows: int = 1):
    """``rows`` independent proposals for one sample: (labels, lc, lq)."""
    orders = _visit_orders(rng, rows, x.k)
    return _propose(log_n_of(x, m), m, orders, rng.random((x.k, rows)))


def greedy_state(x, m, rng):
    """Greedy initial chain state (labels, log completed, log proposal), one row."""
    return _propose(log_n_of(x, m), m, _visit_orders(rng, 1, x.k))


# ---------------------------------------------------------------------------
# Proposal (_propose)
# ---------------------------------------------------------------------------


def test_propose_single_admissible():
    m = SummaryModel((comp(0.0, 1.0, 1.0),), eta=0.0)
    x = VariableDimSample(1, (1.0,))
    labels, _, log_q = propose(x, m, np.random.default_rng(0))
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
    labels, _, log_q = propose(x, m, np.random.default_rng(42), n)
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
    labels, _, log_q = propose(x, m, np.random.default_rng(3), 10**4)
    assert np.all(log_q > -math.inf)
    seen = set(tuple(int(l) for l in row) for row in labels)
    admissible = set(v.z for v in enumerate_allocations(3, 3))
    assert seen == admissible


def test_propose_infeasible_raises():
    m = SummaryModel((comp(1.0),), eta=0.0)
    x = VariableDimSample(2, (1.0, 2.0))
    with pytest.raises(InfeasibleModelError):
        propose(x, m, np.random.default_rng(0))


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
# I-MH kernel (_s_step)
# ---------------------------------------------------------------------------


def test_kernel_accepts_always_when_proposal_equals_target():
    m = SummaryModel((comp(0.0, 1.0, 1.0),), eta=0.0)
    x = VariableDimSample(1, (1.0,))
    labels, lc, lq = greedy_state(x, m, np.random.default_rng(0))
    start_lc = lc.copy()
    # every proposal has the chain's log ratio, so log(u) < 0 accepts it
    _, prop_lc, prop_lq = propose(x, m, np.random.default_rng(1), 50)
    assert np.all(prop_lc - prop_lq == lc[0] - lq[0])
    labels, lc, lq = _s_step(
        labels, lc, lq, log_n_of(x, m), m, np.random.default_rng(1), 50, refresh=False
    )
    assert labels.tolist() == [[1]]
    # ratio cancels exactly: cached values identical to the initial ones
    assert lc[0] == pytest.approx(start_lc[0])


def test_kernel_matches_exact_posterior():
    m = SummaryModel((comp(1.0, 0.05, 0.7), comp(1.8, 0.1, 0.4)), eta=0.2)
    x = VariableDimSample(2, (1.1, 1.7))
    exact = exact_allocation_posterior(x, m)
    rng = np.random.default_rng(5)
    labels, lc, lq = greedy_state(x, m, rng)
    log_n = log_n_of(x, m)
    counts: dict = {}
    n_steps = 10**4
    for _ in range(n_steps):
        labels, lc, lq = _s_step(labels, lc, lq, log_n, m, rng, 1, refresh=False)
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
    labels = np.array([zs[i] for i in start_idx], dtype=np.int64)
    unread = np.full(n_chains, np.nan)  # the refresh recomputes lc and lq
    labels, _, _ = _s_step(
        labels, unread, unread, log_n_of(x, m, n_chains), m, rng, 1, refresh=True
    )
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
    labels_b, _, lq_b = propose(x, m, rng_prop)
    z_b = AllocationVector(tuple(int(l) for l in labels_b[0]))
    lc_b = log_density_completed(x, z_b, m)
    forward = (lc_b - lq_b[0]) - (a_lc[0] - a_lq[0])
    backward = (a_lc[0] - a_lq[0]) - (lc_b - lq_b[0])
    assert forward == pytest.approx(-backward, abs=1e-10)


def test_infeasible_kernel_raises():
    m = SummaryModel((comp(1.0),), eta=0.0)
    x = VariableDimSample(2, (1.0, 2.0))
    labels = np.array([[1, 0]])
    stale = np.array([-math.inf])
    with pytest.raises(InfeasibleModelError):
        _s_step(
            labels, stale, stale, log_n_of(x, m), m, np.random.default_rng(0), 1,
            refresh=False,
        )


# ---------------------------------------------------------------------------
# Bitwise reference: the S-step as one proposal and one accept at a time
# ---------------------------------------------------------------------------


def ref_batch_propose(log_w, eta, rng, mode="sample", follow=None):
    """Sequential proposal with row-major (n, L + 1) weights per visit;
    modes "sample", "greedy" and "follow" (score the labels of ``follow``)."""
    n, k, L = log_w.shape
    log_eta = math.log(eta) if eta > 0.0 else -math.inf

    labels = np.zeros((n, k), dtype=np.int64)
    log_q = np.full(n, -math.lgamma(k + 1))
    if k == 0:
        return labels, log_q

    perms = rng.permuted(np.broadcast_to(np.arange(k), (n, k)).copy(), axis=1)
    used = np.zeros((n, L), dtype=bool)
    rows = np.arange(n)
    bg_col = np.full((n, 1), log_eta)

    for t in range(k):
        pos = perms[:, t]
        lw = log_w[rows, pos, :]
        lw = np.where(used, -np.inf, lw)
        lw_full = np.concatenate([bg_col, lw], axis=1)  # column 0 = background
        mx = np.max(lw_full, axis=1)
        if not np.all(np.isfinite(mx)):
            raise InfeasibleModelError("no admissible label available")
        w = np.exp(lw_full - mx[:, None])
        tot = w.sum(axis=1)
        if mode == "sample":
            u = rng.random(n) * tot
            choice = (u[:, None] < np.cumsum(w, axis=1)).argmax(axis=1)
        elif mode == "greedy":
            choice = lw_full.argmax(axis=1)
        else:
            choice = follow[rows, pos]
        log_q += lw_full[rows, choice] - (mx + np.log(tot))
        labels[rows, pos] = choice
        picked = choice > 0
        used[rows[picked], choice[picked] - 1] = True

    return labels, log_q


def ref_batch_log_completed(labels, log_n, model):
    n, k = labels.shape
    L = model.n_components
    lam0 = model.lam0

    out = np.full(n, -math.lgamma(k + 1) - lam0)
    n0 = (labels == 0).sum(axis=1)
    if lam0 > 0.0:
        out = out + n0 * (math.log(lam0) - math.log(model.theta_volume))
    else:
        out = np.where(n0 > 0, -np.inf, out)

    if k > 0 and L > 0:
        gathered = np.take_along_axis(
            log_n, np.maximum(labels - 1, 0)[:, :, None], axis=2
        )[:, :, 0]
        out = out + np.where(labels > 0, gathered, 0.0).sum(axis=1)

    for l, c in enumerate(model.components, start=1):
        present = (labels == l).any(axis=1)
        lp = math.log(c.pi)
        lq = math.log1p(-c.pi) if c.pi < 1.0 else -np.inf
        out = out + np.where(present, lp, lq)
    return out


def ref_batch_imh_step(cur_labels, cur_lc, cur_lq, log_w, log_n, model, rng):
    prop_labels, prop_lq = ref_batch_propose(log_w, model.eta, rng, mode="sample")
    prop_lc = ref_batch_log_completed(prop_labels, log_n, model)
    with np.errstate(invalid="ignore"):
        log_ratio = (prop_lc - prop_lq) - (cur_lc - cur_lq)
    accept = np.log(rng.random(len(cur_lc))) < log_ratio  # NaN ratio -> stay
    cur_labels = np.where(accept[:, None], prop_labels, cur_labels)
    return (
        cur_labels,
        np.where(accept, prop_lc, cur_lc),
        np.where(accept, prop_lq, cur_lq),
    )


def ref_s_step(log_n, model, rng, n_steps, refresh):
    """Greedy start, then (with ``refresh``) the refresh, then the steps."""
    if model.n_components:
        log_pis = np.log([c.pi for c in model.components])
        log_w = log_n + log_pis[None, None, :]
    else:
        log_w = log_n
    labels, lq = ref_batch_propose(log_w, model.eta, rng, mode="greedy")
    lc = ref_batch_log_completed(labels, log_n, model)
    start = (labels, lc, lq)
    if refresh:
        lc = ref_batch_log_completed(labels, log_n, model)
        _, lq = ref_batch_propose(log_w, model.eta, rng, mode="follow", follow=labels)
    for _ in range(n_steps):
        labels, lc, lq = ref_batch_imh_step(labels, lc, lq, log_w, log_n, model, rng)
    return start, (labels, lc, lq)


def new_s_step(log_n, model, rng, n_steps, refresh):
    n, k, _ = log_n.shape
    start = _propose(log_n, model, _visit_orders(rng, n, k))
    return start, _s_step(*start, log_n, model, rng, n_steps, refresh)


def outcome(fn, *args):
    try:
        return fn(*args)
    except InfeasibleModelError:
        return None


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_s_step_bitwise_equals_reference(data):
    """The batched S-step and the one-step-at-a-time reference give the same
    greedy start, labels, lc and lq bit for bit, and leave the generator in
    the same state; or both raise InfeasibleModelError.  L + 1 >= 8 covers
    the label sums numpy rounds pairwise, and a small row cap splits the
    refresh and the steps over several proposal batches."""
    k = data.draw(st.integers(0, 9), label="k")
    L = data.draw(st.integers(0, 9), label="L")
    n = data.draw(st.integers(1, 4), label="n")
    n_steps = data.draw(st.integers(0, 5), label="inner_imh_steps")
    batch_rows = data.draw(st.sampled_from([1, 3, 8, allocation.BATCH_ROWS]), label="rows")
    refresh = data.draw(st.booleans(), label="refresh")
    eta = data.draw(st.one_of(st.just(0.0), st.floats(1e-3, 2.0)), label="eta")
    certain = data.draw(st.sets(st.integers(0, 8), max_size=2), label="pi=1 labels")
    far = data.draw(st.booleans(), label="far")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    if far:  # weights underflow: every point 1.1-2.9 rad from narrow components
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
    log_n = _log_gauss_matrix(thetas, m)
    rng_ref, rng_new = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    ref = outcome(ref_s_step, log_n, m, rng_ref, n_steps, refresh)
    with mock.patch.object(allocation, "BATCH_ROWS", batch_rows):
        new = outcome(new_s_step, log_n, m, rng_new, n_steps, refresh)
    assert (ref is None) == (new is None)
    if ref is None:
        assert eta == 0.0 and k > L
        return
    for ref_state, new_state in zip(ref, new):
        for a, b in zip(ref_state, new_state):
            assert same_bits(a, b)
    assert rng_ref.bit_generator.state == rng_new.bit_generator.state
