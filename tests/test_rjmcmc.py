"""Sinusoid synthesis and the reversible-jump sampler."""
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from transdim import (
    DegenerateDataError,
    SamplerConfig,
    build_scene,
    design_matrix,
    log_target,
    run_sampler,
    synthesize_signal,
)
from transdim.rjmcmc import (
    _MIN_FREQ_SPACING,
    _birth_log_alpha,
    _death_log_alpha,
    _Engine,
    _update_log_alpha,
)

from flagship import flagship_scene

REF_AMPLITUDES = (20.0, 6.32, 20.0)
REF_OMEGAS = (0.63, 0.68, 0.73)


def reference_scene():
    return build_scene(64, REF_AMPLITUDES, REF_OMEGAS, snr_db=7.0)


# ---------------------------------------------------------------------------
# Numerical-integration oracle for the marginalized target
# ---------------------------------------------------------------------------


def brute_force_log_evidence(y: np.ndarray, omega: float, delta2: float) -> float:
    """log of int p(y | a, s2) p(a | s2, delta2) (1/s2) da ds2 for k = 1.

    The a-integral uses Gauss-Legendre on a box placed around the product
    Gaussian; the s2-integral uses Gauss-Legendre in log s2 over a wide
    range.  Nothing is shared with the closed-form target evaluation.
    """
    n = y.shape[0]
    d = design_matrix([omega], n)
    g = d.T @ d
    ginv = np.linalg.inv(g)
    b = d.T @ y
    a_hat = np.linalg.lstsq(d, y, rcond=None)[0]
    shrink = delta2 / (1.0 + delta2)
    m_star = shrink * a_hat
    yty = float(y @ y)
    det_g = float(np.linalg.det(g))

    nodes_u, weights_u = np.polynomial.legendre.leggauss(240)
    lo, hi = math.log(yty) - 16.0, math.log(yty) + 8.0
    us = 0.5 * (hi - lo) * (nodes_u + 1.0) + lo
    wu = 0.5 * (hi - lo) * weights_u

    nodes_a, weights_a = np.polynomial.legendre.leggauss(140)

    total = 0.0
    for u, w_outer in zip(us, wu):
        s2 = math.exp(u)
        sd_post = np.sqrt(s2 * shrink * np.diag(ginv))
        half = 12.0 * sd_post + 2.0 * np.abs(a_hat - m_star)
        a1 = m_star[0] + half[0] * nodes_a
        a2 = m_star[1] + half[1] * nodes_a
        w1 = half[0] * weights_a
        w2 = half[1] * weights_a

        quad_g = (
            g[0, 0] * a1[:, None] ** 2
            + 2.0 * g[0, 1] * a1[:, None] * a2[None, :]
            + g[1, 1] * a2[None, :] ** 2
        )
        dot_b = b[0] * a1[:, None] + b[1] * a2[None, :]
        resid2 = yty - 2.0 * dot_b + quad_g
        log_lik = -0.5 * n * math.log(2.0 * math.pi * s2) - resid2 / (2.0 * s2)
        log_prior_a = (
            -math.log(2.0 * math.pi * s2 * delta2)
            + 0.5 * math.log(det_g)
            - quad_g / (2.0 * s2 * delta2)
        )
        inner = float(w1 @ np.exp(log_lik + log_prior_a) @ w2)
        total += w_outer * inner  # the 1/s2 prior cancels against ds2 = s2 du

    return math.log(total)


def oracle_log_target(y, omega, config):
    """Predicted brute-force value from the closed-form target: removes the
    prior-on-k and frequency-prior terms and restores the constants dropped
    by the marginalization."""
    n = y.shape[0]
    lt = log_target(1, [omega], y, config)
    lt -= math.log(config.lambda_k) - math.lgamma(2.0)  # p(k=1) factor
    lt -= math.log(1.0 / math.pi)  # frequency prior
    lt += math.lgamma(n / 2.0) - 0.5 * n * math.log(math.pi)
    return lt


@pytest.mark.parametrize("case", range(3))
def test_log_target_matches_numerical_integration(case):
    rng = np.random.default_rng(400 + case)
    n = 8
    omega = float(rng.uniform(0.3, 2.8))
    delta2 = float(rng.uniform(5.0, 40.0))
    y = rng.normal(0.0, 1.0, n) + rng.uniform(0.5, 2.0) * np.cos(
        omega * np.arange(n)
    )
    config = SamplerConfig(n_sweeps=10, k_max=4, delta2=delta2)
    predicted = oracle_log_target(y, omega, config)
    numeric = brute_force_log_evidence(y, omega, delta2)
    assert predicted == pytest.approx(numeric, abs=1e-3)


# ---------------------------------------------------------------------------
# design_matrix / synthesize_signal
# ---------------------------------------------------------------------------


def test_design_matrix_quarter_period():
    d = design_matrix([math.pi / 2.0], 4)
    assert d[:, 0] == pytest.approx([1.0, 0.0, -1.0, 0.0], abs=1e-12)
    assert d[:, 1] == pytest.approx([0.0, 1.0, 0.0, -1.0], abs=1e-12)


def test_design_matrix_empty():
    d = design_matrix([], 5)
    assert d.shape == (5, 0)


def test_design_matrix_rejects_out_of_range():
    with pytest.raises(ValueError):
        design_matrix([0.0], 8)
    with pytest.raises(ValueError):
        design_matrix([math.pi], 8)


def test_design_matrix_column_norms_reference_trio():
    d = design_matrix(REF_OMEGAS, 64)
    g = d.T @ d
    assert np.linalg.norm(np.diag(g) - 32.0, ord=np.inf) < 3.0
    # The trio is spaced below the Fourier resolution 2*pi/64, so strict
    # near-orthogonality cannot hold: direct evaluation puts the largest
    # cos/sin cross term at 20.29 (frozen here as a regression value).
    assert np.abs(g - 32.0 * np.eye(6)).max() == pytest.approx(20.291, abs=0.01)


def test_design_matrix_near_orthogonality_separated_trio():
    d = design_matrix([0.63, 1.5, 2.5], 64)
    g = d.T @ d
    assert np.abs(g - 32.0 * np.eye(6)).max() < 3.0


def test_snr_identity_unit_case():
    # ||D a||^2 = n at snr 0 dB forces sigma2 = 1
    n = 16
    d = design_matrix([1.0], n)
    a = 1.0 / math.sqrt(float(d[:, 0] @ d[:, 0]) / n)
    scene = build_scene(n, [(a, 0.0)], [1.0], snr_db=0.0)
    power = float(np.sum((d @ scene.coefficient_vector()) ** 2))
    assert scene.sigma2 == pytest.approx(power / n, rel=1e-12)


def test_synthesize_reference_scene_variance():
    scene = reference_scene()
    d = design_matrix(scene.omegas, scene.n)
    signal_power = float(np.sum((d @ scene.coefficient_vector()) ** 2))
    expected_var = signal_power / scene.n * (1.0 + 10.0 ** (-0.7))
    y = synthesize_signal(scene, seed=1)
    assert float(np.var(y)) == pytest.approx(expected_var, rel=0.25)


def test_synthesize_pure_noise():
    scene = build_scene(4000, [], [], sigma2=2.0)
    y = synthesize_signal(scene, seed=3)
    assert y.shape == (4000,)
    assert float(np.mean(y)) == pytest.approx(0.0, abs=3.0 * math.sqrt(2.0 / 4000.0))
    assert float(np.var(y)) == pytest.approx(2.0, rel=0.1)


def test_scene_requires_exactly_one_noise_spec():
    with pytest.raises(ValueError):
        build_scene(8, [], [], snr_db=None, sigma2=None)
    with pytest.raises(ValueError):
        build_scene(8, [1.0], [1.0], snr_db=3.0, sigma2=1.0)
    with pytest.raises(ValueError):
        build_scene(8, [], [], snr_db=3.0)  # zero power needs explicit sigma2


# ---------------------------------------------------------------------------
# log_target structure
# ---------------------------------------------------------------------------


def test_log_target_k0():
    rng = np.random.default_rng(0)
    y = rng.normal(size=8)
    config = SamplerConfig(n_sweeps=10)
    expected = math.log(config.lambda_k) * 0 - math.lgamma(1) - 4.0 * math.log(
        float(y @ y)
    )
    assert log_target(0, [], y, config) == pytest.approx(expected)


def test_log_target_duplicate_guard():
    rng = np.random.default_rng(1)
    y = rng.normal(size=16)
    config = SamplerConfig(n_sweeps=10)
    assert log_target(2, [0.5, 0.5 + 1e-9], y, config) == -math.inf


def _log_target_prior(k: int, config: SamplerConfig) -> float:
    """The terms of the closed-form target that do not involve y."""
    return (
        k * math.log(config.lambda_k)
        - math.lgamma(k + 1)
        - k * math.log(math.pi)
        - k * math.log1p(config.delta2)
    )


def target_q(k, omegas, y, config) -> float:
    """y'P_k y recovered from ``log_target`` by inverting its closed form."""
    lt = log_target(k, omegas, y, config)
    return math.exp(2.0 * (_log_target_prior(k, config) - lt) / y.shape[0])


def reference_log_target(k, omegas, y, config) -> float:
    """The closed-form target with y'D(D'D)^-1 D'y taken from the left
    singular vectors of D, which never forms D'D."""
    u = np.linalg.svd(design_matrix(omegas, y.shape[0]), full_matrices=False)[0]
    proj = u.T @ y
    q = float(y @ y) - config.delta2 / (1.0 + config.delta2) * float(proj @ proj)
    return _log_target_prior(k, config) - 0.5 * y.shape[0] * math.log(q)


# Where the flagship seed-8 chain (noise seed 8, sampler seed 1008) froze for
# its last 4 600 stored draws: six frequencies within 0.065 rad, below the
# Fourier resolution 2 pi / 64.  D'D has condition number 8.8e16, yet its
# Cholesky factorization succeeds.
SEED8_FROZEN_OMEGAS = (
    0.7616662724829831, 0.7277557781679874, 0.7507558285577812,
    0.7926498329032632, 0.7489598888351153, 0.7606909691881604,
    0.7698162404283754, 1.2557266725086185,
)


def test_log_target_seed8_frozen_state():
    y = synthesize_signal(flagship_scene(), seed=8)
    config = SamplerConfig(n_sweeps=10, lambda_k=2.0, delta2=10.0)
    reference = reference_log_target(8, SEED8_FROZEN_OMEGAS, y, config)
    assert reference == pytest.approx(-314.39, abs=0.01)
    got = log_target(8, SEED8_FROZEN_OMEGAS, y, config)
    assert got == pytest.approx(reference, rel=1e-6)


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(3, 8),
    center=st.floats(0.05, math.pi - 0.15),
    offsets=st.lists(st.floats(0.0, 0.1), min_size=8, max_size=8),
    noise_seed=st.integers(0, 99),
    delta2=st.sampled_from([1.0, 10.0, 100.0]),
)
def test_log_target_clustered_frequencies(k, center, offsets, noise_seed, delta2):
    """Frequencies packed within 0.1 rad (n = 64): the target is -inf only
    under the spacing guard.  Otherwise it is finite, also where the Gram
    matrix fails its Cholesky factorization, keeps q in
    [y'y/(1+delta2), y'y] and matches the SVD reference."""
    y = synthesize_signal(flagship_scene(), seed=noise_seed)
    omegas = [center + o for o in offsets[:k]]
    config = SamplerConfig(n_sweeps=10, lambda_k=2.0, delta2=delta2)
    got = log_target(k, omegas, y, config)
    if np.min(np.diff(np.sort(omegas))) < _MIN_FREQ_SPACING:
        assert got == -math.inf
        return
    assert math.isfinite(got)
    yty = float(y @ y)
    q = target_q(k, omegas, y, config)
    assert yty / (1.0 + delta2) * (1 - 1e-12) <= q <= yty * (1 + 1e-12)
    assert got == pytest.approx(
        reference_log_target(k, omegas, y, config), rel=1e-6
    )


# ---------------------------------------------------------------------------
# Move acceptance-ratio antisymmetry
# ---------------------------------------------------------------------------


def test_birth_death_ratio_antisymmetry():
    rng = np.random.default_rng(5)
    for _ in range(50):
        logf0, logf1 = rng.normal(size=2) * 10.0
        qb = float(rng.uniform(0.05, 2.0))
        forward = _birth_log_alpha(logf0, logf1, qb, 0.5, 0.5)
        backward = _death_log_alpha(logf1, logf0, qb, 0.5, 0.5)
        assert forward == pytest.approx(-backward, abs=1e-10)


def test_update_ratio_antisymmetry():
    rng = np.random.default_rng(6)
    for _ in range(50):
        logf0, logf1 = rng.normal(size=2) * 10.0
        q_fwd, q_rev = rng.uniform(0.05, 3.0, size=2)
        forward = _update_log_alpha(logf0, logf1, q_fwd, q_rev)
        backward = _update_log_alpha(logf1, logf0, q_rev, q_fwd)
        assert forward == pytest.approx(-backward, abs=1e-10)


# ---------------------------------------------------------------------------
# Sampler behaviour
# ---------------------------------------------------------------------------


class GridPosterior(NamedTuple):
    """Quadrature reference: p(k | y, k <= k_top) and the probability, given
    k <= k_top, of k = 3 with one frequency inside ``middle``, one below it
    and one above it."""

    pk: np.ndarray
    resolved_middle: float


def quadrature_cells(coarse: float, window=None, fine=None):
    """Midpoints and widths of cells tiling (0, pi): width ``fine`` inside
    ``window`` = (lo, hi), about ``coarse`` elsewhere.  Window ends are cell
    edges."""
    bounds, steps = [0.0, math.pi], [coarse]
    if window is not None:
        bounds, steps = [0.0, window[0], window[1], math.pi], [coarse, fine, coarse]
    edges = [np.zeros(1)]
    for lo, hi, step in zip(bounds[:-1], bounds[1:], steps):
        edges.append(np.linspace(lo, hi, max(1, round((hi - lo) / step)) + 1)[1:])
    edges = np.concatenate(edges)
    return 0.5 * (edges[:-1] + edges[1:]), np.diff(edges)


def _cell_tuples(n_cells: int, k: int):
    """All index tuples i_1 < ... < i_k, in chunks sharing the first index."""
    if k == 1:
        yield np.arange(n_cells).reshape(-1, 1)
        return
    for i in range(n_cells - k + 1):
        rest = n_cells - i - 1
        if k == 2:
            tail = np.arange(i + 1, n_cells).reshape(-1, 1)
        else:
            a, b = np.triu_indices(rest, 1)
            tail = np.column_stack([a, b]) + i + 1
        yield np.column_stack([np.full(len(tail), i), tail])


def grid_posterior_pk(
    y: np.ndarray,
    config: SamplerConfig,
    k_top: int = 2,
    coarse: float = math.pi / 240,
    window=None,
    fine=None,
    middle=(0.66, 0.70),
) -> GridPosterior:
    """Posterior over k <= k_top (at most 3) by midpoint quadrature of the
    marginal target over unordered cell tuples.

    Shares no code with the sampler.  The per-cell column blocks, their 2x2
    Gram blocks and D'y are computed once and assembled per tuple; the
    quadratic form y'D(D'D)^-1 D'y comes from a batched solve, and tuples
    whose rounding bound eps (sum |a_i| ||d_i||)^2 exceeds 1e-9 q are redone
    from a QR of their columns.  Every q must lie in [y'y/(1+delta2), y'y].
    Tuples that repeat a cell are left out (a set of relative measure
    O(cell width)).
    """
    if not 0 <= k_top <= 3:
        raise ValueError("the grid oracle covers k <= 3")
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    yty = float(y @ y)
    shrink = config.delta2 / (1.0 + config.delta2)
    floor = yty / (1.0 + config.delta2)
    eps = np.finfo(float).eps

    centers, widths = quadrature_cells(coarse, window, fine)
    wt = np.outer(centers, np.arange(n))
    blocks = np.stack([np.cos(wt), np.sin(wt)], axis=2)  # (cells, n, 2)
    dty = np.einsum("gti,t->gi", blocks, y)
    gram = np.einsum("gti,htj->ghij", blocks, blocks)
    log_widths = np.log(widths)
    lo, hi = middle

    log_mass = np.full(k_top + 1, -np.inf)
    log_mass[0] = -0.5 * n * math.log(yty)
    log_middle = -np.inf
    for k in range(1, k_top + 1):
        # log p(k) + k log(1/pi) - k log(1+delta2); the k! of the unordered
        # tuples cancels the 1/k! of the Poisson prior.
        const = k * (math.log(config.lambda_k) - math.log(math.pi)
                     - math.log1p(config.delta2))
        for idx in _cell_tuples(centers.size, k):
            m = idx.shape[0]
            g = gram[idx[:, :, None], idx[:, None, :]]  # (m, k, k, 2, 2)
            g = g.transpose(0, 1, 3, 2, 4).reshape(m, 2 * k, 2 * k)
            b = dty[idx].reshape(m, 2 * k)
            coef = np.linalg.solve(g, b[:, :, None])[:, :, 0]
            q = yty - shrink * np.einsum("mi,mi->m", b, coef)
            col_norms = np.sqrt(np.einsum("mii->mi", g))
            bound = eps * np.einsum("mi,mi->m", np.abs(coef), col_norms) ** 2
            redo = ~((q >= floor) & (q <= yty) & (bound <= 1e-9 * q))
            if redo.any():
                cols = blocks[idx[redo]].transpose(0, 2, 1, 3).reshape(-1, n, 2 * k)
                proj = np.einsum("mti,t->mi", np.linalg.qr(cols)[0], y)
                q[redo] = yty - shrink * np.einsum("mi,mi->m", proj, proj)
            assert np.all(q >= floor * (1 - 1e-12)) and np.all(q <= yty * (1 + 1e-12))
            logf = const - 0.5 * n * np.log(q) + log_widths[idx].sum(axis=1)
            log_mass[k] = np.logaddexp(log_mass[k], logsumexp(logf))
            if k == 3:
                c = centers[idx]
                hit = (c[:, 0] < lo) & (c[:, 1] > lo) & (c[:, 1] < hi) & (c[:, 2] > hi)
                if hit.any():
                    log_middle = np.logaddexp(log_middle, logsumexp(logf[hit]))

    top = log_mass.max()
    total = top + math.log(float(np.sum(np.exp(log_mass - top))))
    return GridPosterior(np.exp(log_mass - total), float(np.exp(log_middle - total)))


@pytest.fixture(scope="module")
def noise_chain_setup():
    rng = np.random.default_rng(77)
    y = rng.normal(0.0, 1.0, 8)
    config = SamplerConfig(
        n_sweeps=10**5, burn_in=0, thinning=1, k_max=2, lambda_k=1.0,
        delta2=10.0, seed=123,
    )
    oracle = grid_posterior_pk(y, config).pk
    return y, config, oracle


def test_flat_target_sanity(noise_chain_setup):
    """Pure-noise small case: empirical p(k) matches the grid oracle."""
    y, config, oracle = noise_chain_setup
    samples, _ = run_sampler(y, config)
    counts = np.bincount([s.k for s in samples.samples], minlength=3)
    empirical = counts / counts.sum()
    tv = 0.5 * float(np.abs(empirical - oracle).sum())
    assert tv < 0.05


def set_chain_state(engine, k, omegas):
    """Put the engine's chain at (k, omegas) with its design columns and log target."""
    engine.k = k
    engine.omegas = np.array(omegas, dtype=float)
    engine.cols = design_matrix(omegas, engine.n) if k else np.empty((engine.n, 0))
    engine.logf = log_target(k, omegas, engine.y, engine.config)


def test_invariance_from_oracle_start(noise_chain_setup):
    """A chain started from a draw of the grid posterior stays distributed
    like it (no burn-in needed)."""
    y, config, oracle = noise_chain_setup
    rng = np.random.default_rng(55)
    k0 = int(rng.choice(3, p=oracle))
    omegas0 = tuple(float(w) for w in rng.uniform(0.2, 2.9, size=k0))
    engine = _Engine(y, config, rng)
    set_chain_state(engine, k0, omegas0)
    ks = []
    for _ in range(10**4):
        engine.sweep()
        ks.append(engine.k)
    empirical = np.bincount(ks, minlength=3) / len(ks)
    tv = 0.5 * float(np.abs(empirical - oracle).sum())
    assert tv < 0.05


def test_boundary_k_never_exceeds_kmax():
    scene = reference_scene()
    y = synthesize_signal(scene, seed=11)
    config = SamplerConfig(n_sweeps=2000, k_max=1, seed=2)
    samples, _ = run_sampler(y, config)  # engine checks 0 <= k <= k_max per sweep
    assert max(s.k for s in samples.samples) <= 1


def test_sweep_invariant_checks_raise(monkeypatch):
    """The per-sweep state checks raise (and so survive python -O)."""
    monkeypatch.setattr(_Engine, "_dimension_move", lambda self: None)
    monkeypatch.setattr(_Engine, "_update_pass", lambda self: None)
    y = synthesize_signal(reference_scene(), seed=11)
    engine = _Engine(y, SamplerConfig(n_sweeps=10, k_max=1), np.random.default_rng(0))
    engine.k = 2
    with pytest.raises(RuntimeError, match="k_max"):
        engine.sweep()
    engine.k, engine.omegas = 1, np.array([3.5])
    with pytest.raises(RuntimeError, match=r"outside \(0, pi\)"):
        engine.sweep()


def test_single_sweep_is_deterministic_and_valid():
    scene = reference_scene()
    y = synthesize_signal(scene, seed=4)
    config = SamplerConfig(n_sweeps=10, seed=0)
    states = []
    for _ in range(2):
        engine = _Engine(y, config, np.random.default_rng(9))
        engine.sweep()
        states.append((engine.k, engine.omegas.tolist(), engine.logf))
        assert engine.logf == log_target(engine.k, engine.omegas, y, config)
    assert states[0] == states[1]
    assert math.isfinite(states[0][2])


@pytest.mark.parametrize(
    "y", [np.zeros(32), np.full(32, 0.7), np.r_[np.ones(31), np.nan]],
    ids=["all-zero", "constant", "nan"],
)
def test_run_sampler_rejects_degenerate_observation(y):
    with pytest.raises(DegenerateDataError, match="observation y"):
        run_sampler(y, SamplerConfig(n_sweeps=10))


def test_run_sampler_thinning_and_determinism():
    scene = reference_scene()
    y = synthesize_signal(scene, seed=5)
    config = SamplerConfig(n_sweeps=3000, burn_in=1000, thinning=10, seed=21)
    samples_a, report_a = run_sampler(y, config)
    samples_b, report_b = run_sampler(y, config)
    assert len(samples_a) == (3000 - 1000) // 10
    assert samples_a == samples_b
    assert report_a == report_b
    assert set(report_a) == {"birth", "death", "update"}
    for move in report_a.values():
        assert 0.0 <= move["rate"] <= 1.0
    assert samples_a.meta["seed"] == 21
    assert samples_a.meta["burn_in"] == 1000
