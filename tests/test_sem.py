"""SEM estimator: initialization, robust estimates, M-step, criterion, driver."""
import itertools
import math
import threading
import time

import numpy as np
import pytest

from transdim import sem

from transdim import (
    AllocationVector,
    DegenerateDataError,
    GaussianComponent,
    SampleSet,
    SemConfig,
    SummaryModel,
    VariableDimSample,
    choose_L,
    criterion,
    initialize_model,
    m_step,
    robust_location_scale,
    run_sem,
    simulate_sample_set,
)
from transdim.sem import IQR_TO_SD, S_MIN


def comp(mu, s2=1.0, pi=0.5):
    return GaussianComponent(mu, s2, pi)


def sample_set_from_ks(k_probs: dict, m: int, seed=0) -> SampleSet:
    """Sample set whose k histogram matches the given proportions exactly."""
    rng = np.random.default_rng(seed)
    samples = []
    for k, p in k_probs.items():
        for _ in range(round(p * m)):
            theta = tuple(rng.uniform(0.1, 3.0, size=k))
            samples.append(VariableDimSample(k, theta))
    return SampleSet(tuple(samples))


# ---------------------------------------------------------------------------
# choose_L
# ---------------------------------------------------------------------------


def test_choose_l_ninety_percent_crossing():
    ss = sample_set_from_ks({2: 0.595, 3: 0.308, 4: 0.078, 5: 0.019}, 1000)
    assert choose_L(ss, 0.90) == 3  # cumulative 0.903 at k=3


def test_choose_l_all_empty():
    ss = SampleSet(tuple(VariableDimSample(0, ()) for _ in range(10)))
    assert choose_L(ss, 0.90) == 0


def test_choose_l_half_half():
    ss = sample_set_from_ks({1: 0.5, 2: 0.5}, 100)
    assert choose_L(ss, 0.9) == 2


# ---------------------------------------------------------------------------
# robust_location_scale
# ---------------------------------------------------------------------------


def test_robust_scale_constant_is_quartile_spread():
    q = 0.6745  # Phi^{-1}(0.75) to 4 decimals
    mu, s = robust_location_scale([-q, 0.0, q])
    assert mu == 0.0
    assert s == pytest.approx(1.0, abs=1e-3)
    assert IQR_TO_SD == pytest.approx(1.34898, abs=1e-5)


def test_robust_scale_floors_constant_input():
    mu, s = robust_location_scale([0.5, 0.5, 0.5])
    assert mu == 0.5
    assert s == S_MIN


def test_robust_requires_two_values():
    with pytest.raises(DegenerateDataError):
        robust_location_scale([1.0])


def test_robust_sampling_calibration():
    rng = np.random.default_rng(123)
    data = rng.normal(0.68, 0.02, size=10**5)
    mu, s = robust_location_scale(data)
    assert mu == pytest.approx(0.68, rel=0.02)
    assert s == pytest.approx(0.02, rel=0.02)


# ---------------------------------------------------------------------------
# initialize_model
# ---------------------------------------------------------------------------


def test_initialize_all_samples_identical():
    ss = SampleSet(tuple(VariableDimSample(1, (0.5,)) for _ in range(30)))
    m = initialize_model(ss, 1)
    assert m.components[0].mu == 0.5
    assert math.sqrt(m.components[0].s2) == S_MIN
    assert m.eta == 0.0


def test_initialize_recovers_sorted_slots():
    rng = np.random.default_rng(4)
    true = SummaryModel(
        (comp(0.8, 0.03**2, 1.0), comp(1.6, 0.05**2, 1.0), comp(2.4, 0.02**2, 1.0)),
        eta=0.0,
    )
    ss = simulate_sample_set(true, 10**4, rng)
    m = initialize_model(ss, 3)
    mus = [c.mu for c in m.components]
    sds = [math.sqrt(c.s2) for c in m.components]
    assert mus == pytest.approx([0.8, 1.6, 2.4], abs=0.01)
    # IQR-based slot scales recover the generating spread within 5%
    assert sds == pytest.approx([0.03, 0.05, 0.02], rel=0.05)
    assert all(c.pi == 0.9 for c in m.components)


def test_initialize_background_intensity_from_excess():
    samples = [VariableDimSample(3, (0.5, 1.0, 1.5))] * 25
    samples += [VariableDimSample(1, (1.0,))] * 25
    ss = SampleSet(tuple(samples))
    m = initialize_model(ss, 1)
    # mean excess over L=1 is (25*2 + 25*0)/50 = 1.0
    assert m.lam0 == pytest.approx(1.0, abs=1e-12)


def test_initialize_pads_missing_components_by_splitting():
    # only k=1 samples are plentiful; requesting L=2 splits the single slot
    rng = np.random.default_rng(8)
    samples = [VariableDimSample(1, (float(t),)) for t in rng.normal(1.5, 0.1, 100)]
    samples += [VariableDimSample(2, (1.4, 1.6))] * 3  # too few to define slots
    ss = SampleSet(tuple(samples))
    m = initialize_model(ss, 2)
    assert m.n_components == 2
    assert m.components[0].mu < m.components[1].mu


# ---------------------------------------------------------------------------
# m_step
# ---------------------------------------------------------------------------


def m_step_on(samples, allocations, prev):
    """m_step on per-sample allocations, flattened as run_sem flattens them."""
    theta_flat = np.array([t for x in samples.samples for t in x.theta], dtype=float)
    label_flat = np.array([l for z in allocations for l in z.z], dtype=np.int64)
    return m_step(theta_flat, label_flat, len(samples), prev)


def test_m_step_presence_counting():
    samples = SampleSet(
        (
            VariableDimSample(1, (1.0,)),
            VariableDimSample(1, (1.2,)),
            VariableDimSample(0, ()),
            VariableDimSample(0, ()),
        )
    )
    allocations = [
        AllocationVector((1,)),
        AllocationVector((1,)),
        AllocationVector(()),
        AllocationVector(()),
    ]
    prev = SummaryModel((comp(1.0, 0.01, 0.9),), eta=0.0)
    fitted = m_step_on(samples, allocations, prev)
    assert fitted.components[0].pi == pytest.approx(0.5)


def test_m_step_background_intensity():
    # 40 background labels across 1000 samples: eta = 40/(1000*pi)
    rng = np.random.default_rng(2)
    samples = []
    allocations = []
    for i in range(1000):
        if i < 40:
            samples.append(VariableDimSample(2, (1.0, float(rng.uniform(0.2, 3.0)))))
            allocations.append(AllocationVector((1, 0)))
        else:
            samples.append(VariableDimSample(1, (float(rng.normal(1.0, 0.1)),)))
            allocations.append(AllocationVector((1,)))
    prev = SummaryModel((comp(1.0, 0.01, 0.9),), eta=0.1)
    fitted = m_step_on(SampleSet(tuple(samples)), allocations, prev)
    assert fitted.eta == pytest.approx(40.0 / (1000.0 * math.pi), abs=1e-12)
    assert fitted.eta == pytest.approx(0.01273, abs=1e-4)
    assert fitted.lam0 == pytest.approx(0.04, abs=1e-10)


def test_m_step_agrees_with_exact_argmax_on_clean_data():
    """With fixed allocations and data generated from the model itself, the
    robust estimates match the closed-form completed-likelihood argmax
    (sample mean / std, presence fraction, background count)."""
    rng = np.random.default_rng(17)
    mu_true, s_true, pi_true, lam0_true = 1.5, 0.08, 0.7, 0.4
    m = 10**4
    samples, allocations = [], []
    for _ in range(m):
        theta, z = [], []
        if rng.random() < pi_true:
            theta.append(rng.normal(mu_true, s_true))
            z.append(1)
        for _ in range(rng.poisson(lam0_true)):
            theta.append(rng.uniform(0.0, math.pi))
            z.append(0)
        order = rng.permutation(len(theta))
        samples.append(
            VariableDimSample(len(theta), tuple(float(theta[i]) for i in order))
        )
        allocations.append(AllocationVector(tuple(int(z[i]) for i in order)))
    ss = SampleSet(tuple(samples))
    prev = SummaryModel((comp(1.0, 0.01, 0.5),), eta=0.01)
    fitted = m_step_on(ss, allocations, prev)

    flat_vals = [t for x, zz in zip(samples, allocations)
                 for t, l in zip(x.theta, zz.z) if l == 1]
    exact_mu = float(np.mean(flat_vals))
    exact_s = float(np.std(flat_vals))
    exact_pi = len(flat_vals) / m
    exact_eta = sum(1 for zz in allocations for l in zz.z if l == 0) / (m * math.pi)

    assert fitted.components[0].mu == pytest.approx(exact_mu, rel=0.05)
    assert math.sqrt(fitted.components[0].s2) == pytest.approx(exact_s, rel=0.05)
    assert fitted.components[0].pi == pytest.approx(exact_pi, rel=1e-12)
    assert fitted.eta == pytest.approx(exact_eta, rel=1e-12)


def test_m_step_starved_component_keeps_previous_location():
    samples = SampleSet(tuple(VariableDimSample(0, ()) for _ in range(10)))
    allocations = [AllocationVector(()) for _ in range(10)]
    prev = SummaryModel((comp(1.2, 0.04, 0.8),), eta=0.0)
    fitted = m_step_on(samples, allocations, prev)
    assert fitted.components[0].mu == 1.2
    assert fitted.components[0].s2 == 0.04
    assert fitted.components[0].pi == pytest.approx(1.0 / 20.0)


# ---------------------------------------------------------------------------
# criterion
# ---------------------------------------------------------------------------


def test_criterion_single_sample_value():
    m = SummaryModel((comp(0.0, 1.0, 1.0),), eta=0.0)
    ss = SampleSet((VariableDimSample(1, (1.0,)),))
    # log N(1 | 0, 1) = -0.9189 - 0.5
    assert criterion(ss, m) == pytest.approx(-0.9189 - 0.5, abs=1e-4)


def test_criterion_duplication_invariance():
    m = SummaryModel((comp(1.0, 0.04, 0.6), comp(2.0, 0.09, 0.4)), eta=0.2)
    rng = np.random.default_rng(3)
    ss = simulate_sample_set(m, 50, rng)
    doubled = SampleSet(ss.samples + ss.samples)
    assert criterion(doubled, m) == pytest.approx(criterion(ss, m), rel=1e-12)


def test_criterion_zero_density_is_minus_inf():
    m = SummaryModel((comp(1.0, 0.04, 0.6),), eta=0.0)
    ss = SampleSet((VariableDimSample(2, (1.0, 1.1)),))
    assert criterion(ss, m) == -math.inf


def test_criterion_row_batches_leave_j_unchanged(monkeypatch):
    """The exact DP runs on batches of CRITERION_ROWS samples; its rows are
    independent, so any batch size gives the same J bit for bit."""
    m = SummaryModel(
        (comp(0.6, 0.03**2, 0.9), comp(1.4, 0.05**2, 0.7), comp(2.3, 0.04**2, 1.0)),
        eta=0.05,
    )
    ss = simulate_sample_set(m, 400, np.random.default_rng(52))
    whole = criterion(ss, m)
    assert math.isfinite(whole)
    for rows in (1, 7, 64):
        monkeypatch.setattr(sem, "CRITERION_ROWS", rows)
        assert criterion(ss, m) == whole


# ---------------------------------------------------------------------------
# run_sem
# ---------------------------------------------------------------------------


def test_run_sem_determinism_and_conservation():
    true = SummaryModel((comp(1.0, 0.05**2, 0.8),), eta=0.02)
    ss = simulate_sample_set(true, 400, np.random.default_rng(21))
    cfg = SemConfig(n_iterations=8, seed=5, averaging_window=3)
    model_a, trace_a = run_sem(ss, cfg)
    model_b, trace_b = run_sem(ss, cfg)
    assert model_a == model_b
    assert trace_a == trace_b
    assert len(trace_a) == 8
    # Labels are conserved inside run_sem (test_run_sem_lost_points_raise);
    # the exported allocations give every point of every sample a label.
    assert [len(z) for z in trace_a.final_allocations] == [s.k for s in ss.samples]


def test_run_sem_recovers_single_component_quickly():
    true = SummaryModel((comp(1.0, 0.05**2, 0.8),), eta=0.01)
    ss = simulate_sample_set(true, 3000, np.random.default_rng(31))
    model, trace = run_sem(ss, SemConfig(n_iterations=15, seed=7, averaging_window=5))
    assert model.n_components == 1
    c = model.components[0]
    assert c.mu == pytest.approx(1.0, abs=0.01)
    assert math.sqrt(c.s2) == pytest.approx(0.05, rel=0.2)
    assert c.pi == pytest.approx(0.8, rel=0.1)


def test_final_allocations_align_with_sorted_components():
    true = SummaryModel(
        (comp(0.8, 0.05**2, 0.7), comp(2.0, 0.08**2, 0.5)), eta=0.02
    )
    ss = simulate_sample_set(true, 3000, np.random.default_rng(41))
    model, trace = run_sem(ss, SemConfig(n_iterations=12, seed=3, averaging_window=4))
    assert [c.mu for c in model.components] == sorted(c.mu for c in model.components)
    for l, c in enumerate(model.components, start=1):
        vals = [
            t
            for x, z in zip(ss.samples, trace.final_allocations)
            for t, lab in zip(x.theta, z.z)
            if lab == l
        ]
        assert np.median(vals) == pytest.approx(c.mu, abs=0.05)


def test_run_sem_handles_all_empty_samples():
    ss = SampleSet(tuple(VariableDimSample(0, ()) for _ in range(20)))
    model, trace = run_sem(ss, SemConfig(n_iterations=3, seed=0))
    assert model.n_components == 0
    assert model.eta == 0.0
    assert trace.iterations[-1].j_value == pytest.approx(0.0)


def run_bounded(fn, timeout=120.0):
    """Run fn() on a helper thread and fail if it has not returned within
    ``timeout`` seconds; re-raise what it raised."""
    outcome = {}

    def target():
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # handed to the test thread below
            outcome["error"] = exc

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(timeout)
    assert not runner.is_alive(), f"call did not finish within {timeout} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def three_component_draws():
    true = SummaryModel(
        (comp(0.6, 0.03**2, 0.9), comp(1.4, 0.05**2, 0.7), comp(2.3, 0.04**2, 0.8)),
        eta=0.05,
    )
    return simulate_sample_set(true, 400, np.random.default_rng(51))


def test_run_sem_j_values_equal_inline_criterion():
    ss = three_component_draws()
    threads_before = threading.active_count()
    _, trace = run_bounded(
        lambda: run_sem(ss, SemConfig(n_iterations=6, seed=2, averaging_window=3))
    )
    assert threading.active_count() == threads_before  # the J worker has ended
    assert trace.iterations[0].model.n_components == 3
    for rec in trace.iterations:
        assert rec.j_value == criterion(ss, rec.model)


def test_run_sem_raises_criterion_error_and_leaves_no_thread(monkeypatch):
    ss = three_component_draws()
    real = sem._criterion_grouped
    calls = itertools.count(1)

    def fails_on_third_call(*args):
        if next(calls) == 3:
            raise ArithmeticError("injected criterion failure")
        return real(*args)

    monkeypatch.setattr(sem, "_criterion_grouped", fails_on_third_call)
    threads_before = threading.active_count()
    with pytest.raises(ArithmeticError, match="injected criterion failure"):
        run_bounded(lambda: run_sem(ss, SemConfig(n_iterations=6, seed=2)))
    assert threading.active_count() == threads_before


def worker_slowed(monkeypatch, on_caller):
    """Make J sleep 0.2 s on every thread but the one that calls run_sem,
    and run ``on_caller(groups, m, model)`` for the J calls made there.
    Returns a function that runs run_sem on a helper thread, and the list of
    threads each J call ran on."""
    real = sem._criterion_grouped
    caller = []
    ran_on = []

    def criterion_grouped(groups, m, model):
        me = threading.current_thread()
        ran_on.append(me)
        if me is caller[0]:
            return on_caller(groups, m, model)
        time.sleep(0.2)
        return real(groups, m, model)

    monkeypatch.setattr(sem, "_criterion_grouped", criterion_grouped)

    def fit(ss, config):
        def call():
            caller.append(threading.current_thread())
            return run_sem(ss, config)

        return run_bounded(call)

    return fit, caller, ran_on


def test_run_sem_caller_finishes_j_queue(monkeypatch):
    """With the worker slowed, the thread that called run_sem takes the J
    calls the worker has not started; every J still equals the inline
    criterion, in iteration order."""
    ss = three_component_draws()
    fit, caller, ran_on = worker_slowed(monkeypatch, sem._criterion_grouped)
    threads_before = threading.active_count()
    _, trace = fit(ss, SemConfig(n_iterations=12, seed=2, averaging_window=3))
    assert threading.active_count() == threads_before
    assert len(ran_on) == 12
    on_caller = sum(t is caller[0] for t in ran_on)
    assert 0 < on_caller < 12
    monkeypatch.undo()
    assert [rec.j_value for rec in trace.iterations] == [
        criterion(ss, rec.model) for rec in trace.iterations
    ]


def test_run_sem_raises_inline_criterion_error(monkeypatch):
    ss = three_component_draws()

    def fails(*args):
        raise ArithmeticError("injected inline criterion failure")

    fit, caller, ran_on = worker_slowed(monkeypatch, fails)
    threads_before = threading.active_count()
    with pytest.raises(ArithmeticError, match="injected inline criterion failure"):
        fit(ss, SemConfig(n_iterations=6, seed=2))
    assert any(t is caller[0] for t in ran_on)
    assert threading.active_count() == threads_before


def test_run_sem_lost_points_raise(monkeypatch):
    """The label-conservation check raises (and so survives python -O)."""
    ss = three_component_draws()
    real = sem._s_step

    def label_out_of_range(*args, **kwargs):
        out = real(*args, **kwargs)
        return (np.full_like(out[0], 99),) + out[1:]

    monkeypatch.setattr(sem, "_s_step", label_out_of_range)
    with pytest.raises(RuntimeError, match="lost points"):
        run_bounded(
            lambda: run_sem(ss, SemConfig(n_iterations=1, inner_imh_steps=1))
        )


def test_sem_config_validation():
    with pytest.raises(ValueError):
        SemConfig(n_iterations=0)
    with pytest.raises(ValueError):
        SemConfig(init_percentile=1.0)
