"""Robustified stochastic-EM fit of the summary model to a sample set.

Each iteration alternates an S-step, which redraws every sample's allocation
vector from its conditional posterior with a few independent-MH steps (warm
started from the previous iteration), and an M-step, which re-estimates the
model: component locations and scales by median / interquartile range,
probabilities of presence by presence counts, background intensity by the
count of background labels.  The reported model is the component-wise median
of the last few iterates, with components sorted by mean.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from .allocation import (
    _batch_imh_step,
    _batch_log_completed,
    _batch_propose,
    _log_weight_matrix,
)
from .errors import DegenerateDataError
from .model import (
    THETA_VOLUME,
    AllocationVector,
    GaussianComponent,
    SampleSet,
    SummaryModel,
    _log_gauss_matrix,
    _log_marginal_batch,
)

# 2 * Phi^{-1}(3/4): the interquartile range of a Gaussian in units of sigma.
IQR_TO_SD = float(2.0 * norm.ppf(0.75))

S_MIN = 1e-4  # floor on estimated component standard deviations


@dataclass(frozen=True)
class SemConfig:
    """Settings for one SEM run."""

    n_iterations: int = 50
    init_percentile: float = 0.90
    inner_imh_steps: int = 5
    seed: int = 0
    averaging_window: int = 10

    def __post_init__(self):
        if self.n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        if not (0.0 < self.init_percentile < 1.0):
            raise ValueError("init_percentile must lie in (0, 1)")
        if self.inner_imh_steps < 0:
            raise ValueError("inner_imh_steps must be >= 0")
        if self.averaging_window < 1:
            raise ValueError("averaging_window must be >= 1")


@dataclass(frozen=True)
class SemIterationRecord:
    """State after one SEM iteration."""

    model: SummaryModel
    j_value: float
    component_counts: tuple[int, ...]  # samples allocating each Gaussian label
    background_count: int  # total points allocated to the background


@dataclass(frozen=True)
class SemTrace:
    """Per-iteration records plus the allocations of the final S-step."""

    iterations: tuple[SemIterationRecord, ...]
    final_allocations: tuple[AllocationVector, ...]

    def __len__(self) -> int:
        return len(self.iterations)


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


def robust_location_scale(values, s_min: float = S_MIN) -> tuple[float, float]:
    """Median and IQR-based scale of a batch of values.

    The scale is max(IQR / 1.34898, s_min); the constant is twice the 0.75
    Gaussian quantile, so the estimator is consistent for the standard
    deviation under Gaussian data.  Requires at least two values.
    """
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        raise DegenerateDataError(f"need at least 2 values, got {v.size}")
    mu = float(np.median(v))
    q1, q3 = np.quantile(v, [0.25, 0.75], method="inverted_cdf")
    s = max(float(q3 - q1) / IQR_TO_SD, s_min)
    return mu, s


def choose_L(samples: SampleSet, percentile: float) -> int:
    """Smallest L with empirical P(k <= L) >= percentile."""
    if not (0.0 < percentile < 1.0):
        raise ValueError("percentile must lie in (0, 1)")
    ks = np.array([s.k for s in samples.samples])
    m = len(ks)
    counts = np.bincount(ks)
    cum = 0
    for L, c in enumerate(counts):
        cum += c
        if cum / m >= percentile:
            return L
    return len(counts) - 1  # unreachable: cumulative reaches 1


def initialize_model(
    samples: SampleSet, L: int, s_min: float = S_MIN, min_slot_samples: int = 20
) -> SummaryModel:
    """Initial model from robust per-slot estimates of the sorted frequencies.

    Slots come from the samples with k = L exactly.  When fewer than
    ``min_slot_samples`` such samples exist, the largest k' <= L with enough
    samples is used instead and the missing components are created by
    splitting the widest slot.  Probabilities of presence start at 0.9; the
    background intensity is set so its expected count matches the mean excess
    of k over L.
    """
    ks = np.array([s.k for s in samples.samples])
    lam0 = float(np.maximum(ks - L, 0).mean())
    eta = lam0 / THETA_VOLUME
    if L == 0:
        return SummaryModel((), eta)

    counts = np.bincount(ks, minlength=L + 1)
    kprime = 0
    for threshold in (min_slot_samples, 2):
        eligible = [k for k in range(1, L + 1) if counts[k] >= threshold]
        if eligible:
            kprime = max(eligible)
            break
    if kprime == 0:
        raise DegenerateDataError(
            f"no k' <= L={L} has at least 2 samples; cannot initialize slots"
        )

    slots = np.sort(
        np.array([s.theta for s in samples.samples if s.k == kprime], dtype=float),
        axis=1,
    )
    comps = []
    for j in range(kprime):
        mu, s = robust_location_scale(slots[:, j], s_min)
        comps.append(GaussianComponent(mu, s * s, 0.9))

    while len(comps) < L:  # pad by splitting the widest slot
        widest = max(range(len(comps)), key=lambda i: comps[i].s2)
        c = comps.pop(widest)
        s = math.sqrt(c.s2)
        half = max(s / 2.0, s_min)
        comps.append(GaussianComponent(c.mu - s / 2.0, half * half, 0.9))
        comps.append(GaussianComponent(c.mu + s / 2.0, half * half, 0.9))

    comps.sort(key=lambda c: c.mu)
    return SummaryModel(tuple(comps), eta)


def m_step(
    theta_flat: np.ndarray,
    label_flat: np.ndarray,
    m: int,
    previous: SummaryModel,
    s_min: float = S_MIN,
) -> SummaryModel:
    """Robust M-step given drawn allocations.

    ``theta_flat`` holds the points of all ``m`` samples end to end and
    ``label_flat`` their allocation labels, in the same order.  For each
    Gaussian label: location/scale by median and IQR over the
    allocated values, probability of presence by the fraction of samples
    using the label (clamped to [1/(2M), 1]).  A component allocated in fewer
    than two samples keeps its previous location and scale and gets the
    minimal probability for this iteration.  The background intensity is the
    count of background labels per sample per unit length.
    """
    pi_min = 1.0 / (2.0 * m)
    comps = []
    for l, prev in enumerate(previous.components, start=1):
        vals = theta_flat[label_flat == l]
        used = vals.size  # labels are injective per sample, so this counts samples
        if used < 2:
            comps.append(GaussianComponent(prev.mu, prev.s2, pi_min))
            continue
        mu, s = robust_location_scale(vals, s_min)
        pi = min(max(used / m, pi_min), 1.0)
        comps.append(GaussianComponent(mu, s * s, pi))
    n0_total = int((label_flat == 0).sum())
    eta = n0_total / (m * previous.theta_volume)
    return SummaryModel(tuple(comps), eta, previous.theta_volume)


def criterion(samples: SampleSet, model: SummaryModel) -> float:
    """Mean exact marginal log density of the sample set under the model.

    This is the maximized form of the fitted divergence criterion: SEM drives
    it upward.  Returns -inf if any sample has zero density.
    """
    groups = _group_by_k(samples)
    return _criterion_grouped(groups, len(samples), model)


# ---------------------------------------------------------------------------
# SEM driver
# ---------------------------------------------------------------------------


def _group_by_k(samples: SampleSet) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """k -> (original indices, (n_k, k) array of frequencies)."""
    by_k: dict[int, list[int]] = {}
    for i, s in enumerate(samples.samples):
        by_k.setdefault(s.k, []).append(i)
    out = {}
    for k in sorted(by_k):
        idx = np.array(by_k[k], dtype=np.int64)
        thetas = np.array(
            [samples.samples[i].theta for i in by_k[k]], dtype=float
        ).reshape(len(idx), k)
        out[k] = (idx, thetas)
    return out


def _criterion_grouped(groups, m: int, model: SummaryModel) -> float:
    total = 0.0
    for k, (idx, thetas) in groups.items():
        vals = _log_marginal_batch(thetas, model)
        s = float(vals.sum())
        if s == -np.inf or np.isnan(s):
            return -np.inf
        total += s
    return total / m


def run_sem(samples: SampleSet, config: SemConfig) -> tuple[SummaryModel, SemTrace]:
    """Fit the summary model by the robustified SEM algorithm.

    Chooses L from the posterior of k, initializes from robust slot
    estimates, then alternates S- and M-steps for the configured number of
    iterations.  Allocation chains are warm-started across iterations; their
    cached densities are refreshed whenever the model changes.  The returned
    model is the component-wise median of the last ``averaging_window``
    iterates, sorted by mean.  The run is a pure function of (samples, seed).

    Each iteration's criterion J (``SemIterationRecord.j_value``) is computed
    on one worker thread, beside the next iteration's S-step, and is
    bit-identical to ``criterion(samples, record.model)`` computed inline.  An
    error in it is raised from this call; the worker ends with the call.
    """
    m = len(samples)
    L = choose_L(samples, config.init_percentile)
    model = initialize_model(samples, L)
    rng = np.random.default_rng(config.seed)
    groups = _group_by_k(samples)
    total_points = sum(k * len(idx) for k, (idx, _) in groups.items())

    # Greedy initial allocations under the initial model.
    states: dict[int, list[np.ndarray]] = {}
    for k in sorted(groups):
        _, thetas = groups[k]
        log_n = _log_gauss_matrix(thetas, model)
        log_w = _log_weight_matrix(log_n, model)
        labels, lq = _batch_propose(log_w, model.eta, rng, mode="greedy")
        lc = _batch_log_completed(labels, log_n, model)
        states[k] = [labels, lc, lq]

    pending = []
    with ThreadPoolExecutor(max_workers=1) as pool:
        for r in range(config.n_iterations):
            # S-step
            for k in sorted(groups):
                _, thetas = groups[k]
                labels, lc, lq = states[k]
                log_n = _log_gauss_matrix(thetas, model)
                log_w = _log_weight_matrix(log_n, model)
                if r > 0:
                    # Model changed in the last M-step: recompute the completed
                    # density and re-score the kept labels under a fresh uniform
                    # visit order (a Gibbs refresh of the order variable).
                    lc = _batch_log_completed(labels, log_n, model)
                    _, lq = _batch_propose(
                        log_w, model.eta, rng, mode="follow", follow=labels
                    )
                for _ in range(config.inner_imh_steps):
                    labels, lc, lq, _ = _batch_imh_step(
                        labels, lc, lq, log_w, log_n, model, rng
                    )
                states[k] = [labels, lc, lq]

            # M-step
            theta_flat = np.concatenate(
                [groups[k][1].ravel() for k in sorted(groups)]
            ) if total_points else np.empty(0)
            label_flat = np.concatenate(
                [states[k][0].ravel() for k in sorted(groups)]
            ) if total_points else np.empty(0, dtype=np.int64)
            model = m_step(theta_flat, label_flat, m, model)

            counts = tuple(
                int((label_flat == l).sum()) for l in range(1, L + 1)
            )
            background = int((label_flat == 0).sum())
            if sum(counts) + background != total_points:
                raise RuntimeError(
                    f"S-step lost points: {sum(counts) + background} labelled "
                    f"of {total_points}"
                )
            # J only fills the trace: it runs on the worker beside the next
            # S-step, reading the grouped draws and this immutable model.
            pending.append(
                (model, pool.submit(_criterion_grouped, groups, m, model),
                 counts, background)
            )
        records = [
            SemIterationRecord(it_model, j_value.result(), it_counts, it_background)
            for it_model, j_value, it_counts, it_background in pending
        ]

    # Final estimate: component-wise median over the averaging window.
    window = records[-min(config.averaging_window, len(records)):]
    comps = []
    for l in range(L):
        mu = float(np.median([rec.model.components[l].mu for rec in window]))
        s2 = float(np.median([rec.model.components[l].s2 for rec in window]))
        pi = float(np.median([rec.model.components[l].pi for rec in window]))
        comps.append(GaussianComponent(mu, s2, pi))
    eta = float(np.median([rec.model.eta for rec in window]))
    order = sorted(range(L), key=lambda i: comps[i].mu)
    final = SummaryModel(tuple(comps[i] for i in order), eta)

    # Exported labels must refer to the sorted component order.
    relabel = np.zeros(L + 1, dtype=np.int64)
    for new, old in enumerate(order):
        relabel[old + 1] = new + 1
    final_allocs: list[AllocationVector | None] = [None] * m
    for k in sorted(groups):
        idx, _ = groups[k]
        labels = relabel[states[k][0]] if L else states[k][0]
        for row, i in enumerate(idx):
            final_allocs[i] = AllocationVector(tuple(int(l) for l in labels[row]))
    return final, SemTrace(tuple(records), tuple(final_allocs))
