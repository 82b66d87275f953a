"""Correctness checks of the benchmark and the statistics they rest on.

Every check compares the program's outputs with a computation made apart
from ``transdim`` (a grid quadrature of the posterior, a Cramér–Rao bound, a
known generating model with Monte-Carlo standard errors) or with a property
the method must have (the bundle round-trips through the ``io`` readers,
reruns are byte-identical).  None compares with a stored copy of an earlier
output.  Each check returns ``(ok, detail)``.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy.stats import norm

# Asymptotic standard deviations, in units of sigma / sqrt(n), of the
# estimators the M-step uses on Gaussian data: the median, and the
# interquartile range divided by 2 Phi^-1(3/4).
_Q3 = float(norm.ppf(0.75))
MEDIAN_SE = math.sqrt(math.pi / 2.0)
IQR_SCALE_SE = math.sqrt(2 * 0.1875 - 2 * 0.0625) / (float(norm.pdf(_Q3)) * 2 * _Q3)

N_SE = 5.0  # tolerance of the fit-L6 parameters, in standard errors
ORACLE_N_SE = 4.0  # tolerance of the chain-vs-oracle probabilities
ORACLE_QUADRATURE_ERROR = 0.005  # the grid oracle's own error on a probability
CRAMER_RAO_N_SD = 5.0  # tolerance of the dense-scene frequencies
PRESENCE_MIN = 0.9


# ---------------------------------------------------------------------------
# Effective sample size
# ---------------------------------------------------------------------------


def ess_geyer(x) -> float:
    """Effective sample size of a series by Geyer's (1992) initial monotone
    sequence estimator.

    Sums of adjacent autocovariance pairs are accumulated while they stay
    positive and are forced to be non-increasing.  A constant series has no
    autocorrelation to estimate; its size is returned.  As in Stan, the
    estimate is capped at n log10(n), which strongly antithetic series reach.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    d = x - x.mean()
    g0 = float(d @ d) / n
    if n < 4 or g0 == 0.0:
        return float(n)
    f = np.fft.rfft(d, 2 * n)
    acov = np.fft.irfft(f * np.conj(f), 2 * n)[:n] / n
    pairs = acov[: n - n % 2].reshape(-1, 2).sum(axis=1)
    positive = np.flatnonzero(pairs <= 0.0)
    pairs = pairs[: positive[0] if positive.size else pairs.size]
    pairs = np.minimum.accumulate(pairs)
    return float(n * g0 / max(2.0 * pairs.sum() - g0, g0 / math.log10(n)))


def _ratio_and_se(events, conditions) -> tuple[float, float]:
    """Pooled estimate of P(event | condition) over several chains and its
    standard error, by the delta method with each chain's own ESS."""
    p = sum(e.sum() for e in events) / sum(c.sum() for c in conditions)
    total = sum(c.size for c in conditions)
    var = 0.0
    for e, c in zip(events, conditions):
        z = e - p * c
        var += (c.size / total) ** 2 * float(z.var()) / ess_geyer(z)
    cond_rate = sum(c.sum() for c in conditions) / total
    return float(p), math.sqrt(var) / cond_rate


# ---------------------------------------------------------------------------
# flagship
# ---------------------------------------------------------------------------


def chain_matches_oracle(sample_sets, oracle, middle) -> tuple[bool, str]:
    """The chains agree with the grid quadrature on p(k = 3 | k <= 3) and on
    the resolved-middle probability given k <= 3, within ORACLE_N_SE standard
    errors plus the quadrature's own error."""
    lo, hi = middle
    threes, mids, smalls = [], [], []
    for ss in sample_sets:
        ks = np.array([s.k for s in ss.samples])
        hit = np.zeros(ks.size)
        for i, s in enumerate(ss.samples):
            if s.k == 3:
                a, b, c = sorted(s.theta)
                hit[i] = a < lo < b < hi < c
        threes.append((ks == 3).astype(float))
        mids.append(hit)
        smalls.append((ks <= 3).astype(float))
    p3, se3 = _ratio_and_se(threes, smalls)
    pm, sem = _ratio_and_se(mids, smalls)
    o3 = float(oracle.pk[3] / oracle.pk[: 4].sum())
    om = float(oracle.resolved_middle)
    tol3 = ORACLE_N_SE * se3 + ORACLE_QUADRATURE_ERROR
    tolm = ORACLE_N_SE * sem + ORACLE_QUADRATURE_ERROR
    ok = abs(p3 - o3) <= tol3 and abs(pm - om) <= tolm
    return ok, (
        f"p(k=3|k<=3) chain {p3:.4f} oracle {o3:.4f} tol {tol3:.4f}; "
        f"resolved middle chain {pm:.4f} oracle {om:.4f} tol {tolm:.4f}"
    )


# ---------------------------------------------------------------------------
# dense-scene
# ---------------------------------------------------------------------------


def cramer_rao_sd(scene) -> np.ndarray:
    """Cramér–Rao standard deviations of the scene's frequencies, from the
    Fisher information of (a_cos, a_sin, omega) per sinusoid at the true
    values with the noise variance known."""
    t = np.arange(scene.n, dtype=float)
    cols = []
    for (ac, asn), w in zip(scene.amplitudes, scene.omegas):
        c, s = np.cos(w * t), np.sin(w * t)
        cols += [c, s, t * (asn * c - ac * s)]
    jac = np.column_stack(cols)
    crb = np.linalg.inv(jac.T @ jac / scene.sigma2)
    return np.sqrt(np.diag(crb)[2::3])


def map_k_is_true(sample_sets, true_k: int) -> tuple[bool, str]:
    ks = np.concatenate([[s.k for s in ss.samples] for ss in sample_sets])
    pk = np.bincount(ks) / ks.size
    map_k = int(np.argmax(pk))
    return map_k == true_k, f"MAP k {map_k} (p = {pk[map_k]:.3f}), true k {true_k}"


def components_match_scene(model, scene, sd) -> tuple[bool, str]:
    """Each true frequency has exactly one fitted component with presence
    >= PRESENCE_MIN within CRAMER_RAO_N_SD Cramér–Rao standard deviations."""
    worst = 0.0
    ok = True
    for w, s in zip(scene.omegas, sd):
        near = [
            c for c in model.components
            if c.pi >= PRESENCE_MIN and abs(c.mu - w) <= CRAMER_RAO_N_SD * s
        ]
        ok = ok and len(near) == 1
        if near:
            worst = max(worst, abs(near[0].mu - w) / s)
        else:
            worst = math.inf
    return ok, f"L={model.n_components}, worst offset {worst:.2f} Cramér–Rao sd"


# ---------------------------------------------------------------------------
# fit-L6
# ---------------------------------------------------------------------------


def fit_matches_generator(fitted, generator, m: int) -> tuple[bool, str]:
    """L equals the generating L, and mu, s, pi and eta lie within N_SE
    Monte-Carlo standard errors of the generating model at m draws."""
    if fitted.n_components != generator.n_components:
        return False, f"L={fitted.n_components}, generating L={generator.n_components}"
    worst = ("", 0.0)
    for l, (f, g) in enumerate(zip(fitted.components, generator.components), start=1):
        s = math.sqrt(g.s2)
        n_l = m * g.pi
        z = {
            f"mu_{l}": (f.mu - g.mu) / (MEDIAN_SE * s / math.sqrt(n_l)),
            f"s_{l}": (math.sqrt(f.s2) - s) / (IQR_SCALE_SE * s / math.sqrt(n_l)),
            f"pi_{l}": (f.pi - g.pi) / math.sqrt(g.pi * (1.0 - g.pi) / m),
        }
        for name, v in z.items():
            if abs(v) > abs(worst[1]):
                worst = (name, v)
    z_eta = (fitted.eta - generator.eta) / (
        math.sqrt(generator.lam0 / m) / generator.theta_volume
    )
    if abs(z_eta) > abs(worst[1]):
        worst = ("eta", z_eta)
    ok = abs(worst[1]) <= N_SE
    return ok, f"L={fitted.n_components}, worst {worst[0]} at {worst[1]:+.2f} standard errors"


# ---------------------------------------------------------------------------
# Every workload: the bundle
# ---------------------------------------------------------------------------


def read_bundle(io, bundle: Path) -> dict:
    """Everything the ``io`` readers can read back from a bundle."""
    out = {
        "samples": io.read_sample_set(bundle / "samples.ndjson"),
        "model": io.read_model(bundle / "model.json"),
        "allocations": io.read_allocations(bundle / "allocations.ndjson"),
    }
    if (bundle / "y.csv").exists():
        out["y"] = io.read_y_csv(bundle / "y.csv")
    return out


def bundle_round_trips(io, bundle: Path, scratch: Path) -> tuple[bool, str]:
    """What the readers return, written again by the writers, gives the same
    bytes, and the allocations fit the draws and the model."""
    scratch.mkdir(parents=True, exist_ok=True)
    got = read_bundle(io, bundle)
    io.write_sample_set(scratch / "samples.ndjson", got["samples"])
    io.write_model(scratch / "model.json", got["model"])
    io.write_allocations(scratch / "allocations.ndjson", got["allocations"])
    names = ["samples.ndjson", "samples.ndjson.meta.json", "model.json", "allocations.ndjson"]
    if "y" in got:
        io.write_y_csv(scratch / "y.csv", got["y"])
        names.append("y.csv")
    differ = [n for n in names if (scratch / n).read_bytes() != (bundle / n).read_bytes()]
    L = got["model"].n_components
    draws, allocs = got["samples"].samples, got["allocations"]
    fits = len(draws) == len(allocs) and all(
        len(z) == s.k and all(0 <= l <= L for l in z.z) for s, z in zip(draws, allocs)
    )
    ok = not differ and fits
    return ok, f"{len(names)} files re-written, differing: {differ or 'none'}; allocations fit: {fits}"


def same_bytes(first: Path, second: Path) -> tuple[bool, str]:
    """Two bundles hold the same files with the same bytes."""
    a = sorted(p.name for p in first.iterdir())
    b = sorted(p.name for p in second.iterdir())
    if a != b:
        return False, f"file lists differ: {a} vs {b}"
    differ = [n for n in a if (first / n).read_bytes() != (second / n).read_bytes()]
    return not differ, f"{len(a)} files compared, differing: {differ or 'none'}"
