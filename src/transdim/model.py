"""Variable-dimensional samples and the parametric summary model.

A sample is a pair (k, theta) with k frequencies in (0, pi).  The summary
model is a list of Gaussian components, each present or absent according to
an independent Bernoulli draw with its own probability of presence, plus a
uniform-intensity Poisson background that absorbs points no Gaussian
component explains.  An allocation vector labels each point of a sample with
the component that generated it (label 0 = background); Gaussian labels are
used at most once per sample.

All densities are computed and stored in the log domain; sums of densities
are formed only through log-sum-exp.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EnumerationCapError

THETA_VOLUME = math.pi  # length of the frequency interval (0, pi)

_LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VariableDimSample:
    """One posterior draw: a count k and k frequencies strictly inside (0, pi)."""

    k: int
    theta: tuple[float, ...]

    def __post_init__(self):
        if self.k < 0:
            raise ValueError(f"k must be nonnegative, got {self.k}")
        if len(self.theta) != self.k:
            raise ValueError(f"theta has {len(self.theta)} entries, expected k={self.k}")
        for t in self.theta:
            if not (0.0 < t < THETA_VOLUME):
                raise ValueError(f"frequency {t} outside (0, pi)")


@dataclass(frozen=True)
class SampleSet:
    """A collection of posterior draws plus provenance of the generating chain."""

    samples: tuple[VariableDimSample, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.samples) == 0:
            raise ValueError("SampleSet requires at least one sample")

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class GaussianComponent:
    """One summary component: mean, variance and probability of presence."""

    mu: float
    s2: float
    pi: float

    def __post_init__(self):
        if not self.s2 > 0.0:
            raise ValueError(f"variance must be positive, got {self.s2}")
        if not (0.0 < self.pi <= 1.0):
            raise ValueError(f"probability of presence must lie in (0, 1], got {self.pi}")


@dataclass(frozen=True)
class SummaryModel:
    """L Gaussian components plus a uniform background intensity over (0, pi).

    There is deliberately no constraint on the sum of the probabilities of
    presence: any subset of components may be present simultaneously.
    """

    components: tuple[GaussianComponent, ...]
    eta: float
    theta_volume: float = THETA_VOLUME

    def __post_init__(self):
        if self.eta < 0.0:
            raise ValueError(f"background intensity must be >= 0, got {self.eta}")
        if not self.theta_volume > 0.0:
            raise ValueError("theta_volume must be positive")

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def lam0(self) -> float:
        """Expected number of background points per sample."""
        return self.eta * self.theta_volume


@dataclass(frozen=True)
class AllocationVector:
    """Per-point labels in {0, 1, ..., L}; each Gaussian label appears at most once."""

    z: tuple[int, ...]

    def __post_init__(self):
        positives = [l for l in self.z if l > 0]
        if any(l < 0 for l in self.z):
            raise ValueError("labels must be nonnegative")
        if len(positives) != len(set(positives)):
            raise ValueError(f"Gaussian labels used more than once in {self.z}")

    def __len__(self) -> int:
        return len(self.z)


# ---------------------------------------------------------------------------
# Allocation enumeration
# ---------------------------------------------------------------------------


def count_allocations(k: int, L: int) -> int:
    """Number of admissible allocation vectors of length k with L Gaussian labels.

    Equals sum_j C(k, j) * L!/(L-j)! over j = 0..min(k, L): choose which j
    positions carry Gaussian labels, then assign distinct labels to them.
    """
    if k < 0 or L < 0:
        raise ValueError("k and L must be nonnegative")
    total = 0
    for j in range(min(k, L) + 1):
        total += math.comb(k, j) * math.perm(L, j)
    return total


def enumerate_allocations(k: int, L: int, cap: int = 10**6) -> list[AllocationVector]:
    """All admissible allocation vectors of length k with labels in {0..L}.

    Raises EnumerationCapError if the count exceeds ``cap``; this exact path
    is meant for small instances only (the count grows factorially).
    """
    total = count_allocations(k, L)
    if total > cap:
        raise EnumerationCapError(
            f"{total} admissible allocations for k={k}, L={L} exceeds cap {cap}"
        )
    prefixes: list[tuple[int, ...]] = [()]
    for _ in range(k):
        extended = []
        for prefix in prefixes:
            used = set(l for l in prefix if l > 0)
            extended.append(prefix + (0,))
            for lab in range(1, L + 1):
                if lab not in used:
                    extended.append(prefix + (lab,))
        prefixes = extended
    return [AllocationVector(p) for p in prefixes]


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------


def _norm_logpdf(x: float, mu: float, s2: float) -> float:
    # Scalar on purpose: log_density_completed is the independent reference
    # that the batch kernel below is tested against.
    return -0.5 * (_LOG_2PI + math.log(s2)) - (x - mu) ** 2 / (2.0 * s2)


def _log_gauss_matrix(thetas: np.ndarray, model: SummaryModel) -> np.ndarray:
    """log N(theta_j | mu_l, s2_l) for every point and component, shape (n, k, L)."""
    n, k = thetas.shape
    L = model.n_components
    if L == 0:
        return np.zeros((n, k, 0))
    mus = np.array([c.mu for c in model.components])
    s2s = np.array([c.s2 for c in model.components])
    return (
        -0.5 * (_LOG_2PI + np.log(s2s))[None, None, :]
        - (thetas[:, :, None] - mus[None, None, :]) ** 2 / (2.0 * s2s)[None, None, :]
    )


def _validate_allocation(x: VariableDimSample, z: AllocationVector, L: int) -> None:
    if len(z) != x.k:
        raise ValueError(f"allocation length {len(z)} does not match k={x.k}")
    if any(l > L for l in z.z):
        raise ValueError(f"allocation {z.z} uses a label above L={L}")


def log_density_completed(
    x: VariableDimSample, z: AllocationVector, model: SummaryModel
) -> float:
    """Log joint density of a sample and its allocation under the model.

    The value is log of

        (1/k!) * exp(-Lam0) * Lam0^n0 * prod_{j: z_j=0} 1/|Theta|
              * prod_{j: z_j>0} N(theta_j | mu_{z_j}, s2_{z_j})
              * prod_l pi_l^{xi_l} (1 - pi_l)^{1 - xi_l},

    where Lam0 = eta * |Theta|, n0 counts background labels and xi_l indicates
    whether label l appears in z.  With eta = 0 and no background labels this
    is the pure Bernoulli-Gaussian completed density.  Returns -inf whenever a
    background label occurs while eta = 0, or a component with pi = 1 is
    absent.  The convention 0^0 = 1 applies to Lam0^n0.
    """
    L = model.n_components
    _validate_allocation(x, z, L)
    lam0 = model.lam0
    n0 = sum(1 for l in z.z if l == 0)

    out = -math.lgamma(x.k + 1) - lam0
    if n0 > 0:
        if lam0 == 0.0:
            return -math.inf
        out += n0 * (math.log(lam0) - math.log(model.theta_volume))
    present = set(l for l in z.z if l > 0)
    for j, lab in enumerate(z.z):
        if lab > 0:
            comp = model.components[lab - 1]
            out += _norm_logpdf(x.theta[j], comp.mu, comp.s2)
    for l, comp in enumerate(model.components, start=1):
        if l in present:
            out += math.log(comp.pi)
        else:
            if comp.pi == 1.0:
                return -math.inf
            out += math.log1p(-comp.pi)
    return out


def _subset_log_priors(model: SummaryModel) -> np.ndarray:
    """Log Bernoulli prior of every presence subset, indexed by bitmask."""
    L = model.n_components
    out = np.zeros(1 << L)
    for l, comp in enumerate(model.components):
        lp = math.log(comp.pi)
        lq = math.log1p(-comp.pi) if comp.pi < 1.0 else -math.inf
        bit = 1 << l
        masks = np.arange(1 << L)
        out += np.where(masks & bit, lp, lq)
    return out


def _log_marginal_batch(thetas: np.ndarray, model: SummaryModel) -> np.ndarray:
    """Log marginal density for a batch of same-length samples.

    ``thetas`` has shape (n, k).  The sum over admissible allocations is
    computed exactly by dynamic programming over subsets of used Gaussian
    labels, in the log domain.  After j points, g[i, mask] is the log density
    of sample i's first j points summed over the allocations that use
    exactly the Gaussian labels in ``mask``.  Viewed as (n, 2, ..., 2), bit l
    of the mask is axis L - l, so giving point j label l is one ``logaddexp``
    over the half of the table that has bit l.
    Cost: n * k * L * 2^(L-1) log-add-exps in k * L numpy calls.  Labels are
    added in ascending order, so every mask accumulates its terms in the
    same order as the per-mask loop kept in the tests, and the result is
    bit-identical to it.  A row is -inf when no allocation has positive
    density, e.g. k > L with eta = 0.
    """
    n, k = thetas.shape
    L = model.n_components
    lam0 = model.lam0
    log_eta = math.log(model.eta) if model.eta > 0.0 else -math.inf

    if L == 0:
        core = k * log_eta if k > 0 else 0.0
        return np.full(n, core - lam0 - math.lgamma(k + 1))

    log_n = _log_gauss_matrix(thetas, model)

    g = np.full((n, 1 << L), -np.inf)
    g[:, 0] = 0.0
    bits = (n,) + (2,) * L
    column = (n,) + (1,) * (L - 1)
    for j in range(k):
        new = g + log_eta  # extend every partial allocation with a background label
        g_bits = g.reshape(bits)
        new_bits = new.reshape(bits)
        for l in range(L):
            axes = (slice(None),) * (L - l)
            has = new_bits[axes + (1,)]  # a view: written in place
            np.logaddexp(
                has, g_bits[axes + (0,)] + log_n[:, j, l].reshape(column), out=has
            )
        g = new

    g = g + _subset_log_priors(model)[None, :]
    top = np.max(g, axis=1)
    with np.errstate(invalid="ignore"):
        total = np.where(
            np.isfinite(top),
            top + np.log(np.sum(np.exp(g - top[:, None]), axis=1)),
            -np.inf,
        )
    return total - lam0 - math.lgamma(k + 1)


# ---------------------------------------------------------------------------
# Generative sampling
# ---------------------------------------------------------------------------


def simulate_sample_set(
    model: SummaryModel, m: int, rng: np.random.Generator
) -> SampleSet:
    """Draw m samples from the model's generative process.

    Each Gaussian component contributes a point with its probability of
    presence; the background contributes Poisson(Lam0) uniform points; the
    points are arranged in uniformly random order.  Gaussian draws falling
    outside (0, pi) are redrawn, so the result is exact only when component
    mass outside the interval is negligible.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    samples = []
    for _ in range(m):
        points: list[float] = []
        for comp in model.components:
            if rng.random() < comp.pi:
                v = rng.normal(comp.mu, math.sqrt(comp.s2))
                while not (0.0 < v < model.theta_volume):
                    v = rng.normal(comp.mu, math.sqrt(comp.s2))
                points.append(v)
        n0 = rng.poisson(model.lam0)
        points.extend(rng.uniform(0.0, model.theta_volume, size=n0))
        order = rng.permutation(len(points))
        theta = tuple(float(points[i]) for i in order)
        samples.append(VariableDimSample(len(theta), theta))
    return SampleSet(tuple(samples), meta={"generator": "summary-model", "m": m})
