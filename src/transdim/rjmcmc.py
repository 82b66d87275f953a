"""Noisy-sinusoid synthesis and a reversible-jump sampler over (k, omegas).

The observation model is y = D a + e with D the [cos, sin] design matrix of k
radial frequencies, e white Gaussian noise.  Amplitudes carry a Gaussian
shrinkage prior scaled by the noise (variance sigma2 * delta2 * (D'D)^-1),
the noise variance carries the scale-invariant prior 1/sigma2, frequencies
are uniform on (0, pi) and k has a truncated Poisson prior.  Amplitudes and
noise variance integrate out analytically, leaving the marginal target

    log p(k, w | y) = log p(k) + k log(1/pi) - k log(1 + delta2)
                      - (N/2) log(y' P_k y) + log p(delta2),

with P_k = I - (delta2/(1+delta2)) D (D'D)^-1 D'.  One sweep applies a
birth-or-death move, a Metropolis update of every frequency, and optionally
a delta2 update; birth and update moves mix a uniform draw with a
piecewise-constant proposal built from the periodogram of y.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import DegenerateDataError
from .model import SampleSet, VariableDimSample

_LOG_PI = math.log(math.pi)
# Rejects exact and near-exact duplicates, for which D'D is singular.  It
# cannot see a cluster of distinct frequencies packed below the Fourier
# resolution; _quadratic_form detects those from the Cholesky factor.
_MIN_FREQ_SPACING = 1e-6
# Relative rounding-error bound on y'P y above which the Gram/Cholesky
# evaluation is replaced by a QR of the design columns.  The bound is only
# computed when (min L_ii / max L_ii)^2 falls below _GRAM_DIAG_RATIO; above
# it the measured Cholesky error on clustered designs stays under 1e-10.
_GRAM_ERROR_TOL = 1e-7
_GRAM_DIAG_RATIO = 1e-3
_EPS = float(np.finfo(float).eps)

# Inverse-gamma prior on delta2 when it is sampled.
_DELTA2_PRIOR_SHAPE = 2.0
_DELTA2_PRIOR_SCALE = 100.0


# ---------------------------------------------------------------------------
# Scene and configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SinusoidScene:
    """A synthetic observation: k sinusoids in white Gaussian noise.

    Amplitudes are stored as linear coefficient pairs (a_cos, a_sin) per
    sinusoid.  ``sigma2`` is the noise variance; when the scene is built from
    a target SNR it satisfies snr_db = 10 log10(||D a||^2 / (n sigma2)).
    """

    n: int
    amplitudes: tuple[tuple[float, float], ...]
    omegas: tuple[float, ...]
    snr_db: float | None
    sigma2: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if len(self.amplitudes) != len(self.omegas):
            raise ValueError("amplitudes and omegas must have equal length")
        for w in self.omegas:
            if not (0.0 < w < math.pi):
                raise ValueError(f"frequency {w} outside (0, pi)")
        if not self.sigma2 > 0.0:
            raise ValueError("sigma2 must be positive")
        if self.snr_db is not None:
            d = design_matrix(self.omegas, self.n)
            power = float(np.sum((d @ self.coefficient_vector()) ** 2))
            implied = power / (self.n * 10.0 ** (self.snr_db / 10.0))
            if not math.isclose(implied, self.sigma2, rel_tol=1e-9):
                raise ValueError("sigma2 inconsistent with the declared SNR")

    @property
    def k(self) -> int:
        return len(self.omegas)

    def coefficient_vector(self) -> np.ndarray:
        """Interleaved (a_cos, a_sin) coefficients, shape (2k,)."""
        return np.array(
            [v for pair in self.amplitudes for v in pair], dtype=float
        )


def build_scene(
    n: int,
    amplitudes,
    omegas,
    snr_db: float | None = None,
    sigma2: float | None = None,
) -> SinusoidScene:
    """Construct a scene, deriving the noise variance from the target SNR.

    Amplitude entries may be scalars (phase zero, i.e. the pair (a, 0)) or
    (a_cos, a_sin) pairs.  Exactly one of ``snr_db`` and ``sigma2`` must be
    given; a scene with zero signal power requires an explicit ``sigma2``.
    """
    pairs = []
    for a in amplitudes:
        if np.isscalar(a):
            pairs.append((float(a), 0.0))
        else:
            ac, asn = a
            pairs.append((float(ac), float(asn)))
    pairs = tuple(pairs)
    omegas = tuple(float(w) for w in omegas)

    if (snr_db is None) == (sigma2 is None):
        raise ValueError("give exactly one of snr_db and sigma2")
    if sigma2 is None:
        d = design_matrix(omegas, n)
        power = float(np.sum((d @ np.array([v for p in pairs for v in p])) ** 2))
        if power <= 0.0:
            raise ValueError("zero signal power: specify sigma2 directly")
        sigma2 = power / (n * 10.0 ** (snr_db / 10.0))
    return SinusoidScene(n, pairs, omegas, snr_db, float(sigma2))


@dataclass(frozen=True)
class SamplerConfig:
    """Sampler settings.  ``rw_scale`` defaults to 1/(2n) and
    ``periodogram_grid`` to 4n when left as None."""

    n_sweeps: int
    burn_in: int = 0
    thinning: int = 1
    k_max: int = 20
    lambda_k: float = 2.0
    delta2: float = 10.0
    sample_delta2: bool = False
    rw_scale: float | None = None
    periodogram_grid: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not (self.n_sweeps > self.burn_in >= 0):
            raise ValueError("need n_sweeps > burn_in >= 0")
        if self.thinning < 1:
            raise ValueError("thinning must be >= 1")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if self.lambda_k <= 0.0:
            raise ValueError("lambda_k must be positive")
        if self.delta2 <= 0.0:
            raise ValueError("delta2 must be positive")
        if self.rw_scale is not None and self.rw_scale <= 0.0:
            raise ValueError("rw_scale must be positive")
        if self.periodogram_grid is not None and self.periodogram_grid < 2:
            raise ValueError("periodogram_grid must be >= 2")


# ---------------------------------------------------------------------------
# Design matrix, signal synthesis, marginal target
# ---------------------------------------------------------------------------


def design_matrix(omegas, n: int) -> np.ndarray:
    """The n x 2k matrix with column pairs (cos(w_j t), sin(w_j t)), t = 0..n-1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    omegas = np.asarray(omegas, dtype=float)
    for w in omegas:
        if not (0.0 < w < math.pi):
            raise ValueError(f"frequency {w} outside (0, pi)")
    t = np.arange(n)
    d = np.empty((n, 2 * omegas.size))
    for j, w in enumerate(omegas):
        wt = w * t
        d[:, 2 * j] = np.cos(wt)
        d[:, 2 * j + 1] = np.sin(wt)
    return d


def synthesize_signal(scene: SinusoidScene, seed: int) -> np.ndarray:
    """Draw y = D a + e with e iid N(0, sigma2); deterministic given the seed."""
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, math.sqrt(scene.sigma2), scene.n)
    if scene.k == 0:
        return noise
    d = design_matrix(scene.omegas, scene.n)
    return d @ scene.coefficient_vector() + noise


def _log_invgamma_pdf(x: float, shape: float, scale: float) -> float:
    return (
        shape * math.log(scale)
        - math.lgamma(shape)
        - (shape + 1.0) * math.log(x)
        - scale / x
    )


def _quadratic_form(
    cols: np.ndarray, y: np.ndarray, yty: float, delta2: float
) -> float | None:
    """q = y'y - (delta2/(1+delta2)) y'D(D'D)^-1 D'y, or None when the Gram
    matrix D'D fails its Cholesky factorization.

    The Cholesky route forms D'D and so squares the condition number of D.
    A small diagonal ratio of the factor flags a near-singular design
    (clusters of frequencies below the Fourier resolution); there the
    rounding error on y'D(D'D)^-1 D'y is bounded to first order by
    eps * (sum_i |a_i| ||d_i||)^2, with a the least-squares coefficients.
    When that bound exceeds _GRAM_ERROR_TOL * q, or q leaves its analytic
    range, q is re-evaluated from a QR factorization of D.  The result
    always lies in [y'y/(1+delta2), y'y].
    """
    g = cols.T @ cols
    try:
        lo = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return None
    shrink = delta2 / (1.0 + delta2)
    floor = yty / (1.0 + delta2)
    w = solve_triangular(lo, cols.T @ y, lower=True, check_finite=False)
    q = yty - shrink * float(w @ w)
    if floor <= q <= yty:
        diag = lo.diagonal().tolist()  # list min/max: cheaper than numpy at this size
        if min(diag) ** 2 >= _GRAM_DIAG_RATIO * max(diag) ** 2:
            return q
        a = solve_triangular(lo.T, w, lower=False, check_finite=False)
        if _EPS * float(np.abs(a) @ np.sqrt(np.diag(g))) ** 2 <= _GRAM_ERROR_TOL * q:
            return q
    proj = np.linalg.qr(cols, mode="reduced")[0].T @ y
    return min(max(yty - shrink * float(proj @ proj), floor), yty)


def _log_target_from_cols(
    cols: np.ndarray,
    y: np.ndarray,
    yty: float,
    k: int,
    delta2: float,
    config: SamplerConfig,
) -> float:
    """Marginal log target given precomputed design columns."""
    n = y.shape[0]
    if k == 0:
        q = yty
    else:
        q = _quadratic_form(cols, y, yty, delta2)
        if q is None or q <= 0.0:
            return -math.inf
    out = (
        k * math.log(config.lambda_k)
        - math.lgamma(k + 1)  # truncated Poisson prior on k, constant dropped
        - k * _LOG_PI
        - k * math.log1p(delta2)
        - 0.5 * n * math.log(q)
    )
    if config.sample_delta2:
        out += _log_invgamma_pdf(delta2, _DELTA2_PRIOR_SHAPE, _DELTA2_PRIOR_SCALE)
    return out


def log_target(
    k: int, omegas, delta2: float, y: np.ndarray, config: SamplerConfig
) -> float:
    """Unnormalized log posterior of (k, omegas, delta2) given y.

    Returns -inf when frequencies come closer than the spacing guard or the
    design Gram matrix fails its Cholesky factorization.  Numerically
    near-singular designs are evaluated stably (see ``_quadratic_form``).
    """
    omegas = np.asarray(omegas, dtype=float)
    if omegas.size != k:
        raise ValueError("omegas length must equal k")
    if k > config.k_max:
        raise ValueError(f"k={k} exceeds k_max={config.k_max}")
    if k >= 2 and np.min(np.diff(np.sort(omegas))) < _MIN_FREQ_SPACING:
        return -math.inf
    y = np.asarray(y, dtype=float)
    cols = design_matrix(omegas, y.shape[0])
    return _log_target_from_cols(cols, y, float(y @ y), k, delta2, config)


# ---------------------------------------------------------------------------
# Move acceptance ratios (shared by the engine and the balance tests)
# ---------------------------------------------------------------------------


def _birth_log_alpha(
    logf_from: float, logf_to: float, q_birth: float, b_from: float, d_to: float
) -> float:
    """Log acceptance ratio of a birth with proposal density q_birth.

    The target is an exchangeable density over ordered frequency vectors and
    death picks its victim uniformly, so the position-count factors cancel
    and no combinatorial term remains.
    """
    return logf_to - logf_from + math.log(d_to) - math.log(b_from * q_birth)


def _death_log_alpha(
    logf_from: float, logf_to: float, q_birth: float, d_from: float, b_to: float
) -> float:
    """Log acceptance ratio of a death removing a component whose
    birth-proposal density is q_birth."""
    return logf_to - logf_from + math.log(b_to * q_birth) - math.log(d_from)


def _update_log_alpha(
    logf_from: float, logf_to: float, q_forward: float, q_reverse: float
) -> float:
    """Log acceptance ratio of a single-frequency Metropolis update."""
    return logf_to - logf_from + math.log(q_reverse) - math.log(q_forward)


# ---------------------------------------------------------------------------
# Sampler engine
# ---------------------------------------------------------------------------


def _check_observation(y) -> np.ndarray:
    """y as a float array; raises DegenerateDataError unless it is non-empty,
    finite and not constant (an all-zero y is constant)."""
    y = np.asarray(y, dtype=float)
    if y.size == 0 or not np.all(np.isfinite(y)):
        raise DegenerateDataError("observation y is empty or has non-finite values")
    if np.ptp(y) == 0.0:
        what = "all zero" if y[0] == 0.0 else "constant"
        raise DegenerateDataError(f"observation y is {what}: nothing to sample")
    return y


class _Engine:
    """Mutable chain state plus cached quantities for one observation."""

    def __init__(self, y: np.ndarray, config: SamplerConfig, rng: np.random.Generator):
        self.y = _check_observation(y)
        self.n = self.y.shape[0]
        self.yty = float(self.y @ self.y)
        self.config = config
        self.rng = rng
        self.rw = config.rw_scale if config.rw_scale is not None else 1.0 / (2 * self.n)
        grid = config.periodogram_grid if config.periodogram_grid is not None else 4 * self.n
        self.grid = grid
        self.cell = math.pi / grid
        t = np.arange(self.n)
        centers = (np.arange(grid) + 0.5) * self.cell
        spectrum = np.exp(-1j * np.outer(centers, t)) @ self.y
        power = np.abs(spectrum) ** 2 / self.n
        # _check_observation rejects an all-zero y, whose power sum is zero.
        self.pgram = power / power.sum()
        self.pgram_cdf = np.cumsum(self.pgram)

        self.k = 0
        self.omegas = np.empty(0)
        self.cols = np.empty((self.n, 0))
        self.delta2 = config.delta2
        self.logf = self._eval(self.cols, 0, self.delta2)
        self.counters: dict[str, list[int]] = {
            "birth": [0, 0],
            "death": [0, 0],
            "update": [0, 0],
        }
        if config.sample_delta2:
            self.counters["delta2"] = [0, 0]

    # -- target evaluation -------------------------------------------------

    def _eval(self, cols: np.ndarray, k: int, delta2: float) -> float:
        return _log_target_from_cols(cols, self.y, self.yty, k, delta2, self.config)

    def _freq_cols(self, w: float) -> np.ndarray:
        wt = w * np.arange(self.n)
        return np.column_stack([np.cos(wt), np.sin(wt)])

    # -- proposal densities --------------------------------------------------

    def _pgram_density(self, w: float) -> float:
        g = min(int(w / self.cell), self.grid - 1)
        return self.pgram[g] / self.cell

    def _draw_pgram(self) -> float:
        g = int(np.searchsorted(self.pgram_cdf, self.rng.random()))
        g = min(g, self.grid - 1)
        return (g + self.rng.random()) * self.cell

    def _q_birth(self, w: float) -> float:
        return 0.5 / math.pi + 0.5 * self._pgram_density(w)

    def _q_update(self, w_to: float, w_from: float) -> float:
        dx = (w_to - w_from) / self.rw
        gauss = math.exp(-0.5 * dx * dx) / (self.rw * math.sqrt(2.0 * math.pi))
        return 0.8 * gauss + 0.2 * self._pgram_density(w_to)

    def _too_close(self, w: float, skip: int | None = None) -> bool:
        for j, wj in enumerate(self.omegas):
            if j != skip and abs(w - wj) < _MIN_FREQ_SPACING:
                return True
        return False

    # -- moves ---------------------------------------------------------------

    def _dimension_move(self) -> None:
        k = self.k
        b_k = 0.0 if k >= self.config.k_max else 0.5
        d_k = 0.0 if k == 0 else 0.5
        u = self.rng.random()
        if u < b_k:
            self._birth(b_k)
        elif u < b_k + d_k:
            self._death(d_k)

    def _birth(self, b_k: float) -> None:
        self.counters["birth"][0] += 1
        if self.rng.random() < 0.5:
            w_new = self.rng.uniform(0.0, math.pi)
        else:
            w_new = self._draw_pgram()
        if not (0.0 < w_new < math.pi) or self._too_close(w_new):
            return
        cand_omegas = np.append(self.omegas, w_new)
        cand_cols = np.concatenate([self.cols, self._freq_cols(w_new)], axis=1)
        logf1 = self._eval(cand_cols, self.k + 1, self.delta2)
        if logf1 == -math.inf:
            return
        log_alpha = _birth_log_alpha(
            self.logf, logf1, self._q_birth(w_new), b_k, 0.5
        )
        if self.rng.random() < math.exp(min(0.0, log_alpha)):
            self.counters["birth"][1] += 1
            self.k += 1
            self.omegas = cand_omegas
            self.cols = cand_cols
            self.logf = logf1

    def _death(self, d_k: float) -> None:
        self.counters["death"][0] += 1
        j = int(self.rng.integers(self.k))
        cand_omegas = np.delete(self.omegas, j)
        cand_cols = np.delete(self.cols, [2 * j, 2 * j + 1], axis=1)
        logf1 = self._eval(cand_cols, self.k - 1, self.delta2)
        log_alpha = _death_log_alpha(
            self.logf, logf1, self._q_birth(self.omegas[j]), d_k, 0.5
        )
        if self.rng.random() < math.exp(min(0.0, log_alpha)):
            self.counters["death"][1] += 1
            self.k -= 1
            self.omegas = cand_omegas
            self.cols = cand_cols
            self.logf = logf1

    def _update_pass(self) -> None:
        for j in range(self.k):
            self.counters["update"][0] += 1
            w_old = self.omegas[j]
            if self.rng.random() < 0.8:
                w_new = w_old + self.rng.normal(0.0, self.rw)
            else:
                w_new = self._draw_pgram()
            if not (0.0 < w_new < math.pi) or self._too_close(w_new, skip=j):
                continue
            cand_cols = self.cols.copy()
            cand_cols[:, 2 * j : 2 * j + 2] = self._freq_cols(w_new)
            logf1 = self._eval(cand_cols, self.k, self.delta2)
            if logf1 == -math.inf:
                continue
            log_alpha = _update_log_alpha(
                self.logf,
                logf1,
                self._q_update(w_new, w_old),
                self._q_update(w_old, w_new),
            )
            if self.rng.random() < math.exp(min(0.0, log_alpha)):
                self.counters["update"][1] += 1
                self.omegas[j] = w_new
                self.cols = cand_cols
                self.logf = logf1

    def _delta2_move(self) -> None:
        self.counters["delta2"][0] += 1
        d2_new = self.delta2 * math.exp(0.3 * self.rng.normal())
        logf1 = self._eval(self.cols, self.k, d2_new)
        # log-scale random walk: Jacobian contributes log(d2'/d2)
        log_alpha = logf1 - self.logf + math.log(d2_new / self.delta2)
        if self.rng.random() < math.exp(min(0.0, log_alpha)):
            self.counters["delta2"][1] += 1
            self.delta2 = d2_new
            self.logf = logf1

    def sweep(self) -> None:
        self._dimension_move()
        self._update_pass()
        if self.config.sample_delta2:
            self._delta2_move()
        if not 0 <= self.k <= self.config.k_max:
            raise RuntimeError(f"chain left 0 <= k <= k_max: k = {self.k}")
        if not all(0.0 < w < math.pi for w in self.omegas):
            raise RuntimeError(f"chain frequency outside (0, pi): {list(self.omegas)}")

    def acceptance_report(self) -> dict:
        report = {}
        for move, (proposed, accepted) in self.counters.items():
            rate = accepted / proposed if proposed else 0.0
            report[move] = {"proposed": proposed, "accepted": accepted, "rate": rate}
        return report


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def run_sampler(y: np.ndarray, config: SamplerConfig) -> tuple[SampleSet, dict]:
    """Run the chain and collect post-burn-in, thinned (k, omegas) draws.

    Returns the sample set (meta records seed, chain length, burn-in and
    thinning) and an acceptance-rate report per move type.  The output is a
    pure function of (y, config.seed).  Raises DegenerateDataError when y is
    empty, non-finite or constant.
    """
    rng = np.random.default_rng(config.seed)
    engine = _Engine(y, config, rng)
    draws = []
    iterations = []
    for t in range(config.n_sweeps):
        engine.sweep()
        if t >= config.burn_in and (t - config.burn_in) % config.thinning == 0:
            draws.append(
                VariableDimSample(engine.k, tuple(float(w) for w in engine.omegas))
            )
            iterations.append(t)
    meta = {
        "seed": config.seed,
        "n_sweeps": config.n_sweeps,
        "burn_in": config.burn_in,
        "thinning": config.thinning,
        "iterations": iterations,
    }
    return SampleSet(tuple(draws), meta), engine.acceptance_report()
