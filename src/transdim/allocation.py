"""Sampling allocation vectors from their conditional posterior.

The target p(z | x, model) is known only up to a constant (it is proportional
to the completed density), so an independent Metropolis-Hastings kernel is
used.  The proposal visits the sample's positions in a fresh uniformly random
order and assigns each position a still-unused Gaussian label or the
background label, with weights pi_l * N(theta_j | mu_l, s2_l) and eta
respectively.  The returned log proposal probability is the probability of
the realized sampled path, including the 1/k! factor for the visit order;
the Hastings ratio formed from these path probabilities is exact on the
order-augmented space, whose z-marginal is the target.

Every operation works on a batch of same-length samples, the form the SEM
S-step runs.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import InfeasibleModelError
from .model import SummaryModel

# ---------------------------------------------------------------------------
# Batch primitives (same-k groups)
# ---------------------------------------------------------------------------


def _batch_propose(
    log_w: np.ndarray,
    eta: float,
    rng: np.random.Generator,
    mode: str = "sample",
    follow: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run the sequential proposal for a batch of same-length samples.

    ``log_w`` has shape (n, k, L) and holds log(pi_l * N(theta_j | ...)).
    Modes: "sample" draws labels, "greedy" takes the argmax label at each
    visited position, "follow" scores the labels given in ``follow`` under a
    fresh random visit order (a uniform refresh of the order variable).
    Returns (labels, log_q) where log_q is the exact log path probability.
    """
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
            raise InfeasibleModelError(
                "no admissible label available (eta = 0 with more points than components)"
            )
        w = np.exp(lw_full - mx[:, None])
        tot = w.sum(axis=1)
        if mode == "sample":
            u = rng.random(n) * tot
            choice = (u[:, None] < np.cumsum(w, axis=1)).argmax(axis=1)
        elif mode == "greedy":
            choice = lw_full.argmax(axis=1)
        elif mode == "follow":
            choice = follow[rows, pos]
        else:
            raise ValueError(f"unknown mode {mode!r}")
        log_q += lw_full[rows, choice] - (mx + np.log(tot))
        labels[rows, pos] = choice
        picked = choice > 0
        used[rows[picked], choice[picked] - 1] = True

    return labels, log_q


def _batch_log_completed(
    labels: np.ndarray, log_n: np.ndarray, model: SummaryModel
) -> np.ndarray:
    """Completed log density for a batch of allocations, shape (n,)."""
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

    for l, comp in enumerate(model.components, start=1):
        present = (labels == l).any(axis=1)
        lp = math.log(comp.pi)
        lq = math.log1p(-comp.pi) if comp.pi < 1.0 else -np.inf
        out = out + np.where(present, lp, lq)
    return out


def _batch_imh_step(
    cur_labels: np.ndarray,
    cur_lc: np.ndarray,
    cur_lq: np.ndarray,
    log_w: np.ndarray,
    log_n: np.ndarray,
    model: SummaryModel,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One independent-MH step applied to every chain in the batch."""
    prop_labels, prop_lq = _batch_propose(log_w, model.eta, rng, mode="sample")
    prop_lc = _batch_log_completed(prop_labels, log_n, model)
    with np.errstate(invalid="ignore"):
        log_ratio = (prop_lc - prop_lq) - (cur_lc - cur_lq)
    accept = np.log(rng.random(len(cur_lc))) < log_ratio  # NaN ratio -> stay
    cur_labels = np.where(accept[:, None], prop_labels, cur_labels)
    return (
        cur_labels,
        np.where(accept, prop_lc, cur_lc),
        np.where(accept, prop_lq, cur_lq),
        accept,
    )


def _log_weight_matrix(log_n: np.ndarray, model: SummaryModel) -> np.ndarray:
    """Proposal log weights log(pi_l) + log N(...), shape (n, k, L)."""
    if model.n_components == 0:
        return log_n
    log_pis = np.log([c.pi for c in model.components])
    return log_n + log_pis[None, None, :]
