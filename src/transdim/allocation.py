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
S-step runs.  The proposal does not depend on the chain state, so the S-step
runs its refresh and all of its proposals as batches of rows through one
kernel, and then applies the accept decisions in sequence.  The kernel draws
nothing: its randomness is drawn by the caller, in a fixed order that is part
of the output contract, since a run is a pure function of its seed.  Per
S-step that order is the visit orders of the refresh, then for each I-MH step
the visit orders (``rng.permuted``), k rows of label uniforms and one row of
accept uniforms.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import InfeasibleModelError
from .model import SummaryModel

# Rows per proposal batch: bounds the S-step's working memory whatever the
# size of a same-k group, while keeping numpy's per-call cost amortised.
BATCH_ROWS = 4096


def _visit_orders(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """(n, k) independent uniformly random visit orders; draws nothing if k = 0."""
    if k == 0:
        return np.empty((n, 0), dtype=np.int64)
    return rng.permuted(np.broadcast_to(np.arange(k), (n, k)).copy(), axis=1)


def _column_sums(w: np.ndarray) -> np.ndarray:
    """Sums over axis 0, rounded as numpy's pairwise sum rounds one contiguous
    row: in sequence below 8 terms, else with eight interleaved partial sums
    (halving above 128 terms)."""
    n = w.shape[0]
    if n < 8:
        return w.sum(axis=0)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _column_sums(w[:half]) + _column_sums(w[half:])
    r = w[:8].copy()
    tail = n - n % 8
    for i in range(8, tail, 8):
        r += w[i:i + 8]
    res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for i in range(tail, n):
        res += w[i]
    return res


def _propose(
    log_n: np.ndarray,
    model: SummaryModel,
    orders: np.ndarray,
    u: np.ndarray | None = None,
    follow: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the sequential proposal along a batch of rows.

    ``log_n`` has shape (n, k, L) and holds log N(theta_j | mu_l, s2_l).  Row
    r proposes for sample r % n and visits its positions in ``orders[r]``.
    The first ``len(follow)`` rows score the labels of ``follow`` (a refresh
    of the order variable); every other row draws its label at visit t with
    the uniform ``u[t, r - len(follow)]``, or takes the most probable label
    when ``u`` is None.  The log weights are a label-major table, (L + 1,
    rows) with the background in row 0, so each visit reduces along axis 0;
    a label the row has used is masked to -inf.  The completed density is
    summed from the log N terms recorded where each label is placed.  Returns
    (labels, log completed density, log path probability) per row.
    """
    n, k, L = log_n.shape
    rows = len(orders)
    fixed = 0 if follow is None else len(follow)
    labels = np.zeros(rows * k, dtype=np.int64)
    log_q = np.full(rows, -math.lgamma(k + 1))
    terms = np.zeros((k, rows))  # log N at each Gaussian label, by position
    used = np.zeros((L, rows), dtype=bool)
    if k and rows:
        flat_n = log_n.ravel()
        log_pis = np.log([c.pi for c in model.components]).reshape(L, 1)
        flat_w = np.add(log_n.reshape(n * k, L).T, log_pis, order="C")  # (L, n * k)
        log_eta = math.log(model.eta) if model.eta > 0.0 else -math.inf
        cols = np.arange(rows)
        point0 = (cols % n) * k
        table = np.empty((L + 1, rows))
        for t in range(k):
            pos = orders[:, t]
            point = point0 + pos
            table[0] = log_eta
            np.take(flat_w, point, axis=1, out=table[1:], mode="clip")
            np.copyto(table[1:], -np.inf, where=used)
            mx = table.max(axis=0)
            if not np.all(np.isfinite(mx)):
                raise InfeasibleModelError(
                    "no admissible label available (eta = 0 with more points than components)"
                )
            choice = np.empty(rows, dtype=np.int64)
            if fixed:
                choice[:fixed] = follow.ravel()[point[:fixed]]
            if u is None:
                choice[fixed:] = table[:, fixed:].argmax(axis=0)
            w = table  # the weights overwrite the log weights in place
            np.subtract(w, mx, out=w)
            np.exp(w, out=w)
            tot = _column_sums(w)
            if u is not None:
                # the first label whose cumulative weight exceeds u * tot, or
                # 0 if none does
                cum = w[:, fixed:]
                for j in range(1, L + 1):  # in place, as np.cumsum adds
                    np.add(cum[j - 1], cum[j], out=cum[j])
                below = (cum <= u[t] * tot[fixed:]).sum(axis=0)
                choice[fixed:] = np.where(below > L, 0, below)
            picked = choice > 0
            chosen = log_eta
            if L:
                # a chosen Gaussian label is unused, so its log weight is in flat_w
                label = np.maximum(choice - 1, 0)
                chosen = np.where(picked, flat_w.ravel()[label * (n * k) + point], log_eta)
                gauss = flat_n[point * L + label]
                terms.ravel()[pos * rows + cols] = np.where(picked, gauss, 0.0)
                used.ravel()[label * rows + cols] |= picked
            log_q += chosen - (mx + np.log(tot))
            labels[cols * k + pos] = choice
    return labels.reshape(rows, k), _log_completed(terms, used, model), log_q


def _log_completed(
    terms: np.ndarray, present: np.ndarray, model: SummaryModel
) -> np.ndarray:
    """Completed log density for a batch of allocations, shape (rows,).

    ``terms`` (k, rows) holds log N(theta_j | mu_l, s2_l) where position j has
    Gaussian label l, and 0 where it is background; ``present`` (L, rows)
    marks the Gaussian labels each row uses.
    """
    k, rows = terms.shape
    lam0 = model.lam0

    out = np.full(rows, -math.lgamma(k + 1) - lam0)
    n0 = k - present.sum(axis=0)
    if lam0 > 0.0:
        out = out + n0 * (math.log(lam0) - math.log(model.theta_volume))
    else:
        out = np.where(n0 > 0, -np.inf, out)

    if k > 0 and model.n_components > 0:
        out = out + _column_sums(terms)

    for l, comp in enumerate(model.components):
        lp = math.log(comp.pi)
        lq = math.log1p(-comp.pi) if comp.pi < 1.0 else -np.inf
        out = out + np.where(present[l], lp, lq)
    return out


def _s_step(
    labels: np.ndarray,
    lc: np.ndarray,
    lq: np.ndarray,
    log_n: np.ndarray,
    model: SummaryModel,
    rng: np.random.Generator,
    n_steps: int,
    refresh: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance every chain of a same-k batch by ``n_steps`` independent-MH steps.

    The chain state is (labels, log completed density, log path probability).
    With ``refresh`` the model has changed since the state was cached: the
    completed density is recomputed and the labels are re-scored under a
    fresh uniform visit order (a Gibbs refresh of the order variable), so the
    ``lc`` and ``lq`` passed in are not read.  The refresh and the proposals
    run as batches of up to ``BATCH_ROWS`` rows (at least one step of the n
    chains); after each batch its accept decisions follow in sequence.
    """
    n, k = labels.shape
    blocks = max(1, BATCH_ROWS // n)  # blocks of n rows per kernel call
    follow, steps_left = refresh, n_steps
    while follow or steps_left:
        steps = min(steps_left, blocks - follow)
        first = n if follow else 0
        orders = np.empty((first + steps * n, k), dtype=np.int64)
        u = np.empty((k, steps * n))
        log_u = np.empty((steps, n))
        if follow:
            orders[:n] = _visit_orders(rng, n, k)
        for s in range(steps):
            orders[first + s * n:first + (s + 1) * n] = _visit_orders(rng, n, k)
            u[:, s * n:(s + 1) * n] = rng.random((k, n))
            log_u[s] = rng.random(n)
        np.log(log_u, out=log_u)

        prop, prop_lc, prop_lq = _propose(
            log_n, model, orders, u, follow=labels if follow else None
        )
        if follow:
            lc, lq = prop_lc[:n], prop_lq[:n]
        for s in range(steps):
            step = slice(first + s * n, first + (s + 1) * n)
            with np.errstate(invalid="ignore"):
                log_ratio = (prop_lc[step] - prop_lq[step]) - (lc - lq)
            accept = log_u[s] < log_ratio  # NaN ratio -> stay
            labels = np.where(accept[:, None], prop[step], labels)
            lc = np.where(accept, prop_lc[step], lc)
            lq = np.where(accept, prop_lq[step], lq)
        follow, steps_left = False, steps_left - steps
    return labels, lc, lq
