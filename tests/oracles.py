"""Exact oracles for the allocation and density code: enumeration of every
admissible allocation vector and the scalar completed density.

They are independent of the batch kernels in ``transdim.model`` and
``transdim.allocation`` that the pipeline runs, and exist only to check them.
Their cost grows factorially with k and L, so they serve small instances only.
"""
from __future__ import annotations

import math

import numpy as np

from transdim.errors import InfeasibleModelError, TransdimError
from transdim.model import AllocationVector, SummaryModel, VariableDimSample

_LOG_2PI = math.log(2.0 * math.pi)


class EnumerationCapError(TransdimError):
    """Raised when an exact enumeration would exceed its configured cap."""


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
# Completed density
# ---------------------------------------------------------------------------


def _norm_logpdf(x: float, mu: float, s2: float) -> float:
    # Scalar on purpose: log_density_completed is the independent reference
    # that the batch kernels are tested against.
    return -0.5 * (_LOG_2PI + math.log(s2)) - (x - mu) ** 2 / (2.0 * s2)


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


# ---------------------------------------------------------------------------
# Exact allocation posterior
# ---------------------------------------------------------------------------


def exact_allocation_posterior(
    x: VariableDimSample, model: SummaryModel, cap: int = 10**6
) -> dict[tuple[int, ...], float]:
    """Exact allocation posterior by enumeration: the validation oracle.

    Probabilities are proportional to the completed density and sum to one.
    Raises EnumerationCapError when the admissible set is too large and
    InfeasibleModelError when every allocation has zero density.
    """
    vectors = enumerate_allocations(x.k, model.n_components, cap=cap)
    logs = np.array([log_density_completed(x, z, model) for z in vectors])
    top = logs.max()
    if top == -np.inf:
        raise InfeasibleModelError("every admissible allocation has zero density")
    probs = np.exp(logs - top)
    probs /= probs.sum()
    return {v.z: float(p) for v, p in zip(vectors, probs)}
