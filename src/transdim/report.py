"""Posterior summaries for reporting: model-selection slots, averaged
intensities, and the comparison table."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import THETA_VOLUME, AllocationVector, SampleSet, SummaryModel
from .sem import robust_location_scale


@dataclass(frozen=True)
class ReportConfig:
    """Settings of the report stage: the histogram bins of the intensities."""

    bins: int = 256

    def __post_init__(self):
        if self.bins < 2:
            raise ValueError("bins must be >= 2")


def bms_summary(samples: SampleSet) -> tuple[int, list[tuple[float, float]]]:
    """Per-slot (mu, s) summaries after conditioning on the most probable k.

    Selects the k with highest empirical posterior probability (ties go to
    the smaller k), sorts each retained sample's frequencies, and reports the
    robust location/scale of every sorted slot.  Information from all other
    model orders is discarded by construction.
    """
    ks = np.array([s.k for s in samples.samples])
    counts = np.bincount(ks)
    map_k = int(np.argmax(counts))  # argmax returns the first max: smaller k wins ties
    if map_k == 0:
        return 0, []
    sel = np.sort(
        np.array([s.theta for s in samples.samples if s.k == map_k], dtype=float),
        axis=1,
    )
    return map_k, [robust_location_scale(sel[:, j]) for j in range(map_k)]


def _intensity(points: np.ndarray, m: int, bins: int) -> tuple[np.ndarray, np.ndarray]:
    edges = np.linspace(0.0, THETA_VOLUME, bins + 1)
    counts, _ = np.histogram(points, bins=edges)
    width = THETA_VOLUME / bins
    centers = (edges[:-1] + edges[1:]) / 2.0
    return centers, counts / (m * width)


def bma_intensity(samples: SampleSet, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Histogram intensity of all frequencies across all samples.

    Scaled by 1/(M * binwidth), so the integral over (0, pi) equals the
    posterior mean of k.  Returns (bin centers, intensity).
    """
    if bins < 2:
        raise ValueError("bins must be >= 2")
    pts = np.array([t for s in samples.samples for t in s.theta], dtype=float)
    return _intensity(pts, len(samples), bins)


def background_intensity(
    samples: SampleSet, final_allocations, bins: int
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram intensity of the points allocated to the background.

    Same normalization as bma_intensity; the integral approximates the fitted
    expected background count.  This is where the outliers of the sample set
    show up.
    """
    if bins < 2:
        raise ValueError("bins must be >= 2")
    if len(final_allocations) != len(samples):
        raise ValueError("allocations must align one-to-one with samples")
    pts = []
    for s, z in zip(samples.samples, final_allocations):
        if len(z) != s.k:
            raise ValueError("allocation length mismatch")
        pts.extend(t for t, l in zip(s.theta, z.z) if l == 0)
    return _intensity(np.array(pts, dtype=float), len(samples), bins)


def mixture_pdf(model: SummaryModel, grid: np.ndarray) -> np.ndarray:
    """Sum of pi_l * N(. | mu_l, s2_l) over the fitted components."""
    out = np.zeros_like(grid, dtype=float)
    for c in model.components:
        out += (
            c.pi
            * np.exp(-((grid - c.mu) ** 2) / (2.0 * c.s2))
            / math.sqrt(2.0 * math.pi * c.s2)
        )
    return out


@dataclass(frozen=True)
class SummaryRow:
    """One line of the comparison table; None marks an absent side."""

    component: int
    mu: float | None
    s: float | None
    pi: float | None
    mu_bms: float | None
    s_bms: float | None


def _match_sorted(longer: list[float], shorter: list[float]) -> list[int | None]:
    """Monotone minimal-|mu| alignment of a sorted list into a longer one.

    Returns, per entry of ``longer``, the matched index into ``shorter`` or
    None.  Both inputs must be sorted and len(shorter) <= len(longer); cost
    is the classic sequence-alignment dynamic program.
    """
    n_long, n_short = len(longer), len(shorter)
    inf = math.inf
    # cost[i][j]: best cost matching the first j of shorter within the first i
    cost = [[inf] * (n_short + 1) for _ in range(n_long + 1)]
    for i in range(n_long + 1):
        cost[i][0] = 0.0
    for i in range(1, n_long + 1):
        for j in range(1, min(i, n_short) + 1):
            skip = cost[i - 1][j]
            take = cost[i - 1][j - 1] + abs(longer[i - 1] - shorter[j - 1])
            cost[i][j] = min(skip, take)
    match: list[int | None] = [None] * n_long
    i, j = n_long, n_short
    while j > 0:
        if i > j - 1 and cost[i][j] == cost[i - 1][j]:
            i -= 1
        else:
            match[i - 1] = j - 1
            i -= 1
            j -= 1
    return match


def make_summary_table(
    model: SummaryModel, bms_slots: list[tuple[float, float]]
) -> list[SummaryRow]:
    """Comparison table of the fitted components against the fixed-k slots.

    Rows are sorted by mean.  Each BMS slot is aligned with the nearest
    fitted component (monotone, injective); sides without a counterpart get
    None entries, rendered as dashes in the CSV.
    """
    comps = [
        (c.mu, math.sqrt(c.s2), c.pi)
        for c in sorted(model.components, key=lambda c: c.mu)
    ]
    slots = sorted(bms_slots)
    swap = len(slots) > len(comps)
    longer, shorter = (slots, comps) if swap else (comps, slots)
    match = _match_sorted([x[0] for x in longer], [x[0] for x in shorter])
    rows: list[SummaryRow] = []
    for cell, j in zip(longer, match):
        other = shorter[j] if j is not None else None
        comp, slot = (other, cell) if swap else (cell, other)
        rows.append(SummaryRow(0, *(comp or (None,) * 3), *(slot or (None,) * 2)))
    rows.sort(key=lambda r: r.mu if r.mu is not None else r.mu_bms)
    return [
        SummaryRow(i + 1, r.mu, r.s, r.pi, r.mu_bms, r.s_bms)
        for i, r in enumerate(rows)
    ]
