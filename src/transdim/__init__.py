"""Summarize variable-dimensional posteriors.

Pipeline: synthesize a noisy multi-sinusoid signal, sample its
variable-dimensional posterior with a reversible-jump MCMC sampler, then fit
a Bernoulli-Gaussian summary model (with a Poisson background component) by
a robustified stochastic-EM algorithm.
"""

from .errors import (
    DegenerateDataError,
    InfeasibleModelError,
    PipelineStageError,
    TransdimError,
)
from .model import (
    AllocationVector,
    GaussianComponent,
    SampleSet,
    SummaryModel,
    VariableDimSample,
    simulate_sample_set,
)
from .rjmcmc import (
    SamplerConfig,
    SinusoidScene,
    build_scene,
    design_matrix,
    log_target,
    run_sampler,
    synthesize_signal,
)
from .report import bma_intensity, bms_summary, background_intensity
from .sem import (
    SemConfig,
    SemTrace,
    choose_L,
    criterion,
    initialize_model,
    m_step,
    robust_location_scale,
    run_sem,
)

__all__ = [
    "AllocationVector",
    "DegenerateDataError",
    "GaussianComponent",
    "InfeasibleModelError",
    "PipelineStageError",
    "SampleSet",
    "SamplerConfig",
    "SemConfig",
    "SemTrace",
    "SinusoidScene",
    "SummaryModel",
    "TransdimError",
    "VariableDimSample",
    "background_intensity",
    "bma_intensity",
    "bms_summary",
    "build_scene",
    "choose_L",
    "criterion",
    "design_matrix",
    "initialize_model",
    "log_target",
    "m_step",
    "robust_location_scale",
    "run_sampler",
    "run_sem",
    "simulate_sample_set",
    "synthesize_signal",
]

__version__ = "0.1.0"
