"""End-to-end orchestration: synthesize, sample, fit, report."""
from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io
from .errors import PipelineStageError
from .model import SampleSet, SummaryModel
from .report import (
    background_intensity,
    bma_intensity,
    bms_summary,
    make_summary_table,
    mixture_pdf,
)
from .rjmcmc import SamplerConfig, SinusoidScene, run_sampler, synthesize_signal
from .sem import SemConfig, SemTrace, run_sem

log = logging.getLogger("transdim.pipeline")

STAGE_EXIT_CODES = {"scene": 2, "sample": 3, "fit": 4, "report": 5}


@dataclass(frozen=True)
class PipelineConfig:
    scene: SinusoidScene
    noise_seed: int
    sampler: SamplerConfig
    sem: SemConfig
    bins: int = 256

    def __post_init__(self):
        if self.bins < 2:
            raise ValueError("bins must be >= 2")


def parse_pipeline_config(doc: dict) -> PipelineConfig:
    """Build the run configuration; unknown keys at any level raise ValueError."""
    io.check_keys(
        doc, ("format_version", "scene", "sampler", "sem", "report"), "top level"
    )
    report = doc.get("report", {})
    io.check_keys(report, ("bins",), "section 'report'")
    scene, noise_seed = io.parse_scene(doc["scene"])
    return PipelineConfig(
        scene=scene,
        noise_seed=noise_seed,
        sampler=io.parse_sampler_config(doc["sampler"]),
        sem=io.parse_sem_config(doc.get("sem", {})),
        bins=int(report.get("bins", 256)),
    )


def _stage(name: str):
    def decorate(fn):
        def wrapped(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except PipelineStageError:
                raise
            except Exception as exc:
                raise PipelineStageError(name, STAGE_EXIT_CODES[name], exc) from exc

        return wrapped

    return decorate


@_stage("scene")
def _run_scene(config: PipelineConfig, out: Path) -> np.ndarray:
    y = synthesize_signal(config.scene, config.noise_seed)
    io.write_y_csv(out / "y.csv", y)
    return y


@_stage("sample")
def _run_sample(y: np.ndarray, config: PipelineConfig, out: Path) -> SampleSet:
    samples, acceptance = run_sampler(y, config.sampler)
    io.write_sample_set(out / "samples.ndjson", samples)
    io.write_acceptance(out / "acceptance.json", acceptance)
    log.info("sampler acceptance: %s", acceptance)
    return samples


@_stage("fit")
def _run_fit(
    samples: SampleSet, config: PipelineConfig, out: Path
) -> tuple[SummaryModel, SemTrace]:
    model, trace = run_sem(samples, config.sem)
    io.write_model(out / "model.json", model)
    io.write_trace_csv(out / "trace.csv", trace)
    io.write_allocations(out / "allocations.ndjson", trace.final_allocations)
    return model, trace

@_stage("report")
def _run_report(
    samples: SampleSet,
    model: SummaryModel,
    allocations,
    bins: int,
    out: Path,
) -> None:
    map_k, slots = bms_summary(samples)
    rows = make_summary_table(model, slots)
    io.write_summary_table(out / "summary_table.csv", rows)
    centers, bma = bma_intensity(samples, bins)
    _, background = background_intensity(samples, allocations, bins)
    mixture = mixture_pdf(model, centers)
    io.write_intensities(out / "intensities.csv", centers, bma, background, mixture)
    log.info("summary table: MAP k=%d, %d fitted components", map_k, model.n_components)


def run_pipeline(config: PipelineConfig, out_dir) -> dict[str, Path]:
    """Run every stage and write the artifact bundle into ``out_dir``.

    Any stage failure raises PipelineStageError carrying a stage-specific
    exit code.  Reruns with identical configuration and seeds produce
    byte-identical outputs.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    y = _run_scene(config, out)
    samples = _run_sample(y, config, out)
    model, trace = _run_fit(samples, config, out)
    _run_report(samples, model, trace.final_allocations, config.bins, out)
    return {
        name: out / name
        for name in (
            "y.csv",
            "samples.ndjson",
            "acceptance.json",
            "model.json",
            "trace.csv",
            "allocations.ndjson",
            "summary_table.csv",
            "intensities.csv",
        )
    }
