"""Command-line interface: sample, fit, report, pipeline.

A single --seed overrides every seed in the configuration, derived as
noise = seed, sampler = seed + 1, SEM = seed + 2, so fresh replications only
need a new seed.  Set TRANSDIM_LOG to control the log level.
"""
from __future__ import annotations

import dataclasses
import functools
import logging
import os
import sys
from pathlib import Path

import click

from . import io
from .errors import PipelineStageError, TransdimError
from .pipeline import (
    PipelineConfig,
    _run_fit,
    _run_report,
    _run_sample,
    _run_scene,
    parse_pipeline_config,
    run_pipeline,
)
from .report import ReportConfig


def _setup_logging() -> None:
    level = os.environ.get("TRANSDIM_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def _load(config_path: str, seed: int | None) -> PipelineConfig:
    cfg = parse_pipeline_config(io.load_config(config_path))
    if seed is not None:
        cfg = dataclasses.replace(
            cfg,
            noise_seed=seed,
            sampler=dataclasses.replace(cfg.sampler, seed=seed + 1),
            sem=dataclasses.replace(cfg.sem, seed=seed + 2),
        )
    return cfg


def _exit_on_error(command):
    """Report a failure on stderr and exit with the failed stage's code, or
    with 1 for a configuration or input error outside any stage."""

    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except (TransdimError, OSError, ValueError, KeyError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(exc.exit_code if isinstance(exc, PipelineStageError) else 1)

    return run


@click.group()
def main() -> None:
    """Variable-dimensional posterior summarization pipeline."""
    _setup_logging()


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", type=int, default=None, help="Override all seeds.")
@click.option("--y-csv", "y_csv", type=click.Path(exists=True), default=None,
              help="Use an externally generated observation instead of synthesizing one.")
@_exit_on_error
def sample(config_path, out_dir, seed, y_csv):
    """Synthesize (or load) the observation and run the posterior sampler."""
    cfg = _load(config_path, seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if y_csv is not None:
        y = io.read_y_csv(y_csv)
        io.write_y_csv(out / "y.csv", y)
    else:
        y = _run_scene(cfg, out)
    _run_sample(y, cfg, out)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--samples", "samples_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", type=int, default=None, help="Override all seeds.")
@_exit_on_error
def fit(config_path, samples_path, out_dir, seed):
    """Fit the summary model to a sample-set file."""
    cfg = _load(config_path, seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    samples = io.read_sample_set(samples_path)
    _run_fit(samples, cfg, out)


@main.command()
@click.option("--samples", "samples_path", required=True, type=click.Path(exists=True))
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--allocations", "alloc_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--bins", type=int, default=ReportConfig.bins, show_default=True)
@_exit_on_error
def report(samples_path, model_path, alloc_path, out_dir, bins):
    """Write the comparison table and intensity curves from fitted artifacts."""
    config = ReportConfig(bins)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    samples = io.read_sample_set(samples_path)
    model = io.read_model(model_path)
    allocations = io.read_allocations(alloc_path)
    _run_report(samples, model, allocations, config, out)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", type=int, default=None, help="Override all seeds.")
@_exit_on_error
def pipeline(config_path, out_dir, seed):
    """Run every stage end to end."""
    run_pipeline(_load(config_path, seed), out_dir)


if __name__ == "__main__":
    main()
