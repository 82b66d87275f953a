"""File formats: sample sets (newline-delimited JSON), model and config JSON,
CSV outputs.

Numbers are serialized with Python's shortest round-trip representation, so
reruns with identical seeds produce byte-identical files and the model JSON
round-trips exactly.  Every writer fills '<name>.tmp' in the target directory
and renames it over '<name>', so a failed write never leaves a truncated file.
"""
from __future__ import annotations

import contextlib
import csv
import json
import math
import os
from dataclasses import MISSING, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .model import (
    AllocationVector,
    GaussianComponent,
    SampleSet,
    SummaryModel,
    VariableDimSample,
)
from .rjmcmc import SamplerConfig, SinusoidScene, build_scene
from .sem import SemConfig

FORMAT_VERSION = 1


@contextlib.contextmanager
def _atomic_open(path, newline=None):
    """Text handle on '<path>.tmp', renamed over ``path`` once the block
    succeeds; on any failure the temp file is removed and ``path`` is left
    as it was."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# Sample sets (newline-delimited JSON, one object per draw)
# ---------------------------------------------------------------------------


def write_sample_set(path, samples: SampleSet) -> None:
    """Write draws as ndjson lines {"i":.., "k":.., "theta":[..]}; scalar
    provenance goes to a sidecar '<path>.meta.json'."""
    path = Path(path)
    iterations = samples.meta.get("iterations") or list(range(len(samples)))
    with _atomic_open(path) as fh:
        for i, s in zip(iterations, samples.samples):
            fh.write(
                json.dumps({"i": i, "k": s.k, "theta": list(s.theta)}) + "\n"
            )
    sidecar = {k: v for k, v in samples.meta.items() if k != "iterations"}
    sidecar["format_version"] = FORMAT_VERSION
    _write_json(path.with_name(path.name + ".meta.json"), sidecar)


def read_sample_set(path) -> SampleSet:
    path = Path(path)
    draws = []
    iterations = []
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            theta = tuple(float(t) for t in obj["theta"])
            if int(obj["k"]) != len(theta):
                raise ValueError(f"inconsistent draw: k={obj['k']} with {len(theta)} thetas")
            draws.append(VariableDimSample(int(obj["k"]), theta))
            iterations.append(obj.get("i"))
    meta: dict = {"iterations": iterations}
    sidecar = path.with_name(path.name + ".meta.json")
    if sidecar.exists():
        extra = json.loads(sidecar.read_text(encoding="utf-8"))
        extra.pop("format_version", None)
        meta.update(extra)
    return SampleSet(tuple(draws), meta)


# ---------------------------------------------------------------------------
# Model JSON
# ---------------------------------------------------------------------------


def write_model(path, model: SummaryModel) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "components": [
            {"mu": c.mu, "s2": c.s2, "pi": c.pi} for c in model.components
        ],
        "eta": model.eta,
        "theta_volume": model.theta_volume,
    }
    _write_json(path, doc)


def read_model(path) -> SummaryModel:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    comps = tuple(
        GaussianComponent(float(c["mu"]), float(c["s2"]), float(c["pi"]))
        for c in doc["components"]
    )
    return SummaryModel(comps, float(doc["eta"]), float(doc["theta_volume"]))


# ---------------------------------------------------------------------------
# Observation vector CSV (one value per line)
# ---------------------------------------------------------------------------


def write_y_csv(path, y: np.ndarray) -> None:
    with _atomic_open(path) as fh:
        for v in np.asarray(y, dtype=float):
            fh.write(repr(float(v)) + "\n")


def read_y_csv(path) -> np.ndarray:
    values = [
        float(line)
        for line in Path(path).read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    return np.array(values, dtype=float)


# ---------------------------------------------------------------------------
# Allocations (debug ndjson)
# ---------------------------------------------------------------------------


def write_allocations(path, allocations) -> None:
    with _atomic_open(path) as fh:
        for i, z in enumerate(allocations):
            fh.write(json.dumps({"i": i, "z": list(z.z)}) + "\n")


def read_allocations(path) -> list[AllocationVector]:
    out = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            out.append(AllocationVector(tuple(int(l) for l in obj["z"])))
    return out


# ---------------------------------------------------------------------------
# CSV reports
# ---------------------------------------------------------------------------


def write_trace_csv(path, trace) -> None:
    """Columns: iteration, J, then mu_l, s_l, pi_l per component, then eta."""
    n_comp = (
        len(trace.iterations[0].model.components) if trace.iterations else 0
    )
    header = ["iteration", "J"]
    for l in range(1, n_comp + 1):
        header += [f"mu_{l}", f"s_{l}", f"pi_{l}"]
    header.append("eta")
    with _atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for it, rec in enumerate(trace.iterations, start=1):
            row = [it, repr(rec.j_value)]
            for c in rec.model.components:
                row += [repr(c.mu), repr(math.sqrt(c.s2)), repr(c.pi)]
            row.append(repr(rec.model.eta))
            writer.writerow(row)


def write_summary_table(path, rows) -> None:
    """Comparison table; absent entries are rendered as dashes."""

    def cell(v):
        return "-" if v is None else repr(v)

    with _atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["component", "mu", "s", "pi", "mu_bms", "s_bms"])
        for r in rows:
            writer.writerow(
                [r.component, cell(r.mu), cell(r.s), cell(r.pi),
                 cell(r.mu_bms), cell(r.s_bms)]
            )


def write_intensities(path, centers, bma, background, mixture) -> None:
    with _atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_center", "bma", "background", "mixture_pdf"])
        for c, a, b, m in zip(centers, bma, background, mixture):
            writer.writerow([repr(float(c)), repr(float(a)), repr(float(b)), repr(float(m))])


def write_acceptance(path, report: dict) -> None:
    _write_json(path, {"format_version": FORMAT_VERSION, "moves": report})


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def check_keys(section: dict, allowed, where: str) -> None:
    """Raise ValueError naming every key of ``section`` not in ``allowed``."""
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ValueError(f"unknown key(s) in config {where}: {', '.join(unknown)}")


def parse_scene(section: dict) -> tuple[SinusoidScene, int]:
    """Build the scene from its config section; returns (scene, noise seed)."""
    check_keys(
        section,
        ("n", "amplitudes", "omegas", "snr_db", "sigma2", "seed"),
        "section 'scene'",
    )
    scene = build_scene(
        n=int(section["n"]),
        amplitudes=section.get("amplitudes", []),
        omegas=section.get("omegas", []),
        snr_db=section.get("snr_db"),
        sigma2=section.get("sigma2"),
    )
    return scene, int(section.get("seed", 0))


def _parse_dataclass(cls, section: dict, where: str):
    """Build a config dataclass from its section.  Keys left out take the
    dataclass's own defaults; int, float and bool fields are converted, other
    values pass through.  A missing required key raises KeyError, a key that
    is not a field ValueError."""
    hints = get_type_hints(cls)
    check_keys(section, hints, where)
    kwargs = {}
    for f in fields(cls):
        if f.name in section:
            kind, value = hints[f.name], section[f.name]
            kwargs[f.name] = kind(value) if kind in (int, float, bool) else value
        elif f.default is MISSING:
            raise KeyError(f.name)
    return cls(**kwargs)


def parse_sampler_config(section: dict) -> SamplerConfig:
    return _parse_dataclass(SamplerConfig, section, "section 'sampler'")


def parse_sem_config(section: dict) -> SemConfig:
    return _parse_dataclass(SemConfig, section, "section 'sem'")


def load_config(path) -> dict:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    return doc


def _write_json(path, doc: dict) -> None:
    with _atomic_open(path) as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")
