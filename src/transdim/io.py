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
import inspect
import json
import math
import os
import sys
from collections.abc import Sequence
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .model import (
    AllocationVector,
    GaussianComponent,
    SampleSet,
    SummaryModel,
    VariableDimSample,
)
from .report import ReportConfig
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


def _require_object(section, where: str) -> None:
    if not isinstance(section, dict):
        raise ValueError(f"config {where} must be a JSON object")


def check_keys(section: dict, allowed, where: str) -> None:
    """Raise ValueError if ``section`` is not a JSON object, or naming every
    key of it not in ``allowed``."""
    _require_object(section, where)
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ValueError(f"unknown key(s) in config {where}: {', '.join(unknown)}")


def _is_number(value) -> bool:
    """Whether ``value`` is a JSON number within the finite float range
    (true and false are not numbers)."""
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return is_number and abs(value) <= sys.float_info.max


def _is_pair(value) -> bool:
    """Whether ``value`` is a list or tuple of two numbers."""
    return (isinstance(value, (list, tuple)) and len(value) == 2
            and all(map(_is_number, value)))


def _convert(kind, value, where: str, key: str):
    """``value`` as the field type ``kind``, refusing lossy conversions: an
    int must be integral, a float finite, a bool a JSON boolean or 0/1, and
    ``X | None`` keeps None.  A ``Sequence[float]`` takes a JSON array of
    numbers; ``Sequence[float | tuple[float, float]]`` also takes pairs."""
    if type(None) in get_args(kind):
        if value is None:
            return None
        (kind,) = [a for a in get_args(kind) if a is not type(None)]
    if get_origin(kind) is Sequence:
        if not isinstance(value, list):
            raise ValueError(f"config {where}: key '{key}' needs a list, got {value!r}")
        pairs = tuple[float, float] in get_args(get_args(kind)[0])
        if all(_is_number(v) or pairs and _is_pair(v) for v in value):
            return value
        entries = "numbers or pairs of numbers" if pairs else "numbers"
        raise ValueError(
            f"config {where}: key '{key}' needs a list of finite {entries}, got {value!r}"
        )
    if kind not in (int, float, bool):
        raise TypeError(f"config {where}: key '{key}' has no checked type ({kind!r})")
    try:
        if kind is bool:
            if value in (0, 1):
                return bool(value)
        elif not isinstance(value, bool):
            out = kind(value)
            if kind is float:
                if math.isfinite(out):
                    return out
            elif isinstance(value, str) or out == value:
                return out
    except (TypeError, ValueError, OverflowError):
        pass
    what = "a finite float" if kind is float else kind.__name__
    raise ValueError(f"config {where}: key '{key}' needs {what}, got {value!r}")


def _parse_section(target, section: dict, where: str):
    """Call ``target`` (a config dataclass or a builder function) with the
    keys of its config section.  The parameters of ``target`` are the only
    allowed keys; keys left out take its defaults, and annotated values are
    converted by ``_convert``.  A missing required key raises KeyError, any
    other bad key or value ValueError; every message names the section."""
    params = inspect.signature(target).parameters
    check_keys(section, params, where)
    hints = get_type_hints(target)
    kwargs = {}
    for name, param in params.items():
        if name in section:
            kwargs[name] = _convert(hints.get(name), section[name], where, name)
        elif param.default is inspect.Parameter.empty:
            raise KeyError(f"config {where}: missing required key '{name}'")
    # ``target`` computes with the values, e.g. 10^(snr_db/10) or an n-row
    # design matrix: an overflow or a refused allocation is a bad value too.
    try:
        return target(**kwargs)
    except (ValueError, ArithmeticError, MemoryError) as exc:
        raise ValueError(f"config {where}: {exc}") from exc


def parse_scene(section: dict) -> tuple[SinusoidScene, int]:
    """Build the scene from its config section: the arguments of
    ``build_scene`` plus the noise seed ``seed`` (default 0).  Returns
    (scene, noise seed)."""
    where = "section 'scene'"
    _require_object(section, where)
    seed = _convert(int, section.get("seed", 0), where, "seed")
    scene = _parse_section(
        build_scene, {k: v for k, v in section.items() if k != "seed"}, where
    )
    return scene, seed


def parse_sampler_config(section: dict) -> SamplerConfig:
    return _parse_section(SamplerConfig, section, "section 'sampler'")


def parse_sem_config(section: dict) -> SemConfig:
    return _parse_section(SemConfig, section, "section 'sem'")


def parse_report_config(section: dict) -> ReportConfig:
    return _parse_section(ReportConfig, section, "section 'report'")


def load_config(path) -> dict:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    _require_object(doc, "top level")
    return doc


def _write_json(path, doc: dict) -> None:
    with _atomic_open(path) as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")
