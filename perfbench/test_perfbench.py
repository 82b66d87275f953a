"""Tests of the benchmark itself: a smoke run of every workload through the
command, and negative controls that each correctness check must reject.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""
import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import transdim
import transdim.io
import transdim.pipeline
import transdim.sem
from transdim import GaussianComponent, SampleSet, SummaryModel, VariableDimSample

import bench_checks as checks
import bench_workloads
import run as bench_run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        layers = sum(values[k] for k in ("rjmcmc.sample_s", "sem.fit_s",
                                         "io.write_s", "report.report_s"))
        assert 0.0 <= layers <= values["pipeline.run_s"]
        assert (values["rjmcmc.sample_s"] > 0) == (workload != "fit-L6")
    else:
        assert all(v > 0 for v in values.values())


def test_spec_matches_the_command_tables():
    assert list(bench_run.END_TO_END) == [m["name"] for m in SPEC["end_to_end"]]
    assert [m["unit"] for m in SPEC["end_to_end"]] == [u for u, _ in bench_run.END_TO_END.values()]
    assert list(bench_run.PER_LAYER) == [m["name"] for m in SPEC["per_layer"]]
    assert [m["unit"] for m in SPEC["per_layer"]] == [u for u, _ in bench_run.PER_LAYER.values()]
    assert [w["name"] for w in SPEC["workloads"]] == list(bench_workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for p in HERE.glob("*.py"):
        (tmp_path / "perfbench" / p.name).write_bytes(p.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit-L6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# One smoke round per workload, run in this process, for the controls
# ---------------------------------------------------------------------------


def _round(name, tmp_path_factory):
    w = bench_workloads.make(name, transdim, ROOT, smoke=True)
    w.setup(5)
    out = tmp_path_factory.mktemp(name) / "round0"
    w.run(0, out)
    w.after_round(0, out)
    return w, out, transdim.io.read_sample_set(out / "samples.ndjson")


@pytest.fixture(scope="module")
def flagship_round(tmp_path_factory):
    return _round("flagship", tmp_path_factory)


@pytest.fixture(scope="module")
def fit_round(tmp_path_factory):
    return _round("fit-L6", tmp_path_factory)


def _failed(results):
    return [name for name, ok, _ in results if not ok]


def test_flagship_checks_pass(flagship_round):
    w, out, samples = flagship_round
    assert _failed(w.checks([out], [samples])) == []


def test_flagship_rejects_moved_outer_row(flagship_round, tmp_path):
    w, out, samples = flagship_round
    moved = tmp_path / "moved"
    moved.mkdir()
    (moved / "y.csv").write_bytes((out / "y.csv").read_bytes())
    model = transdim.io.read_model(out / "model.json")
    comps = list(model.components)
    i = min(range(len(comps)), key=lambda j: abs(comps[j].mu - 0.625))
    comps[i] = dataclasses.replace(comps[i], mu=comps[i].mu + 0.03)
    transdim.io.write_model(moved / "model.json", dataclasses.replace(model, components=tuple(comps)))
    assert _failed(w.checks([moved], [samples])) == ["round 0 summary passes criterion 01"]


def test_flagship_rejects_shifted_chain_pk(flagship_round):
    w, out, samples = flagship_round
    # Drop two of every three k = 2 draws: p(k = 3 | k <= 3) rises by about 0.25.
    kept, twos = [], 0
    for s in samples.samples:
        if s.k == 2:
            twos += 1
            if twos % 3:
                continue
        kept.append(s)
    shifted = SampleSet(tuple(kept), samples.meta)
    assert _failed(w.checks([out], [shifted])) == ["chain matches grid oracle"]


def test_fit_checks_pass(fit_round):
    w, out, _ = fit_round
    assert _failed(w.checks([out], [])) == []


@pytest.mark.parametrize("perturb", ["mu", "pi", "eta"])
def test_fit_rejects_perturbed_generator(fit_round, perturb):
    w, out, _ = fit_round
    true = w.generator
    c = true.components[2]
    se = {
        "mu": checks.MEDIAN_SE * math.sqrt(c.s2 / (w.m * c.pi)),
        "pi": math.sqrt(c.pi * (1 - c.pi) / w.m),
    }
    comps = list(true.components)
    eta = true.eta
    if perturb == "eta":
        eta = 4 * true.eta  # about 8 standard errors at the perturbed value
    else:
        comps[2] = dataclasses.replace(c, **{perturb: getattr(c, perturb) - 2 * checks.N_SE * se[perturb]})
    w.generator = SummaryModel(tuple(comps), eta)
    try:
        assert _failed(w.checks([out], [])) == ["round 0 fit matches the generating model"]
    finally:
        w.generator = true


def test_dense_rejects_moved_or_weak_component():
    scene = transdim.build_scene(256, [(10.0, 0.0), (0.0, 8.0)], [0.5, 1.5], snr_db=10.0)
    sd = checks.cramer_rao_sd(scene)
    good = SummaryModel((GaussianComponent(0.5, 1e-6, 0.99), GaussianComponent(1.5, 1e-6, 0.98)), 0.01)
    assert checks.components_match_scene(good, scene, sd)[0]
    moved = SummaryModel((GaussianComponent(0.5 + 10 * sd[0], 1e-6, 0.99), good.components[1]), 0.01)
    weak = SummaryModel((good.components[0], GaussianComponent(1.5, 1e-6, 0.5)), 0.01)
    twice = SummaryModel(good.components + (GaussianComponent(1.5 + sd[1], 1e-6, 0.95),), 0.01)
    for model in (moved, weak, twice):
        assert not checks.components_match_scene(model, scene, sd)[0]


def test_cramer_rao_matches_single_sinusoid_formula():
    # One real sinusoid of amplitude A: var(omega) ~ 24 sigma2 / (A^2 n^3).
    n, a = 512, 3.0
    scene = transdim.build_scene(n, [(a, 0.0)], [1.0], sigma2=2.0)
    sd = checks.cramer_rao_sd(scene)[0]
    assert sd == pytest.approx(math.sqrt(24 * 2.0 / (a * a * n**3)), rel=0.02)


def test_map_k_check():
    draws = [VariableDimSample(k, tuple(0.1 * (j + 1) for j in range(k))) for k in (6, 6, 7, 5, 6)]
    assert checks.map_k_is_true([SampleSet(tuple(draws))], 6)[0]
    assert not checks.map_k_is_true([SampleSet(tuple(draws))], 7)[0]


def test_byte_checks_reject_changes(fit_round, tmp_path):
    _, out, _ = fit_round
    copy = tmp_path / "copy"
    copy.mkdir()
    for p in out.iterdir():
        copy.joinpath(p.name).write_bytes(p.read_bytes())
    assert checks.same_bytes(out, copy)[0]
    assert checks.bundle_round_trips(transdim.io, copy, tmp_path / "rw1")[0]
    doc = json.loads((copy / "model.json").read_text())
    (copy / "model.json").write_text(json.dumps(doc) + "\n")  # same model, other layout
    assert not checks.same_bytes(out, copy)[0]
    assert not checks.bundle_round_trips(transdim.io, copy, tmp_path / "rw2")[0]


def test_ess_geyer():
    rng = np.random.default_rng(0)
    n = 20_000
    assert checks.ess_geyer(rng.standard_normal(n)) == pytest.approx(n, rel=0.1)
    rho = 0.8
    x = np.empty(n)
    x[0] = rng.standard_normal()
    for t in range(1, n):
        x[t] = rho * x[t - 1] + math.sqrt(1 - rho * rho) * rng.standard_normal()
    assert checks.ess_geyer(x) == pytest.approx(n * (1 - rho) / (1 + rho), rel=0.2)
