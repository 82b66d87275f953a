"""File formats, round-trips, CLI subcommands, and the pipeline bundle."""
import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

from transdim import (
    AllocationVector,
    GaussianComponent,
    SampleSet,
    SamplerConfig,
    SemConfig,
    SummaryModel,
    VariableDimSample,
)
from transdim import io as tdio
from transdim import pipeline as tdpipeline
from transdim.cli import main
from transdim.pipeline import STAGE_EXIT_CODES, parse_pipeline_config, run_pipeline

from test_acceptance import flagship_config

ROOT = Path(__file__).resolve().parents[1]

SMALL_CONFIG = {
    "format_version": 1,
    "scene": {
        "n": 64,
        "amplitudes": [20.0, 6.32, 20.0],
        "omegas": [0.63, 0.68, 0.73],
        "snr_db": 7.0,
        "seed": 11,
    },
    "sampler": {
        "n_sweeps": 1500,
        "burn_in": 500,
        "thinning": 5,
        "k_max": 8,
        "seed": 12,
    },
    "sem": {"n_iterations": 6, "averaging_window": 3, "seed": 13},
    "report": {"bins": 64},
}

NOISE_CONFIG = {
    "format_version": 1,
    "scene": {"n": 32, "amplitudes": [], "omegas": [], "sigma2": 1.0, "seed": 5},
    # The priors the pure-noise bounds below hold under: p(k = 0) = 0.92.  With
    # SamplerConfig's lambda_k = 2, delta2 = 10, p(k <= 2) = 0.86 and L = 3.
    "sampler": {"n_sweeps": 800, "burn_in": 200, "thinning": 3, "k_max": 5,
                "lambda_k": 1.0, "delta2": 50.0, "seed": 6},
    "sem": {"n_iterations": 4, "averaging_window": 2, "seed": 7},
    "report": {"bins": 32},
}

EXPECTED_FILES = [
    "y.csv",
    "samples.ndjson",
    "acceptance.json",
    "model.json",
    "trace.csv",
    "allocations.ndjson",
    "summary_table.csv",
    "intensities.csv",
]


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------------------
# Round-trips
# ---------------------------------------------------------------------------


def test_sample_set_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    samples = tuple(
        VariableDimSample(k, tuple(rng.uniform(0.1, 3.0, size=k)))
        for k in (0, 1, 3, 2)
    )
    ss = SampleSet(samples, meta={"seed": 9, "n_sweeps": 4, "burn_in": 0,
                                  "thinning": 1, "iterations": [0, 1, 2, 3]})
    path = tmp_path / "samples.ndjson"
    tdio.write_sample_set(path, ss)
    back = tdio.read_sample_set(path)
    assert back == ss


def test_model_round_trip_exact(tmp_path):
    model = SummaryModel(
        (
            GaussianComponent(0.6299999999912341, 1.234e-4, 0.97),
            GaussianComponent(0.73, 2.1e-4, 1.0),
        ),
        eta=0.012731234567890123,
    )
    path = tmp_path / "model.json"
    tdio.write_model(path, model)
    assert tdio.read_model(path) == model  # 17-significant-digit fidelity
    doc = json.loads(path.read_text())
    assert doc["format_version"] == 1


def test_y_csv_round_trip(tmp_path):
    y = np.random.default_rng(1).normal(size=17)
    path = tmp_path / "y.csv"
    tdio.write_y_csv(path, y)
    assert np.array_equal(tdio.read_y_csv(path), y)


def test_allocations_round_trip(tmp_path):
    allocs = [AllocationVector((1, 0, 2)), AllocationVector(()), AllocationVector((0,))]
    path = tmp_path / "allocations.ndjson"
    tdio.write_allocations(path, allocs)
    assert tdio.read_allocations(path) == allocs


@pytest.mark.parametrize(
    "write, bad_argument",
    [
        # fails on its second line, after the first has been written
        (tdio.write_allocations, [AllocationVector((1,)), None]),
        # fails inside the JSON encoder
        (tdio.write_acceptance, {"birth": object()}),
    ],
    ids=["mid-file", "json"],
)
def test_failed_write_keeps_previous_file(tmp_path, write, bad_argument):
    path = tmp_path / "artifact"
    path.write_text("previous\n")
    with pytest.raises((AttributeError, TypeError)):
        write(path, bad_argument)
    assert path.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


def test_read_sample_set_rejects_inconsistent_k(tmp_path):
    path = tmp_path / "bad.ndjson"
    path.write_text('{"i": 0, "k": 2, "theta": [1.0]}\n')
    with pytest.raises(ValueError):
        tdio.read_sample_set(path)


# ---------------------------------------------------------------------------
# Pipeline bundle
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    cfg = parse_pipeline_config(SMALL_CONFIG)
    paths = run_pipeline(cfg, out)
    return out, paths


def test_pipeline_writes_expected_bundle(small_run):
    out, paths = small_run
    for name in EXPECTED_FILES:
        assert (out / name).exists(), name
    assert not list(out.glob("*.tmp"))


def test_pipeline_outputs_parse(small_run):
    out, _ = small_run
    json.loads((out / "model.json").read_text())
    json.loads((out / "acceptance.json").read_text())
    for name in ("trace.csv", "summary_table.csv", "intensities.csv"):
        with (out / name).open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) >= 2
        assert all(len(r) == len(rows[0]) for r in rows)
    # trace has one line per SEM iteration
    with (out / "trace.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) - 1 == SMALL_CONFIG["sem"]["n_iterations"]


def test_pipeline_summary_table_layout(small_run):
    out, _ = small_run
    with (out / "summary_table.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["component", "mu", "s", "pi", "mu_bms", "s_bms"]
    mus = [float(r[1]) for r in rows[1:] if r[1] != "-"]
    assert mus == sorted(mus)


def test_pipeline_intensities_consistency(small_run):
    out, _ = small_run
    samples = tdio.read_sample_set(out / "samples.ndjson")
    with (out / "intensities.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    width = math.pi / SMALL_CONFIG["report"]["bins"]
    bma_integral = sum(float(r[1]) for r in rows) * width
    mean_k = np.mean([s.k for s in samples.samples])
    assert bma_integral == pytest.approx(float(mean_k), abs=1e-9)
    # background integral equals (count of 0-labels)/M up to binning
    allocs = tdio.read_allocations(out / "allocations.ndjson")
    zeros = sum(1 for z in allocs for l in z.z if l == 0)
    bg_integral = sum(float(r[2]) for r in rows) * width
    assert bg_integral == pytest.approx(zeros / len(samples.samples), abs=1e-9)


def test_pipeline_pure_noise_scene(tmp_path):
    cfg = parse_pipeline_config(NOISE_CONFIG)
    paths = run_pipeline(cfg, tmp_path / "noise")
    samples = tdio.read_sample_set(paths["samples.ndjson"])
    ks = [s.k for s in samples.samples]
    assert np.bincount(ks).argmax() == 0  # MAP k = 0 for pure noise
    model = tdio.read_model(paths["model.json"])
    assert model.n_components <= 1
    with paths["summary_table.csv"].open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) >= 1  # header only or near-empty table, no crash


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def read_bytes_tree(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


def test_cli_pipeline_rerun_is_byte_identical(tmp_path):
    cfg_path = write_config(tmp_path, SMALL_CONFIG)
    runner = CliRunner()
    for out in ("run1", "run2"):
        result = runner.invoke(
            main, ["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / out)]
        )
        assert result.exit_code == 0, result.output
    assert read_bytes_tree(tmp_path / "run1") == read_bytes_tree(tmp_path / "run2")


def test_cli_sample_fit_report_chain(tmp_path):
    cfg_path = write_config(tmp_path, SMALL_CONFIG)
    runner = CliRunner()
    sample_out = tmp_path / "s"
    r = runner.invoke(main, ["sample", "--config", str(cfg_path), "--out", str(sample_out)])
    assert r.exit_code == 0, r.output
    assert (sample_out / "samples.ndjson").exists()
    assert (sample_out / "acceptance.json").exists()

    fit_out = tmp_path / "f"
    r = runner.invoke(
        main,
        ["fit", "--config", str(cfg_path), "--samples", str(sample_out / "samples.ndjson"),
         "--out", str(fit_out)],
    )
    assert r.exit_code == 0, r.output
    assert (fit_out / "model.json").exists()
    assert (fit_out / "trace.csv").exists()
    assert (fit_out / "allocations.ndjson").exists()

    report_out = tmp_path / "r"
    r = runner.invoke(
        main,
        ["report", "--samples", str(sample_out / "samples.ndjson"),
         "--model", str(fit_out / "model.json"),
         "--allocations", str(fit_out / "allocations.ndjson"),
         "--out", str(report_out), "--bins", "64"],
    )
    assert r.exit_code == 0, r.output
    assert (report_out / "summary_table.csv").exists()
    assert (report_out / "intensities.csv").exists()


def test_cli_seed_override_changes_output(tmp_path):
    cfg_path = write_config(tmp_path, SMALL_CONFIG)
    runner = CliRunner()
    r1 = runner.invoke(
        main, ["sample", "--config", str(cfg_path), "--out", str(tmp_path / "a"),
               "--seed", "100"],
    )
    r2 = runner.invoke(
        main, ["sample", "--config", str(cfg_path), "--out", str(tmp_path / "b"),
               "--seed", "100"],
    )
    r3 = runner.invoke(
        main, ["sample", "--config", str(cfg_path), "--out", str(tmp_path / "c"),
               "--seed", "101"],
    )
    assert r1.exit_code == r2.exit_code == r3.exit_code == 0
    ya = (tmp_path / "a" / "y.csv").read_bytes()
    assert ya == (tmp_path / "b" / "y.csv").read_bytes()
    assert ya != (tmp_path / "c" / "y.csv").read_bytes()


def test_cli_external_observation_import(tmp_path):
    cfg_path = write_config(tmp_path, SMALL_CONFIG)
    y = np.random.default_rng(3).normal(size=64)
    y_path = tmp_path / "external_y.csv"
    tdio.write_y_csv(y_path, y)
    runner = CliRunner()
    r = runner.invoke(
        main, ["sample", "--config", str(cfg_path), "--out", str(tmp_path / "ext"),
               "--y-csv", str(y_path)],
    )
    assert r.exit_code == 0, r.output
    assert np.array_equal(tdio.read_y_csv(tmp_path / "ext" / "y.csv"), y)


def test_cli_bad_config_fails_with_stage_code(tmp_path):
    bad = dict(SMALL_CONFIG, sampler=dict(SMALL_CONFIG["sampler"], n_sweeps=10, burn_in=50))
    cfg_path = write_config(tmp_path, bad, "bad.json")
    runner = CliRunner()
    r = runner.invoke(main, ["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert r.exit_code != 0


@given(st.integers(1, 10**7))
def test_config_sections_default_to_the_dataclasses(n_sweeps):
    assert tdio.parse_sampler_config({"n_sweeps": n_sweeps}) == SamplerConfig(n_sweeps=n_sweeps)
    assert tdio.parse_sem_config({}) == SemConfig()


def test_config_section_types_and_required_key():
    cfg = tdio.parse_sampler_config(
        {"n_sweeps": "40", "lambda_k": 3, "sample_delta2": 1, "rw_scale": 0.01}
    )
    assert (cfg.n_sweeps, cfg.lambda_k, cfg.sample_delta2, cfg.rw_scale) == (40, 3.0, True, 0.01)
    assert type(cfg.lambda_k) is float
    with pytest.raises(KeyError, match="n_sweeps"):
        tdio.parse_sampler_config({"burn_in": 5})


@pytest.mark.parametrize(
    "section, key",
    [("sampler", "burnin"), ("sem", "n_iter"), ("scene", "snr"), ("report", "bin"),
     (None, "samplers")],
)
def test_config_rejects_unknown_keys(section, key):
    doc = json.loads(json.dumps(SMALL_CONFIG))
    (doc if section is None else doc[section])[key] = 10
    where = "top level" if section is None else f"section '{section}'"
    with pytest.raises(ValueError, match=f"{where}: {key}$"):
        parse_pipeline_config(doc)


def test_shipped_configs_parse():
    for path in ("configs/three_sinusoids.json", "perfbench/dense_scene.json"):
        parse_pipeline_config(tdio.load_config(ROOT / path))
    parse_pipeline_config(flagship_config(0))


DEGENERATE_Y = {"all-zero": [0.0] * 64, "constant": [2.5] * 64,
                "nan": [1.0] * 63 + [math.nan]}


@pytest.mark.parametrize("name", sorted(DEGENERATE_Y))
def test_cli_sample_rejects_degenerate_observation(tmp_path, name):
    cfg_path = write_config(tmp_path, SMALL_CONFIG)
    y_path = tmp_path / "y_in.csv"
    tdio.write_y_csv(y_path, np.array(DEGENERATE_Y[name]))
    out = tmp_path / "s"
    r = CliRunner().invoke(
        main, ["sample", "--config", str(cfg_path), "--out", str(out), "--y-csv", str(y_path)]
    )
    assert r.exit_code == STAGE_EXIT_CODES["sample"] == 3, r.output
    assert "observation y" in r.output
    assert not (out / "samples.ndjson").exists()


def inject_failure(*args, **kwargs):
    raise RuntimeError("injected stage failure")


@pytest.mark.parametrize(
    "command, stage, target",
    [("pipeline", "scene", "synthesize_signal"), ("sample", "sample", "run_sampler"),
     ("fit", "fit", "run_sem"), ("report", "report", "bms_summary")],
)
def test_cli_exit_codes(tmp_path, monkeypatch, command, stage, target):
    """A failure inside a stage exits with that stage's code; a config or
    input error outside any stage exits with 1."""
    good = write_config(tmp_path, SMALL_CONFIG, "good.json")
    bad = write_config(tmp_path, dict(SMALL_CONFIG, sampler={"burnin": 10}), "bad.json")
    samples = tmp_path / "samples.ndjson"
    samples.write_text('{"i": 0, "k": 1, "theta": [1.0]}\n')
    model = tmp_path / "model.json"
    tdio.write_model(model, SummaryModel((GaussianComponent(1.0, 0.01, 0.5),), eta=0.1))
    allocations = tmp_path / "allocations.ndjson"
    tdio.write_allocations(allocations, [AllocationVector((1,))])

    def args(config, model_path=model):
        out = ["--out", str(tmp_path / "out")]
        if command == "report":
            return [command, "--samples", str(samples), "--model", str(model_path),
                    "--allocations", str(allocations)] + out
        extra = ["--samples", str(samples)] if command == "fit" else []
        return [command, "--config", str(config)] + extra + out

    runner = CliRunner()
    broken_model = tmp_path / "broken_model.json"
    broken_model.write_text("{}")
    r = runner.invoke(main, args(bad, model_path=broken_model))
    assert r.exit_code == 1, r.output

    monkeypatch.setattr(tdpipeline, target, inject_failure)
    r = runner.invoke(main, args(good))
    assert r.exit_code == STAGE_EXIT_CODES[stage], r.output
    assert f"stage '{stage}' failed: injected stage failure" in r.output
