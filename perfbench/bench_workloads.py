"""The three workloads: how each builds its inputs, its timed call, and its
checks.

A run is a number of rounds of one timed call.  In a pipeline workload round
r runs ``run_pipeline`` with the config's sampler seed plus r, and fit-L6
always fits the same simulated draws, so the ESS of k does not change from
run to run; ``--seed`` chooses the SEM seed of every round.
"""
from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

import bench_checks as checks

FLAGSHIP_CONFIG = "configs/three_sinusoids.json"
DENSE_CONFIG = "perfbench/dense_scene.json"

# One tenth of the shipped flagship chain (220 000 sweeps, 20 000 burn-in):
# the shipped chain takes about a minute, longer than a whole run may.
FLAGSHIP_CHAIN = {"n_sweeps": 22_000, "burn_in": 2_000}
SMOKE_CHAINS = {
    "flagship": {"n_sweeps": 5_500, "burn_in": 500},
    "dense-scene": {"n_sweeps": 2_400, "burn_in": 600},
}

# fit-L6: six separated components with a background.  P(k <= 5) is about
# 0.55 and P(k <= 6) about 0.94, so the 90 % rule picks L = 6.
FIT_GENERATOR = (  # (mu, s, pi)
    (0.4, 0.010, 0.95),
    (0.9, 0.020, 0.90),
    (1.4, 0.015, 0.80),
    (1.9, 0.030, 0.97),
    (2.4, 0.020, 0.85),
    (2.9, 0.012, 0.90),
)
FIT_ETA = 0.02
FIT_DRAWS = 2_000
FIT_DRAWS_SEED = 0
SMOKE_FIT_DRAWS = 500
FIT_SEM = {"n_iterations": 50, "init_percentile": 0.9, "inner_imh_steps": 5,
           "averaging_window": 10}


def sem_seed(seed: int, round_index: int) -> int:
    """The SEM seed of one round, drawn from (``--seed``, round)."""
    return int(np.random.SeedSequence([seed, round_index]).generate_state(1)[0])


class PipelineWorkload:
    """``run_pipeline`` on a scene config."""

    has_sampler = True

    def __init__(self, td, root: Path, config: str, chain: dict | None):
        self.td = td
        self.config_path = root / config
        self.chain = chain or {}

    def setup(self, seed: int) -> None:
        cfg = self.td.pipeline.parse_pipeline_config(self.td.io.load_config(self.config_path))
        self.base = dataclasses.replace(
            cfg, sampler=dataclasses.replace(cfg.sampler, **self.chain)
        )
        self.seed = seed

    def sem_config(self, r: int):
        return dataclasses.replace(self.base.sem, seed=sem_seed(self.seed, r))

    def run(self, r: int, out: Path) -> None:
        cfg = dataclasses.replace(
            self.base,
            sampler=dataclasses.replace(self.base.sampler, seed=self.base.sampler.seed + r),
            sem=self.sem_config(r),
        )
        self.td.pipeline.run_pipeline(cfg, out)

    def after_round(self, r: int, out: Path) -> None:
        """Untimed work after a round's timed call: none here."""

    @property
    def n_sweeps(self) -> int:
        return self.base.sampler.n_sweeps

    @staticmethod
    def proposals(out: Path) -> dict:
        return json.loads((out / "acceptance.json").read_text(encoding="utf-8"))["moves"]


class Flagship(PipelineWorkload):
    def checks(self, bundles, sample_sets):
        from flagship import MIDDLE_EVENT, ORACLE_GRID, criterion1_seed_ok
        from test_rjmcmc import grid_posterior_pk

        y = self.td.io.read_y_csv(bundles[0] / "y.csv")
        oracle = grid_posterior_pk(y, self.base.sampler, **ORACLE_GRID)
        out = [("chain matches grid oracle",
                *checks.chain_matches_oracle(sample_sets, oracle, MIDDLE_EVENT))]
        for r, b in enumerate(bundles):
            model = self.td.io.read_model(b / "model.json")
            out.append((f"round {r} summary passes criterion 01",
                        *criterion1_seed_ok(model, oracle.resolved_middle)))
        return out


class DenseScene(PipelineWorkload):
    def checks(self, bundles, sample_sets):
        scene = self.base.scene
        sd = checks.cramer_rao_sd(scene)
        out = [("MAP k is the true k", *checks.map_k_is_true(sample_sets, scene.k))]
        for r, b in enumerate(bundles):
            model = self.td.io.read_model(b / "model.json")
            out.append((f"round {r} components match the scene",
                        *checks.components_match_scene(model, scene, sd)))
        return out


class FitL6:
    """``run_sem`` alone on draws simulated from a known summary model."""

    has_sampler = False

    def __init__(self, td, draws: int):
        self.td = td
        self.m = draws
        self._result = None

    def setup(self, seed: int) -> None:
        td = self.td
        self.generator = td.SummaryModel(
            tuple(td.GaussianComponent(mu, s * s, pi) for mu, s, pi in FIT_GENERATOR), FIT_ETA
        )
        rng = np.random.default_rng(FIT_DRAWS_SEED)
        self.samples = td.simulate_sample_set(self.generator, self.m, rng)
        self.seed = seed

    def sem_config(self, r: int):
        return self.td.SemConfig(seed=sem_seed(self.seed, r), **FIT_SEM)

    def run(self, r: int, out: Path) -> None:
        self._result = self.td.sem.run_sem(self.samples, self.sem_config(r))

    def after_round(self, r: int, out: Path) -> None:
        """Write the fit's bundle, as ``transdim fit`` would, outside the
        timed call."""
        io = self.td.io
        model, trace = self._result
        out.mkdir(parents=True, exist_ok=True)
        io.write_sample_set(out / "samples.ndjson", self.samples)
        io.write_model(out / "model.json", model)
        io.write_trace_csv(out / "trace.csv", trace)
        io.write_allocations(out / "allocations.ndjson", trace.final_allocations)
        self._result = None

    def checks(self, bundles, sample_sets):
        return [
            (f"round {r} fit matches the generating model",
             *checks.fit_matches_generator(
                 self.td.io.read_model(b / "model.json"), self.generator, self.m))
            for r, b in enumerate(bundles)
        ]


WORKLOADS = ("flagship", "dense-scene", "fit-L6")


def make(name: str, td, root: Path, smoke: bool):
    if name == "flagship":
        chain = SMOKE_CHAINS[name] if smoke else FLAGSHIP_CHAIN
        return Flagship(td, root, FLAGSHIP_CONFIG, chain)
    if name == "dense-scene":
        return DenseScene(td, root, DENSE_CONFIG, SMOKE_CHAINS[name] if smoke else None)
    if name == "fit-L6":
        return FitL6(td, SMOKE_FIT_DRAWS if smoke else FIT_DRAWS)
    raise ValueError(f"unknown workload {name!r}")
