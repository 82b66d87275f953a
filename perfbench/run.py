"""Benchmark of the sample -> fit -> report pipeline.

    python3 perfbench/run.py --workload flagship --seed 1 --seconds 30 --trace 0

Runs whole rounds of one workload's timed call for about ``--seconds``
seconds in this one process, with BLAS pinned to one thread, then checks the
outputs (untimed) and prints every metric by name, unit and kind.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
See README.md in this directory for the workloads and the metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = ROOT / ".perfbench_runs"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5

# name -> (unit, kind).  "measured" is timed by the benchmark; "counted"
# comes from the program's own counters; "computed" is a formula of the
# run's inputs; "estimated" rests on a model of where the time goes.
END_TO_END = {
    "run_s": ("s", "measured: median wall time of one timed call"),
    "setup_s": ("s", "measured: import transdim + median of the input builds"),
    "ess_k_per_s": ("1/s", "measured: Geyer ESS of k over the stored draws / time"),
    "peak_rss_mb": ("MiB", "measured: peak resident memory after the timed calls"),
}
PER_LAYER = {
    "pipeline.run_s": ("s", "measured: mean traced wall time of one timed call"),
    "rjmcmc.sample_s": ("s", "measured"),
    "rjmcmc.sweeps_per_s": ("1/s", "measured"),
    "rjmcmc.us_per_proposal": ("us", "measured / counted"),
    "rjmcmc.proposals_per_sweep": ("count", "counted"),
    "rjmcmc.birth_death_accept": ("ratio", "counted"),
    "rjmcmc.update_accept": ("ratio", "counted"),
    "rjmcmc.ess_k": ("draws", "measured: Geyer ESS of k per chain"),
    "sem.fit_s": ("s", "measured"),
    "sem.iteration_ms": ("ms", "measured"),
    "model.criterion_s": ("s", "measured: one sem.criterion call"),
    "model.dp_updates": ("count", "computed"),
    "sem.criterion_share_est": ("ratio", "estimated"),
    "allocation.label_draws": ("count", "computed"),
    "allocation.label_draws_per_s_est": ("1/s", "estimated"),
    "io.write_s": ("s", "measured"),
    "io.read_s": ("s", "measured: reading the bundle back"),
    "io.bundle_bytes": ("bytes", "counted"),
    "report.report_s": ("s", "measured"),
    "pipeline.other_s": ("s", "measured: run_s minus the traced layers"),
    "pipeline.trace_overhead_s": ("s", "measured: traced minus untraced last round"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("flagship", "dense-scene", "fit-L6"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="shrink every timed call, for the benchmark's own tests")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Import transdim from this checkout's src/; returns (package, seconds)."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    start = time.perf_counter()
    import transdim
    import transdim.io
    import transdim.pipeline
    import transdim.sem

    elapsed = time.perf_counter() - start
    if not Path(transdim.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"transdim imported from {transdim.__file__}, not from src/")
    return transdim, elapsed


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_rounds(workload, seconds, run_dir, tracer):
    """Whole rounds of the timed call: after round 0 the count is set so the
    rounds take about ``seconds``.  Returns per-round records."""
    rounds = []
    planned = 1
    while len(rounds) < planned:
        r = len(rounds)
        out = run_dir / f"round{r}"
        rec = {"round": r, "out": out, "ok": True}
        ctx = tracer.round(r) if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with ctx:
                workload.run(r, out)
        except Exception:  # a failed call is counted, and the run goes on
            traceback.print_exc()
            rec["ok"] = False
        rec["seconds"] = time.perf_counter() - start
        if tracer:
            rec["layers"] = dict(tracer.layer_s)
        if rec["ok"]:
            workload.after_round(r, out)
        rounds.append(rec)
        if r == 0:
            planned = max(1, round(seconds / rec["seconds"]))
    return rounds


def end_to_end(rounds, import_s, build_s, ess, peak_rss_mb):
    ok = [r for r in rounds if r["ok"]]
    return {
        "run_s": statistics.median(r["seconds"] for r in ok),
        "setup_s": import_s + statistics.median(build_s),
        "ess_k_per_s": sum(ess) / sum(r["seconds"] for r in ok),
        "peak_rss_mb": peak_rss_mb,
    }


def _accept_rate(moves: list[dict], kinds: tuple[str, ...]) -> float:
    proposed = sum(mv[k]["proposed"] for mv in moves for k in kinds)
    return sum(mv[k]["accepted"] for mv in moves for k in kinds) / proposed


def per_layer(td, bench_checks, workload, rounds, ess, sample_sets, rerun_s):
    """Layer metrics of a traced run: layer times are means over the good
    rounds, so they and pipeline.other_s add up to pipeline.run_s."""
    ok = [r for r in rounds if r["ok"]]

    def layer(name):
        return statistics.fmean(r["layers"].get(name, 0.0) for r in ok)

    run_s = statistics.fmean(r["seconds"] for r in ok)
    sample_s, fit_s = layer("rjmcmc"), layer("sem")
    m = {"pipeline.run_s": run_s, "rjmcmc.sample_s": sample_s}
    if workload.has_sampler:
        moves = [workload.proposals(r["out"]) for r in ok]
        proposed = statistics.fmean(sum(v["proposed"] for v in mv.values()) for mv in moves)
        m["rjmcmc.sweeps_per_s"] = workload.n_sweeps / sample_s
        m["rjmcmc.us_per_proposal"] = 1e6 * sample_s / proposed
        m["rjmcmc.proposals_per_sweep"] = proposed / workload.n_sweeps
        m["rjmcmc.birth_death_accept"] = _accept_rate(moves, ("birth", "death"))
        m["rjmcmc.update_accept"] = _accept_rate(moves, ("update",))
        m["rjmcmc.ess_k"] = statistics.fmean(ess)
    else:  # no sampler runs on this workload
        for name in ("sweeps_per_s", "us_per_proposal", "proposals_per_sweep",
                     "birth_death_accept", "update_accept", "ess_k"):
            m[f"rjmcmc.{name}"] = 0.0

    sem_cfg = workload.sem_config(0)
    samples = sample_sets[0]
    model = td.io.read_model(ok[0]["out"] / "model.json")
    calls = []
    for _ in range(3):
        start = time.perf_counter()
        td.sem.criterion(samples, model)
        calls.append(time.perf_counter() - start)
    criterion_s = statistics.median(calls)
    L = model.n_components
    points = sum(s.k for s in samples.samples)
    label_draws = points * (sem_cfg.inner_imh_steps + 1) * sem_cfg.n_iterations
    m["sem.fit_s"] = fit_s
    m["sem.iteration_ms"] = 1e3 * fit_s / sem_cfg.n_iterations
    m["model.criterion_s"] = criterion_s
    m["model.dp_updates"] = points * L * 2 ** (L - 1) if L else 0
    m["sem.criterion_share_est"] = sem_cfg.n_iterations * criterion_s / fit_s
    m["allocation.label_draws"] = label_draws
    m["allocation.label_draws_per_s_est"] = label_draws / (
        fit_s - sem_cfg.n_iterations * criterion_s
    )

    start = time.perf_counter()
    bench_checks.read_bundle(td.io, ok[0]["out"])
    m["io.read_s"] = time.perf_counter() - start
    m["io.write_s"] = layer("io")
    m["io.bundle_bytes"] = sum(p.stat().st_size for p in ok[0]["out"].iterdir())
    m["report.report_s"] = layer("report")
    m["pipeline.other_s"] = run_s - (sample_s + fit_s + m["io.write_s"] + m["report.report_s"])
    m["pipeline.trace_overhead_s"] = ok[-1]["seconds"] - rerun_s
    return m


def check_rounds(td, bench_checks, workload, ok, run_dir):
    """Untimed checks of the good rounds.  The last one is run again,
    untraced: its bytes must not change, and in a traced run the difference
    in time is the tracing overhead (both calls warm).  Returns the check
    results, each round's draws and the rerun's seconds."""
    last = ok[-1]
    rerun = run_dir / "rerun"
    start = time.perf_counter()
    workload.run(last["round"], rerun)
    rerun_s = time.perf_counter() - start
    workload.after_round(last["round"], rerun)

    bundles = [r["out"] for r in ok]
    sample_sets = [td.io.read_sample_set(b / "samples.ndjson") for b in bundles]
    results = [
        ("bundle round-trips through the io readers",
         *bench_checks.bundle_round_trips(td.io, last["out"], run_dir / "rewrite")),
        ("rerun is byte-identical", *bench_checks.same_bytes(last["out"], rerun)),
    ]
    results += workload.checks(bundles, sample_sets)
    return results, sample_sets, rerun_s


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        td, import_s = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    # Imported only now: they import numpy, whose import belongs to setup_s.
    import bench_checks
    import bench_workloads
    from bench_trace import Tracer

    workload = bench_workloads.make(args.workload, td, ROOT, args.smoke)
    build_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup(args.seed)
        build_s.append(time.perf_counter() - start)

    RUNS_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=RUNS_DIR))
    tracer = Tracer(td) if args.trace else None
    metrics, table, ess = {}, {}, []
    try:
        rounds = run_rounds(workload, args.seconds, run_dir, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ok = [r for r in rounds if r["ok"]]
        if ok:
            results, sample_sets, rerun_s = check_rounds(td, bench_checks, workload, ok, run_dir)
            ess = [bench_checks.ess_geyer([s.k for s in ss.samples]) for ss in sample_sets]
            if tracer:
                metrics = per_layer(td, bench_checks, workload, rounds, ess, sample_sets, rerun_s)
                table = PER_LAYER
            else:
                metrics = end_to_end(rounds, import_s, build_s, ess, peak_rss_mb)
                table = END_TO_END
        else:
            results = [("at least one timed call succeeded", False, "every call failed")]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if tracer:
        spans = RUNS_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps(tracer.spans) + "\n", encoding="utf-8")

    correct = all(ok_ for _, ok_, _ in results)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(rounds)} in {sum(r['seconds'] for r in rounds):.1f} s")
    print("  round seconds: " + " ".join(f"{r['seconds']:.3f}" for r in rounds))
    print("  round ESS of k: " + " ".join(f"{e:.1f}" for e in ess))
    for name, ok_, detail in results:
        print(f"  check {'PASS' if ok_ else 'FAIL'}: {name}: {detail}")
    for name, value in metrics.items():
        unit, kind = table[name]
        print(f"  {name} = {value:.6g} {unit}  ({kind})")
    print("machine " + json.dumps(machine_record()))
    print(json.dumps({
        "correct": correct,
        "attempted": len(rounds),
        "failed": len(rounds) - len(ok),
        "metrics": {k: {"value": v, "unit": table[k][0]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
