"""simplat benchmark: end-to-end figures from an untraced run, per-layer
figures from a separate traced run.

    python3 simbench/run.py --workload fuzz --seed 1 --seconds 30 --trace 0
    python3 simbench/run.py --report --seed 1 --seconds 10
    python3 simbench/run.py --self-test

Run from anywhere inside a checkout of the repository: the library is
imported from ../src relative to this file, and nothing else is needed.

A run starts fresh interpreters one after another (client.py), because every
CLI call starts with empty module caches.  Untraced, SETUP_REPEATS of them set
up the workload and the last also runs one closed-loop client with no threads
for --seconds; setup_s is the median of their set-up times.  Traced, a single
interpreter sets up and runs with the layer trace installed.  The last line of
standard output is one JSON object with the metrics of the requested mode;
the line before it records the run's context.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import layertrace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("fuzz", "doc", "dilate")
SETUP_REPEATS = 5
TAIL_BEYOND = 10
RUN_BUDGET_S = 170  # a run must end within 180 s
POLICY = (f"each run starts fresh interpreters in turn: untraced, {SETUP_REPEATS} "
          "set up (setup_s is their median) and the last runs one closed-loop "
          "client, no threads, for --seconds; traced, one interpreter sets up "
          "and runs with the layer trace; ops_per_s is the median over complete "
          "rounds of ops per second of op time; op and set-up times are "
          "scaled to nominal host speed by a calibration kernel timed between "
          "ops")

END_TO_END = [("ops_per_s", "1/s"), ("op_p50_s", "s"), ("op_tail_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB")]
SETUP_LAYERS = [("setup.import_s", "s"), ("setup.inputs_s", "s"),
                ("trace.ops_per_s", "1/s")]


class BenchError(Exception):
    pass


def _workloads():
    if not (SRC / "simplat" / "__init__.py").is_file():
        raise BenchError(f"no library source at {SRC / 'simplat'}")
    sys.path.insert(0, str(SRC))
    import workloads
    return workloads


def run_clients(workload: str, seed: int, seconds: float, trace: int,
                workdir: Path) -> list[dict]:
    """Spawn the run's interpreters one at a time and collect their figures."""
    deadline = time.monotonic() + RUN_BUDGET_S
    count = 1 if trace else SETUP_REPEATS
    results = []
    for i in range(count):
        out = workdir / f"client-{i}.json"
        inputs = workdir / f"inputs-{i}"
        inputs.mkdir()
        spawned = time.monotonic()
        cmd = [sys.executable, str(HERE / "client.py"), "--root", str(ROOT),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--spawned-at", repr(spawned), "--workdir", str(inputs),
               "--out", str(out)]
        if i < count - 1:
            cmd.append("--setup-only")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"client {i} ran past the {RUN_BUDGET_S} s budget") from exc
        if proc.returncode != 0:
            raise BenchError(f"client {i} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        results.append(json.loads(out.read_text()))
        shutil.rmtree(inputs)
    return results


def tail(latencies: list[float]) -> tuple[float, dict]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    that is the (TAIL_BEYOND+1)-th slowest op, and where it stands."""
    ordered = sorted(latencies, reverse=True)
    beyond = min(TAIL_BEYOND, len(ordered) - 1)
    return ordered[beyond], {
        "percentile": round(100.0 * (len(ordered) - beyond) / len(ordered), 3),
        "samples": len(ordered), "beyond": beyond}


def throughput(latencies: list[float], round_size: int) -> float:
    """Median over the run's complete rounds of ops per second of op time.

    Every round holds the same mix of configurations, so round rates are
    alike, and their median is not moved by a burst of load from outside.
    """
    rounds = len(latencies) // round_size
    if rounds == 0:
        return len(latencies) / sum(latencies)
    return statistics.median(
        round_size / sum(latencies[i * round_size:(i + 1) * round_size])
        for i in range(rounds))


def summarize(results: list[dict], trace: int) -> tuple[dict, dict]:
    """(metrics, details) of one run from its clients' figures.  Times are
    scaled to nominal host speed (calibrate.py); the wall-clock figures go
    into the details."""
    main = results[-1]
    wall = main["latencies"]
    lat = calibrate.scale(main["starts"], wall, main["kernels"])
    ops_per_s = throughput(lat, main["round_size"])
    failed = main["refused"] + main["wrong"]
    details = {"attempted": len(lat), "failed": failed, "wrong": main["wrong"],
               "refused": main["refused"], "failed_frac": failed / len(lat),
               "failures": main["failures"],
               "host_factor": calibrate.host_factor([k[1] for k in main["kernels"]]),
               "wall_ops_per_s": throughput(wall, main["round_size"])}
    if trace:
        metrics = layertrace.layer_metrics(main["totals"], len(lat))
        metrics["setup.import_s"] = main["imported"] - main["spawned"]
        metrics["setup.inputs_s"] = main["ready"] - main["imported"]
        metrics["trace.ops_per_s"] = ops_per_s
        details["trace_sites"] = main["sites"]
        return metrics, details
    tail_s, details["op_tail"] = tail(lat)
    details["setup_runs_s"] = [(r["ready"] - r["spawned"])
                               / calibrate.host_factor(r["setup_kernels"])
                               for r in results]
    details["setup_runs_wall_s"] = [r["ready"] - r["spawned"] for r in results]
    details["wall_op_p50_s"] = statistics.median(wall)
    details["wall_op_tail_s"] = tail(wall)[0]
    metrics = {"ops_per_s": ops_per_s,
               "op_p50_s": statistics.median(lat),
               "op_tail_s": tail_s,
               "setup_s": statistics.median(details["setup_runs_s"]),
               "peak_rss_mb": main["peak_rss_kb"] / 1024}
    return metrics, details


def context(seed: int, seconds: float) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "simplat").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "seed": seed, "seconds": seconds, "git_commit": commit,
            "source_sha256": digest.hexdigest(), "policy": POLICY}


def measure(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    scratch = ROOT / ".simbench_work"
    workdir = scratch / f"run-{os.getpid()}-{workload}-{trace}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        results = run_clients(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    return summarize(results, trace)


def report(seed: int, seconds: float, workloads) -> None:
    """Every metric of every workload by name with its unit, traced and
    untraced, and the tracing overhead."""
    print(json.dumps(context(seed, seconds)))
    units = dict(END_TO_END + layertrace.LAYER_METRICS + SETUP_LAYERS)
    for name in WORKLOADS:
        untraced, plain = measure(name, seed, seconds, 0)
        traced, layered = measure(name, seed, seconds, 1)
        print(f"\n== {name}: {workloads.WHY[name]}")
        print(f"   failed_frac {plain['failed_frac']:.6g} ({plain['failed']} of "
              f"{plain['attempted']} ops); op_tail_s is p{plain['op_tail']['percentile']} "
              f"of {plain['attempted']} samples")
        for key, value in list(untraced.items()) + list(traced.items()):
            note = " (computed from arguments)" if key == "counting.box_points" else ""
            print(f"   {key:34s} {value:14.6g} {units[key]}{note}")
        overhead = untraced["ops_per_s"] / traced["trace.ops_per_s"] - 1
        print(f"   tracing overhead: ops_per_s {untraced['ops_per_s']:.6g} untraced, "
              f"{traced['trace.ops_per_s']:.6g} traced ({overhead:+.1%} time per op)")
        for failure in plain["failures"] + layered["failures"]:
            print(f"   failure: {failure}")


def self_test(workloads) -> None:
    """Trace sites are rebound and restored to the identical functions, and
    the output checks catch a wrong count."""
    import simplat
    modules = [m for n, m in sys.modules.items()
               if n == "simplat" or n.startswith("simplat.")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()
              if callable(v)}
    tracer = layertrace.Tracer()
    tracer.install()
    for mod, name in layertrace.SITES:
        if getattr(sys.modules[f"simplat.{mod}"], name) is before[(f"simplat.{mod}", name)]:
            raise BenchError(f"simplat.{mod}.{name} was not rebound")
    sites = tracer.sites
    scratch = ROOT / ".simbench_work" / f"self-test-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        for name in WORKLOADS:
            problem = workloads.Workload(name, 0, scratch).next_op().run()
            if problem is not None:
                raise BenchError(f"first {name} op failed its checks: {problem}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
        tracer.uninstall()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()
             if callable(v)}
    changed = [f"{m}.{k}" for (m, k), v in before.items() if after.get((m, k)) is not v]
    if changed or after.keys() != before.keys():
        raise BenchError(f"functions not restored: {changed}")
    totals = tracer.totals()
    for key in ("cli.main", "verify.run_fuzz", "verify.run_verify",
                "exactlp.maximize", "counting.count_simplex"):
        if not totals[f"{key}.calls"]:
            raise BenchError(f"trace recorded no call of {key}")
    t = workloads.planned_dilation(2, 30)
    if workloads._check_full_grid(2, 2, 30, t, (2 * t + 1) ** 2 + 1, 1) is None:
        raise BenchError("a wrong full-grid count passed the output check")
    print(f"self-test passed: {len(tracer.spans)} functions traced at "
          f"{len(sites)} sites and restored; simplat {simplat.__version__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="print every metric of every workload")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    try:
        workloads = _workloads()
        if args.self_test:
            self_test(workloads)
            return 0
        if args.report:
            report(args.seed, args.seconds, workloads)
            return 0
        if args.workload is None:
            parser.error("--workload, --report or --self-test is required")
        metrics, details = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    units = dict(END_TO_END + layertrace.LAYER_METRICS + SETUP_LAYERS)
    info = context(args.seed, args.seconds)
    info.update(workload=args.workload, why=workloads.WHY[args.workload],
                trace=args.trace, **details)
    print(json.dumps(info))
    print(json.dumps({
        "correct": details["wrong"] == 0,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
