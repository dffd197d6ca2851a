"""One fresh interpreter of a benchmark run: import the library, set up the
workload's first round of inputs, then (unless --setup-only) run one
closed-loop client, one op at a time and no threads, until --seconds have
passed.  Times the calibration kernel after set-up and between ops.  Writes
its raw figures as JSON to --out.

Run by run.py; the times it reports are CLOCK_MONOTONIC readings, which the
parent compares with the time it spawned this process.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

MAX_FAILURES_KEPT = 5
# Peak memory is read once this many ops are done (or at the end of a run
# with fewer), so that it measures a fixed amount of work: the library's
# caches grow with every distinct simplex, and a faster program would
# otherwise show more memory for doing more ops in the same time.
MEMORY_OPS = 50


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    src = Path(args.root).resolve() / "src"
    sys.path.insert(0, str(src))
    import simplat
    if not Path(simplat.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"simplat resolved to {simplat.__file__}, not under {src}")
    import calibrate
    import layertrace
    import workloads
    imported = time.monotonic()

    tracer = None
    if args.trace:
        tracer = layertrace.Tracer()
        tracer.install()
        tracer.active = False  # set-up and input preparation stay untraced
    workload = workloads.Workload(args.workload, args.seed, Path(args.workdir))
    workload.prepare_round()
    ready = time.monotonic()
    result = {"spawned": args.spawned_at, "imported": imported, "ready": ready,
              "setup_kernels": [calibrate.time_kernel()[1]
                                for _ in range(calibrate.SETUP_KERNELS)]}
    if not args.setup_only:
        result.update(run_ops(workload, tracer, ready + args.seconds))
    if tracer is not None:
        result["totals"] = tracer.totals()
        result["sites"] = tracer.sites
        tracer.uninstall()
    result["round_size"] = workload.round_size
    Path(args.out).write_text(json.dumps(result))
    return 0


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_ops(workload, tracer, deadline: float) -> dict:
    from calibrate import INTERVAL_S, time_kernel
    from workloads import Refused

    starts: list[float] = []
    latencies: list[float] = []
    kernels = [time_kernel()]
    failures: list[str] = []
    refused = wrong = 0
    rss = None
    while True:
        op = workload.next_op()
        problem = None
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            problem = op.run()
        except Refused as exc:
            refused += 1
            problem = f"refused: {exc}"
        except Exception:  # any other raise is a wrong answer; keep going
            wrong += 1
            problem = traceback.format_exc(limit=3).strip().splitlines()[-1]
        else:
            if problem is not None:
                wrong += 1
        finally:
            end = time.perf_counter()
            starts.append(start)
            latencies.append(end - start)
            if tracer is not None:
                tracer.active = False
        if end - kernels[-1][0] >= INTERVAL_S:
            kernels.append(time_kernel())
        if problem is not None and len(failures) < MAX_FAILURES_KEPT:
            failures.append(f"{op.label}: {problem}")
        if len(latencies) == MEMORY_OPS:
            rss = peak_rss_kb()
        if time.monotonic() >= deadline:
            break
    return {"starts": starts, "latencies": latencies, "kernels": kernels,
            "refused": refused, "wrong": wrong,
            "failures": failures, "peak_rss_kb": rss or peak_rss_kb()}


if __name__ == "__main__":
    raise SystemExit(main())
