"""One in-process workload run: set up, warm up, then measure.

Usage (started by run.py, one process per run):
  python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode setup|run|trace

Prints ``READY <perf_counter>`` once import, input generation and one
untimed warm-up operation are done, then (modes run and trace) one JSON line
with the measurements.  Mode ``setup`` exits after READY; run.py uses it to
time set-up more than once per run.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import reference
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = ROOT / ".bench_work" / "traces"


def import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import susyrad

    location = Path(susyrad.__file__).resolve()
    if ROOT / "src" not in location.parents:
        raise SystemExit(f"susyrad imported from {location}, not from this checkout's src/")


def timed_loop(workload, seconds, tracer=None, kernel=None):
    """Closed loop, one client: cycle through the cases until `seconds` pass
    and every case has run at least once.

    Latency covers the program call only; the output check runs after the
    clock stops.  `kernel`, when given, is the host-speed reference: it runs
    between operations for about a fifth of the loop's time.
    """
    cases = workload.cases
    outcomes = workloads.Outcomes(len(cases))
    deadline = time.perf_counter() + seconds
    op_ns = ref_ns = 0
    while True:
        index = outcomes.operations % len(cases)
        case = cases[index]
        if tracer is not None:
            tracer.op_id = outcomes.operations
        start = time.perf_counter_ns()
        try:
            result, failure = workload.run(case), None
        except Exception as exc:  # an unexpected exception is a failed operation
            result, failure = None, ("exception", repr(exc))
        elapsed = time.perf_counter_ns() - start
        if tracer is not None:
            tracer.op_id = -1
        if failure is None:
            try:
                failure = workload.check(case, result)
            except Exception as exc:
                failure = ("check", f"check raised {exc!r}")
        outcomes.add(index, start, elapsed, failure, lambda: workload.describe(case))
        op_ns += elapsed
        while kernel is not None and ref_ns < reference.SHARE * op_ns:
            start = time.perf_counter_ns()
            kernel()
            elapsed = time.perf_counter_ns() - start
            outcomes.add_reference(start, elapsed)
            ref_ns += elapsed
        if time.perf_counter() >= deadline and outcomes.covered():
            return outcomes.as_dict()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args()

    import_program()
    live = {"tracer": None}
    tracing.install_warning_counter(lambda: live["tracer"])
    workload = workloads.IN_PROCESS[args.workload](args.seed)
    workload.check(workload.warmup, workload.run(workload.warmup))
    print(f"READY {time.perf_counter()!r}", flush=True)
    if args.mode == "setup":
        return

    if args.mode == "run":
        kernel = reference.IN_PROCESS[args.workload]
        kernel()  # its first call pays one-off costs
        out = timed_loop(workload, args.seconds, kernel=kernel)
    else:
        half = args.seconds / 2.0
        untraced = timed_loop(workload, half)
        tracer = tracing.Tracer()
        tracer.install()
        live["tracer"] = tracer
        try:
            out = timed_loop(workload, half, tracer)
        finally:
            live["tracer"] = None
            tracer.restore()
        out["untraced"] = untraced
        out["aggregate"] = tracer.aggregate()
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        path = TRACE_DIR / f"{args.workload}-seed{args.seed}.npz"
        tracer.write(path)
        out["trace_file"] = str(path.relative_to(ROOT))
        out["spans"] = len(tracer.start)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
