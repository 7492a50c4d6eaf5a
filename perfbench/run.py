"""susyrad benchmark: one command, four seeded workloads, checked outputs.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli_cold, verify_suite, records_mix, eval_wide (see README.md).
With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run.  The line before
it is a report with every end-to-end figure (p90 and fail ratio included),
the listed failures and the environment the numbers were taken on.

The closed loop has one client and no extra threads.  In-process workloads
run in a worker process (worker.py) so set-up can be timed in fresh
interpreters; cli_cold starts one interpreter per invocation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("cli_cold", "verify_suite", "records_mix", "eval_wide")
SETUP_TRIALS = 5
CHILD_TIMEOUT = 60.0
# every child is killed in time for the whole run to end within 180 s
DEADLINE = time.perf_counter() + 170.0
WARMUP_ARGV = ["spectrum", "--n", "1..2"]


class BenchError(Exception):
    """The benchmark could not produce a result; exit nonzero without one."""


def child_env():
    env = dict(os.environ)
    env.pop("SUSYRAD_CONFIG", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(cmd, env, timeout=CHILD_TIMEOUT):
    """(exit code, stdout, stderr, wall seconds); the child is always reaped."""
    start = time.perf_counter()
    timeout = min(timeout, DEADLINE - start)
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"timed out after {timeout:g}s: {' '.join(cmd[1:4])}") from None
    return proc.returncode, out, err, time.perf_counter() - start


# --- in-process workloads ---------------------------------------------------------


def run_worker(args, env, mode):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--mode", mode]
    start = time.perf_counter()
    code, out, err, _ = run_child(cmd, env, timeout=args.seconds + 120.0)
    lines = out.splitlines()
    if code != 0 or not lines or not lines[0].startswith("READY "):
        raise BenchError(f"worker ({mode}) exited {code}: {err.strip()[-800:]}")
    setup = float(lines[0].split()[1]) - start
    result = json.loads(lines[-1]) if mode != "setup" else {}
    return result, setup


def reference_s(env):
    """Wall seconds of one reference invocation (reference.CLI_ARGV)."""
    code, _, err, wall = run_child([sys.executable] + reference.CLI_ARGV, env)
    if code != 0:
        raise BenchError(f"reference invocation exited {code}: {err.strip()[-800:]}")
    return wall


def set_up(env, trial):
    """(set-up seconds, seconds of the reference invocation run just before it)."""
    ref = reference_s(env)
    return trial(), ref


def in_process(args, env):
    """(result, [(set-up seconds, reference seconds)] for each trial).

    The extra set-up trials run half before and half after the timed run, so
    their median samples the host across the whole run.
    """
    if args.trace:
        result, setup = run_worker(args, env, "trace")
        return result, [(setup, reference_s(env))]
    before = (SETUP_TRIALS - 1) // 2
    setups = [set_up(env, lambda: run_worker(args, env, "setup")[1]) for _ in range(before)]
    ref = reference_s(env)
    result, setup = run_worker(args, env, "run")
    setups.append((setup, ref))
    setups += [set_up(env, lambda: run_worker(args, env, "setup")[1]) for _ in range(SETUP_TRIALS - 1 - before)]
    return result, setups


# --- cli_cold ---------------------------------------------------------------------


def parse_importtime(stderr):
    """Split -X importtime lines from stderr; return (ms per package, other stderr)."""
    entries, rest = [], []
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            parts = line[len("import time:"):].split("|")
            if not parts[0].strip().isdigit():
                continue  # the header line
            name = parts[2]
            depth = (len(name) - len(name.lstrip(" "))) // 2
            entries.append((int(parts[0]), int(parts[1]), name.strip(), depth))
        else:
            rest.append(line)
    # entries are in post-order; walking backwards gives each entry's ancestors
    stack, outer = [], {"numpy": 0, "scipy": 0, "click": 0}
    total = susy_self = 0
    for self_us, cumulative, name, depth in reversed(entries):
        del stack[depth:]
        top = name.split(".")[0]
        if depth == 0 and top != "tracer":
            total += cumulative
        if top == "susyrad":
            susy_self += self_us
        if top in outer and not any(a.split(".")[0] == top for a in stack):
            outer[top] += cumulative
        stack.append(name)
    ms = {"import.total_ms": total / 1e3, "import.susyrad_self_ms": susy_self / 1e3}
    ms.update({f"import.{k}_ms": v / 1e3 for k, v in outer.items()})
    return ms, "\n".join(rest)


def cli_invoke(entry, env, traced=False):
    if entry["out"] is not None and os.path.exists(entry["out"]):
        os.remove(entry["out"])
    cmd = [sys.executable] + (["-X", "importtime"] if traced else []) + [str(HERE / "cli_launch.py")]
    cmd += (["--trace"] if traced else []) + entry["argv"]
    code, out, err, wall = run_child(cmd, env)
    layers, imports = None, None
    if traced:
        imports, err = parse_importtime(err)
        kept = []
        for line in err.splitlines():
            if line.startswith("perfbench-layers: "):
                layers = json.loads(line[len("perfbench-layers: "):])
            else:
                kept.append(line)
        err = "\n".join(kept)
    return code, out, err, wall, layers, imports


def cli_loop(corpus, env, seconds, traced=False):
    """Cycle through the corpus until `seconds` pass and every entry has run once.

    Untraced loops interleave the reference invocation (reference.CLI_ARGV)
    for about a fifth of the loop's time.
    """
    outcomes = workloads.Outcomes(len(corpus))
    layer_runs, import_runs = [], []
    deadline = time.perf_counter() + seconds
    op_s = ref_s = 0.0
    while True:
        index = outcomes.operations % len(corpus)
        entry = corpus[index]
        start = time.perf_counter_ns()
        code, out, err, wall, layers, imports = cli_invoke(entry, env, traced)
        try:
            failure = workloads.check_cli(entry, code, out, err)
        except OSError as exc:
            failure = ("check", f"output unreadable: {exc!r}")
        outcomes.add(index, start, int(wall * 1e9), failure, lambda: workloads.describe_cli(entry))
        if layers is not None:
            layer_runs.append(layers)
        if imports is not None:
            import_runs.append(imports)
        op_s += wall
        while not traced and ref_s < reference.SHARE * op_s:
            start = time.perf_counter_ns()
            wall = reference_s(env)
            outcomes.add_reference(start, int(wall * 1e9))
            ref_s += wall
        if time.perf_counter() >= deadline and outcomes.covered():
            return {**outcomes.as_dict(), "layer_runs": layer_runs, "import_runs": import_runs}


def cli_setup(args, env, workdir):
    """Corpus generation plus one untimed warm-up invocation (fills the bytecode cache)."""
    start = time.perf_counter()
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    corpus = workloads.cli_corpus(args.seed, str(workdir))
    code, out, err, _ = run_child([sys.executable, str(HERE / "cli_launch.py")] + WARMUP_ARGV, env)
    if code != 0 or "# command: spectrum" not in out:
        raise BenchError(f"warm-up invocation exited {code}: {err.strip()[-800:]}")
    return corpus, time.perf_counter() - start


def cli_cold(args, env, workdir):
    """Set-up trials run half before and half after the timed loop, as in in_process."""
    trials = 1 if args.trace else SETUP_TRIALS
    before = (trials + 1) // 2
    setups = []
    for _ in range(before):
        ref = reference_s(env)
        corpus, setup = cli_setup(args, env, workdir)
        setups.append((setup, ref))
    if not args.trace:
        result = cli_loop(corpus, env, args.seconds)
    else:
        untraced = cli_loop(corpus, env, args.seconds / 2.0)
        result = cli_loop(corpus, env, args.seconds / 2.0, traced=True)
        result["untraced"] = untraced
        floor = [run_child([sys.executable, "-c", "pass"], env)[3] * 1e3 for _ in range(5)]
        result["interpreter_ms"] = statistics.median(floor)
    for _ in range(trials - before):
        setups.append(set_up(env, lambda: cli_setup(args, env, workdir)[1]))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return result, setups


# --- reporting --------------------------------------------------------------------


def passed_per_second(result):
    return workloads.summarize(result["case_times_ns"], result["case_ok"])[0]


def environment(args, ops):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy", "click"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **versions,
        "commit": git_commit(),
        "seed": args.seed,
        "seed_applies": args.workload != "verify_suite",
        "operations": ops,
        "seconds": args.seconds,
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(workload, timing, setups, peak_rss_mb):
    """Every end-to-end figure of one timed phase, raw and host-normalised.

    host_factor is the run's median reference time over its nominal time
    (reference.py); the norm_* figures come from operation times each divided
    by the host factor measured around that operation.  setup_s is the
    median over trials of each set-up time divided by the host factor of the
    CLI reference invocation run just before it, since set-up is mostly
    interpreter start and imports; setup_raw_s is the plain median.
    """
    cli_nominal = reference.NOMINAL_S["cli_cold"]
    setup_s = statistics.median(setup * cli_nominal / ref for setup, ref in setups)
    ops_per_s, latencies = workloads.summarize(timing["case_times_ns"], timing["case_ok"])
    cases = len(latencies)
    p50 = workloads.percentile(latencies, 0.5) if cases else None
    p90 = workloads.percentile(latencies, 0.9) if cases >= 100 else None
    refs = timing["ref_times_ns"]
    nominal_ns = reference.NOMINAL_S[workload] * 1e9
    norm_ops = norm_p50 = host = None
    if refs:
        host = statistics.median(refs) / nominal_ns
        scaled = workloads.host_normalised(timing, nominal_ns, reference.MARGIN_S[workload] * 1e9)
        norm_ops, norm_latencies = workloads.summarize(scaled, timing["case_ok"])
        norm_p50 = workloads.percentile(norm_latencies, 0.5) if cases else None
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "setup_raw_s": {"value": statistics.median(setup for setup, _ in setups), "unit": "s"},
        "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
        "latency_p50_ms": {"value": p50, "unit": "ms", "samples": cases, "operations": timing["operations"]},
        "latency_p90_ms": {"value": p90, "unit": "ms", "samples": cases,
                           **({} if cases >= 100 else {"note": "fewer than 100 passing cases in the run"})},
        "fail_ratio": {"value": timing["failed"] / timing["attempted"], "unit": "ratio"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "host_factor": {"value": host, "unit": "ratio", "samples": len(refs)},
        "norm_ops_per_s": {"value": norm_ops, "unit": "1/s"},
        "norm_latency_p50_ms": {"value": norm_p50, "unit": "ms"},
    }


def per_layer(args, result):
    extra = {"trace.overhead_ratio": passed_per_second(result) / max(passed_per_second(result["untraced"]), 1e-300)}
    ops = result["operations"]
    if args.workload == "cli_cold":
        agg = tracing.merge([run["aggregate"] for run in result["layer_runs"]])
        if result["import_runs"]:
            for key in result["import_runs"][0]:
                extra[key] = statistics.median(run[key] for run in result["import_runs"])
        if result["layer_runs"]:
            extra["cli.main_ms"] = statistics.median(run["main_ms"] for run in result["layer_runs"])
        extra["cli.interpreter_ms"] = result["interpreter_ms"]
    else:
        agg = result["aggregate"]
    return tracing.layer_metrics(agg, ops, extra)


CONTRACT_END_TO_END = ("setup_s", "norm_ops_per_s", "norm_latency_p50_ms", "peak_rss_mb")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "susyrad" / "__init__.py").is_file():
        print(f"perfbench: no susyrad package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.workload == "cli_cold":
            result, setups = cli_cold(args, env, workdir)
        else:
            result, setups = in_process(args, env)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # a traced run's end-to-end figures come from its untraced half
    phases = [result["untraced"], result] if args.trace else [result]
    kinds = {}
    for phase in phases:
        for kind, n in phase["failure_kinds"].items():
            kinds[kind] = kinds.get(kind, 0) + n
    attempted = sum(phase["attempted"] for phase in phases)
    failed = sum(kinds.values())
    unexpected = sum(n for kind, n in kinds.items() if kind not in checks.KNOWN_FAILURE_KINDS)
    e2e = end_to_end(args.workload, phases[0], setups, result["peak_rss_mb"])
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "end_to_end": e2e,
        "setup_trials_s": [setup for setup, _ in setups],
        "setup_reference_s": [ref for _, ref in setups],
        "failure_kinds": kinds,
        "unexpected_failures": unexpected,
        "failures": phases[0]["failures"],
        "distinct_cases": len(result["case_times_ns"]),
        "environment": environment(args, sum(phase["operations"] for phase in phases)),
    }
    if args.trace:
        metrics = per_layer(args, result)
        report["trace_file"] = result.get("trace_file")
        report["spans"] = result.get("spans")
    else:
        metrics = {name: {"value": e2e[name]["value"], "unit": e2e[name]["unit"]} for name in CONTRACT_END_TO_END}
    if any(m["value"] is None or not math.isfinite(m["value"]) for m in metrics.values()):
        print(f"perfbench: a metric could not be measured: {json.dumps(metrics)}", file=sys.stderr)
        return 1
    print("report: " + json.dumps(report))
    print(json.dumps({"correct": unexpected == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
