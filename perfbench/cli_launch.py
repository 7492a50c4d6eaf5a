"""Run one susyrad CLI invocation from the uninstalled ``src/`` layout.

Usage: python3 perfbench/cli_launch.py [--trace] VERB [ARGS...]

The package is not installed and ``python -m susyrad.cli`` runs nothing (the
module has no ``__main__`` block), so this calls ``susyrad.cli:main`` itself.
With ``--trace`` it wraps the program's entry points after import, times
``main`` and writes one ``perfbench-layers: {json}`` line to stderr.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS_PREFIX = "perfbench-layers: "


def main():
    argv = sys.argv[1:]
    trace = bool(argv) and argv[0] == "--trace"
    if trace:
        argv = argv[1:]
    sys.path.insert(0, str(ROOT / "src"))
    from susyrad.cli import main as cli_main

    if not trace:
        cli_main(args=argv, prog_name="susyrad")
        return

    import json
    import time

    import tracer as tracing

    tracer = tracing.Tracer()
    tracing.install_warning_counter(lambda: tracer)
    tracer.install()
    tracer.op_id = 0
    start = time.perf_counter_ns()
    try:
        cli_main(args=argv, prog_name="susyrad")
    finally:
        main_ms = (time.perf_counter_ns() - start) / 1e6
        tracer.restore()
        payload = {"main_ms": main_ms, "aggregate": tracer.aggregate()}
        sys.stderr.write(LAYERS_PREFIX + json.dumps(payload) + "\n")


if __name__ == "__main__":
    main()
