"""Fixed reference work that measures the host's speed beside the program.

The benchmark runs on shared virtual machines whose speed drifts by up to
about 2x for minutes at a time.  Each timed loop therefore interleaves a
reference kernel with the program's operations: the kernel never touches
susyrad, so its time moves only with the host.  Each operation's time is
scaled by (nominal kernel time) / (median time of the kernel samples taken
around it), i.e. what it would have read with the host at its nominal speed.

Each workload gets a kernel of the same kind of work as its operations:
Python-level formatting and small arrays for records, vectorised recurrences
on long arrays for state evaluation, many numpy calls on short arrays for the
verify suite's quadrature, and a fresh interpreter importing numpy and click
for the CLI.  The nominal times are the
kernels' median times over the runs this benchmark was calibrated with, on a
2-vCPU Xeon VM (Python 3.11, numpy 2.4); they fix the units and cancel in
any comparison between commits.
"""

from __future__ import annotations

import json
import math

import numpy as np

_X = np.linspace(0.01, 40.0, 20_000)
_SMALL = np.linspace(0.05, 12.0, 200)


def python_kernel():
    """Record-like work: small arrays, float formatting, dicts, JSON and CSV text."""
    rows = []
    for k in range(12):
        y = np.exp(-_SMALL / (k + 1.0)) * _SMALL ** (k % 4)
        cells = [f"{v:.17g}" for v in y[::4].tolist()]
        rows.append(",".join(cells))
        meta = {"k": k, "sum": float(y.sum()), "max": float(y.max()), "finite": bool(np.all(np.isfinite(y)))}
        rows.append(json.dumps(meta, sort_keys=True))
        rows.append(repr(math.fsum(y.tolist())))
    return len("\n".join(rows))


_BUFFERS = np.empty((5, _X.size))


def numpy_kernel():
    """Evaluation-like work: a three-term recurrence and a power-exponential on 2e4 points.

    It works in preallocated buffers, so its time does not depend on the
    allocator state the program's own large arrays leave behind.
    """
    prev, cur, nxt, tmp, env = _BUFFERS
    a = 1.5
    prev.fill(1.0)
    np.subtract(1.0 + a, _X, out=cur)
    for k in range(1, 24):
        np.subtract(2 * k + 1 + a, _X, out=nxt)
        nxt *= cur
        np.multiply(prev, k + a, out=tmp)
        nxt -= tmp
        nxt /= k + 1
        prev, cur, nxt = cur, nxt, prev
    np.power(_X, a + 0.5, out=env)
    np.multiply(_X, -0.5, out=tmp)
    np.exp(tmp, out=tmp)
    env *= tmp
    env *= cur
    return float(np.max(np.abs(env, out=env)))


_NODES = np.linspace(0.01, 30.0, 512)


def quadrature_kernel():
    """Quadrature-like work: many numpy calls on arrays of a few hundred points,
    where interpreter overhead and arithmetic weigh about the same."""
    total = 0.0
    for panel in range(8):
        t = _NODES * (1.0 + 0.1 * panel)
        prev, cur = np.ones_like(t), 2.5 - t
        for k in range(1, 10):
            prev, cur = cur, ((2 * k + 2.5 - t) * cur - (k + 1.5) * prev) / (k + 1)
        f = np.power(t, 2.0) * np.exp(-0.5 * t) * cur
        total += float(np.sum(f * f)) + float(np.max(np.abs(f)))
    return total


# reference time kept to about this share of the program's time in a run
SHARE = 0.25

IN_PROCESS = {"records_mix": python_kernel, "eval_wide": numpy_kernel, "verify_suite": quadrature_kernel}

# median seconds of one call over the calibration runs (see the module docstring)
NOMINAL_S = {"records_mix": 1.33e-3, "eval_wide": 1.31e-3, "verify_suite": 0.90e-3, "cli_cold": 0.20}

# reference samples started within this many seconds of an operation gauge the host around it
MARGIN_S = {"records_mix": 0.05, "eval_wide": 0.05, "verify_suite": 0.05, "cli_cold": 1.0}

# the CLI reference: a fresh interpreter importing the program's own dependencies
CLI_ARGV = ["-c", "import numpy, click"]
