"""Run the CLI in-process with its streams captured, for the tests.

`invoke(main, args, env=None)` runs `main(args=args, prog_name="susyrad")`
and returns a `Result`: the exit code, stdout, stderr, both streams in the
order they were written (`output`), and the exception the run ended in:
None after exit 0, the `SystemExit` after a nonzero exit, or any other
exception, which counts as exit 1.  `env` sets environment variables for the
run, and a value of None removes one.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    output: str
    exception: BaseException | None


class _Stream(io.StringIO):
    """One captured stream; what it is given also goes to the shared `output`."""

    def __init__(self, output):
        super().__init__()
        self.output = output

    def write(self, text):
        self.output.write(text)
        return super().write(text)


def _set_environment(values):
    for name, value in values.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value


@contextlib.contextmanager
def _environment(env):
    saved = {name: os.environ.get(name) for name in env}
    _set_environment(env)
    try:
        yield
    finally:
        _set_environment(saved)


def invoke(main, args, env=None):
    output = io.StringIO()
    stdout, stderr = _Stream(output), _Stream(output)
    code, exception = 0, None
    with _environment(env or {}), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            main(args=list(args), prog_name="susyrad")
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
            exception = exc if code else None
        except Exception as exc:  # a traceback the CLI let through; the tests assert there is none
            code, exception = 1, exc
    return Result(code, stdout.getvalue(), stderr.getvalue(), output.getvalue(), exception)
