"""The one way tests run the `credal` command line, in process, checking its outcome contract on every call.

Any input ends in one of three ways, and never in a traceback:

- exit 0: stderr is empty and every number on stdout is finite;
- exit 1: stdout is empty and stderr is exactly one `Error:` line;
- exit 2: stdout is empty and stderr is click's usage message: it starts
  with `Usage:` and its one `Error:` line is the last.
"""

import re
import traceback
from math import isfinite

from click.testing import CliRunner, Result

from credal.cli import main

TOKEN = re.compile(r"[\s,:=(){}]+")


def non_finite(text: str) -> list[str]:
    """The number tokens of `text` that read as infinite or NaN.

    credal prints a non-finite value as `inf` or `nan`, so an integer token
    is a scale point or a count; one past float range is a scale point's
    label, not a result, and is let through.
    """
    bad = []
    for token in TOKEN.split(text):
        try:
            value = float(token)
        except ValueError:
            continue
        if not (isfinite(value) or token.lstrip("-").isdigit()):
            bad.append(token)
    return bad


def credal(*argv: str, doc: str | bytes | None = None) -> Result:
    """Run `credal --doc - ARGV` with `doc` on stdin, or `credal ARGV` when there is no `doc`."""
    if doc is not None:
        argv = ("--doc", "-", *argv)
    result = CliRunner().invoke(main, argv, input=doc)
    where = f"credal {list(argv)} on\n{doc!r}\n-> {result.exit_code}: {result.stdout!r} {result.stderr!r}"
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise AssertionError(where + "\n" + "".join(traceback.format_exception(*result.exc_info)))
    lines = result.stderr.splitlines()
    if result.exit_code == 0:
        assert result.stderr == "", where
        assert non_finite(result.stdout) == [], where
    else:
        assert result.stdout == "", where
        assert [line for line in lines if line.startswith("Error: ")] == lines[-1:], where
        if result.exit_code == 1:
            assert len(lines) == 1, where
        else:
            assert result.exit_code == 2, where
            assert lines and lines[0].startswith("Usage: "), where
    return result
