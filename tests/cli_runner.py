"""The one way tests run the `credal` command line, in process, checking its outcome contract on every call.

Any input ends in one of three ways, and never in a traceback:

- exit 0: stderr is empty and every number on stdout is finite;
- exit 1: stdout is empty and stderr is exactly one `Error:` line;
- exit 2: stdout is empty and stderr is the usage message: it starts with
  `Usage:` and its one `Error:` line is the last.
"""

import io
import re
import sys
import traceback
from math import isfinite
from typing import NamedTuple

from credal.cli import main

TOKEN = re.compile(r"[\s,:=(){}]+")


class Result(NamedTuple):
    exit_code: int | None  # None when `main` returned instead of exiting
    stdout: str
    stderr: str


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
    stdin = io.BytesIO(doc.encode() if isinstance(doc, str) else doc or b"")
    stdin.name = "<stdin>"
    streams = io.TextIOWrapper(stdin, encoding="utf-8"), io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = streams
    exit_code = crash = None
    try:
        main.main(list(argv))
    except SystemExit as exc:
        exit_code = exc.code
    except Exception:
        crash = traceback.format_exc()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    result = Result(exit_code, streams[1].getvalue(), streams[2].getvalue())
    where = f"credal {list(argv)} on\n{doc!r}\n-> {result.exit_code}: {result.stdout!r} {result.stderr!r}"
    if crash is not None:
        raise AssertionError(where + "\n" + crash)
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
