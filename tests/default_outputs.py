"""Fingerprint the default outputs a change must leave byte-identical.

Runs every ``DEFAULT_OUTPUT_CASES`` case of ``test_cli`` in-process
through ``cli_main`` and prints one line per case: the SHA-256 of its
exit code, stdout and stderr, two spaces, and the case id.  The seeded
(2, 3, 4) state file goes into DIR; machine output echoes its path, so
compare two checkouts with the same DIR::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/default_outputs.py DIR
"""

from __future__ import annotations

import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from entwedge.cli import cli_main
from test_cli import DEFAULT_OUTPUT_CASES, DEFAULT_OUTPUT_COMMANDS, default_source


def fingerprints(directory: Path) -> list[str]:
    lines = []
    for param in DEFAULT_OUTPUT_CASES:
        name, command = param.values
        argv = [*DEFAULT_OUTPUT_COMMANDS[command], *default_source(directory, name)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(argv)
        digest = hashlib.sha256(repr((code, out.getvalue(), err.getvalue())).encode())
        lines.append(f"{digest.hexdigest()}  {param.id}")
    return lines


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: default_outputs.py DIR")
    print("\n".join(fingerprints(Path(sys.argv[1]))))
