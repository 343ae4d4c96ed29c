"""What ``fpsq kernel --model P`` prints for every built-in preset P.

For each preset of ``BUILTIN_MODEL_DESCRIPTORS``: the exit code, the CSV
bytes on stdout and the stderr text, so a preset that is refused is
recorded by its exit code and message.  The recorded file
``tests/data/kernel_rows.json`` pins them; ``tests/test_cli.py`` compares
against it.  Regenerate with

    PYTHONPATH=src python3 tests/kernel_rows.py > tests/data/kernel_rows.json
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

DATA_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "kernel_rows.json")


def kernel_outputs() -> dict:
    """preset -> {"exit": code, "stdout": CSV text, "stderr": text}."""
    from fpsq.cli import main
    from fpsq.scenarios import BUILTIN_MODEL_DESCRIPTORS

    out = {}
    for name in BUILTIN_MODEL_DESCRIPTORS:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["kernel", "--model", name])
        out[name] = {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
    return out


if __name__ == "__main__":
    json.dump(kernel_outputs(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
