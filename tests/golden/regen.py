"""Golden CLI corpus: replay every case in process, and rewrite its results.

``cases.json`` lists the cases, one ``{"name", "argv"}`` object per line;
an argv names its input files as ``inputs/<file>``, relative to this
directory.  ``expected.json`` holds the exit code, stdout and stderr of
each case.  ``tests/test_golden.py`` replays the cases and compares them
with ``expected.json`` byte for byte; after a declared output change,
rewrite that file from the current tree with

    PYTHONPATH=src python tests/golden/regen.py

and review the diff.  A case that ends in an uncaught exception is never
recorded.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from click.testing import CliRunner

from ordlab.cli import main

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"


def load_cases():
    return json.loads((HERE / "cases.json").read_text(encoding="utf-8"))


def replay(cases):
    """{name: {"exit_code", "stdout", "stderr"}} of every case, in case order."""
    runner = CliRunner()
    results = {}
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        for case in cases:
            # a fixed width, so help texts do not follow the terminal
            result = runner.invoke(main, case["argv"], prog_name="ordlab",
                                   terminal_width=80)
            if not isinstance(result.exception, (SystemExit, type(None))):
                raise RuntimeError(
                    f"case {case['name']!r} raised {result.exception!r}"
                ) from result.exception
            results[case["name"]] = {
                "exit_code": result.exit_code,
                "stdout": result.stdout,
                "stderr": result.stderr,
            }
    finally:
        os.chdir(cwd)
    return results


def main_regen():
    results = replay(load_cases())
    text = json.dumps(results, indent=1, ensure_ascii=False) + "\n"
    EXPECTED.write_text(text, encoding="utf-8")
    print(f"wrote {len(results)} cases to {EXPECTED}")


if __name__ == "__main__":
    main_regen()
