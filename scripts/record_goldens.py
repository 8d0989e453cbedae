#!/usr/bin/env python3
"""Rewrite tests/golden_cli.json from `tests.test_cli.record_golden`, and
tests/golden_usage.json from `tests.test_usage.record_usage`.

Run from anywhere as `PYTHONPATH=src python3 scripts/record_goldens.py`,
and only for an intended change of a command's output or of the command
line; the diff of the files then shows exactly which outputs changed.
`test_golden_outputs` and `test_usage_outputs` check the files.
"""

import json
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))  # the `tests` package

from tests import test_cli, test_usage  # noqa: E402


def main():
    with tempfile.TemporaryDirectory() as tmp:
        golden = test_cli.record_golden(pathlib.Path(tmp))
    for path, runs in ((test_cli.GOLDEN, golden), (test_usage.GOLDEN, test_usage.record_usage())):
        path.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
        print("wrote", path.relative_to(ROOT))


if __name__ == "__main__":
    main()
